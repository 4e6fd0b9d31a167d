//! Property tests: the binary codec round-trips every model object exactly,
//! and never panics on corrupted input.

use hrdm_core::prelude::*;
use hrdm_storage::{Decoder, Encoder, Wal, WalRecord};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(|f| Value::float(f).expect("finite")),
        // Up to 300 bytes: lengths from 128 on take two-byte varints.
        "[a-zA-Z0-9 ]{0,300}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(Value::time),
    ]
}

fn lifespan_strategy() -> impl Strategy<Value = Lifespan> {
    prop::collection::vec((-500i64..500, 0i64..40), 0..6).prop_map(|pairs| {
        Lifespan::from_intervals(
            pairs
                .into_iter()
                .map(|(lo, len)| Interval::of(lo, lo + len)),
        )
    })
}

fn temporal_strategy() -> impl Strategy<Value = TemporalValue> {
    prop::collection::vec(((0i64..200), 0i64..10, value_strategy()), 0..6).prop_map(|raw| {
        let mut segs = Vec::new();
        let mut cursor = 0i64;
        let mut sorted = raw;
        sorted.sort_by_key(|(lo, _, _)| *lo);
        for (lo, len, v) in sorted {
            let lo = lo.max(cursor);
            let hi = lo + len;
            segs.push((Interval::of(lo, hi), v));
            cursor = hi + 2;
        }
        TemporalValue::from_segments(segs).expect("disjoint by construction")
    })
}

/// The tuple `K = k` over `life`, `V` clipped to it: tuples a relation
/// would store (values canonical and within the lifespan).
fn stored_tuple(k: i64, life: Lifespan, tv: &TemporalValue) -> Tuple {
    let mut values = std::collections::BTreeMap::new();
    values.insert(
        Attribute::new("K"),
        TemporalValue::constant(&life, Value::Int(k)),
    );
    values.insert(Attribute::new("V"), tv.restrict(&life));
    Tuple::from_parts(life, values)
}

/// `t|_L` rebuilt from parts, value by value (a fresh allocation, so
/// comparing against it compares deeply).
fn rebuilt_restriction(t: &Tuple, window: &Lifespan) -> Tuple {
    let life = t.lifespan().intersect(window);
    let values = t
        .entries()
        .map(|(a, tv)| (a.clone(), tv.restrict(&life)))
        .collect();
    Tuple::from_parts(life, values)
}

/// Logs one insert per tuple to a fresh WAL and replays it.
fn wal_round_trip(tuples: &[Tuple]) -> Vec<Tuple> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("hrdm-canonical-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let mut wal = Wal::open(&path).unwrap();
    for t in tuples {
        wal.append(&WalRecord::Insert {
            relation: "r".to_string(),
            tuple: t.clone(),
        })
        .unwrap();
    }
    drop(wal);
    let (records, _) = Wal::replay(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    records
        .into_iter()
        .filter_map(|r| match r {
            WalRecord::Insert { tuple, .. } => Some(tuple),
            _ => None,
        })
        .collect()
}

proptest! {
    // Every case fsyncs its WAL once per tuple: fewer cases.
    #![proptest_config(ProptestConfig::from_env_or(32))]

    /// Every tuple the codec hands back — decoded bare, against a scheme,
    /// or replayed from a WAL — is canonical: rebuilding its restriction
    /// to its own lifespan value by value gives it back. `Tuple::restrict`
    /// returns the shared tuple whenever the window covers `t.l`, and
    /// relies on exactly this for stored tuples.
    #[test]
    fn decoded_tuples_are_canonical(
        specs in prop::collection::vec((lifespan_strategy(), temporal_strategy()), 1..6),
    ) {
        let tuples: Vec<Tuple> = specs
            .iter()
            .enumerate()
            .map(|(k, (life, tv))| stored_tuple(k as i64, life.clone(), tv))
            .collect();
        let scheme = Scheme::builder()
            .key_attr("K", ValueKind::Int, Lifespan::interval(0, 10))
            .attr("V", HistoricalDomain::int(), Lifespan::interval(0, 10))
            .build()
            .unwrap();
        let mut decoded = wal_round_trip(&tuples);
        for t in &tuples {
            let mut e = Encoder::new();
            e.put_tuple(t);
            let bytes = e.finish();
            decoded.push(Decoder::new(&bytes).get_tuple().unwrap());
            decoded.push(Decoder::new(&bytes).get_tuple_in(&scheme).unwrap());
        }
        prop_assert_eq!(decoded.len(), 3 * tuples.len());
        for t in &decoded {
            prop_assert!(tuples.contains(t), "{} was never written", t);
            prop_assert_eq!(&rebuilt_restriction(t, t.lifespan()), t);
        }
    }
}

proptest! {
    #[test]
    fn value_round_trip(v in value_strategy()) {
        let mut e = Encoder::new();
        e.put_value(&v);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        prop_assert_eq!(d.get_value().unwrap(), v);
        prop_assert!(d.is_done());
    }

    #[test]
    fn lifespan_round_trip(ls in lifespan_strategy()) {
        let mut e = Encoder::new();
        e.put_lifespan(&ls);
        let bytes = e.finish();
        prop_assert_eq!(Decoder::new(&bytes).get_lifespan().unwrap(), ls);
    }

    #[test]
    fn temporal_value_round_trip(tv in temporal_strategy()) {
        let mut e = Encoder::new();
        e.put_temporal_value(&tv);
        let bytes = e.finish();
        prop_assert_eq!(Decoder::new(&bytes).get_temporal_value().unwrap(), tv);
    }

    #[test]
    fn varints_round_trip(u in any::<u64>(), i in any::<i64>()) {
        let mut e = Encoder::new();
        e.put_u64(u);
        e.put_i64(i);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        prop_assert_eq!(d.get_u64().unwrap(), u);
        prop_assert_eq!(d.get_i64().unwrap(), i);
    }

    #[test]
    fn truncated_input_errors_not_panics(tv in temporal_strategy(), cut_frac in 0.0f64..1.0) {
        let mut e = Encoder::new();
        e.put_temporal_value(&tv);
        let bytes = e.finish();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            // Must return an error (or, for prefix-complete cuts, a value) —
            // but never panic.
            let _ = Decoder::new(&bytes[..cut]).get_temporal_value();
        }
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut d = Decoder::new(&bytes);
        let _ = d.get_value();
        let mut d = Decoder::new(&bytes);
        let _ = d.get_lifespan();
        let mut d = Decoder::new(&bytes);
        let _ = d.get_temporal_value();
        let mut d = Decoder::new(&bytes);
        let _ = d.get_scheme();
        let mut d = Decoder::new(&bytes);
        let _ = d.get_tuple();
    }

    #[test]
    fn tuple_round_trip(life in lifespan_strategy(), tv in temporal_strategy()) {
        let mut values = std::collections::BTreeMap::new();
        values.insert(Attribute::new("A"), tv);
        let t = Tuple::from_parts(life, values);
        let mut e = Encoder::new();
        e.put_tuple(&t);
        let bytes = e.finish();
        prop_assert_eq!(Decoder::new(&bytes).get_tuple().unwrap(), t.clone());
        // Decoding against a scheme only changes where attribute names
        // are stored — whether or not the scheme knows them.
        for name in ["A", "B"] {
            let scheme = Scheme::builder()
                .attr(name, HistoricalDomain::int(), Lifespan::interval(0, 10))
                .build()
                .unwrap();
            prop_assert_eq!(Decoder::new(&bytes).get_tuple_in(&scheme).unwrap(), t.clone());
        }
    }

    /// Decoded tuples obey the representation laws of `model_props`: they
    /// behave as the name-keyed map they were written from — `value(a)`
    /// is its lookup, `attributes()` its sorted keys — and equality and
    /// hashing ignore which layout allocation they hold.
    #[test]
    fn decoded_tuples_behave_as_maps(
        life in lifespan_strategy(),
        entries in prop::collection::vec(("[A-E]", temporal_strategy()), 0..6),
    ) {
        use std::collections::BTreeMap;
        use std::hash::{BuildHasher, RandomState};
        let want: BTreeMap<Attribute, TemporalValue> =
            entries.into_iter().map(|(n, tv)| (Attribute::new(n), tv)).collect();
        let mut e = Encoder::new();
        e.put_tuple(&Tuple::from_parts(life.clone(), want.clone()));
        let bytes = e.finish();
        let scheme = Scheme::builder()
            .attr("E", HistoricalDomain::int(), Lifespan::interval(0, 10))
            .attr("B", HistoricalDomain::int(), Lifespan::interval(0, 10))
            .build()
            .unwrap();
        let keys = RandomState::new();
        for t in [
            Decoder::new(&bytes).get_tuple().unwrap(),
            Decoder::new(&bytes).get_tuple_in(&scheme).unwrap(),
        ] {
            let names: Vec<&Attribute> = t.attributes().collect();
            prop_assert!(names.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(names, want.keys().collect::<Vec<_>>());
            for n in ["A", "B", "C", "D", "E", "Q"] {
                let a = Attribute::new(n);
                prop_assert_eq!(t.value(&a), want.get(&a));
            }
            let copy = Tuple::from_parts(life.clone(), want.clone());
            prop_assert!(!copy.layout().same(t.layout()));
            prop_assert_eq!(&copy, &t);
            prop_assert_eq!(keys.hash_one(&copy), keys.hash_one(&t));
        }
    }
}

/// Runs of a lifespan or clip over the stretch the values live on.
fn runs_strategy() -> impl Strategy<Value = Lifespan> {
    prop::collection::vec((0i64..300, 0i64..40), 0..5).prop_map(|pairs| {
        Lifespan::from_intervals(
            pairs
                .into_iter()
                .map(|(lo, len)| Interval::of(lo, lo + len)),
        )
    })
}

/// Back-to-back segments over two values, each one chronon after the last
/// or after a one-chronon gap: equal values split by a gap, the case a
/// clip must not merge.
fn striped_strategy() -> impl Strategy<Value = TemporalValue> {
    prop::collection::vec((1i64..30, 0i64..2, 0i64..2), 1..10).prop_map(|raw| {
        let mut segs = Vec::new();
        let mut lo = 0i64;
        for (len, gap, v) in raw {
            segs.push((Interval::of(lo, lo + len - 1), Value::Int(v)));
            lo += len + gap;
        }
        TemporalValue::from_segments(segs).expect("disjoint by construction")
    })
}

proptest! {
    /// A restriction view writes exactly the bytes of the restricted
    /// tuple it stands for, over multi-run lifespans and clips, clips that
    /// cover `t.l` or miss it, and equal values split by gaps.
    #[test]
    fn clipped_views_encode_as_their_restriction(
        life in runs_strategy(),
        v in striped_strategy(),
        w in temporal_strategy(),
        shape in 0u8..4,
        random in runs_strategy(),
    ) {
        use hrdm_core::ClippedTuple;
        let mut values = std::collections::BTreeMap::new();
        values.insert(Attribute::new("V"), v.restrict(&life));
        values.insert(Attribute::new("W"), w.restrict(&life));
        let t = Tuple::from_parts(life.clone(), values);
        let hull = life.hull().unwrap_or(Interval::of(0, 0));
        let (lo, hi) = (hull.lo().tick(), hull.hi().tick());
        let clip = match shape {
            0 => Lifespan::interval(lo - 3, hi + 3),
            1 => Lifespan::of(&[(lo - 50, lo - 1), (hi + 1, hi + 50)]),
            _ => random,
        };
        let view = ClippedTuple::new(t.clone(), clip.clone());
        let restricted = t.restrict(&clip);
        let mut viewed = Encoder::new();
        viewed.put_tuple(&view);
        let mut built = Encoder::new();
        built.put_tuple(&restricted);
        prop_assert_eq!(viewed.finish(), built.finish());
        prop_assert_eq!(view.lifespan(), restricted.lifespan());
        prop_assert_eq!(view.into_tuple(), restricted);
    }
}

proptest! {
    /// Views whose bytes need every wide case at once: a name longer than
    /// a one-byte length, values and chronons of up to ten-byte varints,
    /// and a clip that cuts a function into 128 or more pieces, so the
    /// piece count is a two-byte varint patched in after the pieces. A
    /// hole of one chronon never swallows a segment of two or more, so
    /// every segment leaves at least one piece. The names, stripes (2–5
    /// chronons each, from an arbitrary base) and values are arbitrary.
    /// The view writes the bytes of its restriction, and they decode back
    /// to it.
    #[test]
    fn wide_views_encode_as_their_restriction(
        name in "[A-Z]{128,299}",
        base in any::<i64>(),
        stripes in prop::collection::vec((2i64..6, 0i64..2, any::<i64>()), 130..300),
        holes in prop::collection::vec(1i64..259, 1..6),
        s in "[a-z]{0,300}",
    ) {
        use hrdm_core::ClippedTuple;
        // Room above the base for the ≤ 300 × 6 chronons of stripes.
        let base = base.min(i64::MAX - 4096);
        let mut segs = Vec::new();
        let mut lo = base;
        for (len, gap, v) in stripes {
            segs.push((Interval::of(lo, lo + len - 1), Value::Int(v)));
            lo += len + gap;
        }
        let f = TemporalValue::from_segments(segs).expect("disjoint by construction");
        let life = Lifespan::interval(base, lo);
        let mut values = std::collections::BTreeMap::new();
        values.insert(Attribute::new(name.as_str()), f);
        values.insert(
            Attribute::new("S"),
            TemporalValue::constant(&life, Value::str(s.as_str())),
        );
        let t = Tuple::from_parts(life.clone(), values);
        let holes = holes.iter().map(|&h| Interval::of(base + h, base + h));
        let clip = life.difference(&Lifespan::from_intervals(holes));
        prop_assert!(clip.interval_count() > 1);
        let view = ClippedTuple::new(t.clone(), clip.clone());
        let restricted = t.restrict(&clip);
        let pieces = restricted.value(&Attribute::new(name.as_str())).unwrap();
        prop_assert!(pieces.segment_count() >= 128);
        let mut viewed = Encoder::new();
        viewed.put_tuple(&view);
        let mut built = Encoder::new();
        built.put_tuple(&restricted);
        let bytes = viewed.finish();
        prop_assert_eq!(&bytes, &built.finish());
        let mut d = Decoder::new(&bytes);
        prop_assert_eq!(d.get_tuple().unwrap(), restricted);
        prop_assert!(d.is_done());
    }
}

/// `V = i mod 2` on each chronon `i` of `[0, 139]`, seen through
/// `[0, 69] ∪ [72, 139]`: 138 pieces.
fn wide_golden_view() -> hrdm_core::ClippedTuple {
    let segs = (0..140).map(|i| (Interval::of(i, i), Value::Int(i % 2)));
    let mut values = std::collections::BTreeMap::new();
    values.insert(
        Attribute::new("V"),
        TemporalValue::from_segments(segs).unwrap(),
    );
    let t = Tuple::from_parts(Lifespan::interval(0, 139), values);
    hrdm_core::ClippedTuple::new(t, Lifespan::of(&[(0, 69), (72, 139)]))
}

/// `put_tuple`'s bytes for [`wide_golden_view`], as written when every
/// clipped function was counted before it was written: the piece count
/// 138 is the two-byte varint `138, 1`.
const WIDE_GOLDEN: &[u8] = &[
    2, 0, 69, 144, 1, 67, 1, 1, 86, 138, 1, 0, 0, 0, 0, 2, 0, 0, 2, 4, 0, 0, 0, 6, 0, 0, 2, 8, 0,
    0, 0, 10, 0, 0, 2, 12, 0, 0, 0, 14, 0, 0, 2, 16, 0, 0, 0, 18, 0, 0, 2, 20, 0, 0, 0, 22, 0, 0,
    2, 24, 0, 0, 0, 26, 0, 0, 2, 28, 0, 0, 0, 30, 0, 0, 2, 32, 0, 0, 0, 34, 0, 0, 2, 36, 0, 0, 0,
    38, 0, 0, 2, 40, 0, 0, 0, 42, 0, 0, 2, 44, 0, 0, 0, 46, 0, 0, 2, 48, 0, 0, 0, 50, 0, 0, 2, 52,
    0, 0, 0, 54, 0, 0, 2, 56, 0, 0, 0, 58, 0, 0, 2, 60, 0, 0, 0, 62, 0, 0, 2, 64, 0, 0, 0, 66, 0,
    0, 2, 68, 0, 0, 0, 70, 0, 0, 2, 72, 0, 0, 0, 74, 0, 0, 2, 76, 0, 0, 0, 78, 0, 0, 2, 80, 0, 0,
    0, 82, 0, 0, 2, 84, 0, 0, 0, 86, 0, 0, 2, 88, 0, 0, 0, 90, 0, 0, 2, 92, 0, 0, 0, 94, 0, 0, 2,
    96, 0, 0, 0, 98, 0, 0, 2, 100, 0, 0, 0, 102, 0, 0, 2, 104, 0, 0, 0, 106, 0, 0, 2, 108, 0, 0, 0,
    110, 0, 0, 2, 112, 0, 0, 0, 114, 0, 0, 2, 116, 0, 0, 0, 118, 0, 0, 2, 120, 0, 0, 0, 122, 0, 0,
    2, 124, 0, 0, 0, 126, 0, 0, 2, 128, 1, 0, 0, 0, 130, 1, 0, 0, 2, 132, 1, 0, 0, 0, 134, 1, 0, 0,
    2, 136, 1, 0, 0, 0, 138, 1, 0, 0, 2, 144, 1, 0, 0, 0, 146, 1, 0, 0, 2, 148, 1, 0, 0, 0, 150, 1,
    0, 0, 2, 152, 1, 0, 0, 0, 154, 1, 0, 0, 2, 156, 1, 0, 0, 0, 158, 1, 0, 0, 2, 160, 1, 0, 0, 0,
    162, 1, 0, 0, 2, 164, 1, 0, 0, 0, 166, 1, 0, 0, 2, 168, 1, 0, 0, 0, 170, 1, 0, 0, 2, 172, 1, 0,
    0, 0, 174, 1, 0, 0, 2, 176, 1, 0, 0, 0, 178, 1, 0, 0, 2, 180, 1, 0, 0, 0, 182, 1, 0, 0, 2, 184,
    1, 0, 0, 0, 186, 1, 0, 0, 2, 188, 1, 0, 0, 0, 190, 1, 0, 0, 2, 192, 1, 0, 0, 0, 194, 1, 0, 0,
    2, 196, 1, 0, 0, 0, 198, 1, 0, 0, 2, 200, 1, 0, 0, 0, 202, 1, 0, 0, 2, 204, 1, 0, 0, 0, 206, 1,
    0, 0, 2, 208, 1, 0, 0, 0, 210, 1, 0, 0, 2, 212, 1, 0, 0, 0, 214, 1, 0, 0, 2, 216, 1, 0, 0, 0,
    218, 1, 0, 0, 2, 220, 1, 0, 0, 0, 222, 1, 0, 0, 2, 224, 1, 0, 0, 0, 226, 1, 0, 0, 2, 228, 1, 0,
    0, 0, 230, 1, 0, 0, 2, 232, 1, 0, 0, 0, 234, 1, 0, 0, 2, 236, 1, 0, 0, 0, 238, 1, 0, 0, 2, 240,
    1, 0, 0, 0, 242, 1, 0, 0, 2, 244, 1, 0, 0, 0, 246, 1, 0, 0, 2, 248, 1, 0, 0, 0, 250, 1, 0, 0,
    2, 252, 1, 0, 0, 0, 254, 1, 0, 0, 2, 128, 2, 0, 0, 0, 130, 2, 0, 0, 2, 132, 2, 0, 0, 0, 134, 2,
    0, 0, 2, 136, 2, 0, 0, 0, 138, 2, 0, 0, 2, 140, 2, 0, 0, 0, 142, 2, 0, 0, 2, 144, 2, 0, 0, 0,
    146, 2, 0, 0, 2, 148, 2, 0, 0, 0, 150, 2, 0, 0, 2,
];

#[test]
fn wide_clipped_view_bytes_match_the_golden_record() {
    let view = wide_golden_view();
    let mut e = Encoder::new();
    e.put_tuple(&view);
    assert_eq!(e.finish(), WIDE_GOLDEN);
    assert_eq!(
        Decoder::new(WIDE_GOLDEN).get_tuple().unwrap(),
        view.into_tuple()
    );
}

proptest! {
    /// The windowed scan's lifespan probe answers exactly what decoding
    /// the lifespan and intersecting would, and reports its hull as
    /// decoding's `first()`/`last()`: on every stored record, over
    /// multi-run and empty lifespans, multi-run windows (a ∪ query's
    /// window) and no window at all, it leaves the cursor where decoding
    /// would, errs on any cut of the lifespan's bytes, and errs on garbage
    /// exactly when decoding does — never panicking.
    #[test]
    fn lifespan_probe_agrees_with_decoding(
        life in lifespan_strategy(),
        tv in temporal_strategy(),
        window in prop::collection::vec((-520i64..520, 0i64..60), 0..4),
        windowed in any::<bool>(),
        cut_frac in 0.0f64..1.0,
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let window = windowed.then(|| {
            Lifespan::from_intervals(window.into_iter().map(|(lo, len)| Interval::of(lo, lo + len)))
        });
        let meets = |l: &Lifespan| window.as_ref().is_none_or(|w| l.intersects(w));
        let mut e = Encoder::new();
        e.put_tuple(&stored_tuple(7, life.clone(), &tv));
        let record = e.finish();
        let mut probe = Decoder::new(&record);
        let mut decode = Decoder::new(&record);
        let probed = probe.lifespan_probe(window.as_ref()).unwrap();
        let decoded = decode.get_lifespan().unwrap();
        prop_assert_eq!(probed.meets, meets(&decoded));
        prop_assert_eq!(
            (probed.first, probed.last),
            (
                decoded.first().map_or(i64::MAX, |c| c.tick()),
                decoded.last().map_or(i64::MIN, |c| c.tick())
            )
        );
        prop_assert_eq!(probe.remaining(), decode.remaining());

        let lifespan_len = record.len() - decode.remaining();
        let cut = ((lifespan_len as f64) * cut_frac) as usize;
        prop_assert!(Decoder::new(&record[..cut]).lifespan_probe(window.as_ref()).is_err());

        let probed = Decoder::new(&garbage)
            .lifespan_probe(window.as_ref())
            .map(|p| p.meets);
        let decoded = Decoder::new(&garbage).get_lifespan().map(|l| meets(&l));
        prop_assert_eq!(probed, decoded);
    }
}
