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
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
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
