//! Property tests: the three timestamping layouts carry the same
//! information — every model answers every snapshot query identically on
//! randomly generated (total) histories.

use hrdm_baseline::{hrdm_to_cube, hrdm_to_ts, snapshot_of_hrdm, ts_to_hrdm};
use hrdm_core::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

const ERA: i64 = 30;

fn scheme() -> Scheme {
    let era = Lifespan::interval(0, ERA);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

/// Total tuples: V defined on the whole (possibly fragmented) lifespan.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec(
        (
            prop::collection::vec((0i64..=ERA, 0i64..8), 1..3),
            prop::collection::vec(0i64..5, 1..5),
        ),
        0..5,
    )
    .prop_map(|tuples| {
        let s = scheme();
        let built: Vec<Tuple> = tuples
            .into_iter()
            .enumerate()
            .map(|(k, (spans, values))| {
                let life = Lifespan::from_intervals(
                    spans
                        .into_iter()
                        .map(|(lo, len)| Interval::of(lo, (lo + len).min(ERA))),
                );
                // Piecewise values across the lifespan runs, cycling the pool.
                let mut segs = Vec::new();
                for (i, run) in life.intervals().iter().enumerate() {
                    segs.push((*run, Value::Int(values[i % values.len()])));
                }
                Tuple::builder(life)
                    .constant("K", k as i64)
                    .value(
                        "V",
                        TemporalValue::from_segments(segs).expect("runs are disjoint"),
                    )
                    .finish(&s)
                    .unwrap()
            })
            .collect();
        Relation::with_tuples(s, built).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(48))]

    #[test]
    fn snapshots_agree_across_models(r in relation_strategy(), t in 0i64..=ERA) {
        let t = Chronon::new(t);
        let snap = snapshot_of_hrdm(&r, t).unwrap();
        let ts = hrdm_to_ts(&r).unwrap();
        let cube = hrdm_to_cube(&r, Some(Interval::of(0, ERA))).unwrap();

        let want: BTreeSet<Vec<Value>> = snap.rows().iter().cloned().collect();
        let ts_rows: BTreeSet<Vec<Value>> = ts
            .timeslice(t)
            .into_iter()
            .map(|v| v.values.clone())
            .collect();
        let cube_rows: BTreeSet<Vec<Value>> = cube
            .timeslice(t)
            .iter()
            .map(|row| row.iter().map(|v| v.clone().expect("total")).collect())
            .collect();
        prop_assert_eq!(&ts_rows, &want);
        prop_assert_eq!(&cube_rows, &want);
    }

    #[test]
    fn ts_round_trip_is_identity_on_total_relations(r in relation_strategy()) {
        let ts = hrdm_to_ts(&r).unwrap();
        let back = ts_to_hrdm(&ts, r.scheme()).unwrap();
        prop_assert_eq!(back, r);
    }

    #[test]
    fn coalesce_preserves_snapshots(r in relation_strategy(), t in 0i64..=ERA) {
        let ts = hrdm_to_ts(&r).unwrap();
        let coalesced = ts.coalesce();
        let t = Chronon::new(t);
        let a: BTreeSet<Vec<Value>> =
            ts.timeslice(t).into_iter().map(|v| v.values.clone()).collect();
        let b: BTreeSet<Vec<Value>> = coalesced
            .timeslice(t)
            .into_iter()
            .map(|v| v.values.clone())
            .collect();
        prop_assert_eq!(a, b);
        // Coalescing never increases the version count.
        prop_assert!(coalesced.version_count() <= ts.version_count());
    }

    #[test]
    fn storage_ordering_holds_for_slowly_changing_histories(r in relation_strategy()) {
        // HRDM cells ≤ TS cells always (each TS version stores every
        // attribute; HRDM stores one segment per change per attribute).
        let ts = hrdm_to_ts(&r).unwrap();
        let cube = hrdm_to_cube(&r, Some(Interval::of(0, ERA))).unwrap();
        let hrdm_cells = r.segment_cells();
        prop_assert!(hrdm_cells <= ts.cells(), "{hrdm_cells} vs {}", ts.cells());
        // The cube pays per living chronon: it can only tie when every value
        // changes every instant.
        let living: u64 = r.iter().map(|t| t.lifespan().cardinality()).sum();
        prop_assert_eq!(cube.cells() as u64, living * r.scheme().arity() as u64);
    }

    #[test]
    fn object_history_agrees_between_hrdm_and_ts(r in relation_strategy()) {
        let ts = hrdm_to_ts(&r).unwrap();
        for t in r.iter() {
            let key = t.key_values(r.scheme()).unwrap();
            let versions = ts.object_history(&key).unwrap();
            // The versions tile exactly the tuple's lifespan.
            let tiled: Lifespan =
                Lifespan::from_intervals(versions.iter().map(|v| v.span));
            prop_assert_eq!(&tiled, t.lifespan());
        }
    }
}
