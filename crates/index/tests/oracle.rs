//! Oracle property tests: every index answer must equal the linear-scan
//! answer over randomly generated relations (reusing `hrdm-bench::gen`).

use hrdm_bench::{gen_relation, WorkloadSpec};
use hrdm_core::prelude::*;
use hrdm_index::RelationIndexes;
use proptest::prelude::*;

/// Strategy: a workload spec small enough to test densely but varied in
/// era, change rate, and lifespan fragmentation.
fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (0usize..40, 20i64..400, 1usize..6, 1usize..4, any::<u64>()).prop_map(
        |(tuples, era, changes, fragments, seed)| WorkloadSpec {
            tuples,
            era,
            changes,
            fragments,
            seed,
        },
    )
}

/// Linear-scan oracle for stabbing: positions of tuples alive at `t`.
fn scan_stab(r: &Relation, t: Chronon) -> Vec<usize> {
    r.iter()
        .enumerate()
        .filter(|(_, tup)| tup.lifespan().contains(t))
        .map(|(i, _)| i)
        .collect()
}

/// Linear-scan oracle for overlap: positions of tuples intersecting `w`.
fn scan_overlap(r: &Relation, w: &Lifespan) -> Vec<usize> {
    r.iter()
        .enumerate()
        .filter(|(_, tup)| tup.lifespan().intersects(w))
        .map(|(i, _)| i)
        .collect()
}

/// Linear-scan oracle for key lookup: positions of tuples with key `key`.
fn scan_key(r: &Relation, key: &[Value]) -> Vec<usize> {
    r.iter()
        .enumerate()
        .filter(|(_, tup)| matches!(tup.key_values(r.scheme()), Ok(k) if k == key))
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(48))]

    #[test]
    fn stab_equals_linear_scan(spec in spec_strategy(), t in -50i64..450) {
        let r = gen_relation(&spec);
        let idx = RelationIndexes::build(&r);
        let t = Chronon::new(t);
        prop_assert_eq!(idx.lifespan().stab(t), scan_stab(&r, t));
    }

    #[test]
    fn interval_overlap_equals_linear_scan(
        spec in spec_strategy(),
        lo in -50i64..450,
        len in 0i64..200,
    ) {
        let r = gen_relation(&spec);
        let idx = RelationIndexes::build(&r);
        let w = Lifespan::interval(lo, lo + len);
        prop_assert_eq!(idx.lifespan().overlapping(&w), scan_overlap(&r, &w));
    }

    #[test]
    fn fragmented_overlap_equals_linear_scan(
        spec in spec_strategy(),
        pieces in prop::collection::vec((-50i64..450, 0i64..60), 1..4),
    ) {
        let r = gen_relation(&spec);
        let idx = RelationIndexes::build(&r);
        let w = Lifespan::from_intervals(
            pieces.into_iter().map(|(lo, len)| Interval::of(lo, lo + len)),
        );
        prop_assert_eq!(idx.lifespan().overlapping(&w), scan_overlap(&r, &w));
    }

    #[test]
    fn key_lookup_equals_filtered_scan(spec in spec_strategy(), probe in 0i64..50) {
        let r = gen_relation(&spec);
        let idx = RelationIndexes::build(&r);
        // The bench scheme is keyed on K, so the key index must exist.
        let key_idx = idx.key().expect("keyed workload builds a key index");
        let key = vec![Value::Int(probe)];
        prop_assert_eq!(key_idx.lookup(&key).to_vec(), scan_key(&r, &key));
    }

    #[test]
    fn every_tuple_is_reachable_through_both_indexes(spec in spec_strategy()) {
        let r = gen_relation(&spec);
        let idx = RelationIndexes::build(&r);
        // Overlapping the whole era reports every tuple exactly once.
        let all = idx.lifespan().overlapping(&Lifespan::interval(-100, 1_000));
        prop_assert_eq!(all, (0..r.len()).collect::<Vec<_>>());
        // Probing each tuple's own key finds its position.
        for (pos, t) in r.iter().enumerate() {
            let key = t.key_values(r.scheme()).expect("bench tuples are keyed");
            prop_assert!(idx.key().expect("key index").lookup(&key).contains(&pos));
        }
    }
}
