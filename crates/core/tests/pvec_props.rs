//! Model oracle for the persistent vector: under any interleaving of
//! pushes, truncations and clones, a [`PVec`] reads exactly like a `Vec`
//! driven by the same operations — and so does every clone taken along
//! the way, as of the moment it was taken.

use hrdm_core::PVec;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    /// Push this many consecutive values.
    Push(usize),
    /// Truncate to this fraction (per mille) of the current length.
    Truncate(usize),
    /// Keep a clone, with the model's contents at this moment.
    Clone,
}

/// Runs long enough to cross leaf (64) and level (4 096) boundaries in
/// both directions.
fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1usize..70).prop_map(Op::Push),
            (1usize..70).prop_map(Op::Push),
            (500usize..3_000).prop_map(Op::Push),
            (0usize..1_000).prop_map(Op::Truncate),
            Just(Op::Clone),
        ],
        1..40,
    )
}

fn assert_reads_like(vec: &PVec<u32>, model: &[u32]) {
    assert_eq!(vec.len(), model.len());
    assert_eq!(vec.is_empty(), model.is_empty());
    assert!(vec.iter().eq(model.iter()));
    assert_eq!(vec.first(), model.first());
    assert_eq!(vec.get(model.len()), None);
    for pos in (0..model.len()).step_by(61) {
        assert_eq!(vec.get(pos), Some(&model[pos]));
    }
    let (lo, hi) = (model.len() / 3, model.len() - model.len() / 5);
    assert!(vec.slices(lo..hi).flatten().eq(model[lo..hi].iter()));
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(64))]

    #[test]
    fn pvec_equals_vec_under_push_truncate_clone(ops in ops_strategy()) {
        let mut vec: PVec<u32> = PVec::new();
        let mut model: Vec<u32> = Vec::new();
        let mut clones: Vec<(PVec<u32>, Vec<u32>)> = Vec::new();
        let mut next = 0u32;
        for op in ops {
            match op {
                Op::Push(n) => {
                    for _ in 0..n {
                        vec.push(next);
                        model.push(next);
                        next += 1;
                    }
                }
                Op::Truncate(per_mille) => {
                    let len = model.len() * per_mille / 1_000;
                    vec.truncate(len);
                    model.truncate(len);
                }
                Op::Clone => clones.push((vec.clone(), model.clone())),
            }
            assert_reads_like(&vec, &model);
        }
        for (clone, as_of) in &clones {
            assert_reads_like(clone, as_of);
        }
    }

    #[test]
    fn bulk_build_equals_the_vec_it_was_built_from(len in 0usize..9_000, grow in 0usize..200) {
        let model: Vec<u32> = (0..len as u32).collect();
        let mut vec = PVec::from(model.clone());
        assert_reads_like(&vec, &model);
        let mut grown = model;
        for v in 0..grow as u32 {
            vec.push(v);
            grown.push(v);
        }
        assert_reads_like(&vec, &grown);
    }
}
