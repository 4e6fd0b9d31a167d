//! Model oracles for the structure-shared indexes: a tiered [`KeyIndex`]
//! answers like a plain `HashMap` under any interleaving of inserts,
//! clones and lookups, a [`LifespanIndex`] like a linear scan — and every
//! clone keeps answering as of the moment it was taken, through all the
//! key-tier and lifespan-block folds the original goes on to do.

use hrdm_core::prelude::*;
use hrdm_index::RelationIndexes;
use proptest::prelude::*;
use std::collections::HashMap;

fn scheme() -> Scheme {
    let era = Lifespan::interval(0, 10_000);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

fn tup(k: i64, lo: i64, len: i64) -> Tuple {
    let life = Lifespan::interval(lo, lo + len);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(k)))
        .finish(&scheme())
        .unwrap()
}

#[derive(Clone, Debug)]
enum Op {
    /// Insert this many tuples; keys are drawn from a small space, so
    /// some repeat (as in relations the uncorrected set operators build).
    Insert(usize),
    /// Keep a clone, with the model at this moment.
    Clone,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1usize..6).prop_map(Op::Insert),
            (20usize..120).prop_map(Op::Insert),
            Just(Op::Clone),
        ],
        1..40,
    )
}

/// What the indexes must answer: key → positions, and the lifespans in
/// position order.
#[derive(Clone, Default)]
struct Model {
    by_key: HashMap<i64, Vec<usize>>,
    lifespans: Vec<Lifespan>,
}

fn assert_answers_like(idx: &RelationIndexes, model: &Model, probes: &[i64]) {
    assert_eq!(idx.tuple_count(), model.lifespans.len());
    let key = idx.key().expect("every tuple carries a constant key");
    assert_eq!(key.distinct_keys(), model.by_key.len());
    for k in probes {
        let expected = model.by_key.get(k).cloned().unwrap_or_default();
        assert_eq!(key.lookup(&[Value::Int(*k)]), expected, "key {k}");
    }
    for lo in (0..2_000).step_by(97) {
        let w = Lifespan::interval(lo, lo + 40);
        let expected: Vec<usize> = (0..model.lifespans.len())
            .filter(|&p| model.lifespans[p].intersects(&w))
            .collect();
        assert_eq!(idx.lifespan().overlapping(&w), expected, "window at {lo}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::from_env_or(48))]

    #[test]
    fn indexes_and_their_clones_answer_like_the_model(
        preload in 0usize..200,
        ops in ops_strategy(),
        seed in 0i64..1_000,
    ) {
        let mut next = seed;
        let mut draw = move || {
            next = (next * 6_364_136 + 1_442_695) % 1_000_003;
            next
        };
        let mut model = Model::default();
        let file = |model: &mut Model, t: &Tuple, k: i64| {
            model.by_key.entry(k).or_default().push(model.lifespans.len());
            model.lifespans.push(t.lifespan().clone());
        };

        // A bulk-built base (one key tier, one lifespan body)…
        let base: Vec<(i64, Tuple)> = (0..preload)
            .map(|_| {
                let k = draw() % 300;
                (k, tup(k, draw() % 1_900, draw() % 60))
            })
            .collect();
        for (k, t) in &base {
            file(&mut model, t, *k);
        }
        let relation =
            Relation::from_parts_unchecked(scheme(), base.iter().map(|(_, t)| t.clone()));
        prop_assume!(relation.len() == preload); // exact duplicates would shift positions
        let mut idx = RelationIndexes::build(&relation);

        // …then grown incrementally, with clones pinned along the way.
        let probes: Vec<i64> = (0..300).step_by(7).collect();
        let mut clones: Vec<(RelationIndexes, Model)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(n) => {
                    for _ in 0..n {
                        let k = draw() % 300;
                        let t = tup(k, draw() % 1_900, draw() % 60);
                        idx.insert(model.lifespans.len(), &t);
                        file(&mut model, &t, k);
                    }
                }
                Op::Clone => clones.push((idx.clone(), model.clone())),
            }
            assert_answers_like(&idx, &model, &probes);
        }
        for (clone, as_of) in &clones {
            assert_answers_like(clone, as_of, &probes);
        }
    }
}

/// Under a clone per insert — the publish-per-commit pattern — the key
/// index freezes and folds tiers and its stack stays logarithmic; the
/// lifespan index copies at most its pending block per insert and shares
/// its body with the clone before it until the next fold.
#[test]
fn clone_per_insert_folds_tiers_and_keeps_the_stacks_short() {
    let mut idx = RelationIndexes::build(&Relation::new(scheme()));
    let mut held = idx.clone();
    for k in 0..5_000i64 {
        let merges = idx.lifespan().merges();
        idx.insert(k as usize, &tup(k, (k * 13) % 1_900, k % 50));
        assert!(idx.lifespan().pending_len() <= 64);
        assert_eq!(
            idx.lifespan().shares_body_with(held.lifespan()),
            idx.lifespan().merges() == merges
        );
        held = idx.clone();
    }
    let key = held.key().unwrap();
    assert!(idx.folds() > 100, "{} folds", idx.folds());
    assert!(key.tier_count() <= 9, "{} key tiers", key.tier_count());
    assert_eq!(held.lifespan().merges(), 5_000 / 65);
    assert_eq!(key.distinct_keys(), 5_000);
    for k in (0..5_000i64).step_by(313) {
        assert_eq!(key.lookup(&[Value::Int(k)]), &[k as usize]);
    }
}
