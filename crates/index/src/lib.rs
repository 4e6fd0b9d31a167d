//! # hrdm-index — access methods for HRDM relations
//!
//! The paper's three-level architecture (Fig. 9) puts "file structures and
//! access methods" at the physical level; this crate provides the first two
//! real access methods for historical relations:
//!
//! * [`LifespanIndex`] — a static interval index over tuple lifespans.
//!   Every maximal interval of every tuple lifespan becomes one entry; the
//!   index answers *chronon-stabbing* ("which tuples are alive at `t`?") and
//!   *interval/lifespan-overlap* ("which tuples are alive somewhere in
//!   `L`?") queries in `O(log n + k)`, returning **tuple positions** into
//!   the relation's tuple vector.
//! * [`KeyIndex`] — a hash index over the relation's (constant-valued) key
//!   attributes, answering equality lookups and join probes in `O(1)`.
//!
//! Both indexes return *candidate positions*, never answers: operators
//! re-apply their exact semantics to the candidates, so an index can prune
//! work but can never change a result. This is what makes index use safe
//! for every operator of the historical algebra — a tuple whose lifespan is
//! disjoint from a TIME-SLICE window restricts to an information-free tuple
//! and is dropped either way; the index merely skips it up front.
//!
//! The engine uses the two separately: `hrdm-storage` keeps one
//! [`KeyIndex`] per relation and one [`LifespanIndex`] per chronon-range
//! partition — its partition map is a relation's only lifespan access
//! path. [`RelationIndexes`] bundles a relation-wide instance of both; no
//! engine crate holds one, and it is kept only for the benchmark
//! package's per-layer `index.*` probes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interval_index;
mod key_index;

pub use interval_index::LifespanIndex;
pub use key_index::KeyIndex;

use hrdm_core::{Relation, Tuple};

/// Both access methods built relation-wide — the shape the benchmark's
/// `index.*` probes measure (see the crate docs).
///
/// Positions refer to [`Relation::tuples`] order. The indexes track the
/// relation **incrementally**: appending a tuple to the relation and
/// calling [`RelationIndexes::insert`] with the same position keeps every
/// access method current (wholesale replacement of a relation rebuilds
/// via [`RelationIndexes::build`]).
///
/// ## Sharing and copy-on-write
///
/// A clone shares everything large with its original: the key index's
/// hash-map tiers and the lifespan index's sorted runs are `Arc`'d and
/// never edited while shared, so cloning costs a few reference-count bumps
/// plus the lifespan index's short pending run, and an insert after a clone
/// copies at most one small tier — never a whole map (see [`KeyIndex`] and
/// [`LifespanIndex`]). What a published snapshot costs the next insert is
/// therefore bounded, and paid back by occasional merges that
/// [`RelationIndexes::folds`] counts.
#[derive(Clone, Debug)]
pub struct RelationIndexes {
    lifespan: LifespanIndex,
    key: Option<KeyIndex>,
    tuple_count: usize,
}

impl RelationIndexes {
    /// Builds the lifespan index and (for keyed schemes) the key index.
    pub fn build(r: &Relation) -> RelationIndexes {
        RelationIndexes {
            lifespan: LifespanIndex::build(r.iter().map(|t| t.lifespan())),
            key: KeyIndex::build(r),
            tuple_count: r.len(),
        }
    }

    /// Registers the tuple just appended to the relation at position `pos`
    /// (which must equal [`RelationIndexes::tuple_count`] — positions are
    /// append-only).
    ///
    /// The lifespan index absorbs the tuple through its pending run; the
    /// key index files it in its newest tier, or is dropped if the tuple
    /// carries no constant key value (then key probes are no longer
    /// answerable).
    pub fn insert(&mut self, pos: usize, tuple: &Tuple) {
        assert_eq!(
            pos, self.tuple_count,
            "RelationIndexes::insert positions are append-only"
        );
        self.lifespan.insert(pos, tuple.lifespan());
        if let Some(key) = &mut self.key {
            if !key.insert(pos, tuple) {
                self.key = None;
            }
        }
        self.tuple_count += 1;
    }

    /// The lifespan interval index.
    pub fn lifespan(&self) -> &LifespanIndex {
        &self.lifespan
    }

    /// The key index, if the scheme has a key and every tuple carries a
    /// constant key value.
    pub fn key(&self) -> Option<&KeyIndex> {
        self.key.as_ref()
    }

    /// Number of tuples the indexes were built over.
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// How many amortizing merges the inserts so far have triggered: key
    /// tier folds plus lifespan run merges. An insert that bumps
    /// this did O(n)-ish work on behalf of the cheap ones before it.
    pub fn folds(&self) -> u64 {
        self.lifespan.merges() + self.key.as_ref().map_or(0, KeyIndex::folds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::prelude::*;

    fn scheme() -> Scheme {
        Scheme::builder()
            .key_attr("K", ValueKind::Int, Lifespan::interval(0, 100))
            .attr("V", HistoricalDomain::int(), Lifespan::interval(0, 100))
            .build()
            .unwrap()
    }

    fn tup(k: i64, spans: &[(i64, i64)]) -> Tuple {
        let life = Lifespan::of(spans);
        Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::constant(&life, Value::Int(k * 10)))
            .finish(&scheme())
            .unwrap()
    }

    #[test]
    fn build_bundles_both_indexes() {
        let r = Relation::with_tuples(
            scheme(),
            vec![tup(1, &[(0, 9)]), tup(2, &[(5, 20), (30, 40)])],
        )
        .unwrap();
        let idx = RelationIndexes::build(&r);
        assert_eq!(idx.tuple_count(), 2);
        assert_eq!(idx.lifespan().stab(Chronon::new(7)), vec![0, 1]);
        assert_eq!(idx.lifespan().stab(Chronon::new(35)), vec![1]);
        let key = idx.key().expect("keyed scheme builds a key index");
        assert_eq!(key.lookup(&[Value::Int(2)]), &[1]);
        assert!(key.lookup(&[Value::Int(9)]).is_empty());
    }

    /// Incremental insert equals a from-scratch build over the grown
    /// relation — both key and lifespan answers, at every step.
    #[test]
    fn incremental_insert_matches_rebuild() {
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut idx = RelationIndexes::build(&Relation::new(scheme()));
        for k in 0..120i64 {
            let lo = (k * 3) % 70;
            let t = tup(k, &[(lo, lo + 9)]);
            idx.insert(tuples.len(), &t);
            tuples.push(t);
            if k % 17 == 0 || k == 119 {
                let r = Relation::with_tuples(scheme(), tuples.clone()).unwrap();
                let built = RelationIndexes::build(&r);
                assert_eq!(idx.tuple_count(), built.tuple_count());
                for t in [0, 5, 33, 69, 78] {
                    assert_eq!(
                        idx.lifespan().stab(Chronon::new(t)),
                        built.lifespan().stab(Chronon::new(t)),
                        "stab {t} after {k} inserts"
                    );
                }
                let probe = vec![Value::Int(k / 2)];
                assert_eq!(
                    idx.key().unwrap().lookup(&probe),
                    built.key().unwrap().lookup(&probe)
                );
            }
        }
    }

    #[test]
    fn keyless_scheme_has_no_key_index() {
        let keyless = scheme().project(&[Attribute::new("V")]).unwrap();
        let r = Relation::new(keyless);
        let idx = RelationIndexes::build(&r);
        assert!(idx.key().is_none());
        assert!(idx.lifespan().is_empty());
    }
}
