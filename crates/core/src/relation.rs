//! Historical relations: finite sets of tuples on a scheme, with the key
//! constraint of paper §3.

use crate::attribute::Attribute;
use crate::errors::{HrdmError, Result};
use crate::pvec::{self, PVec};
use crate::scheme::Scheme;
use crate::tuple::{StoredHash, Tuple, TupleSet};
use crate::value::Value;
use hrdm_time::{Chronon, Lifespan};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// A historical relation `r` on a scheme `R`: a finite set of tuples such
/// that no two tuples ever share a key value — the paper's condition
/// `∀ s ∈ t1.l, ∀ s' ∈ t2.l : t1.v(K)(s) ≠ t2.v(K)(s')` (§3). Because key
/// attributes are constant-valued, the condition reduces to distinct constant
/// key vectors.
///
/// [`Relation::insert`] enforces the key constraint (and scheme validity).
/// Algebra operators use [`Relation::from_parts_unchecked`] because the paper
/// itself produces key-violating relations from the *uncorrected* set
/// operators — that is exactly the "counter-intuitive" union of Fig. 11 that
/// motivates the object-based `∪ₒ`.
///
/// ## Sharing and copy-on-write
///
/// The tuples live in a [`PVec`] — an append-only persistent vector of
/// `Arc`'d 64-tuple leaves — and the scheme behind an [`Arc`], so
/// [`Relation::clone`] is three reference-count bumps whatever the
/// relation holds. Snapshots, the query evaluator (which clones on every
/// base-relation scan) and batch undo all take clones freely.
///
/// Appending to a relation whose storage a clone still shares copies the
/// 64-tuple tail and, once per 64 appends, the few branch nodes above the
/// new leaf: O(log n) pointer copies, never the whole vector. A relation
/// nothing else shares mutates in place. Either way a clone taken earlier
/// keeps seeing exactly the tuples it had.
#[derive(Clone, Debug)]
pub struct Relation {
    scheme: Arc<Scheme>,
    tuples: PVec<Tuple>,
}

impl Relation {
    /// An empty relation on `scheme`.
    pub fn new(scheme: Scheme) -> Relation {
        Relation {
            scheme: Arc::new(scheme),
            tuples: PVec::new(),
        }
    }

    /// Builds a relation from tuples, validating each against the scheme and
    /// enforcing the key constraint.
    pub fn with_tuples<I>(scheme: Scheme, tuples: I) -> Result<Relation>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut r = Relation::new(scheme);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// Assembles a relation from parts without key or scheme validation,
    /// deduplicating exact duplicate tuples (relations are sets).
    ///
    /// This is the constructor algebra operators use; their outputs are
    /// well-formed by construction except that — per the paper — results of
    /// the plain set operators may violate the key constraint.
    ///
    /// Rows are filed first by a hash of their constant key value: two rows
    /// with different key values cannot be equal tuples, so a row whose
    /// key hash no earlier row has is kept without hashing its content.
    /// Only rows that share a key hash, and rows with no key value (a
    /// keyless scheme, or a key function that is not one constant), are
    /// compared by content, in a [`TupleSet`](crate::TupleSet) over their
    /// cached content hashes. A keyed result of distinct keys thus hashes
    /// each row's key value, never its functions.
    pub fn from_parts_unchecked<I>(scheme: Scheme, tuples: I) -> Relation
    where
        I: IntoIterator<Item = Tuple>,
    {
        /// A key hash whose first row is in `seen` already.
        const SHARED: usize = usize::MAX;
        let tuples = tuples.into_iter();
        let expected = tuples.size_hint().0;
        let mut by_key: HashMap<u64, usize, BuildHasherDefault<StoredHash>> =
            HashMap::with_capacity_and_hasher(expected, Default::default());
        let mut seen = TupleSet::default();
        let mut out: Vec<Tuple> = Vec::with_capacity(expected);
        for t in tuples {
            let fresh = match t.key_hash(scheme.key()) {
                Some(hash) => match by_key.entry(hash) {
                    Entry::Vacant(e) => {
                        e.insert(out.len());
                        true
                    }
                    Entry::Occupied(mut e) => {
                        let first = std::mem::replace(e.get_mut(), SHARED);
                        if let Some(first) = out.get(first) {
                            seen.insert(first.clone());
                        }
                        seen.insert(t.clone())
                    }
                },
                None => seen.insert(t.clone()),
            };
            if fresh {
                out.push(t);
            }
        }
        Relation::from_distinct_unchecked(scheme, out)
    }

    /// Assembles a relation from tuples the caller knows to be pairwise
    /// distinct — [`Relation::from_parts_unchecked`] without its
    /// deduplication pass, which hashes every tuple (a decoded tuple has
    /// no cached hash yet) and files it in a set. For loaders
    /// re-reading tuples that a relation (a set already) wrote out.
    pub fn from_distinct_unchecked(scheme: Scheme, tuples: Vec<Tuple>) -> Relation {
        Relation {
            scheme: Arc::new(scheme),
            tuples: PVec::from(tuples),
        }
    }

    /// The relation's scheme.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The tuples, in insertion order. Cloning the returned vector pins
    /// the current contents in O(1): later appends to this relation leave
    /// the clone untouched (snapshot isolation's storage-level guarantee).
    /// Scans read it leaf by leaf through [`PVec::slices`].
    pub fn tuples(&self) -> &PVec<Tuple> {
        &self.tuples
    }

    /// Iterates the tuples.
    pub fn iter(&self) -> pvec::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// The tuple at `pos` in [`Relation::tuples`] order, if in bounds.
    ///
    /// Positions are what access methods (`hrdm-index`) return: an index
    /// over a relation maps query predicates to positions, and operators
    /// fetch the candidate tuples through this accessor.
    pub fn tuple_at(&self, pos: usize) -> Option<&Tuple> {
        self.tuples.get(pos)
    }

    /// A positional scan: the tuples at `positions`, in the given order.
    /// Out-of-range positions are skipped (an index built before a mutation
    /// may cite positions the relation no longer has).
    pub fn scan_positions<'a>(
        &'a self,
        positions: &'a [usize],
    ) -> impl Iterator<Item = &'a Tuple> + 'a {
        positions.iter().filter_map(|&p| self.tuples.get(p))
    }

    /// Materializes the sub-relation holding exactly the tuples at
    /// `positions` — the bridge from an index result back into the algebra,
    /// whose operators consume relations.
    ///
    /// Callers must pass *distinct* positions (index queries return sorted,
    /// deduplicated position lists); the stored tuples are already a set,
    /// so the subset needs no dedup pass of its own.
    pub fn subset_at_positions(&self, positions: &[usize]) -> Relation {
        Relation {
            scheme: Arc::clone(&self.scheme),
            tuples: self.scan_positions(positions).cloned().collect(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple, validating it against the scheme and enforcing the
    /// key constraint against the existing tuples.
    ///
    /// Relations with an empty (derived) key enforce only set semantics:
    /// inserting an exact duplicate is a silent no-op.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        tuple.validate(&self.scheme)?;
        if self.scheme.key().is_empty() {
            if !self.contains_tuple(&tuple) {
                self.push_unchecked(tuple);
            }
            return Ok(());
        }
        let key = tuple.key_values(&self.scheme)?;
        if self.find_by_key(&key).is_some() {
            return Err(HrdmError::KeyViolation {
                key: format!(
                    "({})",
                    key.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
        self.push_unchecked(tuple);
        Ok(())
    }

    /// Truncates to the first `len` tuples (a no-op when the relation is
    /// already that short). Inserts are append-only, so cutting back to
    /// an earlier length restores exactly the earlier contents. A clone
    /// sharing the storage keeps the untruncated vector.
    pub fn truncate(&mut self, len: usize) {
        self.tuples.truncate(len);
    }

    /// Appends a tuple **without** re-running validation or the key check.
    ///
    /// For callers that have already performed both (e.g. a storage layer
    /// that validates before write-ahead logging, then applies) — the
    /// checked sibling of [`Relation::insert`], in the same spirit as
    /// [`Relation::from_parts_unchecked`]. Inserting an invalid or
    /// key-duplicate tuple through this door breaks the relation invariant.
    ///
    /// Either way in, a tuple naming the scheme's attributes is stored on
    /// the scheme's one [`Scheme::layout`].
    pub fn push_unchecked(&mut self, tuple: Tuple) {
        self.tuples.push(tuple.in_layout(self.scheme.layout()));
    }

    /// `LS(r)` — the lifespan of the relation: "just
    /// `t1.l ∪ t2.l ∪ … ∪ tn.l`" (paper §3). This is also the result of the
    /// WHEN operator Ω. One n-ary union ([`Lifespan::union_all`]: sort and
    /// sweep every run once), not a per-tuple fold of the binary one.
    pub fn lifespan(&self) -> Lifespan {
        Lifespan::union_all(self.tuples.iter().map(Tuple::lifespan))
    }

    /// Finds the tuple with the given (constant) key value, if any. Key
    /// values are compared in place, tuple by tuple.
    pub fn find_by_key(&self, key: &[Value]) -> Option<&Tuple> {
        self.tuples.iter().find(|t| t.has_key(key, &self.scheme))
    }

    /// Does the relation contain an identical tuple?
    pub fn contains_tuple(&self, tuple: &Tuple) -> bool {
        self.tuples.iter().any(|t| t == tuple)
    }

    /// The classical snapshot of the relation at time `s`: one row per tuple
    /// alive at `s`, mapping each attribute defined at `s` to its value.
    ///
    /// This is the `T = {now}` reading of §5's consistency claim, usable at
    /// any `s`.
    pub fn snapshot_at(&self, s: Chronon) -> Vec<BTreeMap<Attribute, Value>> {
        self.tuples
            .iter()
            .filter(|t| t.lifespan().contains(s))
            .map(|t| {
                t.entries()
                    .filter_map(|(a, tv)| tv.at(s).map(|v| (a.clone(), v.clone())))
                    .collect()
            })
            .collect()
    }

    /// Checks the key constraint over the whole relation, reporting the
    /// first duplicated key value. Useful for auditing relations produced by
    /// the unchecked set operators.
    pub fn check_key_constraint(&self) -> Result<()> {
        if self.scheme.key().is_empty() {
            return Ok(());
        }
        let mut seen: HashSet<Vec<Value>> = HashSet::with_capacity(self.tuples.len());
        for t in self.tuples.iter() {
            let key = t.key_values(&self.scheme)?;
            if !seen.insert(key.clone()) {
                return Err(HrdmError::KeyViolation {
                    key: format!(
                        "({})",
                        key.iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }
        Ok(())
    }

    /// Total number of value segments across all tuples — the storage-cost
    /// measure that the cube comparison of paper Fig. 10 sets against a
    /// cube's cell count.
    pub fn segment_cells(&self) -> usize {
        self.tuples
            .iter()
            .map(|t| t.entries().map(|(_, tv)| tv.segment_count()).sum::<usize>())
            .sum()
    }
}

impl PartialEq for Relation {
    /// Set equality: same scheme, same set of tuples, order-insensitive.
    fn eq(&self, other: &Relation) -> bool {
        if self.scheme != other.scheme || self.tuples.len() != other.tuples.len() {
            return false;
        }
        let mine: HashSet<&Tuple> = self.tuples.iter().collect();
        other.tuples.iter().all(|t| mine.contains(t))
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scheme {}", self.scheme)?;
        for t in self.tuples.iter() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{HistoricalDomain, ValueKind};
    use crate::temporal::TemporalValue;

    fn ls(lo: i64, hi: i64) -> Lifespan {
        Lifespan::interval(lo, hi)
    }

    fn emp_scheme() -> Scheme {
        Scheme::builder()
            .key_attr("NAME", ValueKind::Str, ls(0, 100))
            .attr("SALARY", HistoricalDomain::int(), ls(0, 100))
            .build()
            .unwrap()
    }

    fn emp(name: &str, spans: &[(i64, i64)], salary: i64) -> Tuple {
        let life = Lifespan::of(spans);
        Tuple::builder(life.clone())
            .constant("NAME", name)
            .value("SALARY", TemporalValue::constant(&life, Value::Int(salary)))
            .finish(&emp_scheme())
            .unwrap()
    }

    #[test]
    fn insert_and_query() {
        let mut r = Relation::new(emp_scheme());
        r.insert(emp("John", &[(1, 10)], 25_000)).unwrap();
        r.insert(emp("Mary", &[(5, 20)], 30_000)).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(r.find_by_key(&[Value::str("John")]).is_some());
        assert!(r.find_by_key(&[Value::str("Nobody")]).is_none());
    }

    #[test]
    fn key_constraint_rejects_duplicates() {
        let mut r = Relation::new(emp_scheme());
        r.insert(emp("John", &[(1, 10)], 25_000)).unwrap();
        // Even with a disjoint lifespan: the paper's constraint quantifies
        // over all pairs of times in the two lifespans.
        let err = r.insert(emp("John", &[(20, 30)], 40_000)).unwrap_err();
        assert!(matches!(err, HrdmError::KeyViolation { .. }));
    }

    #[test]
    fn lifespan_is_union_of_tuple_lifespans() {
        let mut r = Relation::new(emp_scheme());
        r.insert(emp("John", &[(1, 10)], 25_000)).unwrap();
        r.insert(emp("Mary", &[(20, 30)], 30_000)).unwrap();
        assert_eq!(r.lifespan(), Lifespan::of(&[(1, 10), (20, 30)]));
        assert_eq!(Relation::new(emp_scheme()).lifespan(), Lifespan::empty());
    }

    #[test]
    fn snapshot_extracts_classical_rows() {
        let mut r = Relation::new(emp_scheme());
        r.insert(emp("John", &[(1, 10)], 25_000)).unwrap();
        r.insert(emp("Mary", &[(5, 20)], 30_000)).unwrap();

        let snap = r.snapshot_at(Chronon::new(7));
        assert_eq!(snap.len(), 2);
        let snap = r.snapshot_at(Chronon::new(15));
        assert_eq!(snap.len(), 1);
        assert_eq!(
            snap[0].get(&Attribute::new("NAME")),
            Some(&Value::str("Mary"))
        );
        assert!(r.snapshot_at(Chronon::new(50)).is_empty());
    }

    #[test]
    fn from_parts_dedupes() {
        let t = emp("John", &[(1, 10)], 25_000);
        let r = Relation::from_parts_unchecked(emp_scheme(), vec![t.clone(), t.clone()]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn from_parts_compares_rows_sharing_a_key_by_content() {
        let john = || emp("John", &[(1, 10)], 25_000);
        let mary = || emp("Mary", &[(5, 15)], 30_000);
        let rehired = emp("John", &[(20, 30)], 40_000);
        // Equal rows built apart share no allocation; a row sharing only
        // its key with another stays.
        let rows = vec![
            john(),
            mary(),
            john(),
            rehired.clone(),
            mary(),
            rehired.clone(),
        ];
        let r = Relation::from_parts_unchecked(emp_scheme(), rows);
        let kept: Vec<&Tuple> = r.iter().collect();
        assert_eq!(kept, [&john(), &mary(), &rehired]);
    }

    #[test]
    fn from_parts_allows_key_violations_but_audit_reports_them() {
        let r = Relation::from_parts_unchecked(
            emp_scheme(),
            vec![
                emp("John", &[(1, 10)], 25_000),
                emp("John", &[(20, 30)], 40_000),
            ],
        );
        assert_eq!(r.len(), 2);
        assert!(matches!(
            r.check_key_constraint().unwrap_err(),
            HrdmError::KeyViolation { .. }
        ));
    }

    #[test]
    fn keyless_relation_enforces_set_semantics() {
        let scheme = emp_scheme().project(&[Attribute::new("SALARY")]).unwrap();
        let mut r = Relation::new(scheme.clone());
        let t = Tuple::builder(ls(1, 5))
            .value("SALARY", TemporalValue::of(&[(1, 5, Value::Int(1))]))
            .finish(&scheme)
            .unwrap();
        r.insert(t.clone()).unwrap();
        r.insert(t.clone()).unwrap(); // duplicate: silent no-op
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn set_equality_is_order_insensitive() {
        let a = Relation::with_tuples(
            emp_scheme(),
            vec![emp("A", &[(1, 2)], 1), emp("B", &[(3, 4)], 2)],
        )
        .unwrap();
        let b = Relation::with_tuples(
            emp_scheme(),
            vec![emp("B", &[(3, 4)], 2), emp("A", &[(1, 2)], 1)],
        )
        .unwrap();
        assert_eq!(a, b);
        let c = Relation::with_tuples(emp_scheme(), vec![emp("A", &[(1, 2)], 1)]).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn segment_cells_counts_storage() {
        let mut r = Relation::new(emp_scheme());
        r.insert(emp("John", &[(1, 10)], 25_000)).unwrap();
        // NAME constant (1 segment) + SALARY constant (1 segment).
        assert_eq!(r.segment_cells(), 2);
    }

    #[test]
    fn insert_validates_scheme() {
        let mut r = Relation::new(emp_scheme());
        let alien_scheme = Scheme::builder()
            .key_attr("ID", ValueKind::Int, ls(0, 10))
            .build()
            .unwrap();
        let t = Tuple::builder(ls(0, 5))
            .constant("ID", 7i64)
            .finish(&alien_scheme)
            .unwrap();
        assert!(r.insert(t).is_err());
    }

    #[test]
    fn positional_scan_api() {
        let mut r = Relation::new(emp_scheme());
        r.insert(emp("John", &[(1, 10)], 25_000)).unwrap();
        r.insert(emp("Mary", &[(5, 20)], 30_000)).unwrap();
        r.insert(emp("Igor", &[(8, 30)], 20_000)).unwrap();

        assert_eq!(r.tuple_at(1), Some(&r.tuples()[1]));
        assert_eq!(r.tuple_at(3), None);

        let picked: Vec<&Tuple> = r.scan_positions(&[2, 0, 99]).collect();
        assert_eq!(picked, vec![&r.tuples()[2], &r.tuples()[0]]);

        let sub = r.subset_at_positions(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert!(sub.find_by_key(&[Value::str("John")]).is_some());
        assert!(sub.find_by_key(&[Value::str("Igor")]).is_some());
        assert!(sub.find_by_key(&[Value::str("Mary")]).is_none());
        assert_eq!(sub.scheme(), r.scheme());
    }

    #[test]
    fn display_renders_scheme_and_tuples() {
        let mut r = Relation::new(emp_scheme());
        r.insert(emp("John", &[(1, 10)], 25_000)).unwrap();
        let text = r.to_string();
        assert!(text.contains("scheme"));
        assert!(text.contains("John"));
    }
}
