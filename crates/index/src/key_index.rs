//! A hash index over constant-valued key attributes.

use hrdm_core::{Attribute, Relation, Tuple, Value};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How many entries the newest tier may hold and still be copied rather
/// than frozen when a clone shares it: the per-commit copy a published
/// snapshot costs the next insert.
const COPY_LIMIT: usize = 32;

/// The positions filed under one key: one, except in relations the
/// paper's *uncorrected* set operators produced.
#[derive(Clone, Debug)]
enum Positions {
    One(usize),
    Many(Vec<usize>),
}

impl Positions {
    fn as_slice(&self) -> &[usize] {
        match self {
            Positions::One(pos) => std::slice::from_ref(pos),
            Positions::Many(all) => all,
        }
    }
}

/// A key value as the index files it: the usual one-attribute key inline
/// in the map entry, a composite key in one shared slice. It borrows, and
/// hashes, exactly as the `[Value]` slice it holds, so a `&[Value]` probe
/// finds it.
#[derive(Clone, Debug)]
enum Key {
    One([Value; 1]),
    Many(Arc<[Value]>),
}

impl Key {
    /// `tuple`'s constant values for `attrs`, filed directly: a
    /// one-attribute key builds no vector on the way. `None` when some
    /// attribute has no constant value.
    fn of(attrs: &[Attribute], tuple: &Tuple) -> Option<Key> {
        let value = |a: &Attribute| tuple.value(a).and_then(|tv| tv.constant_value()).cloned();
        match attrs {
            [one] => value(one).map(|v| Key::One([v])),
            _ => attrs
                .iter()
                .map(value)
                .collect::<Option<Arc<[Value]>>>()
                .map(Key::Many),
        }
    }
}

impl Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        match self {
            Key::One(one) => one,
            Key::Many(all) => all,
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        Borrow::<[Value]>::borrow(self) == Borrow::<[Value]>::borrow(other)
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Borrow::<[Value]>::borrow(self).hash(state);
    }
}

/// One hash map of the index. An entry holds **every** position of its
/// key up to the moment it was written, so the newest tier that knows a
/// key answers for all older ones.
type Tier = HashMap<Key, Positions>;

/// A hash index over a relation's (constant-valued) key attributes.
///
/// HRDM keys draw from constant domains ("key attributes are
/// constant-valued, so objects keep their identity across change", paper
/// §3), so a key value is one atomic [`Value`] per key attribute and never
/// varies over time — exactly what a classical hash index can serve.
///
/// The map goes from key vectors to **tuple positions**, ascending. A
/// well-formed relation has at most one position per key, but relations
/// produced by the paper's *uncorrected* set operators may violate the key
/// constraint, so each key maps to a (usually singleton) position list.
///
/// ## Sharing and copy-on-write
///
/// The index is a short stack of `Arc`'d hash maps — *tiers*, oldest
/// first, each at least twice the size of the next — so
/// [`KeyIndex::clone`] is one reference-count bump per tier, and an insert
/// never copies more than the newest tier:
///
/// * [`KeyIndex::build`] yields exactly one tier, and while no clone
///   shares the newest tier, inserts go into it in place: an index that
///   is never cloned stays one map and one probe per lookup, however
///   large it grows.
/// * When a clone (a published snapshot) shares the newest tier, an
///   insert copies it if it holds at most 32 entries;
///   otherwise it leaves it frozen — the clone keeps it, uncopied — and
///   opens a fresh tier on top.
/// * Freezing restores the size rule by *folding*: while a tier is less
///   than twice the one above it, the two are merged into one map. Each
///   entry is re-filed O(log n) times over the index's life, so inserts
///   stay amortized O(log n) with an occasional long fold
///   ([`KeyIndex::folds`] counts them), instead of the O(n) copy per
///   commit a single shared map costs.
///
/// [`KeyIndex::lookup`] probes tiers newest-first and returns the first
/// hit; with `k` tiers (`k ≤ log₂(n / 32) + 2`) a miss costs `k`
/// probes. A clone is never affected by later inserts or folds: shared
/// tiers are only ever read.
#[derive(Clone, Debug)]
pub struct KeyIndex {
    attrs: Vec<Attribute>,
    /// Oldest first; never empty.
    tiers: Vec<Arc<Tier>>,
    distinct_keys: usize,
    folds: u64,
}

impl KeyIndex {
    /// Builds a key index for `r`, or `None` when the scheme is keyless or
    /// some tuple lacks a constant key value (then no equality probe can be
    /// answered from an index safely).
    pub fn build(r: &Relation) -> Option<KeyIndex> {
        let attrs: Vec<Attribute> = r.scheme().key().to_vec();
        if attrs.is_empty() {
            return None;
        }
        let mut tier: Tier = HashMap::with_capacity(r.len());
        for (pos, t) in r.iter().enumerate() {
            let key = Key::of(&attrs, t)?;
            tier.entry(key)
                .and_modify(|held| match held {
                    Positions::One(first) => *held = Positions::Many(vec![*first, pos]),
                    Positions::Many(all) => all.push(pos),
                })
                .or_insert(Positions::One(pos));
        }
        Some(KeyIndex {
            attrs,
            distinct_keys: tier.len(),
            tiers: vec![Arc::new(tier)],
            folds: 0,
        })
    }

    /// Registers the tuple at `pos` under its constant key value.
    ///
    /// Returns `false` when the tuple has no constant value for some key
    /// attribute — then no equality probe can be answered from this index
    /// safely any more and the caller must drop it (mirroring
    /// [`KeyIndex::build`] returning `None` for such relations).
    #[must_use]
    pub fn insert(&mut self, pos: usize, tuple: &Tuple) -> bool {
        let Some(key) = Key::of(&self.attrs, tuple) else {
            return false;
        };
        let entry = match self.lookup(key.borrow()) {
            [] => {
                self.distinct_keys += 1;
                Positions::One(pos)
            }
            earlier => Positions::Many(earlier.iter().copied().chain([pos]).collect()),
        };
        self.writable_tier().insert(key, entry);
        true
    }

    /// The newest tier, made writable: in place when nothing shares it,
    /// by copy when it is small, else by freezing it under a fresh tier.
    fn writable_tier(&mut self) -> &mut Tier {
        let frozen = self
            .tiers
            .last_mut()
            .is_some_and(|t| Arc::get_mut(t).is_none() && t.len() > COPY_LIMIT);
        if frozen {
            self.fold();
            self.tiers.push(Arc::default());
        }
        let newest = self.tiers.len() - 1;
        Arc::make_mut(&mut self.tiers[newest])
    }

    /// Merges tiers from the top down while one is less than twice the
    /// size of the tier above it. A tier a clone shares is copied before
    /// it absorbs its neighbour, so the clone's tiers stay as they were.
    fn fold(&mut self) {
        while let [.., older, newer] = self.tiers.as_slice() {
            if older.len() >= 2 * newer.len() {
                break;
            }
            let newer = self.tiers.pop().unwrap_or_default();
            if let Some(older) = self.tiers.last_mut() {
                Arc::make_mut(older).extend(newer.iter().map(|(k, v)| (k.clone(), v.clone())));
            }
            self.folds += 1;
        }
    }

    /// The indexed key attributes, in key order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Positions of tuples whose key equals `key` (one value per key
    /// attribute, in key order), ascending. Empty when no tuple matches.
    pub fn lookup(&self, key: &[Value]) -> &[usize] {
        self.tiers
            .iter()
            .rev()
            .find_map(|tier| tier.get(key))
            .map_or(&[], Positions::as_slice)
    }

    /// Extracts `tuple`'s constant values for the indexed attributes, when
    /// all of them are constant — the probe key a join build side supplies.
    pub fn probe_key_of(&self, tuple: &Tuple) -> Option<Vec<Value>> {
        self.attrs
            .iter()
            .map(|a| tuple.value(a).and_then(|tv| tv.constant_value()).cloned())
            .collect()
    }

    /// Number of distinct key values.
    pub fn distinct_keys(&self) -> usize {
        self.distinct_keys
    }

    /// How many tier merges this index (and the indexes it was cloned
    /// from) has performed — each one a long insert.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Number of tiers a lookup may have to probe.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Do `self` and `other` hold the same allocation as tier `i`
    /// (oldest first)? What the structural-sharing tests assert on.
    pub fn shares_tier_with(&self, other: &KeyIndex, i: usize) -> bool {
        matches!((self.tiers.get(i), other.tiers.get(i)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
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

    fn tup(k: i64, lo: i64, hi: i64) -> Tuple {
        let life = Lifespan::interval(lo, hi);
        Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::constant(&life, Value::Int(k)))
            .finish(&scheme())
            .unwrap()
    }

    #[test]
    fn lookup_finds_positions() {
        let r = Relation::with_tuples(scheme(), vec![tup(10, 0, 5), tup(20, 3, 8), tup(30, 0, 9)])
            .unwrap();
        let idx = KeyIndex::build(&r).unwrap();
        assert_eq!(idx.attrs().len(), 1);
        assert_eq!(idx.lookup(&[Value::Int(20)]), &[1]);
        assert_eq!(idx.lookup(&[Value::Int(99)]), &[] as &[usize]);
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn duplicate_keys_from_unchecked_relations_all_reported() {
        // The uncorrected union of Fig. 11 can produce same-key tuples.
        let r = Relation::from_parts_unchecked(scheme(), vec![tup(7, 0, 5), tup(7, 10, 20)]);
        let idx = KeyIndex::build(&r).unwrap();
        assert_eq!(idx.lookup(&[Value::Int(7)]), &[0, 1]);
    }

    #[test]
    fn keyless_scheme_builds_nothing() {
        let keyless = scheme().project(&[Attribute::new("V")]).unwrap();
        assert!(KeyIndex::build(&Relation::new(keyless)).is_none());
    }

    impl Key {
        /// A key holding `values`, filed as the index files a tuple's.
        fn new(values: Vec<Value>) -> Key {
            match <[Value; 1]>::try_from(values) {
                Ok(one) => Key::One(one),
                Err(values) => Key::Many(values.into()),
            }
        }
    }

    #[test]
    fn composite_and_single_keys_probe_as_slices() {
        use std::hash::BuildHasher;
        let keys = std::collections::hash_map::RandomState::new();
        for values in [
            vec![Value::Int(3)],
            vec![Value::Int(3), Value::str("x")],
            vec![],
        ] {
            let key = Key::new(values.clone());
            assert!(matches!(key, Key::One(_)) == (values.len() == 1));
            assert_eq!(Borrow::<[Value]>::borrow(&key), values.as_slice());
            assert_eq!(keys.hash_one(&key), keys.hash_one(values.as_slice()));
        }
    }

    #[test]
    fn probe_key_extraction() {
        let r = Relation::with_tuples(scheme(), vec![tup(4, 0, 5)]).unwrap();
        let idx = KeyIndex::build(&r).unwrap();
        let key = idx.probe_key_of(&r.tuples()[0]).unwrap();
        assert_eq!(key, vec![Value::Int(4)]);
        assert_eq!(idx.lookup(&key), &[0]);
    }
}
