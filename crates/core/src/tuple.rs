//! Tuples: the paper's pairs `t = <v, l>` of a value mapping and a lifespan.

use crate::attribute::Attribute;
use crate::errors::{HrdmError, Result};
use crate::layout::Layout;
use crate::scheme::Scheme;
use crate::temporal::TemporalValue;
use crate::value::Value;
use hrdm_time::{Chronon, Interval, Lifespan};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::{Arc, LazyLock, OnceLock};

/// A tuple on a scheme `R`: an ordered pair `t = <v, l>` where `t.l` is the
/// tuple's lifespan and `t.v` maps each attribute `A ∈ R` to a partial
/// function in `t.l ∩ ALS(A, R) → DOM(A)` (paper §3).
///
/// The tuple lifespan and the attribute lifespans are *orthogonal* (paper
/// Fig. 7): "there is no value for an attribute in a tuple for any moment in
/// time not in the intersection of the lifespans of the tuple and the
/// attribute". That intersection is [`Tuple::vls`].
///
/// # Representation
///
/// `t.v` is stored by position: one exact-size slice of
/// [`TemporalValue`]s against a [`Layout`], the tuple's attribute names
/// sorted by name. The layout is shared, not owned: every tuple built for
/// ([`TupleBuilder::finish`]), decoded into, stored in or restricted within
/// a relation holds its scheme's one [`Scheme::layout`], and a derived
/// tuple (PROJECT, a join, a product) holds the one layout its operator
/// derived ([`Projection`], [`Concat`]). A tuple therefore carries no
/// attribute names of its own, and not its scheme either: it knows which
/// attributes it has values for, and [`Tuple::validate`] (with the
/// insertion paths of [`crate::relation::Relation`]) checks it against the
/// scheme's domains and lifespans.
///
/// Sized with a counting allocator, a tuple of the benchmark's
/// `hist(K*, V, W)` shape (five segments each for `V` and `W`; one
/// lifespan run, or three in one tuple of five) costs about 606 heap bytes
/// in 5.2 blocks: the shared header (lifespan, layout, value slice, cached
/// hash), the value slice and one segment slice per attribute. A one-run
/// lifespan lives inline in the header; the name-keyed map this replaced
/// cost about 1 000 bytes in 6 blocks.
///
/// Tuples are **immutable once built** and internally reference-counted:
/// [`Tuple::clone`] is an `Arc` bump, never a deep copy. This is what makes
/// relation snapshots (and the algebra operators, which clone tuples
/// liberally) cheap — a cloned relation of `n` tuples costs `n` pointer
/// copies, not `n` deep value copies.
///
/// Equality and hashing are by content: two tuples with the same lifespan
/// and the same functions of the same attributes are equal whether or not
/// they share a layout allocation.
///
/// The content hash — the lifespan and the values, hashed under one
/// random key drawn once per process — is computed on first use and
/// cached in the shared header, and `Hash` writes it as one `u64`. Every
/// clone of a stored tuple reuses it: `∪ ∩ −` hash a stored tuple once
/// per process, however many operands, operators and queries see it. A tuple built by an operator (a
/// restriction, a projection, a join's concatenation) is a new header and
/// hashes once on its own. Nothing is hashed eagerly: a tuple that no set
/// operator meets never computes its hash. The cache costs 16 bytes per
/// header (72 bytes instead of 56). The key is secret and random, so a
/// crafted collision still needs it.
#[derive(Clone, Eq)]
pub struct Tuple {
    repr: Arc<TupleRepr>,
}

/// The shared, immutable payload of a [`Tuple`].
#[derive(Clone)]
struct TupleRepr {
    lifespan: Lifespan,
    layout: Layout,
    /// `values[i]` is the function of `layout.names()[i]`.
    values: Box<[TemporalValue]>,
    /// The content hash, set on first use by [`TupleRepr::content_hash`].
    hash: OnceLock<u64>,
}

/// The key every tuple's content hash is taken under: random, drawn once
/// per process.
static CONTENT_KEY: LazyLock<RandomState> = LazyLock::new(RandomState::new);

impl TupleRepr {
    /// The lifespan and values hashed under [`CONTENT_KEY`]. Equal tuples
    /// hold equal values position by position, so leaving the names out
    /// keeps the hash in agreement with `Eq`, whichever layout allocation
    /// either side holds.
    fn content_hash(&self) -> u64 {
        *self
            .hash
            .get_or_init(|| CONTENT_KEY.hash_one((&self.lifespan, &self.values)))
    }
}

/// The hasher of a [`TupleSet`]. A tuple hashes as one `u64`, its cached
/// content hash, which is already random and keyed (crafted collisions
/// need the key), so this hands it through: a lookup or a growing table
/// hashes nothing again.
#[derive(Default)]
pub struct StoredHash(u64);

impl Hasher for StoredHash {
    fn write(&mut self, bytes: &[u8]) {
        // A tuple writes one `u64`; this only keeps the trait total.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of tuples filed by their cached content hashes: the `∪ ∩ −`
/// tables, an aggregate's distinct input, and set assembly
/// ([`crate::Relation::from_parts_unchecked`]).
pub type TupleSet = HashSet<Tuple, BuildHasherDefault<StoredHash>>;

impl PartialEq for TupleRepr {
    fn eq(&self, other: &TupleRepr) -> bool {
        self.lifespan == other.lifespan
            && self.values == other.values
            && self.layout == other.layout
    }
}

impl Eq for TupleRepr {}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        // Clones share their repr, so identity decides most comparisons
        // (set-semantics dedup, `contains_tuple`) without a deep walk.
        Arc::ptr_eq(&self.repr, &other.repr) || self.repr == other.repr
    }
}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.repr.content_hash());
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a Tuple);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.entries()).finish()
            }
        }
        f.debug_struct("Tuple")
            .field("lifespan", &self.repr.lifespan)
            .field("values", &Entries(self))
            .finish()
    }
}

impl Tuple {
    /// Wraps raw parts into the shared representation.
    fn new_raw(lifespan: Lifespan, layout: Layout, values: Box<[TemporalValue]>) -> Tuple {
        debug_assert_eq!(layout.len(), values.len());
        Tuple {
            repr: Arc::new(TupleRepr {
                lifespan,
                layout,
                values,
                hash: OnceLock::new(),
            }),
        }
    }

    /// Starts building a tuple with lifespan `l`.
    pub fn builder(lifespan: Lifespan) -> TupleBuilder {
        TupleBuilder {
            lifespan,
            values: Vec::new(),
        }
    }

    /// Assembles a tuple from raw parts without scheme validation.
    ///
    /// Intended for algebra internals and tests; user-facing construction
    /// goes through [`Tuple::builder`] + [`TupleBuilder::finish`]. The
    /// tuple gets a layout of its own.
    pub fn from_parts(lifespan: Lifespan, values: BTreeMap<Attribute, TemporalValue>) -> Tuple {
        let (names, values): (Vec<Attribute>, Vec<TemporalValue>) = values.into_iter().unzip();
        Tuple::new_raw(lifespan, Layout::from_sorted(names), values.into())
    }

    /// Assembles a tuple from values stored by position against `layout`
    /// (`values[i]` is the function of `layout.names()[i]`), without
    /// scheme validation — what decoders use to share one layout across
    /// the tuples they decode. `None` when the counts differ.
    pub fn from_layout(
        lifespan: Lifespan,
        layout: &Layout,
        values: Vec<TemporalValue>,
    ) -> Option<Tuple> {
        (values.len() == layout.len())
            .then(|| Tuple::new_raw(lifespan, layout.clone(), values.into()))
    }

    /// `t.l` — the tuple's lifespan.
    pub fn lifespan(&self) -> &Lifespan {
        &self.repr.lifespan
    }

    /// The layout the tuple's values are stored against.
    pub fn layout(&self) -> &Layout {
        &self.repr.layout
    }

    /// `t.v(A)` — the temporal value of attribute `A`, if the tuple carries
    /// an entry for it. Validated tuples carry an entry (possibly the empty
    /// function) for every scheme attribute.
    pub fn value(&self, attr: &Attribute) -> Option<&TemporalValue> {
        self.repr
            .layout
            .position(attr)
            .map(|i| &self.repr.values[i])
    }

    /// `t(A)(s)` — the value of attribute `A` at time `s`, or `None` where
    /// undefined ("the attribute is not relevant at such times", §3).
    pub fn at(&self, attr: &Attribute, s: Chronon) -> Option<&Value> {
        self.value(attr).and_then(|tv| tv.at(s))
    }

    /// `vls(t, A, R) = t.l ∩ ALS(A, R)` — "the set of times over which the
    /// value is defined" (paper §3).
    pub fn vls(&self, scheme: &Scheme, attr: &Attribute) -> Result<Lifespan> {
        Ok(self.repr.lifespan.intersect(scheme.als(attr)?))
    }

    /// `vls(t, X, R)` for a set of attributes: the intersection of the
    /// individual value lifespans (paper §3's extension of `vls` to sets).
    pub fn vls_set(&self, scheme: &Scheme, attrs: &[Attribute]) -> Result<Lifespan> {
        let mut acc = self.repr.lifespan.clone();
        for a in attrs {
            acc = acc.intersect(scheme.als(a)?);
            if acc.is_empty() {
                break;
            }
        }
        Ok(acc)
    }

    /// The attributes for which this tuple carries entries, ascending by
    /// name.
    pub fn attributes(&self) -> impl Iterator<Item = &Attribute> + '_ {
        self.repr.layout.names().iter()
    }

    /// The `(attribute, function)` entries, ascending by attribute name.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (&Attribute, &TemporalValue)> + '_ {
        self.repr.layout.names().iter().zip(self.repr.values.iter())
    }

    /// This tuple stored against `layout` when that lists the same
    /// attributes (a relation re-homes the tuples it stores onto its
    /// scheme's one layout); otherwise the tuple unchanged.
    pub(crate) fn in_layout(self, layout: &Layout) -> Tuple {
        if self.repr.layout.same(layout) || self.repr.layout != *layout {
            return self;
        }
        let TupleRepr {
            lifespan, values, ..
        } = Arc::unwrap_or_clone(self.repr);
        Tuple::new_raw(lifespan, layout.clone(), values)
    }

    /// Validates the tuple against a scheme, enforcing the paper's
    /// restrictions:
    ///
    /// * every entry names a scheme attribute,
    /// * every value inhabits its attribute's value domain,
    /// * every value's domain of definition lies within
    ///   `vls(t, A, R) = t.l ∩ ALS(A, R)` (restriction (b)),
    /// * constant-domain (`CD`) attributes carry constant functions.
    pub fn validate(&self, scheme: &Scheme) -> Result<()> {
        for (attr, tv) in self.entries() {
            let def = scheme
                .attr(attr)
                .ok_or_else(|| HrdmError::UnknownAttribute(attr.clone()))?;
            for (_, v) in tv.segments() {
                if !def.domain().admits(v) {
                    return Err(HrdmError::DomainMismatch {
                        attribute: attr.clone(),
                        expected: def.domain().kind(),
                        found: v.kind(),
                    });
                }
            }
            // The value's domain must lie in vls = t.l ∩ ALS. A segment is
            // one interval, so it lies in the intersection exactly when it
            // lies in a run of each — checked in place, segment by segment,
            // without materializing either lifespan (this runs for every
            // tuple inserted, replayed or loaded).
            let within_vls = |iv: &Interval| {
                self.repr.lifespan.contains_interval(iv) && def.lifespan().contains_interval(iv)
            };
            if !tv.segments().iter().all(|(iv, _)| within_vls(iv)) {
                return Err(HrdmError::ValueOutsideLifespan {
                    attribute: attr.clone(),
                });
            }
            if def.domain().is_constant() && !tv.is_constant() {
                return Err(HrdmError::NotConstant(attr.clone()));
            }
        }
        Ok(())
    }

    /// The constant value of key attribute `k`, or why there is none.
    fn key_value(&self, k: &Attribute) -> Result<&Value> {
        let tv = self
            .value(k)
            .ok_or_else(|| HrdmError::MissingAttributeValue(k.clone()))?;
        match tv.constant_value() {
            Some(v) => Ok(v),
            None if tv.is_empty() => Err(HrdmError::MissingKeyValue(k.clone())),
            None => Err(HrdmError::NotConstant(k.clone())),
        }
    }

    /// The tuple's (constant) key value under `scheme`, as one atomic value
    /// per key attribute in key order.
    ///
    /// Key attributes draw from `CD`, so the value is time-invariant; a key
    /// attribute with an empty function has no key value, which is an error
    /// for tuples entering a keyed relation.
    pub fn key_values(&self, scheme: &Scheme) -> Result<Vec<Value>> {
        scheme
            .key()
            .iter()
            .map(|k| self.key_value(k).cloned())
            .collect()
    }

    /// A hash of the tuple's constant value for the attributes `key`,
    /// taken under the same secret key as the content hash; `None` when
    /// `key` is empty or the tuple has no constant value for one of them.
    /// Tuples with different hashes have different key values, so they
    /// cannot be equal.
    pub(crate) fn key_hash(&self, key: &[Attribute]) -> Option<u64> {
        if key.is_empty() {
            return None;
        }
        let mut h = CONTENT_KEY.build_hasher();
        for k in key {
            self.key_value(k).ok()?.hash(&mut h);
        }
        Some(h.finish())
    }

    /// Is `key` (one value per key attribute, in key order) this tuple's
    /// key value under `scheme`? Compared in place, without building the
    /// tuple's key vector; `false` when the tuple has no key value.
    pub(crate) fn has_key(&self, key: &[Value], scheme: &Scheme) -> bool {
        key.len() == scheme.key().len()
            && scheme
                .key()
                .iter()
                .zip(key)
                .all(|(k, v)| self.key_value(k).is_ok_and(|mine| mine == v))
    }

    /// Do the two tuples have the same key value under `scheme`? Compared
    /// in place; `false` when either has none.
    fn same_key(&self, other: &Tuple, scheme: &Scheme) -> bool {
        scheme
            .key()
            .iter()
            .all(|k| matches!((self.key_value(k), other.key_value(k)), (Ok(a), Ok(b)) if a == b))
    }

    /// The restriction `t|_L`: lifespan clipped to `t.l ∩ L` and every value
    /// restricted accordingly. This is the tuple-level engine of TIME-SLICE
    /// and SELECT-WHEN.
    ///
    /// **Sharing guarantee.** When `L ⊇ t.l` the result *is* `t`: a clone
    /// sharing its allocation (an `Arc` bump), decided by an
    /// allocation-free subset walk. That covers every interior tuple of a
    /// wide TIME-SLICE and every SELECT-WHEN whose truth span is all of
    /// `t.l` (every key probe), and lets downstream set operators compare
    /// such tuples by identity. It is exactly the deep restriction, because
    /// temporal values are canonical by construction and a valid tuple's
    /// lie within `t.l` (restriction (b), checked by [`Tuple::validate`]):
    /// restricting them to `t.l` changes nothing. When `L` misses part of
    /// `t.l`, the result is a new tuple on the same layout.
    pub fn restrict(&self, span: &Lifespan) -> Tuple {
        if span.contains_lifespan(&self.repr.lifespan) {
            return self.clone();
        }
        let lifespan = self.repr.lifespan.intersect(span);
        let values = self
            .repr
            .values
            .iter()
            .map(|tv| tv.restrict(&lifespan))
            .collect();
        Tuple::new_raw(lifespan, self.repr.layout.clone(), values)
    }

    /// Clips every value to its `vls(t, A, R)` under `scheme` — the
    /// conforming view of a tuple after **schema evolution** shrank an
    /// attribute lifespan: values outside the new ALS become invisible
    /// rather than invalid (paper §2's reading of attribute lifespans).
    pub fn clipped_to_scheme(&self, scheme: &Scheme) -> Tuple {
        let values = self
            .entries()
            .map(|(a, tv)| match scheme.als(a) {
                Ok(als) => tv.restrict(&self.repr.lifespan.intersect(als)),
                Err(_) => tv.clone(),
            })
            .collect();
        let layout = if self.repr.layout == *scheme.layout() {
            scheme.layout()
        } else {
            &self.repr.layout
        };
        Tuple::new_raw(self.repr.lifespan.clone(), layout.clone(), values)
    }

    /// Keeps only the entries for `attrs` (the tuple-level engine of
    /// PROJECT). The tuple lifespan is unchanged — the paper's PROJECT "does
    /// not change the values of any of the remaining attributes" (§4.2), and
    /// the tuple still describes the same object over the same span.
    ///
    /// Derives the output layout for this one tuple; an operator
    /// projecting many tuples uses a [`Projection`].
    pub fn project(&self, attrs: &[Attribute]) -> Tuple {
        ProjectPlan::derive(&self.repr.layout, attrs).apply(self)
    }

    /// Mergability of two tuples on merge-compatible schemes (paper §4.1):
    ///
    /// 1. the schemes are merge-compatible (checked by the caller at the
    ///    relation level),
    /// 2. the tuples have the same key value,
    /// 3. "they do not contradict one another at any point in time": wherever
    ///    both tuples define a value for an attribute, the values agree (this
    ///    is precisely the condition making `t1.v(A) ∪ t2.v(A)` a function).
    pub fn mergable(&self, other: &Tuple, scheme: &Scheme) -> bool {
        if !self.same_key(other, scheme) {
            return false;
        }
        if self.repr.layout == other.repr.layout {
            return self
                .repr
                .values
                .iter()
                .zip(other.repr.values.iter())
                .all(|(tv, otv)| tv.compatible_with(otv));
        }
        self.entries().all(|(attr, tv)| match other.value(attr) {
            Some(otv) => tv.compatible_with(otv),
            None => true,
        })
    }

    /// The merge `t1 + t2` (paper §4.1): `(t1+t2).l = t1.l ∪ t2.l` and
    /// `(t1+t2).v(A) = t1.v(A) ∪ t2.v(A)`.
    pub fn merge(&self, other: &Tuple) -> Result<Tuple> {
        let lifespan = self.repr.lifespan.union(&other.repr.lifespan);
        let contradiction = |attr: &Attribute| HrdmError::ContradictoryValues {
            attribute: attr.clone(),
        };
        if self.repr.layout == other.repr.layout {
            let values = self
                .entries()
                .zip(other.repr.values.iter())
                .map(|((attr, mine), theirs)| {
                    mine.try_union(theirs).map_err(|_| contradiction(attr))
                })
                .collect::<Result<_>>()?;
            return Ok(Tuple::new_raw(lifespan, self.repr.layout.clone(), values));
        }
        // Different attribute sets: the union of both, by name.
        let mut values: BTreeMap<Attribute, TemporalValue> = self
            .entries()
            .map(|(a, tv)| (a.clone(), tv.clone()))
            .collect();
        for (attr, tv) in other.entries() {
            match values.get_mut(attr) {
                Some(mine) => *mine = mine.try_union(tv).map_err(|_| contradiction(attr))?,
                None => {
                    values.insert(attr.clone(), tv.clone());
                }
            }
        }
        Ok(Tuple::from_parts(lifespan, values))
    }

    /// "Given a tuple t and a set of tuples S, t is *matched* in S if there
    /// is some tuple t' in S such that t is mergable with t'" (paper §4.1).
    pub fn matched_in<'a, I>(&self, tuples: I, scheme: &Scheme) -> bool
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        tuples.into_iter().any(|t| self.mergable(t, scheme))
    }

    /// Does the tuple carry any information at all (non-empty lifespan)?
    pub fn bears_information(&self) -> bool {
        !self.repr.lifespan.is_empty()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<l={}", self.repr.lifespan)?;
        for (a, tv) in self.entries() {
            write!(f, ", {a}={tv}")?;
        }
        f.write_str(">")
    }
}

/// PROJECT's output layout for one input layout: the kept names and where
/// their values sit in the input.
struct ProjectPlan {
    input: Layout,
    output: Layout,
    /// Input positions of the output's values, in output order.
    picks: Box<[usize]>,
}

impl ProjectPlan {
    fn derive(input: &Layout, attrs: &[Attribute]) -> ProjectPlan {
        let mut picks: Vec<usize> = attrs.iter().filter_map(|a| input.position(a)).collect();
        // Input positions ascend with the names, so sorting them sorts the
        // output layout.
        picks.sort_unstable();
        picks.dedup();
        let names = picks.iter().map(|&i| input.names()[i].clone()).collect();
        ProjectPlan {
            input: input.clone(),
            output: Layout::from_sorted(names),
            picks: picks.into(),
        }
    }

    fn apply(&self, t: &Tuple) -> Tuple {
        let values = self
            .picks
            .iter()
            .map(|&i| t.repr.values[i].clone())
            .collect();
        Tuple::new_raw(t.repr.lifespan.clone(), self.output.clone(), values)
    }
}

/// PROJECT `π_X` as one operator: the output layout is derived from the
/// first input tuple's layout and reused for every tuple on an equal
/// layout — once per operator, not once per tuple. A tuple on another
/// layout is projected on its own.
pub struct Projection {
    attrs: Vec<Attribute>,
    plan: OnceLock<ProjectPlan>,
}

impl Projection {
    /// The projection onto `attrs`.
    pub fn new(attrs: &[Attribute]) -> Projection {
        Projection {
            attrs: attrs.to_vec(),
            plan: OnceLock::new(),
        }
    }

    /// `t` projected onto the attributes ([`Tuple::project`]).
    pub fn apply(&self, t: &Tuple) -> Tuple {
        let layout = &t.repr.layout;
        let plan = self
            .plan
            .get_or_init(|| ProjectPlan::derive(layout, &self.attrs));
        if plan.input == *layout {
            plan.apply(t)
        } else {
            ProjectPlan::derive(layout, &self.attrs).apply(t)
        }
    }
}

/// Where a concatenated tuple's value comes from.
#[derive(Clone, Copy)]
enum Pick {
    Left(usize),
    Right(usize),
}

/// A concatenation's output layout for one pair of input layouts.
struct ConcatPlan {
    left: Layout,
    right: Layout,
    output: Layout,
    picks: Box<[Pick]>,
}

impl ConcatPlan {
    /// The union of both name lists. A name on both sides takes the right
    /// operand's function, as a name-keyed map filled left then right
    /// would.
    fn derive(left: &Layout, right: &Layout) -> ConcatPlan {
        let lefts = left.names().iter().enumerate();
        let rights = right.names().iter().enumerate();
        let by_name: BTreeMap<Attribute, Pick> = lefts
            .map(|(k, a)| (a.clone(), Pick::Left(k)))
            .chain(rights.map(|(k, a)| (a.clone(), Pick::Right(k))))
            .collect();
        ConcatPlan {
            left: left.clone(),
            right: right.clone(),
            output: Layout::from_sorted(by_name.keys().cloned().collect()),
            picks: by_name.into_values().collect(),
        }
    }

    fn apply(&self, t1: &Tuple, t2: &Tuple, lifespan: Lifespan, restrict: bool) -> Tuple {
        let values = self
            .picks
            .iter()
            .map(|pick| {
                let tv = match *pick {
                    Pick::Left(k) => &t1.repr.values[k],
                    Pick::Right(k) => &t2.repr.values[k],
                };
                if restrict {
                    tv.restrict(&lifespan)
                } else {
                    tv.clone()
                }
            })
            .collect();
        Tuple::new_raw(lifespan, self.output.clone(), values)
    }
}

/// The tuple concatenation of one product or join operator: the output
/// layout is derived from the first pair's layouts and reused for every
/// pair on equal layouts — once per operator, not once per pair. A pair on
/// other layouts is concatenated on its own.
#[derive(Default)]
pub struct Concat {
    plan: OnceLock<ConcatPlan>,
}

impl Concat {
    /// A concatenation with no layout derived yet.
    pub fn new() -> Concat {
        Concat::default()
    }

    fn apply(&self, t1: &Tuple, t2: &Tuple, lifespan: Lifespan, restrict: bool) -> Tuple {
        let (l, r) = (&t1.repr.layout, &t2.repr.layout);
        let plan = self.plan.get_or_init(|| ConcatPlan::derive(l, r));
        if plan.left == *l && plan.right == *r {
            plan.apply(t1, t2, lifespan, restrict)
        } else {
            ConcatPlan::derive(l, r).apply(t1, t2, lifespan, restrict)
        }
    }

    /// Concatenates two tuples over disjoint attribute sets, with the given
    /// result lifespan; each side's values are restricted to it. Engine of
    /// the joins, which differ only in how `l` is computed.
    pub(crate) fn restricted(&self, t1: &Tuple, t2: &Tuple, lifespan: Lifespan) -> Tuple {
        self.apply(t1, t2, lifespan, true)
    }

    /// Concatenates two tuples over disjoint attribute sets *without*
    /// restricting values: the paper's Cartesian product keeps each value on
    /// its own lifespan, leaving "null" (undefined) stretches inside the
    /// union lifespan (§5 discussion).
    pub(crate) fn unrestricted(&self, t1: &Tuple, t2: &Tuple, lifespan: Lifespan) -> Tuple {
        self.apply(t1, t2, lifespan, false)
    }
}

/// Builder for validated tuples.
pub struct TupleBuilder {
    lifespan: Lifespan,
    values: Vec<(Attribute, Pending)>,
}

enum Pending {
    /// An explicit temporal function.
    Explicit(TemporalValue),
    /// A constant over the attribute's whole `vls(t, A, R)`, resolved when
    /// the scheme is known.
    ConstantOverVls(Value),
}

impl TupleBuilder {
    /// Sets an explicit temporal function for `attr`.
    pub fn value(mut self, attr: impl Into<Attribute>, tv: TemporalValue) -> TupleBuilder {
        self.values.push((attr.into(), Pending::Explicit(tv)));
        self
    }

    /// Sets `attr` to a constant over its entire value lifespan
    /// `t.l ∩ ALS(A, R)` — the natural way to populate key attributes.
    pub fn constant(mut self, attr: impl Into<Attribute>, v: impl Into<Value>) -> TupleBuilder {
        self.values
            .push((attr.into(), Pending::ConstantOverVls(v.into())));
        self
    }

    /// Resolves pending values against `scheme`, fills missing attributes
    /// with the empty function, and validates the result. The tuple shares
    /// the scheme's layout.
    pub fn finish(self, scheme: &Scheme) -> Result<Tuple> {
        let layout = scheme.layout();
        let mut slots: Vec<Option<TemporalValue>> = vec![None; layout.len()];
        for (attr, pending) in self.values {
            let Some(i) = layout.position(&attr) else {
                return Err(HrdmError::UnknownAttribute(attr));
            };
            if slots[i].is_some() {
                return Err(HrdmError::DuplicateAttribute(attr));
            }
            slots[i] = Some(match pending {
                Pending::Explicit(tv) => tv,
                Pending::ConstantOverVls(v) => {
                    let als = scheme.als(&attr)?;
                    TemporalValue::constant(&self.lifespan.intersect(als), v)
                }
            });
        }
        let values: Vec<TemporalValue> = slots.into_iter().map(Option::unwrap_or_default).collect();
        let tuple = Tuple::new_raw(self.lifespan, layout.clone(), values.into());
        tuple.validate(scheme)?;
        Ok(tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{HistoricalDomain, ValueKind};

    fn ls(lo: i64, hi: i64) -> Lifespan {
        Lifespan::interval(lo, hi)
    }

    fn emp_scheme() -> Scheme {
        Scheme::builder()
            .key_attr("NAME", ValueKind::Str, ls(0, 100))
            .attr("SALARY", HistoricalDomain::int(), ls(0, 100))
            .attr(
                "DEPT",
                HistoricalDomain::string(),
                Lifespan::of(&[(0, 49), (60, 100)]),
            )
            .build()
            .unwrap()
    }

    fn john() -> Tuple {
        Tuple::builder(Lifespan::of(&[(10, 30), (40, 70)]))
            .constant("NAME", "John")
            .value(
                "SALARY",
                TemporalValue::of(&[
                    (10, 20, Value::Int(25_000)),
                    (21, 30, Value::Int(30_000)),
                    (40, 70, Value::Int(30_000)),
                ]),
            )
            .value(
                "DEPT",
                TemporalValue::of(&[(10, 30, Value::str("Toys")), (40, 49, Value::str("Shoes"))]),
            )
            .finish(&emp_scheme())
            .unwrap()
    }

    #[test]
    fn builder_fills_constant_over_vls() {
        let t = john();
        let name = t.value(&Attribute::new("NAME")).unwrap();
        assert!(name.is_constant());
        // NAME's vls = t.l ∩ ALS(NAME) = t.l
        assert_eq!(name.domain(), Lifespan::of(&[(10, 30), (40, 70)]));
    }

    #[test]
    fn vls_is_intersection_of_tuple_and_attribute_lifespans() {
        // Paper Fig. 7: the value only exists on X ∩ Y.
        let t = john();
        let s = emp_scheme();
        assert_eq!(
            t.vls(&s, &Attribute::new("DEPT")).unwrap(),
            Lifespan::of(&[(10, 30), (40, 49), (60, 70)])
        );
        assert_eq!(
            t.vls(&s, &Attribute::new("SALARY")).unwrap(),
            Lifespan::of(&[(10, 30), (40, 70)])
        );
    }

    #[test]
    fn vls_set_intersects_across_attributes() {
        let t = john();
        let s = emp_scheme();
        let x = [Attribute::new("SALARY"), Attribute::new("DEPT")];
        assert_eq!(
            t.vls_set(&s, &x).unwrap(),
            Lifespan::of(&[(10, 30), (40, 49), (60, 70)])
        );
    }

    #[test]
    fn at_reads_point_values() {
        let t = john();
        assert_eq!(
            t.at(&Attribute::new("SALARY"), Chronon::new(15)),
            Some(&Value::Int(25_000))
        );
        assert_eq!(
            t.at(&Attribute::new("SALARY"), Chronon::new(35)),
            None // gap between incarnations
        );
        assert_eq!(t.at(&Attribute::new("DEPT"), Chronon::new(55)), None);
    }

    #[test]
    fn validate_rejects_value_outside_vls() {
        let s = emp_scheme();
        let err = Tuple::builder(ls(10, 20))
            .constant("NAME", "X")
            .value("SALARY", TemporalValue::of(&[(15, 25, Value::Int(1))]))
            .finish(&s)
            .unwrap_err();
        assert_eq!(
            err,
            HrdmError::ValueOutsideLifespan {
                attribute: Attribute::new("SALARY")
            }
        );
    }

    #[test]
    fn validate_rejects_domain_mismatch() {
        let s = emp_scheme();
        let err = Tuple::builder(ls(10, 20))
            .constant("NAME", "X")
            .value("SALARY", TemporalValue::of(&[(10, 12, Value::str("oops"))]))
            .finish(&s)
            .unwrap_err();
        assert!(matches!(err, HrdmError::DomainMismatch { .. }));
    }

    #[test]
    fn validate_rejects_nonconstant_key() {
        let s = emp_scheme();
        let err = Tuple::builder(ls(10, 20))
            .value(
                "NAME",
                TemporalValue::of(&[(10, 15, Value::str("A")), (16, 20, Value::str("B"))]),
            )
            .finish(&s)
            .unwrap_err();
        assert_eq!(err, HrdmError::NotConstant(Attribute::new("NAME")));
    }

    #[test]
    fn validate_rejects_unknown_attribute() {
        let s = emp_scheme();
        let err = Tuple::builder(ls(10, 20))
            .constant("BONUS", 5i64)
            .finish(&s)
            .unwrap_err();
        assert_eq!(err, HrdmError::UnknownAttribute(Attribute::new("BONUS")));
    }

    #[test]
    fn key_values_extraction() {
        let t = john();
        assert_eq!(
            t.key_values(&emp_scheme()).unwrap(),
            vec![Value::str("John")]
        );
    }

    #[test]
    fn key_values_error_when_empty() {
        let s = emp_scheme();
        let t = Tuple::builder(ls(10, 20)).finish(&s).unwrap();
        assert_eq!(
            t.key_values(&s).unwrap_err(),
            HrdmError::MissingKeyValue(Attribute::new("NAME"))
        );
    }

    #[test]
    fn restrict_clips_tuple_and_values() {
        let t = john().restrict(&ls(25, 45));
        assert_eq!(t.lifespan(), &Lifespan::of(&[(25, 30), (40, 45)]));
        let salary = t.value(&Attribute::new("SALARY")).unwrap();
        assert_eq!(salary.domain(), Lifespan::of(&[(25, 30), (40, 45)]));
        assert_eq!(salary.at(Chronon::new(26)), Some(&Value::Int(30_000)));
    }

    #[test]
    fn project_keeps_lifespan() {
        let t = john().project(&[Attribute::new("NAME")]);
        assert_eq!(t.lifespan(), john().lifespan());
        assert!(t.value(&Attribute::new("SALARY")).is_none());
        assert!(t.value(&Attribute::new("NAME")).is_some());
    }

    #[test]
    fn mergable_requires_same_key_and_no_contradiction() {
        let s = emp_scheme();
        let early = Tuple::builder(ls(0, 9))
            .constant("NAME", "Ann")
            .value("SALARY", TemporalValue::of(&[(0, 9, Value::Int(10))]))
            .finish(&s)
            .unwrap();
        let late = Tuple::builder(ls(20, 29))
            .constant("NAME", "Ann")
            .value("SALARY", TemporalValue::of(&[(20, 29, Value::Int(12))]))
            .finish(&s)
            .unwrap();
        let other_person = Tuple::builder(ls(0, 9))
            .constant("NAME", "Bob")
            .finish(&s)
            .unwrap();

        assert!(early.mergable(&late, &s));
        assert!(!early.mergable(&other_person, &s));

        // Contradiction: overlapping lifespans with different salaries.
        let contradicting = Tuple::builder(ls(5, 9))
            .constant("NAME", "Ann")
            .value("SALARY", TemporalValue::of(&[(5, 9, Value::Int(99))]))
            .finish(&s)
            .unwrap();
        assert!(!early.mergable(&contradicting, &s));

        // Agreement on the overlap is fine.
        let agreeing = Tuple::builder(ls(5, 12))
            .constant("NAME", "Ann")
            .value(
                "SALARY",
                TemporalValue::of(&[(5, 9, Value::Int(10)), (10, 12, Value::Int(11))]),
            )
            .finish(&s)
            .unwrap();
        assert!(early.mergable(&agreeing, &s));
    }

    #[test]
    fn merge_unions_lifespans_and_values() {
        let s = emp_scheme();
        let early = Tuple::builder(ls(0, 9))
            .constant("NAME", "Ann")
            .value("SALARY", TemporalValue::of(&[(0, 9, Value::Int(10))]))
            .finish(&s)
            .unwrap();
        let late = Tuple::builder(ls(20, 29))
            .constant("NAME", "Ann")
            .value("SALARY", TemporalValue::of(&[(20, 29, Value::Int(12))]))
            .finish(&s)
            .unwrap();
        let merged = early.merge(&late).unwrap();
        assert_eq!(merged.lifespan(), &Lifespan::of(&[(0, 9), (20, 29)]));
        let sal = merged.value(&Attribute::new("SALARY")).unwrap();
        assert_eq!(sal.at(Chronon::new(5)), Some(&Value::Int(10)));
        assert_eq!(sal.at(Chronon::new(25)), Some(&Value::Int(12)));
        assert_eq!(sal.at(Chronon::new(15)), None);
        // The merged NAME is the union of two constants over the two spans.
        let name = merged.value(&Attribute::new("NAME")).unwrap();
        assert!(name.is_constant());
        assert_eq!(name.domain(), Lifespan::of(&[(0, 9), (20, 29)]));
    }

    #[test]
    fn matched_in_scans_a_set() {
        let s = emp_scheme();
        let a = Tuple::builder(ls(0, 9))
            .constant("NAME", "Ann")
            .finish(&s)
            .unwrap();
        let b = Tuple::builder(ls(10, 19))
            .constant("NAME", "Ann")
            .finish(&s)
            .unwrap();
        let c = Tuple::builder(ls(0, 9))
            .constant("NAME", "Cy")
            .finish(&s)
            .unwrap();
        let set = [b.clone(), c.clone()];
        assert!(a.matched_in(set.iter(), &s));
        let set2 = [c];
        assert!(!a.matched_in(set2.iter(), &s));
    }

    #[test]
    fn clones_share_the_cached_content_hash() {
        let t = john();
        let clone = t.clone();
        assert_eq!(clone.repr.hash.get(), None, "nothing hashes eagerly");
        let keys = RandomState::new();
        keys.hash_one(&t);
        assert!(clone.repr.hash.get().is_some());
        assert_eq!(clone.repr.hash.get(), t.repr.hash.get());
        assert_eq!(keys.hash_one(&clone), keys.hash_one(&t));
    }

    #[test]
    fn display_renders() {
        let text = john().to_string();
        assert!(text.contains("NAME"));
        assert!(text.contains("John"));
    }
}
