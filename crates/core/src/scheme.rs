//! Relation schemes: the paper's 4-tuple `R = <A, K, ALS, DOM>`.

use crate::attribute::Attribute;
use crate::domain::{HistoricalDomain, ValueKind};
use crate::errors::{HrdmError, Result};
use crate::layout::Layout;
use hrdm_time::Lifespan;
use std::collections::HashSet;
use std::fmt;

/// One attribute of a scheme: its name, its historical domain (`DOM(A)`),
/// and its attribute lifespan (`ALS(A, R)`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttributeDef {
    name: Attribute,
    domain: HistoricalDomain,
    lifespan: Lifespan,
}

impl AttributeDef {
    /// Creates an attribute definition.
    pub fn new(
        name: impl Into<Attribute>,
        domain: HistoricalDomain,
        lifespan: Lifespan,
    ) -> AttributeDef {
        AttributeDef {
            name: name.into(),
            domain,
            lifespan,
        }
    }

    /// The attribute's name.
    pub fn name(&self) -> &Attribute {
        &self.name
    }

    /// `DOM(A)` — the attribute's historical domain.
    pub fn domain(&self) -> &HistoricalDomain {
        &self.domain
    }

    /// `ALS(A, R)` — the attribute's lifespan within the scheme: "the period
    /// of time over which this attribute is defined in that relation"
    /// (paper §2), the mechanism for evolving schemes (paper Fig. 6).
    pub fn lifespan(&self) -> &Lifespan {
        &self.lifespan
    }
}

/// A relation scheme `R = <A, K, ALS, DOM>` (paper §3):
///
/// 1. `A ⊆ U` — the attributes (kept in declaration order),
/// 2. `K ⊆ A` — the key attributes,
/// 3. `ALS : A → 2^T` — a lifespan per attribute,
/// 4. `DOM : A → HD` — a historical domain per attribute, with the paper's
///    restriction (a): key attributes draw from the constant subdomain `CD`.
///
/// Restriction (b) — every value function's domain lies within `ALS(A, R)` —
/// is enforced when tuples are validated against the scheme.
///
/// `K` may be empty on *derived* schemes (e.g. a projection that drops key
/// attributes); such relations enforce no key constraint, only set semantics.
///
/// A scheme also owns the [`Layout`] of its attributes — their names,
/// sorted — which every tuple of a relation on it shares.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scheme {
    attrs: Vec<AttributeDef>,
    key: Vec<Attribute>,
    layout: Layout,
}

impl Scheme {
    /// Starts building a scheme.
    pub fn builder() -> SchemeBuilder {
        SchemeBuilder {
            attrs: Vec::new(),
            key: Vec::new(),
        }
    }

    /// Constructs a scheme from parts, validating the paper's restrictions.
    pub fn new(attrs: Vec<AttributeDef>, key: Vec<Attribute>) -> Result<Scheme> {
        if attrs.is_empty() {
            return Err(HrdmError::EmptyScheme);
        }
        let mut seen: HashSet<&Attribute> = HashSet::with_capacity(attrs.len());
        for def in &attrs {
            if !seen.insert(&def.name) {
                return Err(HrdmError::DuplicateAttribute(def.name.clone()));
            }
        }
        let mut key_seen: HashSet<&Attribute> = HashSet::with_capacity(key.len());
        for k in &key {
            if !key_seen.insert(k) {
                return Err(HrdmError::DuplicateAttribute(k.clone()));
            }
            match attrs.iter().find(|d| &d.name == k) {
                None => return Err(HrdmError::KeyNotInScheme(k.clone())),
                Some(def) if !def.domain.is_constant() => {
                    return Err(HrdmError::KeyNotConstant(k.clone()))
                }
                Some(_) => {}
            }
        }
        Ok(Scheme::assemble(attrs, key))
    }

    /// A scheme from parts whose restrictions hold, with its layout.
    fn assemble(attrs: Vec<AttributeDef>, key: Vec<Attribute>) -> Scheme {
        let mut names: Vec<Attribute> = attrs.iter().map(|d| d.name.clone()).collect();
        names.sort();
        Scheme {
            layout: Layout::from_sorted(names),
            attrs,
            key,
        }
    }

    /// The attribute definitions, in declaration order.
    pub fn attrs(&self) -> &[AttributeDef] {
        &self.attrs
    }

    /// The attribute names, in declaration order.
    pub fn attr_names(&self) -> impl Iterator<Item = &Attribute> + '_ {
        self.attrs.iter().map(|d| &d.name)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attribute names sorted by name: the positional layout of every
    /// tuple of a relation on this scheme.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The key attributes `K`.
    pub fn key(&self) -> &[Attribute] {
        &self.key
    }

    /// Is `name` a key attribute?
    pub fn is_key(&self, name: &Attribute) -> bool {
        self.key.contains(name)
    }

    /// Looks up an attribute definition.
    pub fn attr(&self, name: &Attribute) -> Option<&AttributeDef> {
        self.attrs.iter().find(|d| &d.name == name)
    }

    /// Does the scheme contain `name`?
    pub fn contains(&self, name: &Attribute) -> bool {
        self.attr(name).is_some()
    }

    /// `ALS(A, R)`, or an error for unknown attributes.
    pub fn als(&self, name: &Attribute) -> Result<&Lifespan> {
        self.attr(name)
            .map(|d| &d.lifespan)
            .ok_or_else(|| HrdmError::UnknownAttribute(name.clone()))
    }

    /// `DOM(A)`, or an error for unknown attributes.
    pub fn dom(&self, name: &Attribute) -> Result<&HistoricalDomain> {
        self.attr(name)
            .map(|d| &d.domain)
            .ok_or_else(|| HrdmError::UnknownAttribute(name.clone()))
    }

    /// The lifespan of the whole scheme: "the union of the lifespans of all
    /// of the attributes in the schema" (paper §2).
    pub fn lifespan(&self) -> Lifespan {
        self.attrs
            .iter()
            .fold(Lifespan::empty(), |acc, d| acc.union(&d.lifespan))
    }

    /// The paper's §2 covenant: "the lifespan of the key attributes must be
    /// the same as the lifespan of the entire relation schema". Stated as a
    /// design constraint rather than part of the formal §3 definition, so it
    /// is checked on demand, not at construction.
    pub fn check_key_lifespan_covenant(&self) -> Result<()> {
        let whole = self.lifespan();
        for k in &self.key {
            // lint: no-panic-ok(Scheme construction rejects key names not in the attribute list)
            let def = self.attr(k).expect("key attributes are in the scheme");
            if def.lifespan != whole {
                return Err(HrdmError::KeyLifespanCovenant(k.clone()));
            }
        }
        Ok(())
    }

    /// Union-compatibility (paper §4.1): `A1 = A2 ∧ DOM1 = DOM2` — same
    /// attribute *sets* with the same domains (ALS may differ).
    pub fn union_compatible(&self, other: &Scheme) -> bool {
        self.attrs.len() == other.attrs.len()
            && self.attrs.iter().all(|d| {
                other
                    .attr(&d.name)
                    .is_some_and(|o| o.domain.same_as(&d.domain))
            })
    }

    /// Merge-compatibility (paper §4.1): union-compatibility plus the same
    /// key set.
    pub fn merge_compatible(&self, other: &Scheme) -> bool {
        if !self.union_compatible(other) {
            return false;
        }
        let a: HashSet<&Attribute> = self.key.iter().collect();
        let b: HashSet<&Attribute> = other.key.iter().collect();
        a == b
    }

    /// The scheme of a set-operation result, with per-attribute ALS combined
    /// by `combine` — the paper uses `ALS1 ∪ ALS2` for unions and
    /// `ALS1 ∩ ALS2` for intersections.
    pub(crate) fn combine_als<F>(&self, other: &Scheme, mut combine: F) -> Scheme
    where
        F: FnMut(&Lifespan, &Lifespan) -> Lifespan,
    {
        debug_assert!(self.union_compatible(other));
        let attrs = self
            .attrs
            .iter()
            .map(|d| {
                let theirs = other
                    .attr(&d.name)
                    // lint: no-panic-ok(guarded by the union_compatible debug_assert and checked by every public caller)
                    .expect("union-compatible schemes share attributes");
                AttributeDef {
                    name: d.name.clone(),
                    domain: d.domain,
                    lifespan: combine(&d.lifespan, &theirs.lifespan),
                }
            })
            .collect();
        Scheme {
            attrs,
            key: self.key.clone(),
            layout: self.layout.clone(),
        }
    }

    /// The scheme of a projection onto `x` (order follows `x`). The key is
    /// retained only if every key attribute survives; otherwise the derived
    /// scheme is keyless.
    pub fn project(&self, x: &[Attribute]) -> Result<Scheme> {
        let mut attrs = Vec::with_capacity(x.len());
        let mut seen: HashSet<&Attribute> = HashSet::with_capacity(x.len());
        for name in x {
            if !seen.insert(name) {
                return Err(HrdmError::DuplicateAttribute(name.clone()));
            }
            match self.attr(name) {
                Some(def) => attrs.push(def.clone()),
                None => return Err(HrdmError::UnknownAttribute(name.clone())),
            }
        }
        if attrs.is_empty() {
            return Err(HrdmError::EmptyScheme);
        }
        let key = if self.key.iter().all(|k| x.contains(k)) {
            self.key.clone()
        } else {
            Vec::new()
        };
        Ok(Scheme::assemble(attrs, key))
    }

    /// The scheme of a Cartesian product or θ-join: attribute sets must be
    /// disjoint; the result carries `A1 ∪ A2`, `K1 ∪ K2`, and each
    /// attribute's own ALS and DOM (paper §4.6).
    pub fn disjoint_concat(&self, other: &Scheme) -> Result<Scheme> {
        for d in &other.attrs {
            if self.contains(&d.name) {
                return Err(HrdmError::AttributesNotDisjoint(d.name.clone()));
            }
        }
        let mut attrs = self.attrs.clone();
        attrs.extend(other.attrs.iter().cloned());
        let mut key = self.key.clone();
        key.extend(other.key.iter().cloned());
        Ok(Scheme::assemble(attrs, key))
    }

    /// The scheme of a natural join: common attributes must agree on their
    /// *value domain* `VD(A)` (their ALS are unioned, per the paper's
    /// `ALS1 ∪ ALS2` result scheme; the result domain is constant only when
    /// both sides are); the key is `K1 ∪ K2`.
    pub fn natural_concat(&self, other: &Scheme) -> Result<Scheme> {
        let mut attrs = Vec::with_capacity(self.attrs.len() + other.attrs.len());
        for d in &self.attrs {
            match other.attr(&d.name) {
                Some(o) if o.domain.kind() != d.domain.kind() => {
                    return Err(HrdmError::CommonAttributeDomainMismatch(d.name.clone()))
                }
                Some(o) => {
                    let domain = if d.domain.is_constant() && o.domain.is_constant() {
                        d.domain
                    } else {
                        HistoricalDomain::new(d.domain.kind())
                    };
                    attrs.push(AttributeDef {
                        name: d.name.clone(),
                        domain,
                        lifespan: d.lifespan.union(&o.lifespan),
                    });
                }
                None => attrs.push(d.clone()),
            }
        }
        for d in &other.attrs {
            if !self.contains(&d.name) {
                attrs.push(d.clone());
            }
        }
        let mut key = self.key.clone();
        for k in &other.key {
            if !key.contains(k) {
                key.push(k.clone());
            }
        }
        // A common attribute whose merged domain lost the CD restriction can
        // no longer serve as a key (restriction (a) must keep holding).
        key.retain(|k| {
            attrs
                .iter()
                .find(|d| &d.name == k)
                .is_some_and(|d| d.domain.is_constant())
        });
        Ok(Scheme::assemble(attrs, key))
    }

    /// A copy of the scheme with every attribute (and key entry) renamed to
    /// `prefix.NAME` — the standard device for self-joins, which require
    /// disjoint attribute sets.
    pub fn prefixed(&self, prefix: &str) -> Scheme {
        Scheme::assemble(
            self.attrs
                .iter()
                .map(|d| AttributeDef {
                    name: d.name.prefixed(prefix),
                    domain: d.domain,
                    lifespan: d.lifespan.clone(),
                })
                .collect(),
            self.key.iter().map(|k| k.prefixed(prefix)).collect(),
        )
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<")?;
        for (i, d) in self.attrs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            if self.is_key(&d.name) {
                write!(f, "*{}: {} over {}", d.name, d.domain, d.lifespan)?;
            } else {
                write!(f, "{}: {} over {}", d.name, d.domain, d.lifespan)?;
            }
        }
        f.write_str(">")
    }
}

/// Fluent builder for [`Scheme`].
pub struct SchemeBuilder {
    attrs: Vec<AttributeDef>,
    key: Vec<Attribute>,
}

impl SchemeBuilder {
    /// Adds a non-key attribute with an explicit historical domain.
    pub fn attr(
        mut self,
        name: impl Into<Attribute>,
        domain: HistoricalDomain,
        lifespan: Lifespan,
    ) -> SchemeBuilder {
        self.attrs.push(AttributeDef::new(name, domain, lifespan));
        self
    }

    /// Adds a key attribute; its domain is automatically restricted to the
    /// constant subdomain `CD`, per the paper's restriction (a).
    pub fn key_attr(
        mut self,
        name: impl Into<Attribute>,
        kind: ValueKind,
        lifespan: Lifespan,
    ) -> SchemeBuilder {
        let name = name.into();
        self.attrs.push(AttributeDef::new(
            name.clone(),
            HistoricalDomain::constant(kind),
            lifespan,
        ));
        self.key.push(name);
        self
    }

    /// Finishes, validating the scheme.
    pub fn build(self) -> Result<Scheme> {
        Scheme::new(self.attrs, self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(lo: i64, hi: i64) -> Lifespan {
        Lifespan::interval(lo, hi)
    }

    fn emp_scheme() -> Scheme {
        Scheme::builder()
            .key_attr("NAME", ValueKind::Str, ls(0, 100))
            .attr("SALARY", HistoricalDomain::int(), ls(0, 100))
            .attr("DEPT", HistoricalDomain::string(), ls(0, 100))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_scheme() {
        let s = emp_scheme();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.key(), &[Attribute::new("NAME")]);
        assert!(s.is_key(&Attribute::new("NAME")));
        assert!(!s.is_key(&Attribute::new("SALARY")));
        assert!(s.dom(&Attribute::new("NAME")).unwrap().is_constant());
    }

    #[test]
    fn empty_scheme_rejected() {
        assert_eq!(
            Scheme::builder().build().unwrap_err(),
            HrdmError::EmptyScheme
        );
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = Scheme::builder()
            .attr("A", HistoricalDomain::int(), ls(0, 1))
            .attr("A", HistoricalDomain::int(), ls(0, 1))
            .build()
            .unwrap_err();
        assert_eq!(err, HrdmError::DuplicateAttribute(Attribute::new("A")));
    }

    #[test]
    fn key_must_be_in_scheme_and_constant() {
        let err = Scheme::new(
            vec![AttributeDef::new("A", HistoricalDomain::int(), ls(0, 1))],
            vec![Attribute::new("B")],
        )
        .unwrap_err();
        assert_eq!(err, HrdmError::KeyNotInScheme(Attribute::new("B")));

        // Paper restriction (a): DOM(K) ⊆ CD.
        let err = Scheme::new(
            vec![AttributeDef::new("A", HistoricalDomain::int(), ls(0, 1))],
            vec![Attribute::new("A")],
        )
        .unwrap_err();
        assert_eq!(err, HrdmError::KeyNotConstant(Attribute::new("A")));
    }

    #[test]
    fn scheme_lifespan_is_union_of_als() {
        let s = Scheme::builder()
            .key_attr("K", ValueKind::Int, ls(0, 10))
            .attr("A", HistoricalDomain::int(), Lifespan::of(&[(20, 30)]))
            .build()
            .unwrap();
        assert_eq!(s.lifespan(), Lifespan::of(&[(0, 10), (20, 30)]));
    }

    #[test]
    fn key_lifespan_covenant() {
        let good = emp_scheme();
        assert!(good.check_key_lifespan_covenant().is_ok());

        let bad = Scheme::builder()
            .key_attr("K", ValueKind::Int, ls(0, 10))
            .attr("A", HistoricalDomain::int(), ls(0, 50))
            .build()
            .unwrap();
        assert!(bad.check_key_lifespan_covenant().is_err());
    }

    #[test]
    fn union_compatibility_ignores_als() {
        let a = Scheme::builder()
            .key_attr("K", ValueKind::Int, ls(0, 10))
            .attr("A", HistoricalDomain::int(), ls(0, 10))
            .build()
            .unwrap();
        let b = Scheme::builder()
            .key_attr("K", ValueKind::Int, ls(50, 90))
            .attr("A", HistoricalDomain::int(), ls(50, 90))
            .build()
            .unwrap();
        assert!(a.union_compatible(&b));
        assert!(a.merge_compatible(&b));

        let c = Scheme::builder()
            .key_attr("K", ValueKind::Int, ls(0, 10))
            .attr("A", HistoricalDomain::float(), ls(0, 10))
            .build()
            .unwrap();
        assert!(!a.union_compatible(&c));
    }

    #[test]
    fn merge_compatibility_requires_same_key() {
        let a = Scheme::builder()
            .key_attr("K", ValueKind::Int, ls(0, 10))
            .attr("A", HistoricalDomain::constant(ValueKind::Int), ls(0, 10))
            .build()
            .unwrap();
        // Same attrs/domains but different key set.
        let b = Scheme::new(
            a.attrs().to_vec(),
            vec![Attribute::new("K"), Attribute::new("A")],
        )
        .unwrap();
        assert!(a.union_compatible(&b));
        assert!(!a.merge_compatible(&b));
    }

    #[test]
    fn projection_keeps_key_only_if_complete() {
        let s = emp_scheme();
        let p = s
            .project(&[Attribute::new("NAME"), Attribute::new("SALARY")])
            .unwrap();
        assert_eq!(p.key(), &[Attribute::new("NAME")]);

        let q = s.project(&[Attribute::new("SALARY")]).unwrap();
        assert!(q.key().is_empty());

        assert!(s.project(&[Attribute::new("NOPE")]).is_err());
        assert!(s.project(&[]).is_err());
        assert!(s
            .project(&[Attribute::new("NAME"), Attribute::new("NAME")])
            .is_err());
    }

    #[test]
    fn disjoint_concat_rejects_overlap() {
        let s = emp_scheme();
        let err = s.disjoint_concat(&emp_scheme()).unwrap_err();
        assert!(matches!(err, HrdmError::AttributesNotDisjoint(_)));

        let other = Scheme::builder()
            .key_attr("DNAME", ValueKind::Str, ls(0, 100))
            .attr("BUDGET", HistoricalDomain::int(), ls(0, 100))
            .build()
            .unwrap();
        let joined = s.disjoint_concat(&other).unwrap();
        assert_eq!(joined.arity(), 5);
        assert_eq!(joined.key().len(), 2);
    }

    #[test]
    fn natural_concat_unions_common_als() {
        let a = Scheme::builder()
            .key_attr("K", ValueKind::Int, ls(0, 10))
            .attr("X", HistoricalDomain::int(), ls(0, 10))
            .build()
            .unwrap();
        let b = Scheme::builder()
            .key_attr("K", ValueKind::Int, ls(20, 30))
            .attr("Y", HistoricalDomain::int(), ls(20, 30))
            .build()
            .unwrap();
        let j = a.natural_concat(&b).unwrap();
        assert_eq!(j.arity(), 3);
        assert_eq!(
            j.als(&Attribute::new("K")).unwrap(),
            &Lifespan::of(&[(0, 10), (20, 30)])
        );
        assert_eq!(j.key(), &[Attribute::new("K")]);

        let c = Scheme::builder()
            .key_attr("K", ValueKind::Str, ls(0, 10))
            .build()
            .unwrap();
        assert!(matches!(
            a.natural_concat(&c).unwrap_err(),
            HrdmError::CommonAttributeDomainMismatch(_)
        ));
    }

    #[test]
    fn prefixed_renames_everything() {
        let s = emp_scheme().prefixed("e");
        assert!(s.contains(&Attribute::new("e.NAME")));
        assert_eq!(s.key(), &[Attribute::new("e.NAME")]);
        // Self-join becomes possible.
        assert!(emp_scheme().disjoint_concat(&s).is_ok());
    }

    #[test]
    fn display_marks_keys() {
        let text = emp_scheme().to_string();
        assert!(text.contains("*NAME"));
        assert!(text.contains("SALARY"));
    }
}
