//! Tuple layouts: the sorted attribute names a tuple's values are stored
//! against, shared by every tuple of a relation.

use crate::attribute::Attribute;
use crate::errors::{HrdmError, Result};
use std::fmt;
use std::sync::Arc;

/// The attribute names of a tuple, sorted by name: position `i` of the
/// tuple's value slice holds the temporal function of `names()[i]`.
///
/// A [`crate::Scheme`] owns the layout of its attributes
/// ([`crate::Scheme::layout`]) and every tuple built for, decoded into or
/// restricted within a relation on it shares that one allocation, so a
/// tuple stores its values by position and carries no names of its own.
/// Derived tuples (projections, joins) share one layout per operator.
///
/// Sorting by name keeps iteration order identical to a name-keyed map:
/// `Display`, equality and the encoded bytes of a tuple do not depend on
/// the order a scheme declares its attributes in.
///
/// Cloning is a reference-count bump. Two layouts are equal when they list
/// the same names, whether or not they share the allocation.
#[derive(Clone)]
pub struct Layout(Arc<[Attribute]>);

impl Layout {
    /// The layout of `names`, sorted; `DuplicateAttribute` when a name
    /// repeats.
    pub fn new(names: impl IntoIterator<Item = Attribute>) -> Result<Layout> {
        let mut names: Vec<Attribute> = names.into_iter().collect();
        names.sort();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(HrdmError::DuplicateAttribute(w[0].clone()));
        }
        Ok(Layout(names.into()))
    }

    /// The layout of names already sorted and distinct.
    pub(crate) fn from_sorted(names: Vec<Attribute>) -> Layout {
        debug_assert!(names.windows(2).all(|w| w[0] < w[1]));
        Layout(names.into())
    }

    /// The attribute names, ascending.
    #[inline]
    pub fn names(&self) -> &[Attribute] {
        &self.0
    }

    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Does the layout hold no attribute?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The position of `attr`, if the layout holds it.
    #[inline]
    pub fn position(&self, attr: &Attribute) -> Option<usize> {
        self.position_of(attr.name())
    }

    /// The position of the attribute named `name`, if the layout holds it.
    pub fn position_of(&self, name: &str) -> Option<usize> {
        self.0.binary_search_by(|a| a.name().cmp(name)).ok()
    }

    /// Do the two layouts share one allocation?
    #[inline]
    pub fn same(&self, other: &Layout) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl PartialEq for Layout {
    fn eq(&self, other: &Layout) -> bool {
        self.same(other) || self.0 == other.0
    }
}

impl Eq for Layout {}

impl fmt::Debug for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_come_out_sorted_and_positions_follow() {
        let l = Layout::new(["W", "K", "V"].map(Attribute::new)).unwrap();
        let names: Vec<&str> = l.names().iter().map(Attribute::name).collect();
        assert_eq!(names, ["K", "V", "W"]);
        assert_eq!(l.position(&Attribute::new("V")), Some(1));
        assert_eq!(l.position_of("X"), None);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        assert_eq!(
            Layout::new(["A", "B", "A"].map(Attribute::new)).unwrap_err(),
            HrdmError::DuplicateAttribute(Attribute::new("A"))
        );
    }

    #[test]
    fn equality_is_by_names_not_allocation() {
        let a = Layout::new(["A", "B"].map(Attribute::new)).unwrap();
        let b = Layout::new(["B", "A"].map(Attribute::new)).unwrap();
        assert!(!a.same(&b));
        assert_eq!(a, b);
        assert!(a.same(&a.clone()));
        assert_ne!(a, Layout::new([Attribute::new("A")]).unwrap());
    }
}
