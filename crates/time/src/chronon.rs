//! The points of the time domain `T`.

use std::fmt;
use std::ops::{Add, Sub};
use std::str::FromStr;

/// Symbol used when rendering the distinguished "current time" in figures,
/// mirroring the paper's `NOW` marker (e.g. Fig. 6's `[t3, NOW]`).
pub const NOW_SYMBOL: &str = "NOW";

/// A single point of the time domain `T`.
///
/// The paper assumes `T` is isomorphic to the natural numbers with the usual
/// order (`t_i <_T t_j  iff  i < j`, §3). We use an `i64` tick so arithmetic
/// such as "the chronon immediately after `t`" is cheap and total in practice;
/// the library never manufactures chronons outside the range its callers use.
///
/// A `Chronon` is deliberately unit-free: examples map ticks to days, months
/// or trading sessions as they see fit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Chronon(i64);

impl Chronon {
    /// Smallest representable chronon (used as a universe edge in tests).
    pub const MIN: Chronon = Chronon(i64::MIN);
    /// Largest representable chronon.
    pub const MAX: Chronon = Chronon(i64::MAX);

    /// Creates a chronon from a raw tick.
    #[inline]
    pub const fn new(tick: i64) -> Self {
        Chronon(tick)
    }

    /// The raw tick value.
    #[inline]
    pub const fn tick(self) -> i64 {
        self.0
    }

    /// The chronon immediately after this one, if representable.
    #[inline]
    pub fn succ(self) -> Option<Chronon> {
        self.0.checked_add(1).map(Chronon)
    }

    /// The chronon immediately before this one, if representable.
    #[inline]
    pub fn pred(self) -> Option<Chronon> {
        self.0.checked_sub(1).map(Chronon)
    }

    /// Saturating successor; stays at [`Chronon::MAX`] at the top of `T`.
    #[inline]
    pub fn saturating_succ(self) -> Chronon {
        Chronon(self.0.saturating_add(1))
    }

    /// Saturating predecessor; stays at [`Chronon::MIN`] at the bottom of `T`.
    #[inline]
    pub fn saturating_pred(self) -> Chronon {
        Chronon(self.0.saturating_sub(1))
    }

    /// Distance in ticks from `other` to `self` (may be negative).
    #[inline]
    pub fn delta(self, other: Chronon) -> i64 {
        self.0 - other.0
    }

    /// The earlier of two chronons.
    #[inline]
    pub fn min_of(self, other: Chronon) -> Chronon {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two chronons.
    #[inline]
    pub fn max_of(self, other: Chronon) -> Chronon {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl From<i64> for Chronon {
    #[inline]
    fn from(tick: i64) -> Self {
        Chronon(tick)
    }
}

impl From<Chronon> for i64 {
    #[inline]
    fn from(c: Chronon) -> Self {
        c.0
    }
}

impl Add<i64> for Chronon {
    type Output = Chronon;
    #[inline]
    fn add(self, rhs: i64) -> Chronon {
        Chronon(self.0 + rhs)
    }
}

impl Sub<i64> for Chronon {
    type Output = Chronon;
    #[inline]
    fn sub(self, rhs: i64) -> Chronon {
        Chronon(self.0 - rhs)
    }
}

impl fmt::Debug for Chronon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Chronon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl FromStr for Chronon {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.trim().parse::<i64>().map(Chronon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_tick_order() {
        // Paper §3: t_i <_T t_j iff i < j.
        assert!(Chronon::new(1) < Chronon::new(2));
        assert!(Chronon::new(-5) < Chronon::new(0));
        assert_eq!(Chronon::new(7), Chronon::new(7));
    }

    #[test]
    fn succ_pred_roundtrip() {
        let t = Chronon::new(41);
        assert_eq!(t.succ(), Some(Chronon::new(42)));
        assert_eq!(t.succ().unwrap().pred(), Some(t));
    }

    #[test]
    fn succ_pred_at_bounds() {
        assert_eq!(Chronon::MAX.succ(), None);
        assert_eq!(Chronon::MIN.pred(), None);
        assert_eq!(Chronon::MAX.saturating_succ(), Chronon::MAX);
        assert_eq!(Chronon::MIN.saturating_pred(), Chronon::MIN);
    }

    #[test]
    fn arithmetic_and_delta() {
        let t = Chronon::new(10);
        assert_eq!(t + 5, Chronon::new(15));
        assert_eq!(t - 3, Chronon::new(7));
        assert_eq!((t + 5).delta(t), 5);
        assert_eq!(t.delta(t + 5), -5);
    }

    #[test]
    fn min_max_of() {
        let a = Chronon::new(1);
        let b = Chronon::new(2);
        assert_eq!(a.min_of(b), a);
        assert_eq!(a.max_of(b), b);
        assert_eq!(a.min_of(a), a);
    }

    #[test]
    fn parse_and_display() {
        let t: Chronon = " 42 ".parse().unwrap();
        assert_eq!(t, Chronon::new(42));
        assert_eq!(t.to_string(), "42");
        assert_eq!(format!("{t:?}"), "t42");
        assert!("abc".parse::<Chronon>().is_err());
    }

    #[test]
    fn conversions() {
        let t = Chronon::from(9i64);
        let raw: i64 = t.into();
        assert_eq!(raw, 9);
        assert_eq!(t.tick(), 9);
    }
}
