//! Lifespan hulls: the one zone summary every lifespan pruning step tests.

use hrdm_time::{Chronon, Interval, Lifespan};

/// The smallest chronon interval covering a set of lifespans, as raw
/// ticks: what a [`LifespanIndex`](crate::LifespanIndex) block, a cold
/// heap page and a storage partition each keep so that a window that
/// misses it skips all of it.
///
/// Every lifespan of the set lies inside the hull, so a window that does
/// not meet the hull meets none of them. A set without a chronon has the
/// empty hull `(i64::MAX, i64::MIN)`, which meets nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hull {
    /// Smallest first chronon over the set.
    pub lo: i64,
    /// Largest last chronon over the set.
    pub hi: i64,
}

impl Hull {
    /// The hull of a set without a chronon.
    pub const EMPTY: Hull = Hull {
        lo: i64::MAX,
        hi: i64::MIN,
    };

    /// The hull of one lifespan.
    pub fn of(ls: &Lifespan) -> Hull {
        match (ls.first(), ls.last()) {
            (Some(first), Some(last)) => Hull {
                lo: first.tick(),
                hi: last.tick(),
            },
            _ => Hull::EMPTY,
        }
    }

    /// Widens the hull to cover `other` too.
    pub fn widen(&mut self, other: Hull) {
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }

    /// The hull as an interval, `None` when it is empty.
    pub fn interval(&self) -> Option<Interval> {
        Interval::new(Chronon::new(self.lo), Chronon::new(self.hi))
    }

    /// Does the interval `iv` share a chronon with the hull? Three integer
    /// compares: the test a probe runs per block and per partition.
    pub fn meets_interval(&self, iv: &Interval) -> bool {
        self.lo <= self.hi && self.lo <= iv.hi().tick() && iv.lo().tick() <= self.hi
    }

    /// Does the window share a chronon with the hull? `false` proves that
    /// no lifespan inside the hull meets `window`.
    pub fn meets(&self, window: &Lifespan) -> bool {
        self.interval()
            .is_some_and(|hull| window.intersects_interval(&hull))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hull_meets_nothing() {
        let all = Interval::new(Chronon::MIN, Chronon::MAX).unwrap();
        assert!(!Hull::EMPTY.meets_interval(&all));
        assert!(!Hull::EMPTY.meets(&Lifespan::from_intervals([all])));
        assert_eq!(Hull::of(&Lifespan::empty()), Hull::EMPTY);
    }

    #[test]
    fn meets_follows_the_window_not_its_hull() {
        let mut hull = Hull::of(&Lifespan::interval(10, 20));
        hull.widen(Hull::of(&Lifespan::interval(30, 40)));
        assert_eq!(hull, Hull { lo: 10, hi: 40 });
        assert!(hull.meets(&Lifespan::of(&[(0, 5), (40, 50)])));
        assert!(!hull.meets(&Lifespan::of(&[(0, 9), (41, 50)])));
        assert!(hull.meets_interval(&Interval::of(0, 10)));
        assert!(!hull.meets_interval(&Interval::of(41, 41)));
    }
}
