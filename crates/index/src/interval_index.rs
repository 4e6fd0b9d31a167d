//! A lifespan index over tuple lifespans with incremental appends: sorted
//! interval entries cut into blocks that a probe skips by zone hull.

use crate::Hull;
use hrdm_time::{Chronon, Interval, Lifespan};
use std::sync::Arc;

/// Entries per block of the body: each block keeps one zone [`Hull`].
const BLOCK: usize = 32;

/// How many entries the pending block may hold before a fold merges it
/// into the body: what a query filters linearly and a clone copies.
const PENDING_MAX: usize = 64;

/// A lifespan index over the tuples of a relation (or of one partition).
///
/// Every maximal interval of every lifespan becomes one
/// `(lo, hi, position)` entry. The **body** holds the entries sorted by
/// `lo`, cut into blocks of 32, and keeps one zone hull per block: its
/// first `lo` and its largest `hi`. A probe for `[a, b]`
///
/// * binary-searches the block range whose entries can reach the window:
///   no entry after it starts by `b`, and no entry before it starts by
///   `a − longest`, where `longest` is the longest entry span in the body,
///   so none of them can end by `a`;
/// * skips every block of that range whose hull misses the window, and
///   filters the rest entry by entry.
///
/// Because one lifespan may contribute several intervals, results are
/// deduplicated before being returned; positions come back sorted
/// ascending.
///
/// Appends ([`LifespanIndex::insert`]) go to a **pending block** of at
/// most 64 entries, which every query filters linearly. When it is full,
/// one linear merge folds it into the body
/// ([`LifespanIndex::merges`] counts the folds), so a database can keep
/// the index current across inserts instead of rebuilding it. The merge
/// runs backwards in place and moves only the entries that sort after
/// the first pending one.
///
/// ## Sharing and copy-on-write
///
/// The body sits behind an [`Arc`] and is never edited while shared — a
/// fold copies a shared body and merges into the copy — so
/// [`LifespanIndex::clone`] bumps one reference count and copies only the
/// pending block. An insert after a clone therefore copies at most the
/// pending block, and the body stays shared until the next fold. A clone
/// is unaffected by later inserts and folds.
#[derive(Clone, Debug, Default)]
pub struct LifespanIndex {
    body: Arc<Body>,
    /// Recently appended entries, in append order.
    pending: Vec<Entry>,
    /// Number of indexed tuples (positions are `< tuple_count`).
    tuple_count: usize,
    /// Folds performed so far.
    merges: u64,
}

/// One interval of one tuple's lifespan. The derived order sorts by `lo`
/// first, which is the body's order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Entry {
    lo: i64,
    hi: i64,
    pos: u32,
}

/// The shared part of a [`LifespanIndex`].
#[derive(Clone, Debug, Default)]
struct Body {
    /// Entries sorted ascending.
    entries: Vec<Entry>,
    /// One hull per block of [`BLOCK`] entries.
    zones: Vec<Hull>,
    /// The longest entry span, `hi − lo`, over `entries`.
    longest: u64,
}

impl LifespanIndex {
    /// Builds the index from tuple lifespans in position order.
    pub fn build<'a, I>(lifespans: I) -> LifespanIndex
    where
        I: IntoIterator<Item = &'a Lifespan>,
    {
        let mut entries = Vec::new();
        let mut tuple_count = 0usize;
        for ls in lifespans {
            push_entries(&mut entries, tuple_count, ls);
            tuple_count += 1;
        }
        entries.sort_unstable();
        LifespanIndex {
            body: Arc::new(Body::from_sorted(entries)),
            pending: Vec::new(),
            tuple_count,
            merges: 0,
        }
    }

    /// Appends the lifespan of the tuple at `pos` — which must be the next
    /// position, i.e. `pos == tuple_count()`; the index only grows in
    /// relation order.
    ///
    /// The entries land in the pending block; when that block exceeds 64
    /// entries it is folded into the body.
    pub fn insert(&mut self, pos: usize, ls: &Lifespan) {
        assert_eq!(
            pos, self.tuple_count,
            "LifespanIndex::insert positions are append-only"
        );
        push_entries(&mut self.pending, pos, ls);
        self.tuple_count += 1;
        if self.pending.len() > PENDING_MAX {
            self.fold();
        }
    }

    /// Merges the pending block into the body.
    fn fold(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable();
        if Arc::get_mut(&mut self.body).is_none() {
            // A clone keeps the shared body; the merge works on a copy
            // with room for the pending block.
            let mut entries = Vec::with_capacity(self.body.entries.len() + pending.len());
            entries.extend_from_slice(&self.body.entries);
            self.body = Arc::new(Body {
                entries,
                zones: self.body.zones.clone(),
                longest: self.body.longest,
            });
        }
        Arc::make_mut(&mut self.body).merge(&pending);
        self.merges += 1;
    }

    /// How many folds this index (and the indexes it was cloned from) has
    /// performed — each one a long insert.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Number of entries in the pending block: what a clone copies.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Do `self` and `other` hold the same body allocation? What the
    /// structural-sharing tests assert on.
    pub fn shares_body_with(&self, other: &LifespanIndex) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// Number of interval entries in the index (body + pending block).
    pub fn entry_count(&self) -> usize {
        self.body.entries.len() + self.pending.len()
    }

    /// Number of indexed tuples.
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// Is the index empty (no intervals at all)?
    pub fn is_empty(&self) -> bool {
        self.entry_count() == 0
    }

    /// Chronon stabbing: positions of tuples alive at `t`, sorted ascending.
    pub fn stab(&self, t: Chronon) -> Vec<usize> {
        self.overlapping_interval(&Interval::point(t))
    }

    /// Interval overlap: positions of tuples whose lifespan intersects
    /// `window`, sorted ascending.
    pub fn overlapping_interval(&self, window: &Interval) -> Vec<usize> {
        let mut out = Vec::new();
        self.report(window, &mut out);
        finish_positions(&mut out);
        out
    }

    /// Lifespan overlap: positions of tuples whose lifespan intersects
    /// `window`, sorted ascending. The empty window matches nothing.
    pub fn overlapping(&self, window: &Lifespan) -> Vec<usize> {
        let mut out = Vec::new();
        for iv in window.intervals() {
            self.report(iv, &mut out);
        }
        finish_positions(&mut out);
        out
    }

    /// Pushes (possibly duplicate, unsorted) positions of entries
    /// overlapping `iv` onto `out`.
    fn report(&self, iv: &Interval, out: &mut Vec<usize>) {
        let (a, b) = (iv.lo().tick(), iv.hi().tick());
        let body = &*self.body;
        // Blocks starting after `b` hold no candidate. Every entry of a
        // block before the last one starting below `floor` starts below
        // `floor` too, so it ends before `a`.
        let floor = a.checked_sub_unsigned(body.longest).unwrap_or(i64::MIN);
        let end = body.zones.partition_point(|z| z.lo <= b);
        let start = body.zones[..end]
            .partition_point(|z| z.lo < floor)
            .saturating_sub(1);
        let blocks = body.entries[start * BLOCK..].chunks(BLOCK);
        for (zone, block) in body.zones[start..end].iter().zip(blocks) {
            if zone.meets_interval(iv) {
                report_entries(block, a, b, out);
            }
        }
        report_entries(&self.pending, a, b, out);
    }
}

impl Entry {
    /// `hi − lo`, exact for every pair of chronons.
    fn span(&self) -> u64 {
        self.hi.abs_diff(self.lo)
    }
}

impl Body {
    /// Builds a body from entries already sorted ascending.
    fn from_sorted(entries: Vec<Entry>) -> Body {
        let longest = entries.iter().map(Entry::span).max().unwrap_or(0);
        let mut body = Body {
            entries,
            zones: Vec::new(),
            longest,
        };
        body.rezone(0);
        body
    }

    /// Merges sorted `pending` entries in, in one backward pass that moves
    /// only the entries sorting after the first pending one; only the
    /// zones of the blocks from there on are recomputed.
    fn merge(&mut self, pending: &[Entry]) {
        let mut end = self.entries.len();
        self.entries.extend_from_slice(pending);
        let mut write = self.entries.len();
        for entry in pending.iter().rev() {
            let cut = self.entries[..end].partition_point(|e| e < entry);
            self.entries.copy_within(cut..end, write - (end - cut));
            write -= end - cut + 1;
            self.entries[write] = *entry;
            end = cut;
        }
        self.longest = pending.iter().map(Entry::span).fold(self.longest, u64::max);
        self.rezone(end);
    }

    /// Recomputes the zones of the blocks from the one holding entry
    /// `from` on.
    fn rezone(&mut self, from: usize) {
        let first = from / BLOCK;
        self.zones.truncate(first);
        let blocks = self.entries[first * BLOCK..].chunks(BLOCK);
        self.zones.extend(blocks.map(|block| Hull {
            lo: block[0].lo,
            hi: block.iter().map(|e| e.hi).max().unwrap_or(i64::MIN),
        }));
    }
}

/// Pushes one entry per maximal interval of `ls`, the lifespan of the
/// tuple at `pos`.
fn push_entries(entries: &mut Vec<Entry>, pos: usize, ls: &Lifespan) {
    let pos = u32::try_from(pos).expect("relation fits in u32 positions");
    entries.extend(ls.intervals().iter().map(|iv| Entry {
        lo: iv.lo().tick(),
        hi: iv.hi().tick(),
        pos,
    }));
}

/// Pushes the positions of the entries of `entries` overlapping `[a, b]`.
fn report_entries(entries: &[Entry], a: i64, b: i64, out: &mut Vec<usize>) {
    out.extend(
        entries
            .iter()
            .filter(|e| e.lo <= b && e.hi >= a)
            .map(|e| e.pos as usize),
    );
}

/// Sorts and deduplicates reported positions.
fn finish_positions(out: &mut Vec<usize>) {
    out.sort_unstable();
    out.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(spans: &[&[(i64, i64)]]) -> LifespanIndex {
        let lifespans: Vec<Lifespan> = spans.iter().map(|s| Lifespan::of(s)).collect();
        LifespanIndex::build(lifespans.iter())
    }

    /// Oracle: linear scan over the same lifespans.
    fn scan_overlap(spans: &[&[(i64, i64)]], window: &Lifespan) -> Vec<usize> {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| Lifespan::of(s).intersects(window))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_index() {
        let i = idx(&[]);
        assert!(i.is_empty());
        assert_eq!(i.stab(Chronon::new(0)), Vec::<usize>::new());
        assert_eq!(
            i.overlapping(&Lifespan::interval(0, 100)),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn stab_hits_exactly_live_tuples() {
        let spans: &[&[(i64, i64)]] = &[&[(0, 9)], &[(5, 20)], &[(15, 30), (40, 50)]];
        let i = idx(spans);
        assert_eq!(i.stab(Chronon::new(7)), vec![0, 1]);
        assert_eq!(i.stab(Chronon::new(17)), vec![1, 2]);
        assert_eq!(i.stab(Chronon::new(45)), vec![2]);
        assert_eq!(i.stab(Chronon::new(35)), Vec::<usize>::new());
        assert_eq!(i.stab(Chronon::new(-1)), Vec::<usize>::new());
    }

    #[test]
    fn fragmented_lifespans_report_once() {
        let spans: &[&[(i64, i64)]] = &[&[(0, 5), (10, 15), (20, 25)]];
        let i = idx(spans);
        // A window covering several fragments still reports position 0 once.
        assert_eq!(i.overlapping(&Lifespan::interval(3, 22)), vec![0]);
    }

    #[test]
    fn overlap_matches_linear_scan_exhaustively() {
        let spans: &[&[(i64, i64)]] = &[
            &[(0, 9)],
            &[(5, 20)],
            &[(15, 30), (40, 50)],
            &[(2, 2)],
            &[(48, 60)],
        ];
        let i = idx(spans);
        for lo in -2..62 {
            for len in 0..20 {
                let w = Lifespan::interval(lo, lo + len);
                assert_eq!(
                    i.overlapping(&w),
                    scan_overlap(spans, &w),
                    "window [{lo},{}]",
                    lo + len
                );
            }
        }
    }

    #[test]
    fn fragmented_window_queries() {
        let spans: &[&[(i64, i64)]] = &[&[(0, 9)], &[(20, 29)], &[(40, 49)]];
        let i = idx(spans);
        let w = Lifespan::of(&[(5, 7), (45, 60)]);
        assert_eq!(i.overlapping(&w), vec![0, 2]);
        assert_eq!(i.overlapping(&Lifespan::empty()), Vec::<usize>::new());
    }

    #[test]
    fn counts() {
        let spans: &[&[(i64, i64)]] = &[&[(0, 5), (10, 15)], &[(3, 4)]];
        let mut i = idx(spans);
        assert_eq!(i.entry_count(), 3);
        assert_eq!(i.tuple_count(), 2);
        assert_eq!((i.body.entries.len(), i.pending_len()), (3, 0));
        assert_eq!(i.body.zones, [Hull { lo: 0, hi: 15 }]);
        assert_eq!(i.body.longest, 5);
        // An append lands in the pending block; the body is untouched.
        i.insert(2, &Lifespan::of(&[(20, 30), (40, 41)]));
        assert_eq!((i.entry_count(), i.tuple_count()), (5, 3));
        assert_eq!((i.body.entries.len(), i.pending_len()), (3, 2));
    }

    /// Incremental appends answer exactly like a from-scratch build, at
    /// every prefix — across the pending block, folds, and fresh appends.
    #[test]
    fn incremental_matches_rebuild_at_every_prefix() {
        // Enough tuples to fold the pending block several times.
        let spans: Vec<Vec<(i64, i64)>> = (0..300)
            .map(|i| {
                let base = (i * 7) % 200;
                if i % 3 == 0 {
                    vec![(base, base + 10), (base + 40, base + 55)]
                } else {
                    vec![(base, base + ((i * 13) % 30))]
                }
            })
            .collect();
        let lifespans: Vec<Lifespan> = spans.iter().map(|s| Lifespan::of(s)).collect();
        let mut inc = LifespanIndex::build(std::iter::empty());
        for (pos, ls) in lifespans.iter().enumerate() {
            inc.insert(pos, ls);
            if pos % 37 == 0 || pos == lifespans.len() - 1 {
                let built = LifespanIndex::build(lifespans[..=pos].iter());
                assert_eq!(inc.tuple_count(), built.tuple_count());
                assert_eq!(inc.entry_count(), built.entry_count());
                for t in [-1, 0, 3, 50, 120, 199, 260] {
                    assert_eq!(
                        inc.stab(Chronon::new(t)),
                        built.stab(Chronon::new(t)),
                        "stab {t} after {pos} inserts"
                    );
                }
                let w = Lifespan::of(&[(10, 30), (150, 170)]);
                assert_eq!(inc.overlapping(&w), built.overlapping(&w));
                let linear: Vec<usize> =
                    (0..=pos).filter(|&p| lifespans[p].intersects(&w)).collect();
                assert_eq!(built.overlapping(&w), linear);
            }
        }
    }

    /// A clone answers as of its own moment however many inserts and
    /// folds the original goes through afterwards. An insert after a clone
    /// copies at most the pending block, and the body stays shared until
    /// the next fold.
    #[test]
    fn clones_are_unaffected_by_later_inserts_and_merges() {
        let lifespans: Vec<Lifespan> = (0..5_000i64)
            .map(|i| Lifespan::interval((i * 37) % 900, (i * 37) % 900 + i % 40))
            .collect();
        let mut live = LifespanIndex::build(lifespans[..1_000].iter());
        let frozen = live.clone();
        for (pos, ls) in lifespans.iter().enumerate().skip(1_000) {
            let (before, merges) = (live.clone(), live.merges());
            live.insert(pos, ls);
            assert!(live.pending_len() <= PENDING_MAX);
            assert_eq!(
                live.shares_body_with(&before),
                live.merges() == merges,
                "the body is shared until a fold, and only until then"
            );
        }
        assert_eq!(live.merges(), 4_000 / (PENDING_MAX as u64 + 1));
        assert!(!live.shares_body_with(&frozen), "the bulk body was folded");
        let at_clone = LifespanIndex::build(lifespans[..1_000].iter());
        let rebuilt = LifespanIndex::build(lifespans.iter());
        for lo in (0..950).step_by(13) {
            let w = Lifespan::interval(lo, lo + 9);
            assert_eq!(frozen.overlapping(&w), at_clone.overlapping(&w));
            assert_eq!(live.overlapping(&w), rebuilt.overlapping(&w));
        }
        assert_eq!(frozen.tuple_count(), 1_000);
        assert_eq!(live.entry_count(), rebuilt.entry_count());
    }

    /// A probe's lower block bound comes from the longest entry span, so
    /// one very long entry must widen it — up to spans no `i64` holds.
    #[test]
    fn longest_span_bounds_the_probe_at_the_extremes() {
        let (min, max) = (Chronon::MIN.tick(), Chronon::MAX.tick());
        let mut spans: Vec<Vec<(i64, i64)>> =
            (0..200).map(|i| vec![(i * 10, i * 10 + 3)]).collect();
        spans.push(vec![(min, max)]);
        spans.push(vec![(min, min + 1), (max - 1, max)]);
        let refs: Vec<&[(i64, i64)]> = spans.iter().map(Vec::as_slice).collect();
        let i = idx(&refs);
        for w in [
            Lifespan::interval(0, 0),
            Lifespan::interval(995, 1_005),
            Lifespan::interval(max, max),
            Lifespan::interval(min, min),
            Lifespan::of(&[(min, min + 5), (1_000, 1_001)]),
        ] {
            assert_eq!(i.overlapping(&w), scan_overlap(&refs, &w), "{w}");
        }
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn out_of_order_insert_panics() {
        let mut i = idx(&[&[(0, 9)]]);
        i.insert(5, &Lifespan::interval(0, 1));
    }
}
