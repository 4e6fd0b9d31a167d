//! An interval index over tuple lifespans with incremental appends.

use hrdm_time::{Chronon, Interval, Lifespan};
use std::sync::Arc;

/// How many entries the pending run may hold before it becomes a run of
/// its own: what a query filters linearly and a clone copies.
const PENDING_MAX: usize = 64;

/// An interval index over the lifespans of a relation's tuples.
///
//  Representation: every maximal interval of every lifespan becomes one
//  `(lo, hi, position)` entry; a run holds entries sorted by `lo` and an
//  implicit segment tree over the `hi` values storing subtree maxima.
/// Queries follow the classic augmented-tree pruning argument:
///
/// * only the prefix of entries with `lo ≤ b` can overlap `[a, b]`
///   (binary search), and
/// * within that prefix, any subtree whose `max(hi) < a` is pruned whole,
///
/// which yields `O(log n + k)` per run for `k` reported entries. Because
/// one lifespan may contribute several intervals, results are deduplicated
/// before being returned; positions come back sorted ascending.
///
/// [`LifespanIndex::build`] yields a single run. Appends
/// ([`LifespanIndex::insert`]) go to a small **sorted pending run** that
/// queries filter on the fly; once it outgrows 64 entries it
/// becomes an immutable run on top of the stack, and runs are merged
/// (logarithmic method) so that each is at least twice the size of the
/// next. Every entry is merged `O(log n)` times over the index's life, so
/// an insert costs amortized `O(log n)` with an occasional long merge
/// ([`LifespanIndex::merges`] counts them), and a query probes at most
/// `log₂(n / 64) + 1` runs — so a database can maintain the index
/// *incrementally* across inserts instead of invalidating and rebuilding
/// it wholesale.
///
/// ## Sharing and copy-on-write
///
/// Runs sit behind [`Arc`]s and are never edited — a merge builds the
/// merged run beside its inputs — so [`LifespanIndex::clone`] bumps one
/// reference count per run and copies only the pending run (at most
/// 64 entries). A clone is unaffected by later inserts and
/// merges.
#[derive(Clone, Debug, Default)]
pub struct LifespanIndex {
    /// Oldest (largest) first; each at least twice the size of the next.
    runs: Vec<Arc<Run>>,
    /// Recently appended `(lo, hi, position)` entries, sorted by `lo`.
    pending: Vec<(i64, i64, u32)>,
    /// Number of indexed tuples (positions are `< tuple_count`).
    tuple_count: usize,
    /// Run merges performed so far.
    merges: u64,
}

/// One immutable sorted run of a [`LifespanIndex`].
#[derive(Debug)]
struct Run {
    /// Entry lower bounds, sorted ascending.
    los: Vec<i64>,
    /// Entry upper bounds, parallel to `los`.
    his: Vec<i64>,
    /// Tuple position of each entry, parallel to `los`.
    positions: Vec<u32>,
    /// `max_hi[node]` for an implicit binary segment tree over `his`.
    max_hi: Vec<i64>,
}

impl LifespanIndex {
    /// Builds the index from tuple lifespans in position order.
    pub fn build<'a, I>(lifespans: I) -> LifespanIndex
    where
        I: IntoIterator<Item = &'a Lifespan>,
    {
        let mut entries: Vec<(i64, i64, u32)> = Vec::new();
        let mut tuple_count = 0usize;
        for (pos, ls) in lifespans.into_iter().enumerate() {
            let pos = u32::try_from(pos).expect("relation fits in u32 positions");
            for iv in ls.intervals() {
                entries.push((iv.lo().tick(), iv.hi().tick(), pos));
            }
            tuple_count += 1;
        }
        entries.sort_unstable();
        let runs = if entries.is_empty() {
            Vec::new()
        } else {
            vec![Arc::new(Run::from_sorted(entries.into_iter()))]
        };
        LifespanIndex {
            runs,
            pending: Vec::new(),
            tuple_count,
            merges: 0,
        }
    }

    /// Appends the lifespan of the tuple at `pos` — which must be the next
    /// position, i.e. `pos == tuple_count()`; the index only grows in
    /// relation order.
    ///
    /// The entries land in the sorted pending run; when that run exceeds
    /// 64 entries it is frozen into a run and the stack is re-merged.
    pub fn insert(&mut self, pos: usize, ls: &Lifespan) {
        assert_eq!(
            pos, self.tuple_count,
            "LifespanIndex::insert positions are append-only"
        );
        let pos = u32::try_from(pos).expect("relation fits in u32 positions");
        for iv in ls.intervals() {
            let entry = (iv.lo().tick(), iv.hi().tick(), pos);
            let at = self.pending.partition_point(|e| *e <= entry);
            self.pending.insert(at, entry);
        }
        self.tuple_count += 1;
        if self.pending.len() > PENDING_MAX {
            let frozen = Run::from_sorted(std::mem::take(&mut self.pending).into_iter());
            self.runs.push(Arc::new(frozen));
            self.merge_runs();
        }
    }

    /// Merges runs from the top down while one is less than twice the size
    /// of the run above it. Inputs are left to whoever still shares them.
    fn merge_runs(&mut self) {
        while let [.., older, newer] = self.runs.as_slice() {
            if older.len() >= 2 * newer.len() {
                break;
            }
            let merged = Run::from_sorted(MergeSorted {
                a: older.entries().peekable(),
                b: newer.entries().peekable(),
            });
            self.runs.truncate(self.runs.len() - 2);
            self.runs.push(Arc::new(merged));
            self.merges += 1;
        }
    }

    /// How many run merges this index (and the indexes it was cloned
    /// from) has performed — each one a long insert.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Number of runs a query probes besides the pending run.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Do `self` and `other` hold the same allocation as run `i` (oldest
    /// first)? What the structural-sharing tests assert on.
    pub fn shares_run_with(&self, other: &LifespanIndex, i: usize) -> bool {
        matches!((self.runs.get(i), other.runs.get(i)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Number of interval entries in the index (runs + pending run).
    pub fn entry_count(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum::<usize>() + self.pending.len()
    }

    /// Number of indexed tuples.
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// Is the index empty (no intervals at all)?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.pending.is_empty()
    }

    /// Chronon stabbing: positions of tuples alive at `t`, sorted ascending.
    pub fn stab(&self, t: Chronon) -> Vec<usize> {
        self.overlapping_interval(&Interval::point(t))
    }

    /// Interval overlap: positions of tuples whose lifespan intersects
    /// `window`, sorted ascending.
    pub fn overlapping_interval(&self, window: &Interval) -> Vec<usize> {
        let mut out = Vec::new();
        self.report(window.lo().tick(), window.hi().tick(), &mut out);
        finish_positions(&mut out);
        out
    }

    /// Lifespan overlap: positions of tuples whose lifespan intersects
    /// `window`, sorted ascending. The empty window matches nothing.
    pub fn overlapping(&self, window: &Lifespan) -> Vec<usize> {
        let mut out = Vec::new();
        for iv in window.intervals() {
            self.report(iv.lo().tick(), iv.hi().tick(), &mut out);
        }
        finish_positions(&mut out);
        out
    }

    /// Pushes (possibly duplicate, unsorted) positions of entries
    /// overlapping `[a, b]` onto `out`.
    fn report(&self, a: i64, b: i64, out: &mut Vec<usize>) {
        for run in &self.runs {
            // Prefix of entries that can overlap: lo <= b.
            let prefix = run.los.partition_point(|&lo| lo <= b);
            if prefix > 0 {
                // Descend the implicit segment tree over [0, prefix),
                // pruning subtrees whose max hi < a.
                run.descend(1, 0, run.len(), prefix, a, out);
            }
        }
        // The pending run is sorted by lo too: same prefix argument, but
        // it is short (≤ PENDING_MAX), so a linear filter suffices.
        let pending_prefix = self.pending.partition_point(|e| e.0 <= b);
        for &(_, hi, pos) in &self.pending[..pending_prefix] {
            if hi >= a {
                out.push(pos as usize);
            }
        }
    }
}

/// Merges two sorted entry streams into one.
struct MergeSorted<A: Iterator, B: Iterator> {
    a: std::iter::Peekable<A>,
    b: std::iter::Peekable<B>,
}

impl<A, B> Iterator for MergeSorted<A, B>
where
    A: Iterator<Item = (i64, i64, u32)>,
    B: Iterator<Item = (i64, i64, u32)>,
{
    type Item = (i64, i64, u32);

    fn next(&mut self) -> Option<(i64, i64, u32)> {
        match (self.a.peek(), self.b.peek()) {
            (Some(x), Some(y)) if x <= y => self.a.next(),
            (_, Some(_)) => self.b.next(),
            (_, None) => self.a.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (a, b) = (self.a.size_hint().0, self.b.size_hint().0);
        (a + b, None)
    }
}

impl Run {
    /// Builds a run from entries already sorted ascending.
    fn from_sorted(entries: impl Iterator<Item = (i64, i64, u32)>) -> Run {
        let n = entries.size_hint().0;
        let (mut los, mut his, mut positions) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for (lo, hi, pos) in entries {
            los.push(lo);
            his.push(hi);
            positions.push(pos);
        }
        Run {
            max_hi: build_max_tree(&his),
            los,
            his,
            positions,
        }
    }

    fn len(&self) -> usize {
        self.los.len()
    }

    /// The run's entries, ascending.
    fn entries(&self) -> impl Iterator<Item = (i64, i64, u32)> + '_ {
        (0..self.len()).map(|i| (self.los[i], self.his[i], self.positions[i]))
    }

    /// Visits tree node `node` covering entry range `[lo, hi)`, restricted
    /// to `[0, prefix)`, reporting entries with `his[i] >= a`.
    fn descend(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        prefix: usize,
        a: i64,
        out: &mut Vec<usize>,
    ) {
        if lo >= prefix || lo >= hi {
            return;
        }
        if node < self.max_hi.len() && self.max_hi[node] < a {
            return; // no entry below reaches up to `a`
        }
        if hi - lo == 1 {
            if self.his[lo] >= a {
                out.push(self.positions[lo] as usize);
            }
            return;
        }
        let mid = lo + (hi - lo) / 2;
        self.descend(node * 2, lo, mid, prefix, a, out);
        self.descend(node * 2 + 1, mid, hi, prefix, a, out);
    }
}

/// Builds the implicit segment-tree maxima for `his` (1-based heap layout;
/// node 1 covers the whole range, children split it in half).
fn build_max_tree(his: &[i64]) -> Vec<i64> {
    fn fill(tree: &mut [i64], his: &[i64], node: usize, lo: usize, hi: usize) -> i64 {
        let m = if hi - lo == 1 {
            his[lo]
        } else {
            let mid = lo + (hi - lo) / 2;
            let l = fill(tree, his, node * 2, lo, mid);
            let r = fill(tree, his, node * 2 + 1, mid, hi);
            l.max(r)
        };
        tree[node] = m;
        m
    }
    if his.is_empty() {
        return Vec::new();
    }
    let mut tree = vec![i64::MIN; 4 * his.len()];
    fill(&mut tree, his, 1, 0, his.len());
    tree
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
        let i = idx(spans);
        assert_eq!(i.entry_count(), 3);
        assert_eq!(i.tuple_count(), 2);
    }

    /// Incremental appends answer exactly like a from-scratch build, at
    /// every prefix — across the pending run, merges, and fresh appends.
    #[test]
    fn incremental_matches_rebuild_at_every_prefix() {
        // Enough tuples to freeze the pending run and merge runs several times.
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
            }
        }
    }

    /// A clone answers as of its own moment however many inserts and run
    /// merges the original goes through afterwards, and the stack stays
    /// logarithmic.
    #[test]
    fn clones_are_unaffected_by_later_inserts_and_merges() {
        let lifespans: Vec<Lifespan> = (0..5_000i64)
            .map(|i| Lifespan::interval((i * 37) % 900, (i * 37) % 900 + i % 40))
            .collect();
        let mut live = LifespanIndex::build(lifespans[..1_000].iter());
        let frozen = live.clone();
        for (pos, ls) in lifespans.iter().enumerate().skip(1_000) {
            live.insert(pos, ls);
        }
        assert!(live.merges() > 10, "merged {} times", live.merges());
        assert!(live.run_count() <= 8, "{} runs", live.run_count());
        assert!(!live.shares_run_with(&frozen, 0), "the bulk run was merged");
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

    #[test]
    #[should_panic(expected = "append-only")]
    fn out_of_order_insert_panics() {
        let mut i = idx(&[&[(0, 9)]]);
        i.insert(5, &Lifespan::interval(0, 1));
    }
}
