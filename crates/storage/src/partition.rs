//! Lifespan-based horizontal partitioning of a relation's tuple store.
//!
//! HRDM's defining idea is that every tuple carries a lifespan, so the
//! physical layout can exploit time: the chronon axis is cut into
//! fixed-width ranges (the [`PartitionPolicy`]), every tuple is assigned to
//! the partition holding its **birth chronon** (the first chronon of its
//! lifespan), and each partition keeps
//!
//! * the member tuples' **positions** into the relation's tuple
//!   vector (the in-memory layout is untouched — partitioning is pure
//!   physical metadata, so every existing operator keeps working),
//! * a **lifespan summary**, the [`Hull`] of every member tuple's
//!   lifespan (persisted in the catalog), and
//! * its own [`LifespanIndex`] over the member tuples: their lifespan
//!   intervals sorted by start, in blocks of 32 that a probe skips by
//!   the same hull test, so a pruned query probes a handful of small
//!   indexes. The map is the relation's only lifespan access path: no
//!   relation-wide lifespan index exists beside it (key probes go through
//!   the relation-wide key index, so partitions keep none).
//!
//! ## Pruning
//!
//! For a query window `W` (a TIME-SLICE lifespan, or a TIME-JOIN probe
//! span), a partition can be skipped whenever its summary `[min_lo,
//! max_hi]` is disjoint from `W`: every member tuple's lifespan is a
//! subset of the summary interval, so a member overlapping `W` would make
//! the summary overlap `W` too. Conversely, when `W` *contains* the whole
//! summary interval, every member overlaps `W` (each member has at least
//! one chronon, and all its chronons are inside `W`), so the partition's
//! position list is taken wholesale without probing — the archival/current
//! split that makes wide historical slices cheap.
//!
//! Like every access method in this workspace, pruning only ever produces
//! *candidate positions*: operators re-apply their exact semantics on the
//! candidates, so a partitioned relation is observationally identical to
//! an unpartitioned one (the workspace oracle, `tests/oracle/`, drives
//! random write histories against both, demands byte-identical WALs and
//! checks every query's answer from either against `eval.rs`).
//!
//! ## Durability
//!
//! Partitioning is a **physical property**: the WAL format does not know
//! about it, and replaying a log re-derives the same partition map from
//! the tuples and the (catalog-persisted) policy. A checkpoint writes each
//! partition as a run of whole pages in its relation's heap file of that
//! epoch (members in birth order, which a cold partition's page hulls
//! exploit), and only the partitions that do not know where their image is
//! ([`Partition::image`]): a partition whose membership has not changed
//! keeps pointing into the file it was written in.

use hrdm_core::{PVec, Relation, Tuple};
use hrdm_index::{Hull, LifespanIndex};
use hrdm_time::{Chronon, Interval, Lifespan};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Default span exponent: partitions of `2^10 = 1024` chronons.
pub const DEFAULT_SPAN_LOG2: u32 = 10;

/// How a relation's chronon axis is cut into partitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionPolicy {
    /// Fixed power-of-two chronon spans: partition `k` nominally covers
    /// `[k·2^s, (k+1)·2^s)`. The exponent is clamped to `[0, 62]`.
    ///
    /// Power-of-two boundaries make the tuple → partition mapping one
    /// arithmetic shift (exact for negative chronons too), and make
    /// *splitting* a hot partition a local operation: halving the span
    /// splits every partition exactly in two.
    SpanLog2(u32),
    /// A single partition covering all of `T` (span = ∞) — the
    /// unpartitioned engine the differential oracle runs beside every
    /// partitioned one.
    Unpartitioned,
}

impl Default for PartitionPolicy {
    fn default() -> PartitionPolicy {
        PartitionPolicy::SpanLog2(DEFAULT_SPAN_LOG2)
    }
}

impl std::fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionPolicy::SpanLog2(s) => write!(f, "span=2^{s}"),
            PartitionPolicy::Unpartitioned => f.write_str("span=∞"),
        }
    }
}

impl PartitionPolicy {
    /// The partition id of a tuple born at `birth`.
    ///
    /// Arithmetic right shift floors toward −∞, so negative chronons get
    /// their own partitions instead of aliasing onto partition 0.
    pub fn partition_id(&self, birth: Chronon) -> i64 {
        match self {
            PartitionPolicy::SpanLog2(s) => birth.tick() >> (*s).min(62),
            PartitionPolicy::Unpartitioned => 0,
        }
    }

    /// Serializes the policy (one byte tag + exponent).
    pub(crate) fn encode(&self, e: &mut crate::codec::Encoder) {
        match self {
            PartitionPolicy::SpanLog2(s) => {
                e.put_u8(0);
                e.put_u64(u64::from(*s));
            }
            PartitionPolicy::Unpartitioned => e.put_u8(1),
        }
    }

    /// Deserializes a policy.
    pub(crate) fn decode(
        d: &mut crate::codec::Decoder<'_>,
    ) -> Result<PartitionPolicy, crate::codec::CodecError> {
        match d.get_u8()? {
            0 => Ok(PartitionPolicy::SpanLog2((d.get_u64()? as u32).min(62))),
            1 => Ok(PartitionPolicy::Unpartitioned),
            tag => Err(crate::codec::CodecError::BadTag("PartitionPolicy", tag)),
        }
    }
}

/// Where a partition's members live.
#[derive(Clone, Debug)]
enum Members {
    /// In-memory members: positions plus the partition's own lifespan
    /// index — what [`PartitionMap::build`] / [`PartitionMap::insert`]
    /// produce.
    Resident {
        /// Member positions into the relation's tuple vector, in
        /// insertion order (ascending — positions are append-only).
        positions: PVec<u32>,
        /// Block-zone index over the member lifespans (a sorted body in
        /// hull-skipped blocks plus a pending block of appends); the
        /// positions it returns are **local** (indices into `positions`).
        lifespans: LifespanIndex,
    },
    /// Disk-resident members: the records of the partition's run of heap
    /// pages, which only a paged scan reads — what
    /// [`PartitionMap::from_manifest`] produces.
    ///
    /// A checkpoint writes the run in birth order, so each page holds a
    /// narrow birth range, and the first full scan of the run records one
    /// [`PageZone`] per page. A committed heap is immutable, so the zone
    /// map is set once and never changes; later windowed scans skip,
    /// without pinning, every page whose hull misses the window.
    Cold {
        /// The run's per-page zones, set by its first full scan.
        zones: OnceLock<Arc<[PageZone]>>,
    },
}

/// What one page of a cold partition's heap holds: the hull of its
/// records' lifespans, which a window must meet for any record to, and
/// how many live records it has.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct PageZone {
    /// Hull of the page's record lifespans.
    pub hull: Hull,
    /// Live records on the page.
    pub records: u32,
}

impl PageZone {
    /// The zone of a page holding no record.
    pub(crate) const EMPTY: PageZone = PageZone {
        hull: Hull::EMPTY,
        records: 0,
    };
}

/// Where a checkpoint wrote a partition's members: a run of whole pages in
/// its relation's heap file of one epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HeapRun {
    /// The checkpoint epoch whose heap file holds the run.
    pub epoch: u64,
    /// The run's first page in that file.
    pub first_page: u32,
    /// Pages in the run.
    pub pages: u32,
}

/// A checkpoint manifest's row for one partition: `(id, tuple count,
/// min_lo, max_hi, run)`.
pub type ManifestRow = (i64, u64, i64, i64, HeapRun);

/// One chronon-range partition: member positions, lifespan summary, its own
/// lifespan index, and where its checkpoint image is, if it has a current
/// one.
///
/// Cloning one is cheap whatever it holds (the position list and the
/// index share their bulk with the original), which is what lets
/// [`PartitionMap::insert`] copy just the partition it lands in.
#[derive(Clone, Debug)]
pub struct Partition {
    members: Members,
    /// Member count (known without touching disk even for cold members).
    count: usize,
    /// Hull of the member lifespans (empty when no member has a chronon).
    hull: Hull,
    /// The pages holding exactly the current members, once a checkpoint
    /// wrote them; `None` (dirty) until then and after any change.
    image: Option<HeapRun>,
}

impl Partition {
    /// A resident partition over `members` — `(position, lifespan)` pairs
    /// in ascending position order. Starts dirty (no image).
    fn resident(members: &[(u32, &Lifespan)]) -> Partition {
        let mut part = Partition {
            members: Members::Resident {
                positions: members.iter().map(|&(pos, _)| pos).collect(),
                lifespans: LifespanIndex::build(members.iter().map(|&(_, ls)| ls)),
            },
            count: members.len(),
            hull: Hull::EMPTY,
            image: None,
        };
        for (_, ls) in members {
            part.hull.widen(Hull::of(ls));
        }
        part
    }

    /// Adds a member; returns the folds its lifespan index did.
    fn add(&mut self, pos: u32, tuple: &Tuple) -> u64 {
        let Members::Resident {
            positions,
            lifespans,
        } = &mut self.members
        else {
            // Cold partitions are read-only checkpoint views; the paged
            // read path never routes inserts here.
            debug_assert!(false, "insert into a cold partition");
            return 0;
        };
        let merges_before = lifespans.merges();
        lifespans.insert(positions.len(), tuple.lifespan());
        positions.push(pos);
        let merges = lifespans.merges() - merges_before;
        self.hull.widen(Hull::of(tuple.lifespan()));
        self.count += 1;
        self.image = None;
        merges
    }

    /// Member positions into the relation's tuple vector, ascending.
    ///
    /// Cold partitions yield nothing: their members are records of a heap
    /// file, not positions in a resident tuple vector.
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        let resident = match &self.members {
            Members::Resident { positions, .. } => Some(positions),
            Members::Cold { .. } => None,
        };
        resident.into_iter().flatten().map(|&p| p as usize)
    }

    /// Are the members disk-resident (a run of checkpoint heap pages)?
    pub fn is_cold(&self) -> bool {
        matches!(self.members, Members::Cold { .. })
    }

    /// The per-page zone map of a cold partition's run (unset until the
    /// run's first full scan); `None` for resident members.
    pub(crate) fn page_zones(&self) -> Option<&OnceLock<Arc<[PageZone]>>> {
        match &self.members {
            Members::Cold { zones } => Some(zones),
            Members::Resident { .. } => None,
        }
    }

    /// Number of member tuples.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Is the partition empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The min/max lifespan summary interval, `None` when no member has a
    /// non-empty lifespan.
    pub fn summary(&self) -> Option<Interval> {
        self.hull.interval()
    }

    /// Raw summary bounds `(min_lo, max_hi)` as persisted in the catalog
    /// manifest (`(i64::MAX, i64::MIN)` is the empty sentinel).
    pub fn summary_bounds(&self) -> (i64, i64) {
        (self.hull.lo, self.hull.hi)
    }

    /// Where the last checkpoint wrote exactly the current members; `None`
    /// when membership changed since (the partition is dirty).
    pub fn image(&self) -> Option<HeapRun> {
        self.image
    }
}

/// The partition map of one relation: partition id → [`Partition`],
/// derived metadata over the relation's tuple vector.
///
/// ## Sharing and copy-on-write
///
/// Partitions sit behind `Arc`s, so cloning the map costs one
/// reference-count bump per partition, and [`PartitionMap::insert`] on a
/// map whose partitions a clone (a published snapshot) still shares
/// copies only the one partition the tuple lands in — itself a cheap copy,
/// see [`Partition`]. Every other partition stays the very allocation the
/// clone holds. A reader holding a pre-repartition snapshot keeps planning
/// against its frozen map.
#[derive(Clone, Debug)]
pub struct PartitionMap {
    policy: PartitionPolicy,
    parts: BTreeMap<i64, Arc<Partition>>,
    tuple_count: usize,
}

impl PartitionMap {
    /// Builds the map over `r` under `policy` in bulk: members are grouped
    /// by partition first, then each partition's position list and index
    /// are built once. Every partition starts dirty (nothing is known to
    /// be on disk).
    pub fn build(r: &Relation, policy: PartitionPolicy) -> PartitionMap {
        let mut members: BTreeMap<i64, Vec<(u32, &Lifespan)>> = BTreeMap::new();
        for (pos, t) in r.iter().enumerate() {
            members
                .entry(policy.partition_id(birth_of(t)))
                .or_default()
                .push((position_u32(pos), t.lifespan()));
        }
        PartitionMap {
            policy,
            parts: members
                .into_iter()
                .map(|(id, members)| (id, Arc::new(Partition::resident(&members))))
                .collect(),
            tuple_count: r.len(),
        }
    }

    /// Rebuilds a **cold** map from a checkpoint manifest's per-partition
    /// `(id, count, min_lo, max_hi, run)` rows. No member is resident:
    /// pruning answers come from the persisted summaries, and the members
    /// are the records of each partition's run of heap pages. All
    /// partitions start clean (they mirror what is on disk).
    pub fn from_manifest(policy: PartitionPolicy, manifest: &[ManifestRow]) -> PartitionMap {
        let cold = |&(id, count, lo, hi, run): &ManifestRow| {
            let members = Members::Cold {
                zones: OnceLock::new(),
            };
            let part = Partition {
                members,
                count: count as usize,
                hull: Hull { lo, hi },
                image: Some(run),
            };
            (id, Arc::new(part))
        };
        let parts: BTreeMap<_, _> = manifest.iter().map(cold).collect();
        let tuple_count = parts.values().map(|p| p.count).sum();
        PartitionMap {
            policy,
            parts,
            tuple_count,
        }
    }

    /// Registers the tuple just appended to the relation at position `pos`
    /// (which must equal [`PartitionMap::tuple_count`] — append-only, like
    /// the indexes it contains). Copies the partition the tuple lands in
    /// if a clone of the map shares it, and no other.
    ///
    /// Returns how many folds that partition's lifespan index did on this
    /// insert — the amortizing work the storage fold counter reports.
    pub fn insert(&mut self, pos: usize, tuple: &Tuple) -> u64 {
        assert_eq!(
            pos, self.tuple_count,
            "PartitionMap::insert positions are append-only"
        );
        let part = self
            .parts
            .entry(self.policy.partition_id(birth_of(tuple)))
            .or_insert_with(|| Arc::new(Partition::resident(&[])));
        let merges = Arc::make_mut(part).add(position_u32(pos), tuple);
        self.tuple_count += 1;
        merges
    }

    /// The boundary policy the map was built under.
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Number of member tuples across all partitions.
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// The partition with id `id`, if populated.
    pub fn partition(&self, id: i64) -> Option<&Partition> {
        self.parts.get(&id).map(Arc::as_ref)
    }

    /// Do `self` and `other` hold the same allocation as partition `id`?
    /// What the structural-sharing tests assert on.
    pub fn shares_partition_with(&self, other: &PartitionMap, id: i64) -> bool {
        matches!((self.parts.get(&id), other.parts.get(&id)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Iterates `(id, partition)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &Partition)> + '_ {
        self.parts.iter().map(|(&id, p)| (id, &**p))
    }

    /// Ids of partitions whose summary overlaps `window` — the partitions
    /// a lifespan-bounded scan must touch.
    pub fn overlapping_ids(&self, window: &Lifespan) -> Vec<i64> {
        let Some(probe) = SummaryProbe::new(window) else {
            return Vec::new();
        };
        self.parts
            .iter()
            .filter(|(_, p)| probe.overlaps(p, window))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Does some partition keep its members on disk?
    pub fn has_cold(&self) -> bool {
        self.parts.values().any(|p| p.is_cold())
    }

    /// Ids of the cold partitions a scan must read, ascending: those whose
    /// summary overlaps `window`, or every one when `None`.
    pub fn cold_ids(&self, window: Option<&Lifespan>) -> Vec<i64> {
        let ids = match window {
            Some(w) => self.overlapping_ids(w),
            None => self.parts.keys().copied().collect(),
        };
        let cold = |id: &i64| self.parts.get(id).is_some_and(|p| p.is_cold());
        ids.into_iter().filter(cold).collect()
    }

    /// `(scanned, total)` partition counts for `window` — what EXPLAIN
    /// renders as `partitions: pruned/total pruned`. Allocation-free:
    /// this runs on every plan of a lifespan-bounded scan.
    pub fn pruning_counts(&self, window: &Lifespan) -> (usize, usize) {
        let Some(probe) = SummaryProbe::new(window) else {
            return (0, self.parts.len());
        };
        let scanned = self
            .parts
            .values()
            .filter(|p| probe.overlaps(p, window))
            .count();
        (scanned, self.parts.len())
    }

    /// Global positions of candidate tuples whose lifespan overlaps
    /// `window`, sorted ascending and deduplicated — the pruning access
    /// path.
    ///
    /// Partitions whose summary is disjoint from `window` are skipped
    /// whole. Partitions whose summary is *contained* in `window` are
    /// taken whole without probing; the rest are served from their own
    /// lifespan index. Cold partitions contribute nothing: their members
    /// are heap records, not positions (see [`Partition::positions`]).
    pub fn prune_positions(&self, window: &Lifespan) -> Vec<usize> {
        let Some(probe) = SummaryProbe::new(window) else {
            return Vec::new();
        };
        let mut out: Vec<usize> = Vec::new();
        let mut sorted = true;
        for p in self.parts.values() {
            if !probe.hull_overlaps(p) {
                continue;
            }
            let Some(summary) = p.summary() else {
                continue;
            };
            let Members::Resident {
                positions,
                lifespans,
            } = &p.members
            else {
                continue;
            };
            let chunk_start = out.len();
            if window.contains_interval(&summary) {
                // Every member tuple lives inside the summary, and the
                // whole summary is inside the window: all members overlap.
                out.extend(p.positions());
            } else if window.intersects_interval(&summary) {
                out.extend(
                    lifespans
                        .overlapping(window)
                        .into_iter()
                        .map(|local| positions[local] as usize),
                );
            }
            // Positions are ascending within one partition's chunk;
            // across partitions they interleave only when insertions
            // jumped between chronon ranges — detect and sort once.
            if sorted && chunk_start > 0 && out.len() > chunk_start {
                sorted = out[chunk_start] > out[chunk_start - 1];
            }
        }
        if !sorted {
            out.sort_unstable();
            out.dedup();
        }
        out
    }

    /// Records where a checkpoint left each partition of `runs`; ids the
    /// map does not hold are ignored. Only partitions whose run changed
    /// are touched (and copied, if shared).
    pub(crate) fn set_images(&mut self, runs: impl IntoIterator<Item = (i64, HeapRun)>) {
        for (id, run) in runs {
            let part = self.parts.get_mut(&id);
            if let Some(p) = part.filter(|p| p.image != Some(run)) {
                Arc::make_mut(p).image = Some(run);
            }
        }
    }
}

/// The chronon whose partition holds `tuple`: its birth, or chronon 0 for
/// an empty lifespan. The on-disk B+tree files tuples under the same rule.
pub(crate) fn birth_of(tuple: &Tuple) -> Chronon {
    tuple.lifespan().first().unwrap_or(Chronon::new(0))
}

pub(crate) fn position_u32(pos: usize) -> u32 {
    // lint: no-panic-ok(record ids are u32 on disk, so an in-memory relation can never reach u32::MAX rows)
    u32::try_from(pos).expect("relation fits in u32 positions")
}

/// The shared summary-overlap predicate of the pruning queries: the
/// window's own hull against each partition's [`Hull`] (a few integer
/// compares per partition), with the exact run-level test only for
/// fragmented windows, where the window's hull over-approximates. `None`
/// for the empty window, which overlaps nothing.
struct SummaryProbe {
    window_hull: Interval,
    /// Fragmented window: the hull prefilter alone would over-match.
    exact: bool,
}

impl SummaryProbe {
    fn new(window: &Lifespan) -> Option<SummaryProbe> {
        Some(SummaryProbe {
            window_hull: window.hull()?,
            exact: !window.is_contiguous(),
        })
    }

    /// Does the window's *hull* overlap the partition summary?
    fn hull_overlaps(&self, p: &Partition) -> bool {
        p.hull.meets_interval(&self.window_hull)
    }

    /// Does the window itself overlap the partition summary?
    fn overlaps(&self, p: &Partition, window: &Lifespan) -> bool {
        self.hull_overlaps(p) && (!self.exact || p.hull.meets(window))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::{HistoricalDomain, Scheme, TemporalValue, Value, ValueKind};

    fn scheme() -> Scheme {
        // The ALS reaches below zero so negative-chronon tuples are valid.
        Scheme::builder()
            .key_attr("K", ValueKind::Int, Lifespan::interval(-1000, 1_000_000))
            .attr(
                "V",
                HistoricalDomain::int(),
                Lifespan::interval(-1000, 1_000_000),
            )
            .build()
            .unwrap()
    }

    fn tup(k: i64, spans: &[(i64, i64)]) -> Tuple {
        let life = Lifespan::of(spans);
        Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::constant(&life, Value::Int(k)))
            .finish(&scheme())
            .unwrap()
    }

    fn rel(tuples: Vec<Tuple>) -> Relation {
        Relation::with_tuples(scheme(), tuples).unwrap()
    }

    #[test]
    fn policy_assigns_by_birth_chronon() {
        let p = PartitionPolicy::SpanLog2(4); // span 16
        assert_eq!(p.partition_id(Chronon::new(0)), 0);
        assert_eq!(p.partition_id(Chronon::new(15)), 0);
        assert_eq!(p.partition_id(Chronon::new(16)), 1);
        assert_eq!(p.partition_id(Chronon::new(-1)), -1, "floors toward −∞");
        assert_eq!(p.partition_id(Chronon::new(-16)), -1);
        assert_eq!(p.partition_id(Chronon::new(-17)), -2);
        assert_eq!(
            PartitionPolicy::Unpartitioned.partition_id(Chronon::new(12345)),
            0
        );
    }

    #[test]
    fn build_assigns_and_summarizes() {
        let r = rel(vec![
            tup(1, &[(0, 5)]),
            tup(2, &[(3, 40)]),    // born in partition 0, reaches into 2
            tup(3, &[(20, 25)]),   // partition 1
            tup(4, &[(100, 110)]), // partition 6
        ]);
        let m = PartitionMap::build(&r, PartitionPolicy::SpanLog2(4));
        assert_eq!(m.partition_count(), 3);
        assert_eq!(m.tuple_count(), 4);
        let p0 = m.partition(0).unwrap();
        assert_eq!(p0.positions().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(p0.summary_bounds(), (0, 40), "summary covers overhang");
        assert_eq!(m.partition(1).unwrap().positions().collect::<Vec<_>>(), [2]);
        assert_eq!(m.partition(6).unwrap().positions().collect::<Vec<_>>(), [3]);
    }

    /// Pruned candidates equal a linear overlap scan for every window —
    /// including windows that only reach a partition through a tuple's
    /// overhang past its nominal chronon range.
    #[test]
    fn prune_positions_matches_linear_scan() {
        let tuples = vec![
            tup(1, &[(0, 5)]),
            tup(2, &[(3, 40)]),
            tup(3, &[(20, 25)]),
            tup(4, &[(100, 110)]),
            tup(5, &[(64, 70), (200, 210)]), // fragmented lifespan
            tup(6, &[(-30, -20)]),           // negative chronons
        ];
        let r = rel(tuples.clone());
        for policy in [
            PartitionPolicy::SpanLog2(4),
            PartitionPolicy::SpanLog2(6),
            PartitionPolicy::Unpartitioned,
        ] {
            let m = PartitionMap::build(&r, policy);
            for lo in (-40..220).step_by(7) {
                for len in [0i64, 3, 17, 90, 300] {
                    let w = Lifespan::interval(lo, lo + len);
                    let expect: Vec<usize> = tuples
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.lifespan().intersects(&w))
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(
                        m.prune_positions(&w),
                        expect,
                        "{policy} window [{lo},{}]",
                        lo + len
                    );
                }
            }
            assert!(m.prune_positions(&Lifespan::empty()).is_empty());
        }
    }

    /// Incremental insert equals a from-scratch build: same partitions,
    /// same summaries, same pruning answers. One partition (chronons
    /// 512..544) receives well over twice the pending-block size of
    /// fragmented lifespans out of birth order, so its lifespan index
    /// folds several times, and a clone taken midway keeps answering as of
    /// its own moment.
    #[test]
    fn incremental_insert_matches_rebuild() {
        let policy = PartitionPolicy::SpanLog2(5);
        let windows: Vec<Lifespan> = [0, 100, 250, 399, 500, 520, 560, 600, 700]
            .into_iter()
            .map(|lo| Lifespan::interval(lo, lo + 60))
            .chain([Lifespan::of(&[(515, 517), (640, 650)])])
            .collect();
        let mut m = PartitionMap::build(&Relation::new(scheme()), policy);
        let mut tuples = Vec::new();
        let mut midway = None;
        for k in 0..150i64 {
            let lo = (k * 37) % 400;
            let t = tup(k, &[(lo, lo + (k % 50))]);
            m.insert(tuples.len(), &t);
            tuples.push(t);
        }
        for k in 150..450i64 {
            let lo = 512 + (k * 13) % 32;
            let t = tup(k, &[(lo, lo + k % 7), (lo + 20, lo + 30 + k % 90)]);
            m.insert(tuples.len(), &t);
            tuples.push(t);
            if k == 300 {
                let answers: Vec<Vec<usize>> =
                    windows.iter().map(|w| m.prune_positions(w)).collect();
                midway = Some((m.clone(), answers));
            }
        }
        let built = PartitionMap::build(&rel(tuples.clone()), policy);
        assert_eq!(m.partition_count(), built.partition_count());
        for (id, p) in built.iter() {
            let q = m.partition(id).expect("same partitions");
            assert_eq!(p.positions().collect::<Vec<_>>(), {
                q.positions().collect::<Vec<_>>()
            });
            assert_eq!(p.summary_bounds(), q.summary_bounds());
        }
        let Members::Resident { lifespans, .. } = &m.partition(16).unwrap().members else {
            unreachable!("inserted partitions are resident");
        };
        assert!(lifespans.merges() >= 8, "{} folds", lifespans.merges());
        let linear = |upto: usize, w: &Lifespan| -> Vec<usize> {
            (0..upto)
                .filter(|&p| tuples[p].lifespan().intersects(w))
                .collect()
        };
        for w in &windows {
            assert_eq!(m.prune_positions(w), linear(tuples.len(), w), "{w}");
            assert_eq!(built.prune_positions(w), linear(tuples.len(), w), "{w}");
        }
        let (clone, answers) = midway.expect("taken midway");
        for (w, answer) in windows.iter().zip(answers) {
            assert_eq!(clone.prune_positions(w), answer, "clone at {w}");
            assert_eq!(answer, linear(301, w), "clone at {w}");
        }
    }

    /// Ids of the partitions without an image.
    fn dirty_ids(m: &PartitionMap) -> Vec<i64> {
        let dirty = m.iter().filter(|(_, p)| p.image().is_none());
        dirty.map(|(id, _)| id).collect()
    }

    #[test]
    fn dirty_tracking_follows_inserts() {
        let r = rel(vec![tup(1, &[(0, 5)]), tup(2, &[(100, 105)])]);
        let mut m = PartitionMap::build(&r, PartitionPolicy::SpanLog2(4));
        assert_eq!(dirty_ids(&m), vec![0, 6], "everything dirty after build");
        let run = |first_page| HeapRun {
            epoch: 1,
            first_page,
            pages: 1,
        };
        m.set_images([(0, run(0)), (6, run(1)), (9, run(2))]);
        assert!(dirty_ids(&m).is_empty());
        assert_eq!(m.partition(6).unwrap().image(), Some(run(1)));
        assert!(m.partition(9).is_none(), "an unknown id stays unknown");
        m.insert(2, &tup(3, &[(101, 120)]));
        assert_eq!(dirty_ids(&m), vec![6], "only the touched partition");
        assert_eq!(m.partition(6).unwrap().image(), None);
        assert_eq!(m.partition(0).unwrap().image(), Some(run(0)));
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn out_of_order_insert_panics() {
        let mut m = PartitionMap::build(&Relation::new(scheme()), PartitionPolicy::default());
        m.insert(3, &tup(1, &[(0, 5)]));
    }
}
