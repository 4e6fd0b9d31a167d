//! The streaming executor: pull-based, batch-at-a-time query evaluation —
//! the one interpreter of physical plans, whatever sort the query has.
//!
//! [`crate::plan_query()`] turns a query into a [`QueryPlan`]; this module
//! turns that plan into a tree of [`QueryExecutor`]s — one executor per
//! physical operator — that is driven Volcano-style: `open()` prepares the
//! operator (and returns its output [`Scheme`]), `next_batch()` yields
//! bounded [`RowBatch`]es of rows, `close()` releases resources. Row caps
//! and cancellation are enforced *per batch* at the root, so a runaway
//! scan is cut off within one batch boundary instead of after full
//! materialization.
//!
//! ## Roots
//!
//! * A relation-sorted query ends in a [`QueryStream`], which hands the
//!   batches on to the caller.
//! * A lifespan-sorted query ends in a [`LifespanExec`]: each `WHEN` leaf
//!   pulls batches from its (planned, pruned, cancellable, row-capped)
//!   child and coalesces the runs of every `t.l` **once**, by sort and
//!   sweep. The per-tuple unaries directly under a `WHEN` run only the
//!   clip half of the streaming kernel (`chain_lifespan`): a row's
//!   lifespan is all the root reads. Computed `TIMESLICE` windows and
//!   `SELECT-IF` bounds (`Ω(e)`) run through the same root when their
//!   operator opens.
//! * An aggregate ends in an [`AggregateExec`], which drains its bounded
//!   child and aggregates over time.
//!
//! ## Operator classes
//!
//! * **Streaming** — scans and the per-tuple unaries (σWHEN, σIF, π, τ,
//!   τ@A) never hold more than one batch (a scan of cold partitions, one
//!   partition's hits): each input row maps to at most one output row
//!   independently of every other row. A row is a
//!   restriction view ([`ClippedTuple`]): an `Arc`-backed stored tuple and
//!   the clip it is seen through. τ, τ@A, σWHEN and σIF only narrow the
//!   clip, and π projects the stored tuple and carries the clip through —
//!   one per-tuple kernel (`chain_row`), so no restricted tuple is built
//!   on the way. The clip becomes a restricted tuple only where an
//!   operator needs restricted values:
//!   - a build/probe operator's build and probe inputs (set equality,
//!     join concatenation, mergability);
//!   - an [`AggregateExec`]'s input;
//!   - [`QueryStream::collect_relation`] and [`RowBatch::into_rows`].
//!
//!   Everywhere else the row encoder writes `τ_clip(t)` segment by
//!   segment from the stored tuple (`hrdm_storage::Encoder::put_tuple`).
//! * **Build/probe** — joins, products and the six set operators are one
//!   executor (`BinaryExec`). `open()` drains the *build* input once
//!   (cancellable per batch) into the table the operator needs — a tuple
//!   hash for `∪ ∩ −`, a key table for `⋈ ∪ₒ ∩ₒ −ₒ`, a lifespan index for
//!   TIME-JOIN, plain rows for θ-JOIN and `×` — or borrows a bare base
//!   relation's own key index or partition map;
//!   `next_batch()` streams the *probe* input through it batch by batch,
//!   emitting through the per-pair kernels the algebra functions of the
//!   reference evaluator ([`crate::eval`]) are made of. A symmetric
//!   operator builds its smaller input (estimated from partition
//!   summaries and index sizes); `−`, `−ₒ` and TIME-JOIN build the right
//!   one. A tuple caches its content hash, so each stored tuple is hashed
//!   once per process, and only `∪` keeps an emitted-set. Reference ≡
//!   streamed equivalence — with either build side — is asserted by the
//!   workspace's differential oracle (`tests/oracle/`).
//!
//! A query runs on the thread that pulls it: every scan is one serial
//! `ScanExec` with its unaries stacked above it as `FilterExec`s, so the
//! rows of a batch are encoded on the core that scanned them. A literal τ
//! directly on a scan is the scan's clip instead: a cold partition's
//! records are then decoded straight into their restrictions
//! ([`IndexSource::read_cold`]), and resident rows become the same views a
//! `FilterExec` would make.
//!
//! Every executor keeps per-operator [`ExecStats`] (rows, batches,
//! inclusive wall time); `EXPLAIN ANALYZE` renders the executor tree with
//! those numbers.

use crate::ast::LifespanExpr;
use crate::plan::{
    fmt_window, node_label, plan_lifespan, record_scan_access, unary_label, valid_partitions,
    AccessPath, BinaryOp, IndexSource, LifespanPlan, LifespanSetOp, Plan, QueryPlan, UnaryOp,
};
use hrdm_core::algebra::{
    aggregate_over_time, cartesian_product, difference, difference_o, difference_o_pair,
    intersection, intersection_o, intersection_o_pair, natural_join, natural_join_pair,
    product_pair, theta_join, theta_join_pair, time_join, time_join_pair, union, union_o,
    AggregateOp, Comparator, Predicate, Quantifier,
};
use hrdm_core::{
    Attribute, ClippedTuple, Concat, HrdmError, PVec, Projection, Relation, Scheme, TemporalValue,
    Tuple, TupleView, Value,
};
use hrdm_index::{KeyIndex, LifespanIndex};
use hrdm_storage::{DbError, Partition, PartitionMap};
use hrdm_time::{Interval, Lifespan};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// The default number of rows per [`RowBatch`].
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// The hard ceiling on one batch's row capacity — allocation sizes derived
/// from caller-supplied batch settings are capped here before any buffer is
/// reserved.
pub const MAX_BATCH_ROWS: usize = 65_536;

/// A cancellation probe: checked once per batch. Returning `true` aborts
/// the stream with [`ExecError::Cancelled`] before the next batch is
/// produced.
pub type CancelProbe = Arc<dyn Fn() -> bool + Send + Sync>;

/// A bounded batch of rows — restriction views of `Arc`-backed tuples —
/// the unit of flow between executors and out of a [`QueryStream`].
#[derive(Clone, Debug, Default)]
pub struct RowBatch {
    rows: Vec<ClippedTuple>,
}

impl RowBatch {
    /// Wraps a row vector as a batch.
    pub fn new(rows: Vec<ClippedTuple>) -> RowBatch {
        RowBatch { rows }
    }

    /// The batch's rows: each a stored tuple and the clip it is seen
    /// through. Encoders write them as they are
    /// ([`hrdm_storage::Encoder::put_tuple`]).
    pub fn rows(&self) -> &[ClippedTuple] {
        &self.rows
    }

    /// Consumes the batch into its result tuples, building each clipped
    /// row's restriction.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
            .into_iter()
            .map(ClippedTuple::into_tuple)
            .collect()
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Everything that can abort a stream mid-flight.
#[derive(Clone, PartialEq, Debug)]
pub enum ExecError {
    /// An operator failed (unknown relation, type error, …) — exactly the
    /// errors the reference evaluator reports.
    Eval(HrdmError),
    /// The stream's [`CancelProbe`] fired; the stream stopped within one
    /// batch boundary.
    Cancelled,
    /// More than [`ExecOptions::max_rows`] rows were streamed.
    RowLimit(u64),
    /// Reading a cold partition from disk failed (I/O, a bad checksum, a
    /// corrupt record): the stream stops there, never silently short.
    Storage(StorageError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Eval(e) => write!(f, "{e}"),
            ExecError::Cancelled => f.write_str("query cancelled"),
            ExecError::RowLimit(n) => write!(f, "result exceeds the cap of {n} rows"),
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

/// A storage failure met by a scan, shared so that the errors carrying it
/// stay cheap to clone. Two are equal when they are the same failure.
#[derive(Clone, Debug)]
pub struct StorageError(pub Arc<DbError>);

impl PartialEq for StorageError {
    fn eq(&self, other: &StorageError) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for ExecError {}

impl From<HrdmError> for ExecError {
    fn from(e: HrdmError) -> Self {
        ExecError::Eval(e)
    }
}

/// Knobs for one streaming execution.
#[derive(Clone)]
pub struct ExecOptions {
    /// Target rows per batch (clamped to `1..=`[`MAX_BATCH_ROWS`]).
    pub batch_rows: usize,
    /// Abort with [`ExecError::RowLimit`] once more than this many rows
    /// have been streamed from the root.
    pub max_rows: Option<u64>,
    /// Cancellation probe, checked per batch.
    pub cancel: Option<CancelProbe>,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            batch_rows: DEFAULT_BATCH_ROWS,
            max_rows: None,
            cancel: None,
        }
    }
}

impl fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecOptions")
            .field("batch_rows", &self.batch_rows)
            .field("max_rows", &self.max_rows)
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

impl ExecOptions {
    fn batch_rows_clamped(&self) -> usize {
        self.batch_rows.clamp(1, MAX_BATCH_ROWS)
    }
}

/// Per-operator runtime statistics: output rows, output batches, and
/// inclusive wall time (an operator's clock runs while its children work
/// for it).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ExecStats {
    /// Rows this operator emitted.
    pub rows: u64,
    /// Batches this operator emitted.
    pub batches: u64,
    /// Inclusive wall nanoseconds across `open` and every `next_batch`.
    pub wall_ns: u64,
}

/// One physical operator of a streaming plan, driven pull-style.
///
/// Lifecycle: exactly one successful [`open`](QueryExecutor::open) (which
/// returns the operator's output scheme), then [`QueryExecutor::next_batch`]
/// (QueryExecutor::next_batch) until it yields `Ok(None)` or an error,
/// then [`close`](QueryExecutor::close). `close` is idempotent and must
/// also be safe to call on a never-opened or mid-stream executor (that is
/// how cancellation tears a tree down). After `close`, accumulated
/// [`ExecStats`] remain readable — `EXPLAIN ANALYZE` renders them.
pub trait QueryExecutor {
    /// Prepares the operator (resolving relations, evaluating lifespan
    /// bounds, typechecking predicates) and returns its output scheme.
    /// Binary operators drain their build input here.
    fn open(&mut self) -> Result<Scheme, ExecError>;

    /// The next bounded batch, or `Ok(None)` once the stream is drained.
    fn next_batch(&mut self) -> Result<Option<RowBatch>, ExecError>;

    /// Releases cursors and buffers. Idempotent.
    fn close(&mut self);

    /// Statistics accumulated so far (valid during and after the run).
    fn stats(&self) -> ExecStats;

    /// Renders this operator (and its inputs, indented) one line per
    /// node, optionally annotated with measured stats.
    fn render(&self, depth: usize, annotate: bool, out: &mut String);
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn annotation(stats: &ExecStats, annotate: bool) -> String {
    if annotate {
        format!(
            " (actual time={}, batches={}, rows={})",
            crate::plan::fmt_ns(stats.wall_ns),
            stats.batches,
            stats.rows
        )
    } else {
        String::new()
    }
}

/// Renders a fused chain (outermost-first), one ever-deeper line per
/// operator, and returns the depth of whatever the chain is stacked on.
fn render_chain(chain: &[UnaryOp], depth: usize, out: &mut String) -> usize {
    for (i, op) in chain.iter().enumerate() {
        indent(out, depth + i);
        out.push_str(&unary_label(op));
        out.push('\n');
    }
    depth + chain.len()
}

fn cancelled(probe: &Option<CancelProbe>) -> bool {
    probe.as_ref().is_some_and(|c| c())
}

// ---------------------------------------------------------------------------
// Per-tuple operator kernels
// ---------------------------------------------------------------------------

/// A compiled per-tuple unary: parameters (lifespan bounds, predicate
/// typechecks, domain checks) are resolved once at `open`, so applying it
/// to a tuple is pure — the same kernel runs in a [`FilterExec`] and,
/// lifespan-only, under a [`WhenExec`].
enum TupleOp {
    TimeSlice(Lifespan),
    TimeSliceDynamic(Attribute),
    SelectWhen(Predicate),
    SelectIf {
        predicate: Predicate,
        quantifier: Quantifier,
        bound: Option<Lifespan>,
    },
    Project(Projection),
}

/// Evaluates the lifespan parameter of a unary operator (τ's window, σIF's
/// bound) through [`LifespanExec`], the root a top-level `WHEN` uses, so a
/// computed `Ω(e)` sees the same index scans, row cap and cancellation.
fn eval_lifespan_param(
    l: &LifespanExpr,
    src: &dyn IndexSource,
    opts: &ExecOptions,
) -> Result<Lifespan, ExecError> {
    match l {
        // The common case — every literal TIMESLICE — needs no executor.
        LifespanExpr::Literal(window) => Ok(window.clone()),
        computed => LifespanExec::build(&plan_lifespan(computed, src), src, opts).run(),
    }
}

/// Compiles `op` against its input scheme: evaluates lifespan parameters
/// through `src`, typechecks predicates, and derives the output scheme.
/// The checks run in the same order as the reference evaluator so error
/// behaviour matches.
fn compile_op(
    op: &UnaryOp,
    in_scheme: &Scheme,
    src: &dyn IndexSource,
    opts: &ExecOptions,
) -> Result<(TupleOp, Scheme), ExecError> {
    match op {
        UnaryOp::Project(attrs) => {
            let scheme = in_scheme.project(attrs)?;
            Ok((TupleOp::Project(Projection::new(attrs)), scheme))
        }
        UnaryOp::SelectWhen(predicate) => {
            predicate.typecheck(in_scheme)?;
            Ok((TupleOp::SelectWhen(predicate.clone()), in_scheme.clone()))
        }
        UnaryOp::SelectIf {
            predicate,
            quantifier,
            lifespan,
        } => {
            let bound = match lifespan {
                Some(l) => Some(eval_lifespan_param(l, src, opts)?),
                None => None,
            };
            predicate.typecheck(in_scheme)?;
            Ok((
                TupleOp::SelectIf {
                    predicate: predicate.clone(),
                    quantifier: *quantifier,
                    bound,
                },
                in_scheme.clone(),
            ))
        }
        UnaryOp::TimeSlice(lifespan) => {
            let window = eval_lifespan_param(lifespan, src, opts)?;
            Ok((TupleOp::TimeSlice(window), in_scheme.clone()))
        }
        UnaryOp::TimeSliceDynamic(attr) => {
            let dom = in_scheme.dom(attr)?;
            if !dom.is_time_valued() {
                return Err(HrdmError::NotTimeValued(attr.clone()).into());
            }
            Ok((TupleOp::TimeSliceDynamic(attr.clone()), in_scheme.clone()))
        }
    }
}

/// Compiles a fused chain (given outermost-first, applied innermost-first)
/// bottom-up against the scheme of what it is stacked on.
fn compile_chain(
    chain: &[UnaryOp],
    mut scheme: Scheme,
    src: &dyn IndexSource,
    opts: &ExecOptions,
) -> Result<(Vec<TupleOp>, Scheme), ExecError> {
    let mut ops = Vec::with_capacity(chain.len());
    for op in chain.iter().rev() {
        let (compiled, out_scheme) = compile_op(op, &scheme, src, opts)?;
        ops.push(compiled);
        scheme = out_scheme;
    }
    Ok((ops, scheme))
}

/// The lifespan a fused chain of compiled unaries (in application order —
/// innermost first) leaves on a row of `t` whose lifespan is `start`
/// (`None` where the chain drops it), computed without building any
/// restricted tuple. `Borrowed` means the chain left `start` as it was.
///
/// A row is always `t|_cur` for some `cur ⊆ t.l`, and predicates are
/// evaluated pointwise, so `when_true(t|_cur)` is `when_true(t) ∩ cur`:
/// tracking `cur` alone is enough. The cases replicate the per-tuple loops
/// of `hrdm_core::algebra::{timeslice, select}` — the differential oracle
/// (`tests/oracle/`) holds the two accountable.
fn chain_lifespan<'t>(
    ops: &[TupleOp],
    t: &Tuple,
    start: &'t Lifespan,
) -> Result<Option<Cow<'t, Lifespan>>, HrdmError> {
    let mut cur = Cow::Borrowed(start);
    for op in ops {
        let sliced = match op {
            // A window or truth span covering a (non-empty) row leaves it
            // whole, as `Tuple::restrict`'s sharing fast path does: no new
            // lifespan. An empty row is dropped below, as the algebra
            // drops tuples that bear no information.
            TupleOp::TimeSlice(window) if !cur.is_empty() && window.contains_lifespan(&cur) => {
                continue
            }
            TupleOp::TimeSlice(window) => cur.intersect(window),
            TupleOp::TimeSliceDynamic(attr) => match t.value(attr) {
                Some(tv) => tv.restrict(&cur).image_lifespan()?.intersect(&cur),
                None => Lifespan::empty(),
            },
            TupleOp::SelectWhen(predicate) => {
                let truth = predicate.when_true(t)?;
                if !cur.is_empty() && truth.contains_lifespan(&cur) {
                    continue;
                }
                truth.intersect(&cur)
            }
            TupleOp::SelectIf {
                predicate,
                quantifier,
                bound,
            } => {
                let truth = predicate.when_true(t)?.intersect(&cur);
                let selected = match (quantifier, bound) {
                    (Quantifier::Exists, Some(l)) => l.intersect(&cur).intersects(&truth),
                    (Quantifier::Exists, None) => !truth.is_empty(),
                    (Quantifier::Forall, Some(l)) => truth.contains_lifespan(&l.intersect(&cur)),
                    (Quantifier::Forall, None) => truth == *cur,
                };
                if !selected {
                    return Ok(None);
                }
                continue; // σIF passes the tuple through whole
            }
            TupleOp::Project(_) => continue, // π leaves lifespans alone
        };
        if sliced.is_empty() {
            return Ok(None);
        }
        cur = Cow::Owned(sliced);
    }
    Ok(Some(cur))
}

/// The one per-tuple kernel of the streaming unaries: the row a fused
/// chain makes of `row` (`None` where it drops it). Restrictions only
/// narrow the clip ([`chain_lifespan`]); π projects the stored tuple and
/// carries the clip through, since projecting commutes with restricting.
/// No restricted tuple is built: that happens where an operator needs
/// restricted values, or never, when the row is encoded.
fn chain_row(ops: &[TupleOp], row: TupleView<'_>) -> Result<Option<ClippedTuple>, HrdmError> {
    let clip = match chain_lifespan(ops, row.tuple(), row.lifespan())? {
        None => return Ok(None),
        Some(Cow::Borrowed(l)) => row.clip().map(|_| l.clone()),
        Some(Cow::Owned(l)) => Some(l),
    };
    let mut tuple = row.tuple().clone();
    for op in ops {
        if let TupleOp::Project(projection) = op {
            tuple = projection.apply(&tuple);
        }
    }
    Ok(Some(match clip {
        Some(clip) => ClippedTuple::new(tuple, clip),
        None => tuple.into(),
    }))
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// A serial base-relation scan honouring its planned [`AccessPath`]: a
/// missing or stale index at `open` time degrades to reading everything,
/// never to an error.
///
/// The scan reads the relation's cold partitions first, ascending by id —
/// those its window meets, or all — through [`IndexSource::read_cold`],
/// and then its resident tuples: the order an eager load stores them in.
/// A literal TIME-SLICE directly above the scan is fused into it as its
/// clip: cold records are decoded clipped, and resident rows become the
/// views `τ_clip(t)` a [`FilterExec`] would make of them.
struct ScanExec<'a> {
    name: String,
    access: AccessPath,
    label: String,
    /// The fused TIME-SLICE: its EXPLAIN label and window.
    clip: Option<(String, Lifespan)>,
    src: &'a dyn IndexSource,
    batch_rows: usize,
    state: Option<ScanState>,
    stats: ExecStats,
    /// Rows the scan read, before its clip dropped any.
    read_rows: u64,
    /// What the scan read of cold partitions; `None` when it had none.
    cold: Option<ColdStats>,
    /// Rows-streamed leaderboard credit fires once, at first close.
    reported: bool,
}

/// What a scan's cold partition reads did, for `EXPLAIN ANALYZE`.
#[derive(Clone, Copy, Default)]
struct ColdStats {
    partitions: u64,
    pages_skipped: u64,
    probed: u64,
    decoded: u64,
}

struct ScanState {
    /// The cold partitions still to read.
    cold: std::vec::IntoIter<i64>,
    /// The rows of the cold partition read last, not yet handed out.
    decoded: std::vec::IntoIter<Tuple>,
    relation: Relation,
    /// `None` = every position (SeqScan / degraded index scan).
    positions: Option<Vec<usize>>,
    cursor: usize,
}

impl<'a> ScanExec<'a> {
    fn build(
        name: &str,
        access: &AccessPath,
        label: String,
        clip: Option<(String, Lifespan)>,
        src: &'a dyn IndexSource,
        opts: &ExecOptions,
    ) -> ScanExec<'a> {
        ScanExec {
            name: name.to_string(),
            access: access.clone(),
            label,
            clip,
            src,
            batch_rows: opts.batch_rows_clamped(),
            state: None,
            stats: ExecStats::default(),
            read_rows: 0,
            cold: None,
            reported: false,
        }
    }

    /// The next batch: decoded rows of the cold partitions while any are
    /// left, then the resident rows, clipped.
    fn fill(&mut self) -> Result<Option<RowBatch>, ExecError> {
        let window = window_of(&self.access);
        let ScanExec {
            name,
            clip,
            src,
            batch_rows,
            state,
            read_rows,
            cold,
            ..
        } = self;
        let Some(state) = state else {
            return Ok(None); // never opened (or already closed)
        };
        let clip = clip.as_ref().map(|(_, w)| w);
        let mut rows = Vec::with_capacity((*batch_rows).min(MAX_BATCH_ROWS));
        while rows.len() < *batch_rows {
            if let Some(t) = state.decoded.next() {
                rows.push(ClippedTuple::from(t));
                continue;
            }
            let Some(id) = state.cold.next() else {
                break;
            };
            let mut out = Vec::new();
            let read = src
                .read_cold(name, id, window, clip, &mut out)
                .map_err(|e| ExecError::Storage(StorageError(Arc::new(e))))?;
            if let Some(cold) = cold {
                cold.partitions += 1;
                cold.pages_skipped += read.pages_skipped;
                cold.probed += read.scanned;
                cold.decoded += read.decoded;
            }
            state.decoded = out.into_iter();
        }
        if !rows.is_empty() {
            *read_rows += rows.len() as u64;
            return Ok(Some(RowBatch::new(rows)));
        }
        let clip = clip.map(|w| [TupleOp::TimeSlice(w.clone())]);
        while let Some(batch) = scan_next_batch(state, *batch_rows) {
            *read_rows += batch.len() as u64;
            let Some(clip) = &clip else {
                return Ok(Some(batch));
            };
            let mut rows = Vec::with_capacity(batch.len());
            for row in batch.rows() {
                rows.extend(chain_row(clip, row.into())?);
            }
            if !rows.is_empty() {
                return Ok(Some(RowBatch::new(rows)));
            }
        }
        Ok(None)
    }
}

/// The window of a lifespan access path: only rows alive somewhere in it
/// matter.
fn window_of(access: &AccessPath) -> Option<&Lifespan> {
    match access {
        AccessPath::LifespanIndex { window, .. } => Some(window),
        _ => None,
    }
}

/// Candidate positions for `access` over `r` (`None` = every position):
/// a lifespan scan is partition-pruned — skip partitions whose summary
/// misses the window, take fully-covered ones whole, probe the rest
/// through their own small indexes — and a stale or absent partition map
/// or key index degrades to a sequential scan.
fn scan_positions(
    access: &AccessPath,
    src: &dyn IndexSource,
    name: &str,
    r: &Relation,
) -> Option<Vec<usize>> {
    match access {
        AccessPath::SeqScan => None,
        AccessPath::LifespanIndex { window, .. } => {
            valid_partitions(src, name, r).map(|parts| parts.prune_positions(window))
        }
        AccessPath::KeyIndex { key, .. } => src.key_index(name).map(|k| k.lookup(key).to_vec()),
    }
}

/// Copies the next up-to-`batch_rows` tuples of `state` into a fresh
/// batch buffer (capacity capped at [`MAX_BATCH_ROWS`] — batch settings
/// are caller input, not trusted sizes).
fn scan_next_batch(state: &mut ScanState, batch_rows: usize) -> Option<RowBatch> {
    let total = match &state.positions {
        Some(p) => p.len(),
        None => state.relation.len(),
    };
    if state.cursor >= total {
        return None;
    }
    let end = (state.cursor + batch_rows).min(total);
    let mut rows = Vec::with_capacity(batch_rows.min(MAX_BATCH_ROWS));
    match &state.positions {
        Some(positions) => {
            for pos in &positions[state.cursor..end] {
                if let Some(t) = state.relation.tuple_at(*pos) {
                    rows.push(t.clone().into());
                }
            }
        }
        None => {
            for leaf in state.relation.tuples().slices(state.cursor..end) {
                rows.extend(leaf.iter().cloned().map(ClippedTuple::from));
            }
        }
    }
    state.cursor = end;
    Some(RowBatch::new(rows))
}

impl QueryExecutor for ScanExec<'_> {
    fn open(&mut self) -> Result<Scheme, ExecError> {
        let started = Instant::now();
        record_scan_access(&self.access);
        let r = self
            .src
            .relation(&self.name)
            .ok_or_else(|| HrdmError::UnknownRelation(self.name.clone()))?;
        let map = self.src.partitions(&self.name).filter(|m| m.has_cold());
        let cold = map.map_or_else(Vec::new, |m| m.cold_ids(window_of(&self.access)));
        self.cold = map.map(|_| ColdStats::default());
        let positions = scan_positions(&self.access, self.src, &self.name, r);
        let scheme = r.scheme().clone();
        self.state = Some(ScanState {
            cold: cold.into_iter(),
            decoded: Vec::new().into_iter(),
            relation: r.clone(),
            positions,
            cursor: 0,
        });
        self.stats.wall_ns += started.elapsed().as_nanos() as u64;
        Ok(scheme)
    }

    /// The next batch (none once drained, or when the scan is not open).
    fn next_batch(&mut self) -> Result<Option<RowBatch>, ExecError> {
        let started = Instant::now();
        let out = self.fill();
        if let Ok(Some(b)) = &out {
            self.stats.rows += b.len() as u64;
            self.stats.batches += 1;
        }
        self.stats.wall_ns += started.elapsed().as_nanos() as u64;
        out
    }

    fn close(&mut self) {
        self.state = None;
        if !self.reported {
            self.reported = true;
            hrdm_obs::window::top_relations().record(&self.name, self.stats.rows);
        }
    }

    fn stats(&self) -> ExecStats {
        self.stats
    }

    /// A fused TIME-SLICE renders as its own line over the scan's, as the
    /// plan has it: the slice's numbers are the rows the scan hands out,
    /// the scan's the rows it read. A scan of cold partitions also says
    /// what it read of them.
    fn render(&self, mut depth: usize, annotate: bool, out: &mut String) {
        if let Some((label, _)) = &self.clip {
            indent(out, depth);
            out.push_str(label);
            out.push_str(&annotation(&self.stats, annotate));
            out.push('\n');
            depth += 1;
        }
        indent(out, depth);
        out.push_str(&self.label);
        let read = ExecStats {
            rows: self.read_rows,
            ..self.stats
        };
        out.push_str(&annotation(&read, annotate));
        if let Some(cold) = self.cold.filter(|_| annotate) {
            out.push_str(&format!(
                " (cold: partitions={}, pages_skipped={}, probed={}, decoded={})",
                cold.partitions, cold.pages_skipped, cold.probed, cold.decoded
            ));
        }
        out.push('\n');
    }
}

// ---------------------------------------------------------------------------
// Streaming unaries
// ---------------------------------------------------------------------------

/// A per-tuple unary operator applied batch-by-batch over its child.
/// Checks the stream's [`CancelProbe`] whenever a child batch is fully
/// filtered away, so a highly-selective predicate over a large serial
/// scan still cancels within one input-batch boundary even though it
/// produces no output batches for the stream root to gate on.
struct FilterExec<'a> {
    op: UnaryOp,
    label: String,
    src: &'a dyn IndexSource,
    child: Box<dyn QueryExecutor + 'a>,
    opts: ExecOptions,
    compiled: Option<TupleOp>,
    stats: ExecStats,
}

impl QueryExecutor for FilterExec<'_> {
    fn open(&mut self) -> Result<Scheme, ExecError> {
        let started = Instant::now();
        let in_scheme = self.child.open()?;
        let result = compile_op(&self.op, &in_scheme, self.src, &self.opts);
        self.stats.wall_ns += started.elapsed().as_nanos() as u64;
        let (compiled, out_scheme) = result?;
        self.compiled = Some(compiled);
        Ok(out_scheme)
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, ExecError> {
        let started = Instant::now();
        let result = loop {
            let Some(op) = &self.compiled else {
                break Ok(None); // never opened (or already closed)
            };
            match self.child.next_batch() {
                Ok(Some(batch)) => {
                    let mut rows = Vec::with_capacity(batch.len());
                    for row in batch.rows() {
                        match chain_row(std::slice::from_ref(op), row.into()) {
                            Ok(Some(kept)) => rows.push(kept),
                            Ok(None) => {}
                            Err(e) => return Err(ExecError::Eval(e)),
                        }
                    }
                    if !rows.is_empty() {
                        self.stats.rows += rows.len() as u64;
                        self.stats.batches += 1;
                        break Ok(Some(RowBatch::new(rows)));
                    }
                    // A fully-filtered batch yields nothing: check for
                    // cancellation before pulling the next one, since no
                    // output reaches the stream root's per-batch gate.
                    if cancelled(&self.opts.cancel) {
                        break Err(ExecError::Cancelled);
                    }
                }
                Ok(None) => break Ok(None),
                Err(e) => break Err(e),
            }
        };
        self.stats.wall_ns += started.elapsed().as_nanos() as u64;
        result
    }

    fn close(&mut self) {
        self.compiled = None;
        self.child.close();
    }

    fn stats(&self) -> ExecStats {
        self.stats
    }

    fn render(&self, depth: usize, annotate: bool, out: &mut String) {
        indent(out, depth);
        out.push_str(&self.label);
        out.push_str(&annotation(&self.stats, annotate));
        out.push('\n');
        self.child.render(depth + 1, annotate, out);
    }
}

// ---------------------------------------------------------------------------
// Build/probe binary operators
// ---------------------------------------------------------------------------

/// Opens `child`, closing it again if that fails.
fn open_child(child: &mut dyn QueryExecutor) -> Result<Scheme, ExecError> {
    child.open().inspect_err(|_| child.close())
}

/// One pull through the gate every consumer of a child applies: the
/// stream's [`CancelProbe`] is checked before the child is asked for its
/// next batch.
fn pull(
    child: &mut dyn QueryExecutor,
    cancel: &Option<CancelProbe>,
) -> Result<Option<RowBatch>, ExecError> {
    if cancelled(cancel) {
        return Err(ExecError::Cancelled);
    }
    child.next_batch()
}

/// Pulls an opened `child` dry, handing each batch to `sink` (which returns
/// how many rows it kept) — behind the gate a [`QueryStream`] applies:
/// `cancel` is probed before every pull and `max_rows` checked after every
/// batch, so a build side or a `WHEN`/aggregate root also stops within one
/// batch and never returns a silent partial result. Kept rows and batches
/// are counted into `stats`; the child is closed on every path.
fn drain(
    child: &mut dyn QueryExecutor,
    cancel: &Option<CancelProbe>,
    max_rows: Option<u64>,
    stats: &mut ExecStats,
    mut sink: impl FnMut(RowBatch) -> Result<u64, HrdmError>,
) -> Result<(), ExecError> {
    let result = (|| loop {
        let Some(batch) = pull(child, cancel)? else {
            return Ok(());
        };
        stats.batches += 1;
        stats.rows += sink(batch)?;
        if let Some(max) = max_rows.filter(|&max| stats.rows > max) {
            return Err(ExecError::RowLimit(max));
        }
    })();
    child.close();
    result
}

/// A binary operator of a plan, with its parameters.
enum BinaryKind {
    Op(BinaryOp),
    Theta {
        a: Attribute,
        op: Comparator,
        b: Attribute,
    },
    TimeJoin {
        attr: Attribute,
    },
}

impl BinaryKind {
    /// May either operand be the build side? `−` and `−ₒ` keep the left
    /// operand's tuples and TIME-JOIN reads its attribute off the left
    /// one, so those build the right side; the rest are symmetric.
    fn symmetric(&self) -> bool {
        !matches!(
            self,
            BinaryKind::Op(BinaryOp::Difference | BinaryOp::DifferenceO)
                | BinaryKind::TimeJoin { .. }
        )
    }

    /// Does a key table serve the operator — probe tuples pair only with
    /// build rows agreeing on some constant attribute values?
    fn keyed(&self) -> bool {
        matches!(
            self,
            BinaryKind::Op(
                BinaryOp::NaturalJoin
                    | BinaryOp::UnionO
                    | BinaryOp::IntersectionO
                    | BinaryOp::DifferenceO
            )
        )
    }

    /// What EXPLAIN calls the build table.
    fn table_name(&self, indexed: bool) -> &'static str {
        match self {
            BinaryKind::TimeJoin { .. } if indexed => "partition map",
            BinaryKind::TimeJoin { .. } => "lifespan table",
            _ if indexed => "key index",
            _ if self.keyed() => "key hash",
            BinaryKind::Op(BinaryOp::Union | BinaryOp::Intersection | BinaryOp::Difference) => {
                "tuple hash"
            }
            _ => "rows",
        }
    }

    /// The result scheme over operands on `left` and `right` — typechecked
    /// exactly as the reference evaluator checks it, because it *is* the
    /// oracle's function, applied to empty operands.
    fn scheme(&self, left: &Scheme, right: &Scheme) -> Result<Scheme, HrdmError> {
        let (l, r) = (Relation::new(left.clone()), Relation::new(right.clone()));
        let empty = match self {
            BinaryKind::Op(op) => match op {
                BinaryOp::Union => union(&l, &r),
                BinaryOp::Intersection => intersection(&l, &r),
                BinaryOp::Difference => difference(&l, &r),
                BinaryOp::UnionO => union_o(&l, &r),
                BinaryOp::IntersectionO => intersection_o(&l, &r),
                BinaryOp::DifferenceO => difference_o(&l, &r),
                BinaryOp::Product => cartesian_product(&l, &r),
                BinaryOp::NaturalJoin => natural_join(&l, &r),
            },
            BinaryKind::Theta { a, op, b } => theta_join(&l, &r, a, *op, b),
            BinaryKind::TimeJoin { attr } => time_join(&l, &r, attr),
        }?;
        Ok(empty.scheme().clone())
    }
}

/// An operand position.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

impl Side {
    fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Side::Left => "left",
            Side::Right => "right",
        }
    }
}

/// One input of a binary operator.
enum Input<'a> {
    /// A child executor.
    Exec(Box<dyn QueryExecutor + 'a>),
    /// A bare base relation whose own index is the build table: its tuples
    /// are read in place, never scanned or drained.
    Indexed(String),
}

impl Input<'_> {
    fn open(&mut self, src: &dyn IndexSource) -> Result<Scheme, ExecError> {
        match self {
            Input::Exec(child) => child.open(),
            Input::Indexed(name) => Ok(base_relation(src, name)?.scheme().clone()),
        }
    }

    fn close(&mut self) {
        if let Input::Exec(child) = self {
            child.close();
        }
    }
}

fn base_relation<'s>(src: &'s dyn IndexSource, name: &str) -> Result<&'s Relation, HrdmError> {
    src.relation(name)
        .ok_or_else(|| HrdmError::UnknownRelation(name.to_string()))
}

/// The hasher of a [`TupleSet`]. A tuple hashes as one `u64`, its cached
/// content hash, which is already random and keyed (crafted collisions
/// need the key), so this hands it through: a lookup or a growing table
/// hashes nothing again.
#[derive(Default)]
struct StoredHash(u64);

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
/// tables and an aggregate's distinct input.
type TupleSet = HashSet<Tuple, BuildHasherDefault<StoredHash>>;

/// What a binary operator builds from its build input.
enum Table<'a> {
    /// `∪ ∩ −`: the build side's distinct tuples. `∪` files every tuple it
    /// emits here as well — the one emitted-set, because `∪` is the
    /// operator whose inputs overlap — so its output is distinct.
    Tuples(TupleSet),
    /// The pairwise operators: the build rows, and how a probe tuple
    /// narrows them to its candidate partners.
    Rows {
        rows: PVec<Tuple>,
        access: Access<'a>,
    },
}

/// How a probe tuple narrows the build rows to candidate partners: a
/// superset of the rows it pairs with — the operator's pair rule decides.
enum Access<'a> {
    /// Every row: θ-JOIN and product.
    All,
    /// Rows filed by their constant values of `attrs` (a join's common
    /// attributes, an object operator's key). A row without constant values
    /// for all of them is `wild`: a candidate for every probe tuple.
    Keys {
        attrs: Vec<Attribute>,
        buckets: HashMap<Vec<Value>, Vec<usize>>,
        wild: Vec<usize>,
    },
    /// An indexed base relation's key index.
    KeyIndex(&'a KeyIndex),
    /// Rows by lifespan (TIME-JOIN): an index over the drained rows.
    Spans(LifespanIndex),
    /// A partitioned base relation's partition map (TIME-JOIN): each probe
    /// prunes partitions by summary first.
    Partitions(&'a PartitionMap),
}

/// The candidate rows of one probe tuple, as build-row positions.
enum Candidates<'t> {
    All,
    Listed(&'t [usize], &'t [usize]),
    Found(Vec<usize>),
}

/// `t`'s constant value of every attribute of `attrs`, if it has them all.
fn constant_key(t: &Tuple, attrs: &[Attribute]) -> Option<Vec<Value>> {
    attrs
        .iter()
        .map(|a| t.value(a).and_then(TemporalValue::constant_value).cloned())
        .collect()
}

impl<'a> Access<'a> {
    /// A key table over `rows` (positions in iteration order).
    fn keys<'t>(attrs: &[Attribute], rows: impl Iterator<Item = &'t Tuple>) -> Access<'a> {
        let mut buckets: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        let mut wild = Vec::new();
        for (pos, t) in rows.enumerate() {
            match constant_key(t, attrs) {
                Some(key) => buckets.entry(key).or_default().push(pos),
                None => wild.push(pos),
            }
        }
        Access::Keys {
            attrs: attrs.to_vec(),
            buckets,
            wild,
        }
    }

    /// The candidates of probe tuple `p`. A lifespan access needs the
    /// probe window (TIME-JOIN's `p.l ∩ image(p(A))`).
    fn candidates(&self, p: &Tuple, window: Option<&Lifespan>) -> Candidates<'_> {
        match (self, window) {
            (
                Access::Keys {
                    attrs,
                    buckets,
                    wild,
                },
                _,
            ) => match constant_key(p, attrs) {
                Some(key) => Candidates::Listed(buckets.get(&key).map_or(&[], Vec::as_slice), wild),
                None => Candidates::All,
            },
            (Access::KeyIndex(idx), _) => match idx.probe_key_of(p) {
                Some(key) => Candidates::Listed(idx.lookup(&key), &[]),
                None => Candidates::All,
            },
            (Access::Spans(idx), Some(window)) => Candidates::Found(idx.overlapping(window)),
            (Access::Partitions(parts), Some(window)) => {
                Candidates::Found(parts.prune_positions(window))
            }
            _ => Candidates::All,
        }
    }
}

/// Calls `f` with every candidate row (and its position).
fn each_candidate(
    rows: &PVec<Tuple>,
    candidates: Candidates<'_>,
    mut f: impl FnMut(usize, &Tuple) -> Result<(), HrdmError>,
) -> Result<(), HrdmError> {
    let positions: &mut dyn Iterator<Item = &usize> = match &candidates {
        Candidates::All => return rows.iter().enumerate().try_for_each(|(pos, t)| f(pos, t)),
        Candidates::Listed(bucket, wild) => &mut bucket.iter().chain(wild.iter()),
        Candidates::Found(positions) => &mut positions.iter(),
    };
    for &pos in positions {
        if let Some(t) = rows.get(pos) {
            f(pos, t)?;
        }
    }
    Ok(())
}

/// Drains the build input into the table `kind` needs (cancellation is
/// probed per batch; a build side is not the result, so no row cap). `∪`
/// queues its build side's distinct tuples into `head`: they are emitted
/// first.
fn drain_table<'a>(
    kind: &BinaryKind,
    child: &mut dyn QueryExecutor,
    cancel: &Option<CancelProbe>,
    key_attrs: &[Attribute],
    head: &mut VecDeque<Tuple>,
) -> Result<Table<'a>, ExecError> {
    let mut pulled = ExecStats::default();
    if let BinaryKind::Op(op @ (BinaryOp::Union | BinaryOp::Intersection | BinaryOp::Difference)) =
        kind
    {
        let mut tuples = TupleSet::default();
        drain(child, cancel, None, &mut pulled, |batch| {
            let n = batch.len() as u64;
            for t in batch.into_rows() {
                if *op != BinaryOp::Union {
                    tuples.insert(t);
                } else if tuples.insert(t.clone()) {
                    head.push_back(t);
                }
            }
            Ok(n)
        })?;
        return Ok(Table::Tuples(tuples));
    }
    let mut rows: Vec<Tuple> = Vec::new();
    drain(child, cancel, None, &mut pulled, |batch| {
        let n = batch.len() as u64;
        rows.extend(batch.into_rows());
        Ok(n)
    })?;
    let access = match kind {
        BinaryKind::TimeJoin { .. } => {
            Access::Spans(LifespanIndex::build(rows.iter().map(Tuple::lifespan)))
        }
        _ if kind.keyed() => Access::keys(key_attrs, rows.iter()),
        _ => Access::All,
    };
    Ok(Table::Rows {
        rows: PVec::from(rows),
        access,
    })
}

/// The build table of an indexed base relation: its own tuples and key
/// index or partition map, nothing drained. A key index whose attributes a
/// probe tuple need not agree on cannot narrow; the rows are then filed by
/// `key_attrs` instead. A dropped index or stale map degrades to comparing
/// rows, never to an error.
fn indexed_table<'a>(
    kind: &BinaryKind,
    src: &'a dyn IndexSource,
    name: &str,
    key_attrs: &[Attribute],
) -> Result<Table<'a>, HrdmError> {
    let r = base_relation(src, name)?;
    let access = match kind {
        BinaryKind::TimeJoin { .. } => {
            valid_partitions(src, name, r).map_or(Access::All, Access::Partitions)
        }
        _ => match src.key_index(name) {
            Some(key) if key.attrs().iter().all(|a| key_attrs.contains(a)) => Access::KeyIndex(key),
            _ => Access::keys(key_attrs, r.iter()),
        },
    };
    Ok(Table::Rows {
        rows: r.tuples().clone(),
        access,
    })
}

/// A binary operator mid-stream: its build table, the probe batch being
/// worked through, and the output queued for the next batch.
struct Probe<'a> {
    table: Table<'a>,
    /// `∪ₒ`: which build rows some probe tuple merged with.
    matched: Vec<bool>,
    /// The left operand's scheme: the object operators test mergability
    /// under its key.
    scheme: Scheme,
    /// NATURAL-JOIN's common attributes.
    common: Vec<Attribute>,
    /// The joins' and product's one concatenation: the output layout is
    /// derived once, not once per pair.
    concat: Concat,
    current: std::vec::IntoIter<Tuple>,
    ready: VecDeque<Tuple>,
    /// The probe side is exhausted.
    drained: bool,
}

impl Probe<'_> {
    /// Runs one probe tuple through the operator's rule, queueing what it
    /// emits. `probe_is_left` orients each pair as `(left, right)`.
    fn probe(&mut self, kind: &BinaryKind, probe_is_left: bool, p: Tuple) -> Result<(), HrdmError> {
        let Probe {
            table,
            matched,
            scheme,
            common,
            concat,
            ready,
            ..
        } = self;
        let (rows, access) = match table {
            Table::Tuples(tuples) => {
                let keep = match kind {
                    BinaryKind::Op(BinaryOp::Union) => tuples.insert(p.clone()),
                    BinaryKind::Op(BinaryOp::Intersection) => tuples.remove(&p),
                    _ => !tuples.contains(&p),
                };
                if keep {
                    ready.push_back(p);
                }
                return Ok(());
            }
            Table::Rows { rows, access } => (&*rows, &*access),
        };
        let mut found = false;
        match kind {
            // Built on the right: the probe tuple owns the join attribute.
            BinaryKind::TimeJoin { attr } => {
                let image = match p.value(attr) {
                    Some(tv) => tv.image_lifespan()?,
                    None => Lifespan::empty(),
                };
                let window = p.lifespan().intersect(&image);
                if window.is_empty() {
                    return Ok(());
                }
                each_candidate(rows, access.candidates(&p, Some(&window)), |_, row| {
                    ready.extend(time_join_pair(&p, row, &window, concat));
                    Ok(())
                })?;
            }
            BinaryKind::Theta { a, op, b } => {
                each_candidate(rows, access.candidates(&p, None), |_, row| {
                    let (l, r) = oriented(probe_is_left, &p, row);
                    ready.extend(theta_join_pair(l, r, a, *op, b, concat)?);
                    Ok(())
                })?;
            }
            BinaryKind::Op(op) => {
                each_candidate(rows, access.candidates(&p, None), |pos, row| {
                    let (l, r) = oriented(probe_is_left, &p, row);
                    match op {
                        BinaryOp::Product => ready.push_back(product_pair(l, r, concat)),
                        BinaryOp::NaturalJoin => {
                            ready.extend(natural_join_pair(l, r, common, concat)?)
                        }
                        _ if !p.mergable(row, scheme) => {}
                        BinaryOp::UnionO => {
                            found = true;
                            matched[pos] = true;
                            ready.push_back(l.merge(r)?);
                        }
                        BinaryOp::IntersectionO => ready.extend(intersection_o_pair(l, r)),
                        // Built on the right: `l` is the probe tuple.
                        BinaryOp::DifferenceO => {
                            found = true;
                            ready.extend(difference_o_pair(l, r));
                        }
                        // Served by `Table::Tuples` above.
                        BinaryOp::Union | BinaryOp::Intersection | BinaryOp::Difference => {}
                    }
                    Ok(())
                })?;
                // Unmatched probe tuples of `∪ₒ` and `−ₒ` pass through.
                if !found && matches!(op, BinaryOp::UnionO | BinaryOp::DifferenceO) {
                    ready.push_back(p);
                }
            }
        }
        Ok(())
    }

    /// The probe side is exhausted: queue what only the whole probe side
    /// decides — the `∪ₒ` build rows no probe tuple merged with — and free
    /// the table.
    fn finish(&mut self, kind: &BinaryKind) {
        self.drained = true;
        let table = std::mem::replace(&mut self.table, Table::Tuples(TupleSet::default()));
        if let (BinaryKind::Op(BinaryOp::UnionO), Table::Rows { rows, .. }) = (kind, table) {
            let unmatched = rows.iter().zip(&self.matched).filter(|(_, m)| !**m);
            self.ready.extend(unmatched.map(|(t, _)| t.clone()));
        }
    }
}

/// A probe tuple and a build row as the operator's `(left, right)` pair.
fn oriented<'t>(probe_is_left: bool, probe: &'t Tuple, row: &'t Tuple) -> (&'t Tuple, &'t Tuple) {
    if probe_is_left {
        (probe, row)
    } else {
        (row, probe)
    }
}

/// Every binary operator — set operators, object set operators, joins,
/// product — as one build/probe executor. `open` drains the build input
/// once into the table the operator needs (or borrows an indexed base
/// relation's own index); `next_batch` then streams the probe input batch
/// by batch through that table, emitting through the per-pair rules the
/// reference evaluator's functions are made of. Each stored tuple is
/// hashed once per process and nothing is materialized besides the build
/// table.
struct BinaryExec<'a> {
    kind: BinaryKind,
    label: String,
    build: Side,
    left: Input<'a>,
    right: Input<'a>,
    src: &'a dyn IndexSource,
    cancel: Option<CancelProbe>,
    batch_rows: usize,
    state: Option<Probe<'a>>,
    stats: ExecStats,
}

impl<'a> BinaryExec<'a> {
    fn prepare(&mut self) -> Result<(Scheme, Probe<'a>), ExecError> {
        let left = self.left.open(self.src)?;
        let right = self.right.open(self.src)?;
        let scheme = self.kind.scheme(&left, &right)?;
        let common: Vec<Attribute> = left
            .attr_names()
            .filter(|a| right.contains(a))
            .cloned()
            .collect();
        // What a key table files build rows by: the attributes a partner
        // must agree on.
        let key_attrs = match self.kind {
            BinaryKind::Op(BinaryOp::NaturalJoin) => common.clone(),
            _ => left.key().to_vec(),
        };
        let mut ready = VecDeque::new();
        let build = match self.build {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        };
        let table = match build {
            Input::Exec(child) => drain_table(
                &self.kind,
                child.as_mut(),
                &self.cancel,
                &key_attrs,
                &mut ready,
            )?,
            Input::Indexed(name) => indexed_table(&self.kind, self.src, name, &key_attrs)?,
        };
        let matched = match (&self.kind, &table) {
            (BinaryKind::Op(BinaryOp::UnionO), Table::Rows { rows, .. }) => vec![false; rows.len()],
            _ => Vec::new(),
        };
        let probe = Probe {
            table,
            matched,
            scheme: left,
            common,
            concat: Concat::new(),
            current: Vec::new().into_iter(),
            ready,
            drained: false,
        };
        Ok((scheme, probe))
    }

    /// The next output batch: queued output first, then probe tuples —
    /// pulled through the cancel gate one batch at a time — until a batch
    /// is full or the probe side is exhausted.
    fn fill(&mut self) -> Result<Option<RowBatch>, ExecError> {
        let probe_is_left = self.build == Side::Right;
        let BinaryExec {
            kind,
            left,
            right,
            cancel,
            batch_rows,
            state,
            ..
        } = self;
        let Some(state) = state else {
            return Ok(None); // never opened (or already closed)
        };
        let Input::Exec(probe) = (if probe_is_left { left } else { right }) else {
            return Ok(None); // the build side is the only indexed input
        };
        while state.ready.len() < *batch_rows {
            if let Some(p) = state.current.next() {
                state.probe(kind, probe_is_left, p)?;
            } else if state.drained {
                break;
            } else if let Some(batch) = pull(probe.as_mut(), cancel)? {
                state.current = batch.into_rows().into_iter();
            } else {
                state.finish(kind);
            }
        }
        let n = state.ready.len().min(*batch_rows);
        let rows = state.ready.drain(..n).map(ClippedTuple::from).collect();
        Ok((n > 0).then(|| RowBatch::new(rows)))
    }
}

impl QueryExecutor for BinaryExec<'_> {
    fn open(&mut self) -> Result<Scheme, ExecError> {
        let started = Instant::now();
        let result = self.prepare();
        self.stats.wall_ns += started.elapsed().as_nanos() as u64;
        match result {
            Ok((scheme, state)) => {
                self.state = Some(state);
                Ok(scheme)
            }
            Err(e) => {
                self.close();
                Err(e)
            }
        }
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>, ExecError> {
        let started = Instant::now();
        let result = self.fill();
        if let Ok(Some(b)) = &result {
            self.stats.rows += b.len() as u64;
            self.stats.batches += 1;
        }
        self.stats.wall_ns += started.elapsed().as_nanos() as u64;
        result
    }

    fn close(&mut self) {
        self.state = None;
        self.left.close();
        self.right.close();
    }

    fn stats(&self) -> ExecStats {
        self.stats
    }

    fn render(&self, depth: usize, annotate: bool, out: &mut String) {
        indent(out, depth);
        out.push_str(&self.label);
        out.push_str(&annotation(&self.stats, annotate));
        out.push('\n');
        for input in [&self.left, &self.right] {
            match input {
                Input::Exec(child) => child.render(depth + 1, annotate, out),
                Input::Indexed(name) => {
                    indent(out, depth + 1);
                    let probe = match &self.kind {
                        BinaryKind::TimeJoin { attr } => {
                            format!("lifespan, t.l ∩ image(t({attr}))")
                        }
                        _ => "key".to_string(),
                    };
                    out.push_str(&format!(
                        "Scan {name} [IndexScan({probe}) per probe tuple]\n"
                    ));
                }
            }
        }
    }
}

/// `p`'s relation when `p` is a bare scan of a relation whose own access
/// path can be `kind`'s build table: a key index for NATURAL-JOIN and the
/// object operators, the partition map for TIME-JOIN.
fn indexed_base(kind: &BinaryKind, p: &Plan, src: &dyn IndexSource) -> Option<String> {
    let Plan::Scan {
        relation,
        access: AccessPath::SeqScan,
        ..
    } = p
    else {
        return None;
    };
    let indexed = match kind {
        // Cold members have no positions to probe: such a relation is
        // scanned into a lifespan table instead.
        BinaryKind::TimeJoin { .. } => src.partitions(relation).is_some_and(|p| !p.has_cold()),
        _ if kind.keyed() => src.key_index(relation).is_some(),
        _ => false,
    };
    indexed.then(|| relation.clone())
}

/// An upper bound on the rows `p` yields, from what the source already
/// keeps: relation sizes, key-index hits, partition summaries and sizes.
/// It only ever picks the smaller side of a binary operator to build.
fn estimated_rows(p: &Plan, src: &dyn IndexSource) -> usize {
    match p {
        Plan::Scan {
            relation, access, ..
        } => {
            let Some(r) = src.relation(relation) else {
                return 0;
            };
            let members = |parts: &PartitionMap, ids: Vec<i64>| -> usize {
                let ids = ids.into_iter();
                ids.filter_map(|id| parts.partition(id))
                    .map(Partition::len)
                    .sum()
            };
            let resident = match access {
                AccessPath::SeqScan => r.len(),
                AccessPath::KeyIndex { key, .. } => src
                    .key_index(relation)
                    .map_or(r.len(), |k| k.lookup(key).len()),
                AccessPath::LifespanIndex { window, .. } => valid_partitions(src, relation, r)
                    .map_or(r.len(), |parts| {
                        members(parts, parts.overlapping_ids(window))
                    }),
            };
            let cold = src
                .partitions(relation)
                .map_or(0, |parts| members(parts, parts.cold_ids(window_of(access))));
            resident + cold
        }
        Plan::Unary { input, .. } => estimated_rows(input, src),
        Plan::Binary { op, left, right } => {
            let (l, r) = (estimated_rows(left, src), estimated_rows(right, src));
            match op {
                BinaryOp::Union | BinaryOp::UnionO => l.saturating_add(r),
                BinaryOp::Intersection | BinaryOp::IntersectionO => l.min(r),
                BinaryOp::Difference | BinaryOp::DifferenceO => l,
                BinaryOp::Product | BinaryOp::NaturalJoin => l.saturating_mul(r),
            }
        }
        Plan::ThetaJoin { left, right, .. } | Plan::TimeJoin { left, right, .. } => {
            estimated_rows(left, src).saturating_mul(estimated_rows(right, src))
        }
    }
}

/// Which input `kind` builds, and the relation whose own index is that
/// build table, if any. An operator that is not symmetric builds its right
/// side. A symmetric one builds a side whose index already exists — the
/// larger one when both do, so that the smaller is probed — and otherwise
/// the smaller side by [`estimated_rows`] (the right one on a tie) —
/// unless the caller `force`s the side.
fn build_side(
    kind: &BinaryKind,
    left: &Plan,
    right: &Plan,
    force: Option<Side>,
    src: &dyn IndexSource,
) -> (Side, Option<String>) {
    if !kind.symmetric() {
        return (Side::Right, indexed_base(kind, right, src));
    }
    if let Some(side) = force {
        let input = if side == Side::Left { left } else { right };
        return (side, indexed_base(kind, input, src));
    }
    let larger_left = || estimated_rows(left, src) > estimated_rows(right, src);
    match (
        indexed_base(kind, left, src),
        indexed_base(kind, right, src),
    ) {
        (Some(name), Some(_)) if larger_left() => (Side::Left, Some(name)),
        (Some(name), None) => (Side::Left, Some(name)),
        (_, Some(name)) => (Side::Right, Some(name)),
        (None, None) => {
            let smaller_left = estimated_rows(left, src) < estimated_rows(right, src);
            (
                if smaller_left {
                    Side::Left
                } else {
                    Side::Right
                },
                None,
            )
        }
    }
}

/// The build/probe executor of one binary plan node.
fn binary<'a>(
    kind: BinaryKind,
    p: &Plan,
    inputs: [&Plan; 2],
    force: Option<Side>,
    src: &'a dyn IndexSource,
    opts: &ExecOptions,
) -> Box<dyn QueryExecutor + 'a> {
    let (build, indexed) = build_side(&kind, inputs[0], inputs[1], force, src);
    let label = format!(
        "{}{} [build {}: {}, probe {}]",
        node_label(p),
        if indexed.is_some() {
            " (index nested loop)"
        } else {
            ""
        },
        build.name(),
        kind.table_name(indexed.is_some()),
        build.other().name(),
    );
    let [left, right] = [Side::Left, Side::Right].map(|side| match &indexed {
        Some(name) if side == build => Input::Indexed(name.clone()),
        _ => Input::Exec(build_executor(inputs[side as usize], src, opts)),
    });
    Box::new(BinaryExec {
        kind,
        label,
        build,
        left,
        right,
        src,
        cancel: opts.cancel.clone(),
        batch_rows: opts.batch_rows_clamped(),
        state: None,
        stats: ExecStats::default(),
    })
}

// ---------------------------------------------------------------------------
// Roots of the lifespan and aggregate sorts
// ---------------------------------------------------------------------------

/// One `Ω(e)`: pulls the planned child dry and coalesces the runs of every
/// tuple lifespan once, by sort and sweep.
///
/// The per-tuple unaries at the top of `e`'s plan are not built as
/// executors: they are applied here in lifespan-only mode
/// ([`chain_lifespan`]), so no restricted tuple is allocated just to read
/// its lifespan back. Rows are counted — and capped by `max_rows` — *after*
/// the chain: what a tuple-building child would have handed the root.
struct WhenExec<'a> {
    /// The peeled unaries, outermost-first.
    chain: Vec<UnaryOp>,
    child: Box<dyn QueryExecutor + 'a>,
    src: &'a dyn IndexSource,
    opts: ExecOptions,
    stats: ExecStats,
}

impl<'a> WhenExec<'a> {
    fn build(p: &Plan, src: &'a dyn IndexSource, opts: &ExecOptions) -> WhenExec<'a> {
        let (chain, bottom) = unary_chain(p);
        WhenExec {
            chain: chain.into_iter().cloned().collect(),
            child: build_executor(bottom, src, opts),
            src,
            opts: opts.clone(),
            stats: ExecStats::default(),
        }
    }

    fn run(&mut self) -> Result<Lifespan, ExecError> {
        let started = Instant::now();
        let result = self.union_of_lifespans();
        self.stats.wall_ns += started.elapsed().as_nanos() as u64;
        result
    }

    fn union_of_lifespans(&mut self) -> Result<Lifespan, ExecError> {
        let scheme = open_child(self.child.as_mut())?;
        let (ops, _) = compile_chain(&self.chain, scheme, self.src, &self.opts)
            .inspect_err(|_| self.child.close())?;
        let mut runs: Vec<Interval> = Vec::new();
        drain(
            self.child.as_mut(),
            &self.opts.cancel,
            self.opts.max_rows,
            &mut self.stats,
            |batch| {
                let mut kept = 0;
                for row in batch.rows() {
                    if let Some(l) = chain_lifespan(&ops, row.tuple(), row.lifespan())? {
                        kept += 1;
                        runs.extend_from_slice(l.intervals());
                    }
                }
                Ok(kept)
            },
        )?;
        Ok(Lifespan::from_intervals(runs))
    }

    fn render(&self, depth: usize, annotate: bool, out: &mut String) {
        indent(out, depth);
        out.push_str("When");
        out.push_str(&annotation(&self.stats, annotate));
        out.push('\n');
        let depth = render_chain(&self.chain, depth + 1, out);
        self.child.render(depth, annotate, out);
    }
}

/// The root of a lifespan-sorted query (and of every computed `TIMESLICE`
/// window or `SELECT-IF` bound): the executor of a [`LifespanPlan`].
/// [`run`](LifespanExec::run) it once; the tree stays renderable afterwards
/// with the statistics of the run.
pub struct LifespanExec<'a>(LifespanNode<'a>);

enum LifespanNode<'a> {
    Literal(Lifespan),
    When(Box<WhenExec<'a>>),
    Binary {
        op: LifespanSetOp,
        left: Box<LifespanNode<'a>>,
        right: Box<LifespanNode<'a>>,
    },
}

impl<'a> LifespanNode<'a> {
    fn build(p: &LifespanPlan, src: &'a dyn IndexSource, opts: &ExecOptions) -> LifespanNode<'a> {
        match p {
            LifespanPlan::Literal(l) => LifespanNode::Literal(l.clone()),
            LifespanPlan::When(e) => LifespanNode::When(Box::new(WhenExec::build(e, src, opts))),
            LifespanPlan::Binary { op, left, right } => LifespanNode::Binary {
                op: *op,
                left: Box::new(LifespanNode::build(left, src, opts)),
                right: Box::new(LifespanNode::build(right, src, opts)),
            },
        }
    }

    fn run(&mut self) -> Result<Lifespan, ExecError> {
        match self {
            LifespanNode::Literal(l) => Ok(l.clone()),
            LifespanNode::When(w) => w.run(),
            LifespanNode::Binary { op, left, right } => {
                let (a, b) = (left.run()?, right.run()?);
                Ok(match op {
                    LifespanSetOp::Union => a.union(&b),
                    LifespanSetOp::Intersect => a.intersect(&b),
                    LifespanSetOp::Minus => a.difference(&b),
                })
            }
        }
    }

    /// Rows that reached the `WHEN` leaves.
    fn rows(&self) -> u64 {
        match self {
            LifespanNode::Literal(_) => 0,
            LifespanNode::When(w) => w.stats.rows,
            LifespanNode::Binary { left, right, .. } => left.rows() + right.rows(),
        }
    }

    fn render(&self, depth: usize, annotate: bool, out: &mut String) {
        match self {
            LifespanNode::Literal(l) => {
                indent(out, depth);
                out.push_str(&format!("Lifespan {}\n", fmt_window(l)));
            }
            LifespanNode::When(w) => w.render(depth, annotate, out),
            LifespanNode::Binary { op, left, right } => {
                indent(out, depth);
                out.push_str(&format!("Lifespan-{op:?}\n"));
                left.render(depth + 1, annotate, out);
                right.render(depth + 1, annotate, out);
            }
        }
    }
}

impl<'a> LifespanExec<'a> {
    /// Builds the executor tree of `p`; nothing is opened until
    /// [`run`](LifespanExec::run).
    pub fn build(p: &LifespanPlan, src: &'a dyn IndexSource, opts: &ExecOptions) -> Self {
        LifespanExec(LifespanNode::build(p, src, opts))
    }

    /// Evaluates the lifespan. A cancelled or row-capped `WHEN` is an
    /// error, never a partial lifespan.
    pub fn run(&mut self) -> Result<Lifespan, ExecError> {
        self.0.run()
    }
}

/// The root of an aggregate query: drains its (planned, row-capped,
/// cancellable) child into a relation and aggregates it over time.
pub struct AggregateExec<'a> {
    op: AggregateOp,
    attr: Attribute,
    child: Box<dyn QueryExecutor + 'a>,
    opts: ExecOptions,
    stats: ExecStats,
}

impl AggregateExec<'_> {
    /// Evaluates the aggregate.
    pub fn run(&mut self) -> Result<TemporalValue, ExecError> {
        let started = Instant::now();
        let result = self.aggregate();
        self.stats.wall_ns += started.elapsed().as_nanos() as u64;
        result
    }

    fn aggregate(&mut self) -> Result<TemporalValue, ExecError> {
        let scheme = open_child(self.child.as_mut())?;
        // An aggregate counts a tuple once, however often its input
        // streams it.
        let mut rows = TupleSet::default();
        drain(
            self.child.as_mut(),
            &self.opts.cancel,
            self.opts.max_rows,
            &mut self.stats,
            |batch| {
                let n = batch.len() as u64;
                rows.extend(batch.into_rows());
                Ok(n)
            },
        )?;
        let r = Relation::from_distinct_unchecked(scheme, rows.into_iter().collect());
        Ok(aggregate_over_time(&r, &self.attr, self.op)?)
    }
}

/// The executor of a planned query of any sort, built but not yet opened.
pub enum QueryRoot<'a> {
    /// A relation-sorted query: hand it to [`QueryStream::new`].
    Rows(Box<dyn QueryExecutor + 'a>),
    /// A lifespan-sorted query.
    Lifespan(LifespanExec<'a>),
    /// An aggregate query.
    Aggregate(AggregateExec<'a>),
}

impl QueryRoot<'_> {
    /// Runs the tree to completion under `opts`' row cap and cancellation
    /// probe and drops the result, keeping the statistics — what
    /// `EXPLAIN ANALYZE` is after.
    pub fn run_to_completion(&mut self, opts: &ExecOptions) -> Result<(), ExecError> {
        match self {
            QueryRoot::Rows(root) => {
                open_child(root.as_mut())?;
                let mut streamed = ExecStats::default();
                drain(
                    root.as_mut(),
                    &opts.cancel,
                    opts.max_rows,
                    &mut streamed,
                    |batch| Ok(batch.len() as u64),
                )
            }
            QueryRoot::Lifespan(e) => e.run().map(drop),
            QueryRoot::Aggregate(e) => e.run().map(drop),
        }
    }

    /// Renders the executor tree, optionally annotated with the measured
    /// per-operator stats of a finished run (`EXPLAIN ANALYZE`'s body).
    pub fn render(&self, annotate: bool) -> String {
        let mut out = String::new();
        match self {
            QueryRoot::Rows(root) => root.render(0, annotate, &mut out),
            QueryRoot::Lifespan(e) => e.0.render(0, annotate, &mut out),
            QueryRoot::Aggregate(e) => {
                out.push_str(&format!("Aggregate {} {}", e.op, e.attr));
                out.push_str(&annotation(&e.stats, annotate));
                out.push('\n');
                e.child.render(1, annotate, &mut out);
            }
        }
        out
    }

    /// Rows that reached the root so far: streamed out of a relation root,
    /// consumed by a lifespan or aggregate one.
    pub fn rows(&self) -> u64 {
        match self {
            QueryRoot::Rows(root) => root.stats().rows,
            QueryRoot::Lifespan(e) => e.0.rows(),
            QueryRoot::Aggregate(e) => e.stats.rows,
        }
    }
}

/// Builds the executor of a planned query of any sort.
pub fn build_query_executor<'a>(
    p: &QueryPlan,
    src: &'a dyn IndexSource,
    opts: &ExecOptions,
) -> QueryRoot<'a> {
    match p {
        QueryPlan::Relation(p) => QueryRoot::Rows(build_executor(p, src, opts)),
        QueryPlan::Lifespan(l) => QueryRoot::Lifespan(LifespanExec::build(l, src, opts)),
        QueryPlan::Aggregate { op, attr, input } => QueryRoot::Aggregate(AggregateExec {
            op: *op,
            attr: attr.clone(),
            child: build_executor(input, src, opts),
            opts: opts.clone(),
            stats: ExecStats::default(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Executor-tree construction
// ---------------------------------------------------------------------------

/// The stack of unary operators above `p`'s leftmost descendant chain:
/// ops outermost-first, plus the chain's bottom node.
fn unary_chain(p: &Plan) -> (Vec<&UnaryOp>, &Plan) {
    let mut ops = Vec::new();
    let mut cur = p;
    while let Plan::Unary { op, input } = cur {
        ops.push(op);
        cur = input;
    }
    (ops, cur)
}

/// Builds the executor tree for a physical plan. Construction is
/// infallible — relation resolution, typechecks, and lifespan-parameter
/// evaluation all happen at `open`, in the same bottom-up order as the
/// reference evaluator, so error behaviour matches.
pub fn build_executor<'a>(
    p: &Plan,
    src: &'a dyn IndexSource,
    opts: &ExecOptions,
) -> Box<dyn QueryExecutor + 'a> {
    build_forcing(p, None, src, opts)
}

/// [`build_executor`], except that a symmetric binary operator at the root
/// of `p` builds its left input when `build_left` holds and its right one
/// otherwise, instead of the smaller. The lever of the build-side
/// differential test; not for answering queries.
#[doc(hidden)]
pub fn build_executor_building<'a>(
    p: &Plan,
    build_left: bool,
    src: &'a dyn IndexSource,
    opts: &ExecOptions,
) -> Box<dyn QueryExecutor + 'a> {
    let side = if build_left { Side::Left } else { Side::Right };
    build_forcing(p, Some(side), src, opts)
}

/// [`build_executor`] with the root's build side optionally forced.
fn build_forcing<'a>(
    p: &Plan,
    force: Option<Side>,
    src: &'a dyn IndexSource,
    opts: &ExecOptions,
) -> Box<dyn QueryExecutor + 'a> {
    match p {
        Plan::Scan {
            relation, access, ..
        } => Box::new(ScanExec::build(
            relation,
            access,
            node_label(p),
            None,
            src,
            opts,
        )),
        Plan::Unary { op, input } => match (op, &**input) {
            // A literal TIME-SLICE directly on a scan is the scan's clip.
            (
                UnaryOp::TimeSlice(LifespanExpr::Literal(window)),
                Plan::Scan {
                    relation, access, ..
                },
            ) => Box::new(ScanExec::build(
                relation,
                access,
                node_label(input),
                Some((unary_label(op), window.clone())),
                src,
                opts,
            )),
            _ => Box::new(FilterExec {
                op: op.clone(),
                label: node_label(p),
                src,
                child: build_executor(input, src, opts),
                opts: opts.clone(),
                compiled: None,
                stats: ExecStats::default(),
            }),
        },
        Plan::Binary { op, left, right } => {
            binary(BinaryKind::Op(*op), p, [left, right], force, src, opts)
        }
        Plan::ThetaJoin {
            left,
            right,
            a,
            op,
            b,
        } => {
            let kind = BinaryKind::Theta {
                a: a.clone(),
                op: *op,
                b: b.clone(),
            };
            binary(kind, p, [left, right], force, src, opts)
        }
        Plan::TimeJoin { left, right, attr } => {
            let kind = BinaryKind::TimeJoin { attr: attr.clone() };
            binary(kind, p, [left, right], force, src, opts)
        }
    }
}

/// Renders the plan for `p` without running it: the executor tree
/// [`build_executor`] would run, one line per operator with the chosen
/// access path on every scan. `EXPLAIN` prints what execution does by
/// construction.
pub fn explain_stream_plan(p: &Plan, src: &dyn IndexSource, opts: &ExecOptions) -> String {
    let mut out = String::new();
    build_executor(p, src, opts).render(0, false, &mut out);
    out
}

// ---------------------------------------------------------------------------
// The stream root
// ---------------------------------------------------------------------------

/// A live, pull-driven query result: the opened executor tree plus
/// per-batch enforcement of the row cap and cancellation.
///
/// Obtain one from [`crate::stream_query_on_snapshot`]; pull it with
/// [`next_batch`](QueryStream::next_batch), or call
/// [`collect_relation`](QueryStream::collect_relation) to materialize the
/// whole result with set semantics.
pub struct QueryStream<'a> {
    root: Box<dyn QueryExecutor + 'a>,
    scheme: Scheme,
    max_rows: Option<u64>,
    cancel: Option<CancelProbe>,
    plan_ns: u64,
    rows: u64,
    batches: u64,
    done: bool,
}

impl<'a> QueryStream<'a> {
    /// Opens `root` and wraps it with the stream-level caps of `opts`.
    pub fn new(
        mut root: Box<dyn QueryExecutor + 'a>,
        opts: &ExecOptions,
    ) -> Result<QueryStream<'a>, ExecError> {
        let scheme = match root.open() {
            Ok(s) => s,
            Err(e) => {
                root.close();
                return Err(e);
            }
        };
        Ok(QueryStream {
            root,
            scheme,
            max_rows: opts.max_rows,
            cancel: opts.cancel.clone(),
            plan_ns: 0,
            rows: 0,
            batches: 0,
            done: false,
        })
    }

    pub(crate) fn set_plan_ns(&mut self, ns: u64) {
        self.plan_ns = ns;
    }

    /// Nanoseconds the pipeline spent parsing, optimizing, and planning
    /// before this stream was opened.
    pub fn plan_ns(&self) -> u64 {
        self.plan_ns
    }

    /// The result scheme (known as soon as the stream exists).
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Rows handed out so far.
    pub fn rows_streamed(&self) -> u64 {
        self.rows
    }

    /// Batches handed out so far.
    pub fn batches_streamed(&self) -> u64 {
        self.batches
    }

    /// The next batch. Checks the cancellation probe first and the row cap
    /// after counting the batch, so both abort within one batch boundary.
    /// Any terminal outcome (drain, cancel, cap, error) closes the tree;
    /// afterwards the stream is fused.
    pub fn next_batch(&mut self) -> Result<Option<RowBatch>, ExecError> {
        if self.done {
            return Ok(None);
        }
        let result = self.pull();
        if !matches!(result, Ok(Some(_))) {
            self.done = true;
            self.root.close();
        }
        result
    }

    fn pull(&mut self) -> Result<Option<RowBatch>, ExecError> {
        if cancelled(&self.cancel) {
            return Err(ExecError::Cancelled);
        }
        let Some(batch) = self.root.next_batch()? else {
            return Ok(None);
        };
        self.rows += batch.len() as u64;
        self.batches += 1;
        match self.max_rows.filter(|&max| self.rows > max) {
            Some(max) => Err(ExecError::RowLimit(max)),
            None => Ok(Some(batch)),
        }
    }

    /// Drains the stream into a materialized relation with set semantics
    /// (duplicates collapse), which is exactly what the reference
    /// evaluator's operators produce.
    pub fn collect_relation(mut self) -> Result<Relation, ExecError> {
        let mut rows: Vec<Tuple> = Vec::new();
        while let Some(batch) = self.next_batch()? {
            rows.extend(batch.into_rows());
        }
        Ok(Relation::from_parts_unchecked(self.scheme.clone(), rows))
    }

    /// Renders the executor tree, optionally annotated with the measured
    /// per-operator stats of this run (`EXPLAIN ANALYZE`'s body).
    pub fn render_plan(&self, annotate: bool) -> String {
        let mut out = String::new();
        self.root.render(0, annotate, &mut out);
        out
    }
}

impl Drop for QueryStream<'_> {
    fn drop(&mut self) {
        self.root.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::plan_query;
    use hrdm_core::prelude::*;
    use hrdm_storage::{Database, PartitionPolicy};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scheme() -> Scheme {
        let era = Lifespan::interval(0, 4096);
        Scheme::builder()
            .key_attr("K", ValueKind::Int, era.clone())
            .attr("V", HistoricalDomain::int(), era)
            .build()
            .unwrap()
    }

    fn tup(k: i64, lo: i64, len: i64, v: i64) -> Tuple {
        let life = Lifespan::interval(lo, lo + len);
        Tuple::builder(life.clone())
            .constant("K", k)
            .value("V", TemporalValue::constant(&life, Value::Int(v)))
            .finish(&scheme())
            .unwrap()
    }

    fn source(n: i64) -> Database {
        let tuples: Vec<Tuple> = (0..n).map(|k| tup(k, k % 64, 40, k * 10)).collect();
        let r = Relation::with_tuples(scheme(), tuples).unwrap();
        Database::with_relations(PartitionPolicy::Unpartitioned, [("r", r)]).unwrap()
    }

    /// The (optimized) physical plan of a relation-sorted query.
    fn planned(text: &str, src: &Database) -> Plan {
        match plan_query(&parse_query(text).unwrap(), src) {
            QueryPlan::Relation(p) => p,
            other => panic!("expected a relation-sorted query, got {other:?}"),
        }
    }

    #[test]
    fn cancel_aborts_within_one_batch() {
        let src = source(5000);
        let fired = Arc::new(AtomicUsize::new(0));
        let probe = Arc::clone(&fired);
        let opts = ExecOptions {
            batch_rows: 32,
            cancel: Some(Arc::new(move || probe.fetch_add(1, Ordering::SeqCst) >= 2)),
            ..ExecOptions::default()
        };
        let p = planned("r", &src);
        let mut s = QueryStream::new(build_executor(&p, &src, &opts), &opts).unwrap();
        let mut rows = 0u64;
        let err = loop {
            match s.next_batch() {
                Ok(Some(b)) => rows += b.len() as u64,
                Ok(None) => panic!("expected cancellation, stream drained ({rows} rows)"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, ExecError::Cancelled);
        assert!(rows < 5000, "cancel landed after {rows} rows");
    }

    /// A selective filter that discards every row produces no output
    /// batches for the stream root to gate on, so the filter itself must
    /// honor the probe between child batches on serial plans.
    #[test]
    fn cancel_aborts_fully_filtered_serial_scan() {
        let src = source(5000);
        let fired = Arc::new(AtomicUsize::new(0));
        let probe = Arc::clone(&fired);
        let opts = ExecOptions {
            batch_rows: 32,
            cancel: Some(Arc::new(move || probe.fetch_add(1, Ordering::SeqCst) >= 2)),
            ..ExecOptions::default()
        };
        // V = k*10 >= 0 for every row: the predicate matches nothing.
        let p = planned("SELECT-WHEN (V < 0) (r)", &src);
        let mut s = QueryStream::new(build_executor(&p, &src, &opts), &opts).unwrap();
        match s.next_batch() {
            Err(ExecError::Cancelled) => {}
            other => panic!("expected Cancelled before the scan drained, got {other:?}"),
        }
        // Cancelled after two probe checks, far short of draining all
        // 5000/32 child batches.
        assert!(fired.load(Ordering::SeqCst) < 10);
    }

    #[test]
    fn row_cap_aborts_mid_stream() {
        let src = source(5000);
        let opts = ExecOptions {
            batch_rows: 32,
            max_rows: Some(100),
            ..ExecOptions::default()
        };
        let p = planned("r", &src);
        let mut s = QueryStream::new(build_executor(&p, &src, &opts), &opts).unwrap();
        let err = loop {
            match s.next_batch() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("expected a row-cap abort"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, ExecError::RowLimit(100));
    }

    /// EXPLAIN names each binary operator's build and probe side: `−`
    /// builds its right input, a symmetric operator its smaller one.
    #[test]
    fn explain_names_build_and_probe_sides() {
        let src = source(100);
        let opts = ExecOptions::default();
        let text = |q: &str| explain_stream_plan(&planned(q, &src), &src, &opts);
        for (q, label) in [
            (
                "SELECT-WHEN (K = 5) (r) MINUS r",
                "Difference [build right: tuple hash, probe left]",
            ),
            (
                "SELECT-WHEN (K = 5) (r) UNION r",
                "Union [build left: tuple hash, probe right]",
            ),
            (
                "r UNION SELECT-WHEN (K = 5) (r)",
                "Union [build right: tuple hash, probe left]",
            ),
        ] {
            let plan = text(q);
            assert!(plan.contains(label), "{q}:\n{plan}");
        }
    }

    #[test]
    fn open_reports_unknown_relations() {
        let src = source(1);
        let opts = ExecOptions::default();
        let p = planned("ghost", &src);
        match QueryStream::new(build_executor(&p, &src, &opts), &opts) {
            Err(ExecError::Eval(HrdmError::UnknownRelation(name))) => assert_eq!(name, "ghost"),
            Err(other) => panic!("expected UnknownRelation, got {other:?}"),
            Ok(_) => panic!("expected UnknownRelation, stream opened"),
        };
    }
}
