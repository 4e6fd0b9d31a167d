//! Access-path selection: turning an optimized expression into a physical
//! plan that uses indexes where they help.
//!
//! The rewrite optimizer ([`crate::optimizer`]) normalizes an expression
//! (fusing TIME-SLICEs, pushing them under selects, …); this module then
//! walks the normalized tree and picks an [`AccessPath`] for every base
//! relation scan:
//!
//! * `τ_L(R)` with a literal lifespan probes `R`'s **partition map** —
//!   its one lifespan access path — for the tuples alive somewhere in
//!   `L`: partitions whose summary misses `L` are pruned, the rest probed
//!   through their own small interval indexes;
//! * `σWHEN` / `σIF(…, EXISTS)` whose predicate pins the relation's full
//!   key with equality conjuncts probes the **key index**;
//! * everything else stays a sequential scan.
//!
//! Join strategy is not a plan shape: every binary operator is one
//! build/probe executor ([`crate::exec`]), which takes a bare base
//! relation's own key index or partition map as its build table.
//!
//! All three query sorts are planned: [`plan_query`] wraps the relational
//! plans of a query in a root for its sort — a [`LifespanPlan`] whose
//! `WHEN` leaves each hold the plan of their relational subexpression, or
//! an aggregate over one — so `WHEN (…)` and `COUNT A (…)` get the same
//! index scans and partition pruning a relation-sorted query does.
//!
//! A plan is only a description: [`crate::exec`] is the one interpreter
//! that runs it. Indexes only ever produce *candidate positions*; every
//! operator re-applies its exact semantics on the candidates, so a planned
//! query returns exactly what the reference evaluator ([`crate::eval`])
//! returns (the workspace test-suite asserts this equivalence on random
//! inputs). A missing or invalidated index at execution time degrades to a
//! sequential scan, never to an error.

use crate::ast::{Expr, LifespanExpr, Query};
use hrdm_core::algebra::{AggregateOp, Comparator, Operand, Predicate, Quantifier};
use hrdm_core::{Attribute, Relation, Value};
use hrdm_index::KeyIndex;
use hrdm_storage::PartitionMap;
use hrdm_time::Lifespan;
use std::collections::BTreeMap;
use std::fmt;

/// Anything that can resolve relation names — a database, a test map, …
pub trait RelationSource {
    /// The relation bound to `name`, if any.
    fn relation(&self, name: &str) -> Option<&Relation>;
}

impl RelationSource for hrdm_storage::Database {
    fn relation(&self, name: &str) -> Option<&Relation> {
        hrdm_storage::Database::relation(self, name)
    }
}

/// A snapshot is the preferred query target under concurrency: the whole
/// pipeline (optimize → plan → execute) runs against one immutable state,
/// with zero locks and unaffected by concurrent writers.
impl RelationSource for hrdm_storage::DbSnapshot {
    fn relation(&self, name: &str) -> Option<&Relation> {
        hrdm_storage::DbSnapshot::relation(self, name)
    }
}

impl RelationSource for BTreeMap<String, Relation> {
    fn relation(&self, name: &str) -> Option<&Relation> {
        self.get(name)
    }
}

/// A source of named relations that can also hand out their access methods:
/// a key index, and a chronon-range partition map — the one lifespan
/// access path.
///
/// `hrdm_storage::Database` implements this (it maintains both across
/// mutations); a detached `Database` built with
/// `Database::with_relations` serves any in-memory relation map with the
/// same access paths.
pub trait IndexSource: RelationSource {
    /// The current key index for `name`, if any.
    fn key_index(&self, name: &str) -> Option<&KeyIndex> {
        let _ = name;
        None
    }

    /// The chronon-range partition map for `name`, if the source maintains
    /// one. Lifespan-bounded scans then plan only the partitions whose
    /// min/max summary overlaps the bound (partition pruning); `None`
    /// plans them as sequential scans.
    fn partitions(&self, name: &str) -> Option<&PartitionMap> {
        let _ = name;
        None
    }
}

impl IndexSource for hrdm_storage::Database {
    fn key_index(&self, name: &str) -> Option<&KeyIndex> {
        hrdm_storage::Database::key_index(self, name)
    }

    fn partitions(&self, name: &str) -> Option<&PartitionMap> {
        hrdm_storage::Database::partitions(self, name)
    }
}

/// Snapshots carry their relations *and* the matching frozen access paths,
/// so a planned query against a snapshot uses index scans whose positions
/// are valid by construction — the key index, partition map and tuple
/// vector were published together, and concurrent writers copy what they
/// change of them instead of mutating it. A repartition of the live
/// database after the snapshot was taken builds new maps and leaves the
/// snapshot's untouched.
impl IndexSource for hrdm_storage::DbSnapshot {
    fn key_index(&self, name: &str) -> Option<&KeyIndex> {
        hrdm_storage::DbSnapshot::key_index(self, name)
    }

    fn partitions(&self, name: &str) -> Option<&PartitionMap> {
        hrdm_storage::DbSnapshot::partitions(self, name)
    }
}

/// A bare relation map has no access methods: every scan planned against
/// it is sequential. The baseline the index benches and the planner tests
/// compare index scans against.
impl IndexSource for BTreeMap<String, Relation> {}

/// Plan-time partition-pruning statistics for one lifespan-bounded scan:
/// how many of the relation's partitions the bound actually touches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PartitionPruning {
    /// Partitions whose min/max summary overlaps the window.
    pub scanned: usize,
    /// Total partitions of the relation.
    pub total: usize,
}

impl PartitionPruning {
    /// Partitions skipped without being touched.
    pub fn pruned(&self) -> usize {
        self.total - self.scanned
    }
}

/// How a base-relation scan fetches its tuples.
#[derive(Clone, PartialEq, Debug)]
pub enum AccessPath {
    /// Read every tuple.
    SeqScan,
    /// Probe the partition map for tuples alive somewhere in the window:
    /// only the partitions whose summary overlaps it are touched, each
    /// through its own lifespan index.
    LifespanIndex {
        /// The stabbing/overlap window.
        window: Lifespan,
        /// Plan-time pruning statistics.
        pruning: PartitionPruning,
    },
    /// Probe the key index with an equality key.
    KeyIndex {
        /// Key attributes, in key order.
        attrs: Vec<Attribute>,
        /// The probed key value, parallel to `attrs`.
        key: Vec<Value>,
    },
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPath::SeqScan => f.write_str("SeqScan"),
            AccessPath::LifespanIndex { window, pruning } => write!(
                f,
                "IndexScan(lifespan, {}) partitions: {}/{} pruned",
                fmt_window(window),
                pruning.pruned(),
                pruning.total
            ),
            AccessPath::KeyIndex { attrs, key } => {
                let probe: Vec<String> = attrs
                    .iter()
                    .zip(key)
                    .map(|(a, v)| match v {
                        Value::Str(s) => format!("{a} = \"{s}\""),
                        v => format!("{a} = {v}"),
                    })
                    .collect();
                write!(f, "IndexScan(key, {})", probe.join(", "))
            }
        }
    }
}

/// Renders a lifespan in the query language's `[lo..hi, …]` style.
pub(crate) fn fmt_window(l: &Lifespan) -> String {
    let parts: Vec<String> = l
        .intervals()
        .iter()
        .map(|iv| {
            if iv.lo() == iv.hi() {
                format!("{}", iv.lo())
            } else {
                format!("{}..{}", iv.lo(), iv.hi())
            }
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

/// A physical plan: the operator tree with an [`AccessPath`] on every base
/// relation scan and join strategies resolved.
#[derive(Clone, PartialEq, Debug)]
pub enum Plan {
    /// A base-relation scan.
    Scan {
        /// The relation name.
        relation: String,
        /// How its tuples are fetched.
        access: AccessPath,
        /// The lifespan bound that reached the scan, whether or not an
        /// index could use it: tuples disjoint from it cannot affect the
        /// result (`None` = any tuple may).
        bound: Option<Lifespan>,
    },
    /// A unary operator over a sub-plan.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Its input.
        input: Box<Plan>,
    },
    /// A binary operator over two sub-plans.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// θ-JOIN (no index applies to the θ comparison itself, but both
    /// children are planned).
    ThetaJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Left join attribute.
        a: Attribute,
        /// The comparator θ.
        op: Comparator,
        /// Right join attribute.
        b: Attribute,
    },
    /// TIME-JOIN at a time-valued attribute of the left side.
    TimeJoin {
        /// Left input (owns the time-valued attribute).
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// The time-valued attribute of the left side.
        attr: Attribute,
    },
}

/// Unary operators as they appear in plans.
#[derive(Clone, PartialEq, Debug)]
pub enum UnaryOp {
    /// `π_X`.
    Project(Vec<Attribute>),
    /// `σ-IF(θ, Q, L)`.
    SelectIf {
        /// Selection criterion θ.
        predicate: Predicate,
        /// The bounded quantifier.
        quantifier: Quantifier,
        /// Optional lifespan bound.
        lifespan: Option<LifespanExpr>,
    },
    /// `σ-WHEN(θ)`.
    SelectWhen(Predicate),
    /// Static TIME-SLICE `τ_L`.
    TimeSlice(LifespanExpr),
    /// Dynamic TIME-SLICE `τ@A`.
    TimeSliceDynamic(Attribute),
}

/// Binary operators as they appear in plans.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum BinaryOp {
    /// `∪`.
    Union,
    /// `∩`.
    Intersection,
    /// `−`.
    Difference,
    /// `∪ₒ`.
    UnionO,
    /// `∩ₒ`.
    IntersectionO,
    /// `−ₒ`.
    DifferenceO,
    /// `×`.
    Product,
    /// NATURAL-JOIN.
    NaturalJoin,
}

/// Plans an optimized expression against the indexes `src` currently holds.
pub fn plan(expr: &Expr, src: &dyn IndexSource) -> Plan {
    plan_bounded(expr, src, None)
}

/// The physical plan of a query of any sort: the relational [`Plan`]s it
/// contains, under a root for the sort of its result.
#[derive(Clone, PartialEq, Debug)]
pub enum QueryPlan {
    /// A relation-sorted query.
    Relation(Plan),
    /// A lifespan-sorted query.
    Lifespan(LifespanPlan),
    /// A time-varying aggregate of `attr` over a planned input.
    Aggregate {
        /// The aggregate operator.
        op: AggregateOp,
        /// The aggregated attribute.
        attr: Attribute,
        /// The plan of the input relation.
        input: Plan,
    },
}

/// The physical plan of a lifespan expression: `Ω(e)` leaves carry the plan
/// of `e`, so index scans and partition pruning apply under `WHEN` exactly
/// as they do at a relation root.
#[derive(Clone, PartialEq, Debug)]
pub enum LifespanPlan {
    /// A literal lifespan.
    Literal(Lifespan),
    /// `Ω(e)` over the plan of `e`.
    When(Box<Plan>),
    /// A set operation on two lifespans.
    Binary {
        /// The operation.
        op: LifespanSetOp,
        /// Left operand.
        left: Box<LifespanPlan>,
        /// Right operand.
        right: Box<LifespanPlan>,
    },
}

/// The set operations of the lifespan sort (paper §2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LifespanSetOp {
    /// `L1 ∪ L2`.
    Union,
    /// `L1 ∩ L2`.
    Intersect,
    /// `L1 − L2`.
    Minus,
}

/// Optimizes and plans a query of any sort: every relational expression in
/// it goes through the rewrite optimizer and [`plan`].
pub fn plan_query(q: &Query, src: &dyn IndexSource) -> QueryPlan {
    match q {
        Query::Relation(e) => QueryPlan::Relation(plan_optimized(e, src)),
        Query::Lifespan(l) => QueryPlan::Lifespan(plan_lifespan(l, src)),
        Query::Aggregate { op, attr, input } => QueryPlan::Aggregate {
            op: *op,
            attr: attr.clone(),
            input: plan_optimized(input, src),
        },
    }
}

/// Plans a lifespan expression — a lifespan-sorted query, or the computed
/// window of a `TIMESLICE` / bound of a `SELECT-IF`.
pub fn plan_lifespan(l: &LifespanExpr, src: &dyn IndexSource) -> LifespanPlan {
    let binary = |op, a: &LifespanExpr, b: &LifespanExpr| LifespanPlan::Binary {
        op,
        left: Box::new(plan_lifespan(a, src)),
        right: Box::new(plan_lifespan(b, src)),
    };
    match l {
        LifespanExpr::Literal(ls) => LifespanPlan::Literal(ls.clone()),
        LifespanExpr::When(e) => LifespanPlan::When(Box::new(plan_optimized(e, src))),
        LifespanExpr::Union(a, b) => binary(LifespanSetOp::Union, a, b),
        LifespanExpr::Intersect(a, b) => binary(LifespanSetOp::Intersect, a, b),
        LifespanExpr::Minus(a, b) => binary(LifespanSetOp::Minus, a, b),
    }
}

fn plan_optimized(e: &Expr, src: &dyn IndexSource) -> Plan {
    plan(&crate::optimizer::optimize(e).0, src)
}

/// The widest lifespan window `W` such that evaluating `expr` over a
/// source holding **only tuples whose lifespan intersects `W`** gives the
/// same answer as over the full source — or `None` when no such window
/// short of all-of-`T` exists.
///
/// `W` is read off the plan: the planner records on every scan the bound
/// that reached it (see `plan_bounded`), and `W` is the **union of the
/// bounds on every scan** — the scans under computed lifespan parameters
/// (`Ω(e)`) included. A tuple disjoint from `W` is disjoint from its
/// scan's bound, so the literal time-slices above that scan clip its
/// whole contribution — the very argument that makes the bounded access
/// path sound, and differentially tested the same way. One scan without a
/// bound forces `None`: some tuple of it could matter at any chronon.
///
/// `hrdm_storage::PagedDatabase::window_snapshot` takes `W` to
/// materialize the minimal snapshot; partitions disjoint from `W` stay
/// cold on disk.
pub fn materialization_window(expr: &Expr) -> Option<Lifespan> {
    let mut bounds = Vec::new();
    scan_bounds(&plan_unbound(expr), &mut bounds)?;
    Some(Lifespan::union_all(&bounds))
}

/// Bounds do not depend on what the source holds: plan against nothing.
fn plan_unbound(e: &Expr) -> Plan {
    plan(e, &BTreeMap::new())
}

/// Collects the bound on every scan of `p`; `None` if one has none.
fn scan_bounds(p: &Plan, out: &mut Vec<Lifespan>) -> Option<()> {
    match p {
        Plan::Scan { bound, .. } => out.push(bound.clone()?),
        Plan::Unary { op, input } => {
            if let UnaryOp::TimeSlice(l)
            | UnaryOp::SelectIf {
                lifespan: Some(l), ..
            } = op
            {
                param_bounds(l, out)?;
            }
            scan_bounds(input, out)?;
        }
        Plan::Binary { left, right, .. }
        | Plan::ThetaJoin { left, right, .. }
        | Plan::TimeJoin { left, right, .. } => {
            scan_bounds(left, out)?;
            scan_bounds(right, out)?;
        }
    }
    Some(())
}

/// [`scan_bounds`] of the relational expressions a lifespan parameter
/// evaluates (they run when the operator opens, against the same source).
fn param_bounds(l: &LifespanExpr, out: &mut Vec<Lifespan>) -> Option<()> {
    match l {
        LifespanExpr::Literal(_) => {}
        LifespanExpr::When(e) => scan_bounds(&plan_unbound(e), out)?,
        LifespanExpr::Union(a, b) | LifespanExpr::Intersect(a, b) | LifespanExpr::Minus(a, b) => {
            param_bounds(a, out)?;
            param_bounds(b, out)?;
        }
    }
    Some(())
}

/// Plans `expr` under an optional **lifespan bound**: a window `B` such
/// that base tuples whose lifespan is disjoint from `B` cannot affect the
/// result of the *bounded* expression (there is a literal TIME-SLICE above
/// that drops their whole contribution).
///
/// The bound is introduced at `τ_L` with a literal `L` and propagated down
/// through exactly the operators where pruning is sound — the per-tuple,
/// lifespan-non-increasing unaries (σWHEN, σIF, π, τ, τ@A) and the set
/// operators `∪ ∩ − ∩ₒ`, whose outputs derive from single input tuples
/// (or a mergable pair's common part) without ever growing a lifespan
/// beyond its generators. It is cut at products and joins, whose output
/// rows combine both sides, and at `∪ₒ` and `−ₒ`: every mergable pair
/// contributes there, and on key-sharing operands (a plain union's
/// output) a partner outside the window still adds its own output tuple
/// next to the in-window partner's.
///
/// Every scan records the bound that reached it ([`materialization_window`]
/// reads it back). A bounded scan of a relation with a partition map
/// becomes a [`AccessPath::LifespanIndex`] scan, served by **partition
/// pruning**: only partitions whose min/max summary overlaps `B` are
/// touched. Like every
/// access path, this yields candidates only — the timeslice above
/// re-applies exact semantics, so planned ≡ unplanned holds (asserted by
/// the differential oracle, `tests/oracle/`).
fn plan_bounded(expr: &Expr, src: &dyn IndexSource, bound: Option<&Lifespan>) -> Plan {
    match expr {
        Expr::Relation(name) => {
            let access = match (bound, src.partitions(name)) {
                (Some(b), Some(parts)) => {
                    let (scanned, total) = parts.pruning_counts(b);
                    AccessPath::LifespanIndex {
                        window: b.clone(),
                        pruning: PartitionPruning { scanned, total },
                    }
                }
                _ => AccessPath::SeqScan,
            };
            Plan::Scan {
                relation: name.clone(),
                access,
                bound: bound.cloned(),
            }
        }

        // τ_L with a literal L introduces (or narrows) the bound.
        Expr::TimeSlice {
            input,
            lifespan: lifespan @ LifespanExpr::Literal(window),
        } => {
            let narrowed = match bound {
                Some(b) => window.intersect(b),
                None => window.clone(),
            };
            Plan::Unary {
                op: UnaryOp::TimeSlice(lifespan.clone()),
                input: Box::new(plan_bounded(input, src, Some(&narrowed))),
            }
        }
        // A computed window (e.g. `WHEN(…)`) is unknown at plan time; the
        // slice itself is still per-tuple non-increasing, so an outer
        // bound keeps flowing through it.
        Expr::TimeSlice { input, lifespan } => Plan::Unary {
            op: UnaryOp::TimeSlice(lifespan.clone()),
            input: Box::new(plan_bounded(input, src, bound)),
        },

        // σWHEN(θ)(R) with θ pinning R's full key: probe the key index.
        // Safe because a tuple with a different (constant) key value has an
        // empty truth span for θ and would be dropped by σWHEN anyway.
        Expr::SelectWhen { input, predicate } => {
            let scan = key_probe_scan(input, predicate, src, bound);
            Plan::Unary {
                op: UnaryOp::SelectWhen(predicate.clone()),
                input: Box::new(scan.unwrap_or_else(|| plan_bounded(input, src, bound))),
            }
        }

        // σIF(θ, EXISTS, L)(R) likewise. FORALL is *not* key-index
        // eligible: its quantification domain can be empty, in which case
        // the tuple is selected vacuously — even with a non-matching key.
        // A lifespan bound is sound for both quantifiers, though: σIF
        // passes tuples through whole, so a pruned-out tuple's selection
        // dies at the bounding τ either way.
        Expr::SelectIf {
            input,
            predicate,
            quantifier,
            lifespan,
        } => {
            let scan = if *quantifier == Quantifier::Exists {
                key_probe_scan(input, predicate, src, bound)
            } else {
                None
            };
            Plan::Unary {
                op: UnaryOp::SelectIf {
                    predicate: predicate.clone(),
                    quantifier: *quantifier,
                    lifespan: lifespan.clone(),
                },
                input: Box::new(scan.unwrap_or_else(|| plan_bounded(input, src, bound))),
            }
        }

        Expr::NaturalJoin(left, right) => binary(BinaryOp::NaturalJoin, left, right, src, None),
        Expr::TimeJoin { left, right, attr } => Plan::TimeJoin {
            left: Box::new(plan_bounded(left, src, None)),
            right: Box::new(plan_bounded(right, src, None)),
            attr: attr.clone(),
        },

        Expr::Project { input, attrs } => Plan::Unary {
            op: UnaryOp::Project(attrs.clone()),
            input: Box::new(plan_bounded(input, src, bound)),
        },
        Expr::TimeSliceDynamic { input, attr } => Plan::Unary {
            op: UnaryOp::TimeSliceDynamic(attr.clone()),
            input: Box::new(plan_bounded(input, src, bound)),
        },
        Expr::Union(a, b) => binary(BinaryOp::Union, a, b, src, bound),
        Expr::Intersection(a, b) => binary(BinaryOp::Intersection, a, b, src, bound),
        Expr::Difference(a, b) => binary(BinaryOp::Difference, a, b, src, bound),
        Expr::UnionO(a, b) => binary(BinaryOp::UnionO, a, b, src, None),
        Expr::IntersectionO(a, b) => binary(BinaryOp::IntersectionO, a, b, src, bound),
        Expr::DifferenceO(a, b) => binary(BinaryOp::DifferenceO, a, b, src, None),
        Expr::Product(a, b) => binary(BinaryOp::Product, a, b, src, None),
        Expr::ThetaJoin {
            left,
            right,
            a,
            op,
            b,
        } => Plan::ThetaJoin {
            left: Box::new(plan_bounded(left, src, None)),
            right: Box::new(plan_bounded(right, src, None)),
            a: a.clone(),
            op: *op,
            b: b.clone(),
        },
    }
}

fn binary(
    op: BinaryOp,
    a: &Expr,
    b: &Expr,
    src: &dyn IndexSource,
    bound: Option<&Lifespan>,
) -> Plan {
    Plan::Binary {
        op,
        left: Box::new(plan_bounded(a, src, bound)),
        right: Box::new(plan_bounded(b, src, bound)),
    }
}

/// A key-index scan for `input` when it is a base relation with a key
/// index and `predicate` pins its full key with equality conjuncts.
fn key_probe_scan(
    input: &Expr,
    predicate: &Predicate,
    src: &dyn IndexSource,
    bound: Option<&Lifespan>,
) -> Option<Plan> {
    let Expr::Relation(name) = input else {
        return None;
    };
    src.key_index(name)?;
    let scheme = src.relation(name)?.scheme();
    let key_attrs: Vec<Attribute> = scheme.key().to_vec();
    if key_attrs.is_empty() {
        return None;
    }
    let mut bindings: Vec<(Attribute, Value)> = Vec::new();
    collect_equality_conjuncts(predicate, &mut bindings);
    // Each binding must match the key attribute's declared kind exactly:
    // the hash lookup uses structural Value equality, while predicate
    // semantics compare Int and Float numerically — probing an Int key
    // with a Float literal would silently miss matching tuples.
    let key: Option<Vec<Value>> = key_attrs
        .iter()
        .map(|k| {
            let kind = scheme.dom(k).ok()?.kind();
            bindings
                .iter()
                .find(|(a, v)| a == k && v.kind() == kind)
                .map(|(_, v)| v.clone())
        })
        .collect();
    Some(Plan::Scan {
        relation: name.to_string(),
        access: AccessPath::KeyIndex {
            attrs: key_attrs,
            key: key?,
        },
        bound: bound.cloned(),
    })
}

/// Collects `A = const` bindings from the top-level conjunction of `p`.
/// Disjunctions and negations contribute nothing (pruning through them
/// would be unsound).
fn collect_equality_conjuncts(p: &Predicate, out: &mut Vec<(Attribute, Value)>) {
    match p {
        Predicate::And(a, b) => {
            collect_equality_conjuncts(a, out);
            collect_equality_conjuncts(b, out);
        }
        Predicate::Cmp {
            left: Operand::Attr(a),
            op: Comparator::Eq,
            right: Operand::Const(v),
        }
        | Predicate::Cmp {
            left: Operand::Const(v),
            op: Comparator::Eq,
            right: Operand::Attr(a),
        } => out.push((a.clone(), v.clone())),
        _ => {}
    }
}

/// The engine-wide access-path counters, registered once in the global
/// observability registry.
struct ScanObs {
    seq_scans: std::sync::Arc<hrdm_obs::Counter>,
    index_scans: std::sync::Arc<hrdm_obs::Counter>,
    partitions_probed: std::sync::Arc<hrdm_obs::Counter>,
    partitions_pruned: std::sync::Arc<hrdm_obs::Counter>,
}

fn scan_obs() -> &'static ScanObs {
    static OBS: std::sync::OnceLock<ScanObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let r = hrdm_obs::global();
        ScanObs {
            seq_scans: r.counter(
                "hrdm_query_seq_scans_total",
                "Base-relation scans served by reading every tuple",
            ),
            index_scans: r.counter(
                "hrdm_query_index_scans_total",
                "Base-relation scans served through a key or lifespan index",
            ),
            partitions_probed: r.counter(
                "hrdm_query_partitions_probed_total",
                "Partitions whose summary overlapped a bounded scan's window",
            ),
            partitions_pruned: r.counter(
                "hrdm_query_partitions_pruned_total",
                "Partitions skipped by bounded scans without being touched",
            ),
        }
    })
}

/// Feeds one scan's access path into the global counters (observational
/// only — gated by the `HRDM_OBS_OFF` kill switch).
pub(crate) fn record_scan_access(access: &AccessPath) {
    if !hrdm_obs::enabled() {
        return;
    }
    let obs = scan_obs();
    match access {
        AccessPath::SeqScan => obs.seq_scans.inc(),
        AccessPath::LifespanIndex { pruning, .. } => {
            obs.index_scans.inc();
            obs.partitions_probed.add(pruning.scanned as u64);
            obs.partitions_pruned.add(pruning.pruned() as u64);
        }
        AccessPath::KeyIndex { .. } => obs.index_scans.inc(),
    }
}

/// `src`'s partition map for `name`, but only when its positions are
/// current against `r` — a stale or absent map degrades to a sequential
/// scan, never to wrong positions.
pub(crate) fn valid_partitions<'s>(
    src: &'s dyn IndexSource,
    name: &str,
    r: &Relation,
) -> Option<&'s PartitionMap> {
    src.partitions(name).filter(|p| p.tuple_count() == r.len())
}

/// The full EXPLAIN for an expression: the optimizer's before/after trees
/// and rewrite trace, followed by the physical plan with access paths.
pub fn explain_with_access(e: &Expr, src: &dyn IndexSource) -> String {
    let (optimized, trace) = crate::optimizer::optimize(e);
    let p = plan(&optimized, src);
    let mut out = crate::explain::explain_optimized(e, &optimized, &trace);
    out.push_str("== access paths ==\n");
    out.push_str(&crate::exec::explain_stream_plan(
        &p,
        src,
        &crate::exec::ExecOptions::default(),
    ));
    out
}

/// Renders nanoseconds at a human scale (`870ns`, `12.4µs`, `3.10ms`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{:.2}ms", ns as f64 / 1e6)
    }
}

/// The one-line EXPLAIN label of a single plan node (no indentation, no
/// annotation). Shared between the plan renderer and the executor-tree
/// renderer of [`crate::exec`], so `EXPLAIN` and `EXPLAIN ANALYZE` print
/// the same tree.
pub(crate) fn node_label(p: &Plan) -> String {
    match p {
        Plan::Scan {
            relation, access, ..
        } => format!("Scan {relation} [{access}]"),
        Plan::Unary { op, .. } => unary_label(op),
        Plan::Binary { op, .. } => format!("{op:?}"),
        Plan::ThetaJoin { a, op, b, .. } => format!("ThetaJoin {a} {op} {b}"),
        Plan::TimeJoin { attr, .. } => format!("TimeJoin @{attr}"),
    }
}

/// The EXPLAIN label of a unary operator.
pub(crate) fn unary_label(op: &UnaryOp) -> String {
    match op {
        UnaryOp::Project(attrs) => {
            let names: Vec<&str> = attrs.iter().map(|a| a.name()).collect();
            format!("Project [{}]", names.join(", "))
        }
        UnaryOp::SelectIf {
            predicate,
            quantifier,
            ..
        } => format!("Select-If {predicate} ({quantifier})"),
        UnaryOp::SelectWhen(predicate) => format!("Select-When {predicate}"),
        UnaryOp::TimeSlice(l) => format!("TimeSlice {l}"),
        UnaryOp::TimeSliceDynamic(attr) => format!("TimeSlice @{attr}"),
    }
}
