//! Access-path selection: turning an optimized expression into a physical
//! plan that uses indexes where they help.
//!
//! The rewrite optimizer ([`crate::optimizer`]) normalizes an expression
//! (fusing TIME-SLICEs, pushing them under selects, …); this module then
//! walks the normalized tree and picks an [`AccessPath`] for every base
//! relation scan:
//!
//! * `τ_L(R)` with a literal lifespan probes `R`'s **lifespan interval
//!   index** for the tuples alive somewhere in `L`;
//! * `σWHEN` / `σIF(…, EXISTS)` whose predicate pins the relation's full
//!   key with equality conjuncts probes the **key index**;
//! * `NATURAL-JOIN` / TIME-JOIN over base relations turn into index
//!   nested-loop joins probing the right side's key / lifespan index;
//! * everything else stays a sequential scan.
//!
//! Indexes only ever produce *candidate positions*; every operator
//! re-applies its exact semantics on the candidates, so a planned query
//! returns exactly what the unplanned evaluator returns (the workspace
//! test-suite asserts this equivalence on random inputs). A missing or
//! invalidated index at execution time degrades to a sequential scan, never
//! to an error.

use crate::ast::{Expr, LifespanExpr};
use crate::eval::{eval_lifespan, RelationSource};
use hrdm_core::algebra::{
    cartesian_product, difference, difference_o, intersection, intersection_o, natural_join,
    natural_join_pair, project, select_if, select_when, theta_join, time_join, time_join_pair,
    timeslice, timeslice_dynamic, union, union_o, Comparator, Operand, Predicate, Quantifier,
};
use hrdm_core::{Attribute, HrdmError, Relation, Result, Tuple, Value};
use hrdm_index::RelationIndexes;
use hrdm_storage::PartitionMap;
use hrdm_time::Lifespan;
use std::collections::BTreeMap;
use std::fmt;

/// A source of named relations that can also hand out their access methods.
///
/// `hrdm_storage::Database` implements this (it maintains indexes across
/// mutations); [`IndexedRelations`] wraps any in-memory relation map.
pub trait IndexSource: RelationSource {
    /// The current, valid indexes for `name`, if any.
    fn indexes(&self, name: &str) -> Option<&RelationIndexes>;

    /// The chronon-range partition map for `name`, if the source maintains
    /// one. Lifespan-bounded scans then plan only the partitions whose
    /// min/max summary overlaps the bound (partition pruning); `None`
    /// falls back to the relation-wide lifespan index.
    fn partitions(&self, name: &str) -> Option<&PartitionMap> {
        let _ = name;
        None
    }
}

impl IndexSource for hrdm_storage::Database {
    fn indexes(&self, name: &str) -> Option<&RelationIndexes> {
        hrdm_storage::Database::indexes(self, name)
    }

    fn partitions(&self, name: &str) -> Option<&PartitionMap> {
        hrdm_storage::Database::partitions(self, name)
    }
}

/// Snapshots carry their relations *and* the matching frozen indexes, so a
/// planned query against a snapshot uses index scans whose positions are
/// valid by construction — the index and tuple vector were published
/// together, and concurrent writers copy what they change of them instead
/// of mutating it.
impl IndexSource for hrdm_storage::DbSnapshot {
    fn indexes(&self, name: &str) -> Option<&RelationIndexes> {
        hrdm_storage::DbSnapshot::indexes(self, name)
    }

    /// The snapshot's frozen partition map: a repartition of the live
    /// database after this snapshot was taken builds new maps and leaves
    /// this one untouched.
    fn partitions(&self, name: &str) -> Option<&PartitionMap> {
        hrdm_storage::DbSnapshot::partitions(self, name)
    }
}

/// An in-memory [`IndexSource`]: a relation map plus indexes built eagerly
/// for every relation. Useful for tests and ad-hoc querying without a
/// `Database`.
pub struct IndexedRelations {
    relations: BTreeMap<String, Relation>,
    indexes: BTreeMap<String, RelationIndexes>,
}

impl IndexedRelations {
    /// Builds indexes over every relation of `relations`.
    pub fn new(relations: BTreeMap<String, Relation>) -> IndexedRelations {
        let indexes = relations
            .iter()
            .map(|(name, r)| (name.clone(), RelationIndexes::build(r)))
            .collect();
        IndexedRelations { relations, indexes }
    }
}

impl RelationSource for IndexedRelations {
    fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }
}

impl IndexSource for IndexedRelations {
    fn indexes(&self, name: &str) -> Option<&RelationIndexes> {
        self.indexes.get(name)
    }
}

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
    /// Probe the lifespan interval index for tuples alive somewhere in the
    /// window — served partition-by-partition when the source maintains a
    /// partition map (only the partitions overlapping the window are
    /// touched).
    LifespanIndex {
        /// The stabbing/overlap window.
        window: Lifespan,
        /// Plan-time pruning statistics, when the source is partitioned.
        pruning: Option<PartitionPruning>,
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
            AccessPath::LifespanIndex { window, pruning } => {
                write!(f, "IndexScan(lifespan, {})", fmt_window(window))?;
                if let Some(p) = pruning {
                    write!(f, " partitions: {}/{} pruned", p.pruned(), p.total)?;
                }
                Ok(())
            }
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
fn fmt_window(l: &Lifespan) -> String {
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
    },
    /// A unary operator over a sub-plan.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Its input.
        input: Box<Plan>,
    },
    /// A binary operator over two sub-plans (both sides scanned).
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// NATURAL-JOIN probing the right relation's key index per left tuple.
    IndexedNaturalJoin {
        /// Left (build) side.
        left: Box<Plan>,
        /// Right (probe) relation name.
        right: String,
    },
    /// TIME-JOIN probing the right relation's lifespan index per left tuple.
    IndexedTimeJoin {
        /// Left side (owns the time-valued attribute).
        left: Box<Plan>,
        /// Right (probe) relation name.
        right: String,
        /// The time-valued attribute of the left side.
        attr: Attribute,
    },
    /// θ-JOIN by nested loop (no index applies to the θ comparison itself,
    /// but both children are planned).
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
    /// TIME-JOIN by nested loop, when the right side is not an indexed
    /// base relation (both children still planned).
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
    /// NATURAL-JOIN by nested loop.
    NaturalJoin,
}

/// Plans an optimized expression against the indexes `src` currently holds.
pub fn plan(expr: &Expr, src: &dyn IndexSource) -> Plan {
    plan_bounded(expr, src, None)
}

/// The widest lifespan window `W` such that evaluating `expr` over a
/// source holding **only tuples whose lifespan intersects `W`** gives the
/// same answer as over the full source — or `None` when no such window
/// short of all-of-`T` exists.
///
/// This is the out-of-core analogue of the planner's per-leaf bound
/// propagation (`plan_bounded`):
/// the bound-propagation rules are mirrored exactly (introduced at a
/// literal `τ_L`, narrowed by nesting, flowing through the unaries and
/// set operators, cut at products and joins), and `W` is the **union of
/// the bounds reaching every base-relation leaf**. A tuple disjoint from
/// `W` is disjoint from its leaf's bound, so the literal time-slices
/// above that leaf clip its whole contribution — the same argument that
/// makes the bounded access path sound, and differentially tested the
/// same way. One leaf reached with no bound (an unsliced scan, or a
/// relation referenced from a computed lifespan like `Ω(e)`) forces
/// `None`: some tuple of it could matter at any chronon.
///
/// `hrdm_storage::PagedDatabase::window_snapshot` takes `W` to
/// materialize the minimal snapshot; partitions disjoint from `W` stay
/// cold on disk.
pub fn materialization_window(expr: &Expr) -> Option<Lifespan> {
    let mut acc = Some(Lifespan::empty());
    collect_window(expr, None, &mut acc);
    acc
}

/// Folds the bound reaching each relation leaf of `expr` into `acc`
/// (`None` = give up: some leaf is unbounded).
fn collect_window(expr: &Expr, bound: Option<&Lifespan>, acc: &mut Option<Lifespan>) {
    if acc.is_none() {
        return;
    }
    match expr {
        Expr::Relation(_) => match bound {
            Some(b) => {
                if let Some(w) = acc {
                    *w = w.union(b);
                }
            }
            None => *acc = None,
        },
        Expr::TimeSlice {
            input,
            lifespan: LifespanExpr::Literal(window),
        } => {
            let narrowed = match bound {
                Some(b) => window.intersect(b),
                None => window.clone(),
            };
            collect_window(input, Some(&narrowed), acc);
        }
        // A computed slice window may itself mention relations (Ω(e));
        // those are read *unsliced* at run time, so they unbound W.
        Expr::TimeSlice { input, lifespan } => {
            lifespan_expr_relations(lifespan, acc);
            collect_window(input, bound, acc);
        }
        Expr::SelectIf {
            input, lifespan, ..
        } => {
            if let Some(l) = lifespan {
                lifespan_expr_relations(l, acc);
            }
            collect_window(input, bound, acc);
        }
        Expr::SelectWhen { input, .. }
        | Expr::Project { input, .. }
        | Expr::TimeSliceDynamic { input, .. } => collect_window(input, bound, acc),
        Expr::Union(a, b)
        | Expr::Intersection(a, b)
        | Expr::Difference(a, b)
        | Expr::UnionO(a, b)
        | Expr::IntersectionO(a, b)
        | Expr::DifferenceO(a, b) => {
            collect_window(a, bound, acc);
            collect_window(b, bound, acc);
        }
        Expr::Product(a, b) | Expr::NaturalJoin(a, b) => {
            collect_window(a, None, acc);
            collect_window(b, None, acc);
        }
        Expr::TimeJoin { left, right, .. } | Expr::ThetaJoin { left, right, .. } => {
            collect_window(left, None, acc);
            collect_window(right, None, acc);
        }
    }
}

/// Relations referenced from a lifespan expression (`Ω(e)` and friends)
/// are evaluated over the full source, never through a bounding `τ` —
/// any such reference makes the window unusable.
fn lifespan_expr_relations(l: &LifespanExpr, acc: &mut Option<Lifespan>) {
    match l {
        LifespanExpr::Literal(_) => {}
        LifespanExpr::When(e) => collect_window(e, None, acc),
        LifespanExpr::Union(a, b) | LifespanExpr::Intersect(a, b) | LifespanExpr::Minus(a, b) => {
            lifespan_expr_relations(a, acc);
            lifespan_expr_relations(b, acc);
        }
    }
}

/// Plans `expr` under an optional **lifespan bound**: a window `B` such
/// that base tuples whose lifespan is disjoint from `B` cannot affect the
/// result of the *bounded* expression (there is a literal TIME-SLICE above
/// that drops their whole contribution).
///
/// The bound is introduced at `τ_L` with a literal `L` and propagated down
/// through exactly the operators where pruning is sound — the per-tuple,
/// lifespan-non-increasing unaries (σWHEN, σIF, π, τ, τ@A) and all six set
/// operators, whose outputs derive from single input tuples (or key-merged
/// groups) without ever growing a lifespan beyond its generators. It is
/// cut at products and joins, whose output rows combine both sides.
///
/// A bounded base-relation scan becomes a [`AccessPath::LifespanIndex`]
/// scan, which a partitioned source serves by **partition pruning**: only
/// partitions whose min/max summary overlaps `B` are touched. Like every
/// access path, this yields candidates only — the timeslice above
/// re-applies exact semantics, so planned ≡ unplanned holds (asserted by
/// the differential suite).
fn plan_bounded(expr: &Expr, src: &dyn IndexSource, bound: Option<&Lifespan>) -> Plan {
    match expr {
        Expr::Relation(name) => {
            let access = match (bound, base_with_indexes(expr, src)) {
                (Some(b), Some(_)) => AccessPath::LifespanIndex {
                    window: b.clone(),
                    pruning: src
                        .partitions(name)
                        .map(|parts| parts.pruning_counts(b))
                        .map(|(scanned, total)| PartitionPruning { scanned, total }),
                },
                _ => AccessPath::SeqScan,
            };
            Plan::Scan {
                relation: name.clone(),
                access,
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
            let scan = key_probe_scan(input, predicate, src);
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
                key_probe_scan(input, predicate, src)
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

        // NATURAL-JOIN with a keyed base relation on the right whose key
        // attributes are all shared: index nested-loop join.
        Expr::NaturalJoin(left, right) => {
            if let Some(right_name) = natural_probe_side(left, right, src) {
                Plan::IndexedNaturalJoin {
                    left: Box::new(plan_bounded(left, src, None)),
                    right: right_name.to_string(),
                }
            } else {
                Plan::Binary {
                    op: BinaryOp::NaturalJoin,
                    left: Box::new(plan_bounded(left, src, None)),
                    right: Box::new(plan_bounded(right, src, None)),
                }
            }
        }

        // TIME-JOIN with an indexed base relation on the right: probe its
        // lifespan index with `t1.l ∩ image(t1(A))` per left tuple. On a
        // partitioned source the probe itself prunes partitions at run
        // time (the probe window is per-tuple, so there is no plan-time
        // k/N to report).
        Expr::TimeJoin { left, right, attr } => {
            if let Some(right_name) = base_with_indexes(right, src) {
                Plan::IndexedTimeJoin {
                    left: Box::new(plan_bounded(left, src, None)),
                    right: right_name.to_string(),
                    attr: attr.clone(),
                }
            } else {
                Plan::TimeJoin {
                    left: Box::new(plan_bounded(left, src, None)),
                    right: Box::new(plan_bounded(right, src, None)),
                    attr: attr.clone(),
                }
            }
        }

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
        Expr::UnionO(a, b) => binary(BinaryOp::UnionO, a, b, src, bound),
        Expr::IntersectionO(a, b) => binary(BinaryOp::IntersectionO, a, b, src, bound),
        Expr::DifferenceO(a, b) => binary(BinaryOp::DifferenceO, a, b, src, bound),
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

/// Is `e` a bare base relation that currently has indexes?
fn base_with_indexes<'e>(e: &'e Expr, src: &dyn IndexSource) -> Option<&'e str> {
    match e {
        Expr::Relation(name) if src.indexes(name).is_some() => Some(name),
        _ => None,
    }
}

/// A key-index scan for `input` when it is an indexed base relation and
/// `predicate` pins its full key with equality conjuncts.
fn key_probe_scan(input: &Expr, predicate: &Predicate, src: &dyn IndexSource) -> Option<Plan> {
    let name = base_with_indexes(input, src)?;
    src.indexes(name)?.key()?;
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

/// For `left NATJOIN right`: the right relation's name when both sides are
/// base relations and the right side's key index can drive the probe (its
/// key attributes are all common attributes).
fn natural_probe_side<'e>(left: &Expr, right: &'e Expr, src: &dyn IndexSource) -> Option<&'e str> {
    let left_name = match left {
        Expr::Relation(n) => n,
        _ => return None,
    };
    let right_name = base_with_indexes(right, src)?;
    let key_idx = src.indexes(right_name)?.key()?;
    let left_scheme = src.relation(left_name)?.scheme();
    let right_scheme = src.relation(right_name)?.scheme();
    // Probe keys come from left-tuple values and are matched by structural
    // equality in the hash map, so the shared attributes must have the
    // same declared kind on both sides (Int-vs-Float would compare equal
    // semantically but miss in the map).
    let all_key_attrs_common =
        key_idx
            .attrs()
            .iter()
            .all(|a| match (left_scheme.dom(a), right_scheme.dom(a)) {
                (Ok(l), Ok(r)) => l.kind() == r.kind(),
                _ => false,
            });
    if all_key_attrs_common && !key_idx.attrs().is_empty() {
        Some(right_name)
    } else {
        None
    }
}

/// Evaluates a plan. Behaviour is exactly [`crate::eval::eval_expr`] on the
/// corresponding expression; indexes only prune candidates.
///
/// Every node evaluates inside an [`hrdm_obs::Span`], so running a plan
/// under [`hrdm_obs::with_trace`] yields a trace tree mirroring the plan
/// shape (one node per operator, inclusive wall time, output rows) —
/// that is what `EXPLAIN ANALYZE` renders. Outside a trace the span is
/// one thread-local read per *operator* (not per tuple).
pub fn eval_plan(p: &Plan, src: &dyn IndexSource) -> Result<Relation> {
    let span = hrdm_obs::Span::enter(span_name(p));
    let r = eval_plan_inner(p, src)?;
    span.record_rows(r.len() as u64);
    Ok(r)
}

/// The span label for a plan node (labels identify the operator kind;
/// the trace tree's *shape* is what ties a span back to its node).
fn span_name(p: &Plan) -> &'static str {
    match p {
        Plan::Scan { .. } => "scan",
        Plan::Unary { op, .. } => match op {
            UnaryOp::Project(_) => "project",
            UnaryOp::SelectIf { .. } => "select-if",
            UnaryOp::SelectWhen(_) => "select-when",
            UnaryOp::TimeSlice(_) => "timeslice",
            UnaryOp::TimeSliceDynamic(_) => "timeslice-dynamic",
        },
        Plan::Binary { op, .. } => match op {
            BinaryOp::Union => "union",
            BinaryOp::Intersection => "intersection",
            BinaryOp::Difference => "difference",
            BinaryOp::UnionO => "union-o",
            BinaryOp::IntersectionO => "intersection-o",
            BinaryOp::DifferenceO => "difference-o",
            BinaryOp::Product => "product",
            BinaryOp::NaturalJoin => "natural-join",
        },
        Plan::IndexedNaturalJoin { .. } => "natural-join-indexed",
        Plan::IndexedTimeJoin { .. } => "time-join-indexed",
        Plan::ThetaJoin { .. } => "theta-join",
        Plan::TimeJoin { .. } => "time-join",
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
            if let Some(p) = pruning {
                obs.partitions_probed.add(p.scanned as u64);
                obs.partitions_pruned.add(p.pruned() as u64);
            }
        }
        AccessPath::KeyIndex { .. } => obs.index_scans.inc(),
    }
}

fn eval_plan_inner(p: &Plan, src: &dyn IndexSource) -> Result<Relation> {
    match p {
        Plan::Scan { relation, access } => eval_scan(relation, access, src),
        Plan::Unary { op, input } => {
            let r = eval_plan(input, src)?;
            match op {
                UnaryOp::Project(attrs) => project(&r, attrs),
                UnaryOp::SelectIf {
                    predicate,
                    quantifier,
                    lifespan,
                } => {
                    let bound = match lifespan {
                        Some(l) => Some(eval_lifespan(l, src)?),
                        None => None,
                    };
                    select_if(&r, predicate, *quantifier, bound.as_ref())
                }
                UnaryOp::SelectWhen(predicate) => select_when(&r, predicate),
                UnaryOp::TimeSlice(lifespan) => {
                    let l = eval_lifespan(lifespan, src)?;
                    Ok(timeslice(&r, &l))
                }
                UnaryOp::TimeSliceDynamic(attr) => timeslice_dynamic(&r, attr),
            }
        }
        Plan::Binary { op, left, right } => {
            let a = eval_plan(left, src)?;
            let b = eval_plan(right, src)?;
            match op {
                BinaryOp::Union => union(&a, &b),
                BinaryOp::Intersection => intersection(&a, &b),
                BinaryOp::Difference => difference(&a, &b),
                BinaryOp::UnionO => union_o(&a, &b),
                BinaryOp::IntersectionO => intersection_o(&a, &b),
                BinaryOp::DifferenceO => difference_o(&a, &b),
                BinaryOp::Product => cartesian_product(&a, &b),
                BinaryOp::NaturalJoin => natural_join(&a, &b),
            }
        }
        Plan::IndexedNaturalJoin { left, right } => {
            let a = eval_plan(left, src)?;
            let b = src
                .relation(right)
                .ok_or_else(|| HrdmError::UnknownRelation(right.clone()))?;
            match src.indexes(right).and_then(RelationIndexes::key) {
                Some(key_idx) => indexed_natural_join(&a, b, key_idx),
                None => natural_join(&a, b), // index dropped since planning
            }
        }
        Plan::IndexedTimeJoin { left, right, attr } => {
            let a = eval_plan(left, src)?;
            let b = src
                .relation(right)
                .ok_or_else(|| HrdmError::UnknownRelation(right.clone()))?;
            match src.indexes(right) {
                Some(idx) => indexed_time_join(&a, b, attr, idx, valid_partitions(src, right, b)),
                None => time_join(&a, b, attr),
            }
        }
        Plan::ThetaJoin {
            left,
            right,
            a,
            op,
            b,
        } => {
            let l = eval_plan(left, src)?;
            let r = eval_plan(right, src)?;
            theta_join(&l, &r, a, *op, b)
        }
        Plan::TimeJoin { left, right, attr } => {
            let l = eval_plan(left, src)?;
            let r = eval_plan(right, src)?;
            time_join(&l, &r, attr)
        }
    }
}

fn eval_scan(name: &str, access: &AccessPath, src: &dyn IndexSource) -> Result<Relation> {
    record_scan_access(access);
    let r = src
        .relation(name)
        .ok_or_else(|| HrdmError::UnknownRelation(name.to_string()))?;
    match (access, src.indexes(name)) {
        (AccessPath::SeqScan, _) | (_, None) => Ok(r.clone()),
        (AccessPath::LifespanIndex { window, .. }, Some(idx)) => {
            // Partition-pruned when the source keeps a (current) partition
            // map: skip partitions whose summary misses the window, take
            // fully-covered partitions whole, probe the rest through
            // their own small indexes.
            match valid_partitions(src, name, r) {
                Some(parts) => Ok(r.subset_at_positions(&parts.prune_positions(window))),
                None => Ok(r.subset_at_positions(&idx.lifespan().overlapping(window))),
            }
        }
        (AccessPath::KeyIndex { key, .. }, Some(idx)) => match idx.key() {
            Some(key_idx) => Ok(r.subset_at_positions(key_idx.lookup(key))),
            None => Ok(r.clone()),
        },
    }
}

/// `src`'s partition map for `name`, but only when its positions are
/// current against `r` — a stale map (out-of-band mutation) degrades to
/// the relation-wide index, never to wrong positions.
pub(crate) fn valid_partitions<'s>(
    src: &'s dyn IndexSource,
    name: &str,
    r: &Relation,
) -> Option<&'s PartitionMap> {
    src.partitions(name).filter(|p| p.tuple_count() == r.len())
}

/// Index nested-loop NATURAL-JOIN: per left tuple, probe the right key
/// index where possible; fall back to scanning the right side for left
/// tuples without a constant probe key. Exact per-pair semantics come from
/// [`natural_join_pair`].
pub(crate) fn indexed_natural_join(
    left: &Relation,
    right: &Relation,
    key_idx: &hrdm_index::KeyIndex,
) -> Result<Relation> {
    let common: Vec<Attribute> = left
        .scheme()
        .attr_names()
        .filter(|a| right.scheme().contains(a))
        .cloned()
        .collect();
    let scheme = left.scheme().natural_concat(right.scheme())?;
    let mut out: Vec<Tuple> = Vec::new();
    for t1 in left.iter() {
        match key_idx.probe_key_of(t1) {
            Some(key) => {
                for &pos in key_idx.lookup(&key) {
                    if let Some(t2) = right.tuple_at(pos) {
                        if let Some(j) = natural_join_pair(t1, t2, &common)? {
                            out.push(j);
                        }
                    }
                }
            }
            // No constant probe key on the left tuple (e.g. an empty or
            // time-varying shared attribute): check every right tuple.
            None => {
                for t2 in right.iter() {
                    if let Some(j) = natural_join_pair(t1, t2, &common)? {
                        out.push(j);
                    }
                }
            }
        }
    }
    Ok(Relation::from_parts_unchecked(scheme, out))
}

/// Index nested-loop TIME-JOIN: per left tuple, probe the right lifespan
/// index with `t1.l ∩ image(t1(A))`. On a partitioned right side the
/// probe prunes at partition granularity first (run-time partition
/// pruning — each probe window is per-tuple). Exact per-pair semantics
/// come from [`time_join_pair`].
pub(crate) fn indexed_time_join(
    left: &Relation,
    right: &Relation,
    attr: &Attribute,
    idx: &RelationIndexes,
    parts: Option<&PartitionMap>,
) -> Result<Relation> {
    let dom = left.scheme().dom(attr)?;
    if !dom.is_time_valued() {
        return Err(HrdmError::NotTimeValued(attr.clone()));
    }
    let scheme = left.scheme().disjoint_concat(right.scheme())?;
    let mut out: Vec<Tuple> = Vec::new();
    for t1 in left.iter() {
        let image = match t1.value(attr) {
            Some(tv) => tv.image_lifespan()?,
            None => Lifespan::empty(),
        };
        if image.is_empty() {
            continue;
        }
        let probe = t1.lifespan().intersect(&image);
        let candidates = match parts {
            Some(parts) => parts.prune_positions(&probe),
            None => idx.lifespan().overlapping(&probe),
        };
        for pos in candidates {
            if let Some(t2) = right.tuple_at(pos) {
                if let Some(j) = time_join_pair(t1, t2, &image) {
                    out.push(j);
                }
            }
        }
    }
    Ok(Relation::from_parts_unchecked(scheme, out))
}

/// Optimizes, plans, and evaluates a top-level query against an indexed
/// source. Relation-sorted queries go through access-path selection;
/// lifespan- and aggregate-sorted queries evaluate their relational
/// subexpressions through the plain evaluator.
pub fn evaluate_planned(
    q: &crate::ast::Query,
    src: &dyn IndexSource,
) -> Result<crate::eval::QueryResult> {
    match q {
        crate::ast::Query::Relation(e) => {
            let (optimized, _) = crate::optimizer::optimize(e);
            let p = plan(&optimized, src);
            Ok(crate::eval::QueryResult::Relation(eval_plan(&p, src)?))
        }
        other => {
            #[allow(deprecated)] // non-relation sorts have no physical plan
            crate::eval::evaluate(other, src)
        }
    }
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

/// Renders a plan as an indented tree, one line per node, with the chosen
/// access path on every scan.
pub fn explain_plan(p: &Plan) -> String {
    let mut out = String::new();
    walk(p, None, 0, &mut out);
    out
}

/// Renders a plan annotated with a trace tree from an actual run (as
/// produced by [`eval_plan`] under [`hrdm_obs::with_trace`]): every
/// operator line gains `(actual time=…, rows=…)`, and bounded scans
/// keep their plan-time `partitions: k/N pruned` counts. The trace
/// mirrors the plan shape by construction; if it doesn't (observability
/// disabled), the un-annotated plan renders instead.
pub fn explain_plan_analyzed(p: &Plan, trace: Option<&hrdm_obs::TraceNode>) -> String {
    let mut out = String::new();
    walk(p, trace, 0, &mut out);
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

fn annotation(trace: Option<&hrdm_obs::TraceNode>) -> String {
    match trace {
        Some(t) => {
            let rows = t
                .rows
                .map(|r| r.to_string())
                .unwrap_or_else(|| "?".to_string());
            format!(" (actual time={}, rows={rows})", fmt_ns(t.wall_ns))
        }
        None => String::new(),
    }
}

/// The one-line EXPLAIN label of a single plan node (no indentation, no
/// annotation). Shared between the plan renderer ([`explain_plan`]) and the
/// streaming-executor renderer ([`crate::exec`]), so EXPLAIN output stays
/// byte-identical whichever tree produced it.
pub(crate) fn node_label(p: &Plan) -> String {
    match p {
        Plan::Scan { relation, access } => format!("Scan {relation} [{access}]"),
        Plan::Unary { op, .. } => unary_label(op),
        Plan::Binary { op, .. } => format!("{op:?}"),
        Plan::IndexedNaturalJoin { .. } => "NaturalJoin (index nested loop)".to_string(),
        Plan::IndexedTimeJoin { attr, .. } => format!("TimeJoin @{attr} (index nested loop)"),
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

/// The synthetic probe pseudo-child line of the index nested-loop joins
/// (they have no plan child for the probe side).
pub(crate) fn probe_line(p: &Plan) -> Option<String> {
    match p {
        Plan::IndexedNaturalJoin { right, .. } => {
            Some(format!("Probe {right} [IndexScan(key, from left tuple)]"))
        }
        Plan::IndexedTimeJoin { right, attr, .. } => Some(format!(
            "Probe {right} [IndexScan(lifespan, t.l ∩ image(t({attr})))]"
        )),
        _ => None,
    }
}

fn walk(p: &Plan, trace: Option<&hrdm_obs::TraceNode>, depth: usize, out: &mut String) {
    use std::fmt::Write;
    for _ in 0..depth {
        out.push_str("  ");
    }
    let annot = annotation(trace);
    let child = |i: usize| trace.and_then(|t| t.children.get(i));
    let _ = writeln!(out, "{}{annot}", node_label(p));
    match p {
        Plan::Scan { .. } => {}
        Plan::Unary { input, .. } => walk(input, child(0), depth + 1, out),
        Plan::Binary { left, right, .. }
        | Plan::ThetaJoin { left, right, .. }
        | Plan::TimeJoin { left, right, .. } => {
            walk(left, child(0), depth + 1, out);
            walk(right, child(1), depth + 1, out);
        }
        Plan::IndexedNaturalJoin { left, .. } | Plan::IndexedTimeJoin { left, .. } => {
            walk(left, child(0), depth + 1, out);
        }
    }
    if let Some(probe) = probe_line(p) {
        for _ in 0..depth + 1 {
            out.push_str("  ");
        }
        let _ = writeln!(out, "{probe}");
    }
}
