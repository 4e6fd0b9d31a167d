//! The oracle's world: the relations both generators name, the write
//! history that fills them, the query generator, the regression battery,
//! and what a history leaves behind — the engines, the states the matrix
//! reads, and the history-level checks run on the way.
//!
//! `r` and `s` share the test scheme `(K*, V, W)` and draw keys from one
//! range, so set operators see key-sharing tuples; `r2` is on the other
//! scheme `(K2*, X)`; `evt(E*, AT)` carries a time-valued `AT` for
//! `TIMEJOIN@AT` and `SLICE@AT`. Generated data lives inside
//! [`common::UNIVERSE`].

use crate::common;
use hrdm_core::algebra::AggregateOp;
use hrdm_core::prelude::*;
use hrdm_query::{Expr, LifespanExpr, Query, QueryResult};
use hrdm_storage::{
    ConcurrentDatabase, Database, DbError, DbSnapshot, PagedDatabase, PartitionPolicy,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// The era of `r`, `s` and `evt`: wide enough for the named cases'
/// 64 sixteen-chronon partitions and 100k-tuple scans.
const ERA: (i64, i64) = (0, 4096);

/// The scheme of `r` and `s`: `(K*: int, V: int, W: int)` over [`ERA`].
pub fn r_scheme() -> Scheme {
    let era = Lifespan::interval(ERA.0, ERA.1);
    Scheme::builder()
        .key_attr("K", ValueKind::Int, era.clone())
        .attr("V", HistoricalDomain::int(), era.clone())
        .attr("W", HistoricalDomain::int(), era)
        .build()
        .unwrap()
}

/// The scheme of `evt`: `(E*: int, AT: time)` over [`ERA`].
pub fn evt_scheme() -> Scheme {
    let era = Lifespan::interval(ERA.0, ERA.1);
    Scheme::builder()
        .key_attr("E", ValueKind::Int, era.clone())
        .attr("AT", HistoricalDomain::time(), era)
        .build()
        .unwrap()
}

/// An `r` tuple alive over `[lo, lo + len]` with the constant `V = v`.
#[allow(dead_code)] // not every test binary builds `r` tuples by hand
pub fn r_tup(k: i64, lo: i64, len: i64, v: i64) -> Tuple {
    let life = Lifespan::interval(lo, lo + len);
    Tuple::builder(life.clone())
        .constant("K", k)
        .value("V", TemporalValue::constant(&life, Value::Int(v)))
        .finish(&r_scheme())
        .unwrap()
}

/// An `evt` tuple alive over `[lo, lo + len]` pointing at chronon `at`.
pub fn evt_tup(e: i64, lo: i64, len: i64, at: i64) -> Tuple {
    let life = Lifespan::interval(lo, lo + len);
    Tuple::builder(life.clone())
        .constant("E", e)
        .value("AT", TemporalValue::constant(&life, Value::time(at)))
        .finish(&evt_scheme())
        .unwrap()
}

/// A result's byte form with tuple renderings sorted, so answers that
/// differ only in physical order (partition-major scans, build sides,
/// the wire's chunks) compare equal.
pub fn canonical(result: &QueryResult) -> String {
    match result {
        QueryResult::Relation(r) => {
            let mut lines: Vec<String> = r.iter().map(|t| t.to_string()).collect();
            lines.sort();
            format!("scheme {}\n{}", r.scheme(), lines.join("\n"))
        }
        QueryResult::Lifespan(l) => l.to_string(),
        QueryResult::Function(f) => f.to_string(),
    }
}

/// A fresh directory under the system temp dir, unique per call.
pub fn tmp(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let p = std::env::temp_dir().join(format!(
        "hrdm-oracle-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Creates the world's relations, empty, in `db`.
pub fn create_relations(db: &ConcurrentDatabase) {
    db.create_relation("r", r_scheme()).unwrap();
    db.create_relation("s", r_scheme()).unwrap();
    db.create_relation("r2", common::other_scheme()).unwrap();
    db.create_relation("evt", evt_scheme()).unwrap();
}

/// A fixed, dense state of the world in the database directory `dir`, for
/// the named cases: cut into 4-chronon partitions (one of them several
/// heap pages long), checkpointed, with a WAL tail of inserts on top —
/// what a paged open takes. `s` shares keys
/// with `r`, and every `evt` tuple points into its own lifespan.
#[allow(dead_code)] // only some test binaries read the fixed state
pub fn seeded(dir: &Path) {
    let db = ConcurrentDatabase::open(dir).unwrap();
    db.set_partition_policy(PartitionPolicy::SpanLog2(2));
    create_relations(&db);
    let other = common::other_scheme();
    let r2_tup = |k: i64| {
        let life = Lifespan::interval(3 * k, 3 * k + 5);
        let x = vec![(3 * k, 3 * k + 5, k % 4)];
        common::build_tuple(&other, "K2", k, &life, &[("X", x)])
    };
    for k in 0..40 {
        db.insert("r", r_tup(k, k, 2 + k % 5, k % 4)).unwrap();
    }
    // A crowd born in chronons 20..23, out of birth order: partition 5
    // spans several heap pages, so a warm paged window skips some.
    for k in 100..1_000 {
        db.insert("r", r_tup(k, 20 + (k * 3) % 4, k % 2, k % 4))
            .unwrap();
    }
    for k in 0..12 {
        db.insert("s", r_tup(k, 3 * k, 6, k % 3)).unwrap();
        db.insert("r2", r2_tup(k)).unwrap();
    }
    for e in 0..16 {
        db.insert("evt", evt_tup(e, 3 * e, 6, 3 * e + 2)).unwrap();
    }
    db.checkpoint().unwrap();
    for k in 40..48 {
        db.insert("r", r_tup(k, (k * 7) % 44, 3, k % 4)).unwrap();
        db.insert("evt", evt_tup(k, k - 40, 4, k - 38)).unwrap();
    }
    // The battery's "separate cuts" queries need a tuple that `[5..20]`
    // and `[5..30]` both cut, and cut alike: content-equal rows that are
    // separate allocations, so set operators cannot match them by identity.
    let (narrow, wide) = (Lifespan::interval(5, 20), Lifespan::interval(5, 30));
    let cut_alike = |t: &Tuple| {
        let (a, b) = (t.restrict(&narrow), t.restrict(&wide));
        !a.lifespan().is_empty() && a.lifespan() != t.lifespan() && a == b
    };
    assert!(db.snapshot().relation("r").unwrap().iter().any(cut_alike));
}

// ---------------------------------------------------------------------------
// The regression battery and the query generator
// ---------------------------------------------------------------------------

/// Named regression queries every source answers after every history:
/// lifespan bounds that prune, predicates that probe, operators that
/// combine, all three sorts, computed `WHEN` windows, and key-sharing
/// operands — a plain `UNION` holds two tuples for every object alive in
/// both windows (Fig. 11) — fed into the object operators, whose windowed
/// forms check that no bound is pushed through `∪ₒ`/`−ₒ`.
pub const BATTERY: &[(&str, &str)] = &[
    ("scan", "r"),
    ("slice", "TIMESLICE [4..12] (r)"),
    ("two-run slice", "TIMESLICE [0..1, 20..25] (r)"),
    ("slice past the data", "TIMESLICE [4000..4090] (r)"),
    ("key probe", "SELECT-WHEN (K = 5) (s)"),
    ("as-of key read", "TIMESLICE [3..30] (SELECT-WHEN (K = 5) (s))"),
    ("value select", "SELECT-WHEN (V >= 2) (r)"),
    ("slice of select", "TIMESLICE [3..30] (SELECT-WHEN (V >= 1) (r))"),
    ("projected slice", "PROJECT [V] (TIMESLICE [2..35] (r))"),
    ("slice of self-union", "TIMESLICE [0..20] (r UNION r)"),
    ("difference of slices", "(TIMESLICE [0..25] (r)) MINUS (TIMESLICE [12..40] (s))"),
    ("object intersection", "(TIMESLICE [0..30] (r)) INTERSECT-O (TIMESLICE [15..40] (s))"),
    ("bounded forall", "SELECT-IF (V >= 1, FORALL, [4..12]) (r)"),
    ("theta join", "TIMESLICE [0..20] (SELECT-WHEN (W >= 1) (r JOIN r2 ON V <= X))"),
    ("time join", "evt TIMEJOIN@AT r"),
    ("slice of time join", "TIMESLICE [2..10] (evt TIMEJOIN@AT r)"),
    ("time join of slices", "(TIMESLICE [0..16] (evt)) TIMEJOIN@AT (TIMESLICE [0..16] (s))"),
    ("dynamic slice", "SLICE@AT (evt)"),
    ("product", "(SELECT-WHEN (K = 5) (r)) PRODUCT evt"),
    ("when of slice", "WHEN (TIMESLICE [1..24] (r))"),
    ("when of select", "WHEN (SELECT-WHEN (V >= 2) (r))"),
    ("when of bounded forall", "WHEN (SELECT-IF (V >= 1, FORALL, [4..12]) (TIMESLICE [0..30] (r)))"),
    ("when of projection", "WHEN (PROJECT [V] (SELECT-WHEN (V >= 1) (r)))"),
    ("when of dynamic slice", "WHEN (SLICE@AT (evt))"),
    ("when of union", "WHEN (TIMESLICE [0..25] (r) UNION TIMESLICE [12..40] (s))"),
    ("union of whens", "WHEN (TIMESLICE [0..25] (r)) | WHEN (TIMESLICE [12..40] (r))"),
    ("lifespan algebra", "WHEN (TIMESLICE [0..15] (r)) | WHEN (SELECT-WHEN (K = 5) (r)) - [5..8]"),
    ("when minus when", "WHEN (r) - WHEN (SELECT-WHEN (K = 5) (r)) & [0..30]"),
    ("computed slice: exists", "TIMESLICE (WHEN (SELECT-IF (V >= 3, EXISTS) (r))) (r)"),
    ("computed slice: key", "TIMESLICE (WHEN (SELECT-WHEN (K = 1) (s))) (r)"),
    ("computed slice: value", "TIMESLICE (WHEN (SELECT-WHEN (V >= 3) (r))) (s)"),
    ("computed bound", "SELECT-IF (V >= 1, EXISTS, WHEN (evt)) (r)"),
    ("count", "COUNT V (r)"),
    ("count of slice", "COUNT V (TIMESLICE [10..18] (r))"),
    ("sum of select", "SUM V (SELECT-WHEN (V >= 2) (s))"),
    ("max past the data", "MAX V (TIMESLICE [4000..4090] (r))"),
    ("min past the data", "MIN V (TIMESLICE [4000..4090] (r))"),
    ("shared keys ∪ₒ", "(TIMESLICE [0..25] (r) UNION TIMESLICE [12..40] (r)) UNION-O r"),
    ("−ₒ shared keys", "r MINUS-O (TIMESLICE [0..25] (r) UNION TIMESLICE [12..40] (r))"),
    ("shared keys −ₒ slice", "(TIMESLICE [0..25] (r) UNION TIMESLICE [12..40] (r)) MINUS-O TIMESLICE [20..30] (r)"),
    ("shared keys ∩ₒ slice", "(TIMESLICE [0..25] (r) UNION TIMESLICE [12..40] (r)) INTERSECT-O TIMESLICE [15..40] (r)"),
    ("shared keys ∪ shared keys", "(TIMESLICE [0..25] (r) UNION TIMESLICE [12..40] (r)) UNION (TIMESLICE [15..40] (r) UNION r)"),
    ("slice of ∪ₒ shared keys", "TIMESLICE [10..35] (r UNION-O (TIMESLICE [0..25] (r) UNION TIMESLICE [12..40] (r)))"),
    ("slice of shared keys −ₒ", "TIMESLICE [10..35] ((TIMESLICE [0..25] (r) UNION TIMESLICE [12..40] (r)) MINUS-O r)"),
    ("slice of −ₒ shared keys", "TIMESLICE [25..40] (r MINUS-O (TIMESLICE [0..24] (r) UNION TIMESLICE [22..40] (r)))"),
    ("natural join of shared keys", "r NATJOIN (TIMESLICE [0..25] (r) UNION TIMESLICE [12..40] (r))"),
    ("r, s shared keys ∪ₒ", "(r UNION s) UNION-O (s UNION r)"),
    ("r, s shared keys −ₒ", "(r UNION s) MINUS-O s"),
    ("separate cuts ∪", "TIMESLICE [5..20] (r) UNION TIMESLICE [5..30] (r)"),
    ("separate cuts −", "TIMESLICE [5..20] (r) MINUS TIMESLICE [5..30] (r)"),
    ("separate cuts ∩", "TIMESLICE [5..20] (r) INTERSECT TIMESLICE [5..30] (r)"),
];

fn pred_strategy() -> impl Strategy<Value = Predicate> {
    let key_pred = (0i64..12).prop_map(|k| Predicate::eq_value("K", k));
    let value_pred = (
        0i64..4,
        prop_oneof![
            Just(Comparator::Eq),
            Just(Comparator::Le),
            Just(Comparator::Gt)
        ],
    )
        .prop_map(|(c, op)| Predicate::attr_op_value("V", op, c));
    let mixed_pred = (key_pred.clone(), value_pred.clone()).prop_map(|(k, v)| k.and(v));
    prop_oneof![key_pred, value_pred, mixed_pred]
}

/// A lifespan parameter: a literal, or the `WHEN` of a select over `r` —
/// the paper's §4.5 bridge back into the relation sort.
fn window_strategy() -> impl Strategy<Value = LifespanExpr> {
    prop_oneof![
        common::lifespan_strategy().prop_map(LifespanExpr::Literal),
        pred_strategy().prop_map(|p| LifespanExpr::When(Box::new(Expr::rel("r").select_when(p)))),
    ]
}

/// A tree over `r` and `s` exercising every index-eligible shape —
/// literal and computed TIME-SLICEs, key-equality σWHEN/σIF — plus the
/// plain operators. Nearly every leaf is on the test scheme, so most
/// trees are well-typed; the odd `r2` leaf keeps the error paths compared.
fn tree_strategy() -> impl Strategy<Value = Expr> {
    let mut leaves = vec![
        Just(Expr::rel("r2")).boxed(),
        Just(Expr::NaturalJoin(
            Box::new(Expr::rel("r")),
            Box::new(Expr::rel("r2")),
        ))
        .boxed(),
    ];
    leaves.extend((0..30).map(|_| prop_oneof![Just(Expr::rel("r")), Just(Expr::rel("s"))].boxed()));
    Union::new(leaves).prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), pred_strategy()).prop_map(|(e, p)| e.select_when(p)),
            (
                inner.clone(),
                pred_strategy(),
                prop_oneof![Just(Quantifier::Exists), Just(Quantifier::Forall)],
                prop_oneof![Just(None), window_strategy().prop_map(Some)],
            )
                .prop_map(|(e, p, q, l)| Expr::SelectIf {
                    input: Box::new(e),
                    predicate: p,
                    quantifier: q,
                    lifespan: l,
                }),
            (inner.clone(), window_strategy()).prop_map(|(e, l)| Expr::TimeSlice {
                input: Box::new(e),
                lifespan: l,
            }),
            inner.clone().prop_map(|e| e.project(["K", "V", "W"])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Union(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Intersection(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Difference(Box::new(a), Box::new(b))),
        ]
    })
}

/// A relation-sorted query: a tree, or trees under an operator that
/// combines them differently — the object set operators, NATJOIN, θ-JOIN
/// and PRODUCT with `r2`, TIMEJOIN@AT and SLICE@AT over `evt`.
pub fn expr_strategy() -> impl Strategy<Value = Expr> {
    let evt = || {
        prop_oneof![
            Just(Expr::rel("evt")),
            common::lifespan_strategy().prop_map(|l| Expr::rel("evt").timeslice(l)),
        ]
    };
    let r2 = || Box::new(Expr::rel("r2"));
    prop_oneof![
        tree_strategy(),
        tree_strategy(),
        (tree_strategy(), tree_strategy(), 0u8..4).prop_map(|(a, b, op)| {
            let (a, b) = (Box::new(a), Box::new(b));
            match op {
                0 => Expr::UnionO(a, b),
                1 => Expr::IntersectionO(a, b),
                2 => Expr::DifferenceO(a, b),
                _ => Expr::NaturalJoin(a, b),
            }
        }),
        tree_strategy().prop_map(move |e| Expr::ThetaJoin {
            left: Box::new(e),
            right: r2(),
            a: "V".into(),
            op: Comparator::Le,
            b: "X".into(),
        }),
        tree_strategy().prop_map(move |e| Expr::Product(Box::new(e), r2())),
        (evt(), tree_strategy()).prop_map(|(l, r)| Expr::TimeJoin {
            left: Box::new(l),
            right: Box::new(r),
            attr: "AT".into(),
        }),
        evt().prop_map(|e| Expr::TimeSliceDynamic {
            input: Box::new(e),
            attr: "AT".into(),
        }),
    ]
}

/// A query of any sort: a relation, a lifespan (`WHEN`s and literals
/// under `|`, `&`, `-`), or an aggregate.
pub fn query_strategy() -> impl Strategy<Value = Query> {
    let lifespan = prop_oneof![
        expr_strategy().prop_map(|e| LifespanExpr::When(Box::new(e))),
        common::lifespan_strategy().prop_map(LifespanExpr::Literal),
    ]
    .prop_recursive(2, 6, 2, |inner| {
        (inner.clone(), inner, 0u8..3).prop_map(|(a, b, op)| {
            let (a, b) = (Box::new(a), Box::new(b));
            match op {
                0 => LifespanExpr::Union(a, b),
                1 => LifespanExpr::Intersect(a, b),
                _ => LifespanExpr::Minus(a, b),
            }
        })
    });
    let op = prop_oneof![
        Just(AggregateOp::Count),
        Just(AggregateOp::Sum),
        Just(AggregateOp::Max),
    ];
    prop_oneof![
        expr_strategy().prop_map(Query::Relation),
        lifespan.prop_map(Query::Lifespan),
        (op, expr_strategy()).prop_map(|(op, input)| Query::Aggregate {
            op,
            attr: "V".into(),
            input,
        }),
    ]
}

// ---------------------------------------------------------------------------
// The write history
// ---------------------------------------------------------------------------

type Segs = Vec<(i64, i64, i64)>;

/// A generated tuple of `r`, `s` or `r2`: key, lifespan and the raw values
/// of the non-key attributes [`value_attrs`] names, clipped to the
/// relation's scheme when it is written.
#[derive(Clone, Debug)]
pub struct Row {
    key: i64,
    life: Lifespan,
    values: [Segs; 3],
}

/// One write, applied identically to every attached engine.
#[derive(Clone, Debug)]
pub enum Op {
    Insert {
        rel: &'static str,
        row: Row,
    },
    InsertEvt {
        e: i64,
        lo: i64,
        len: i64,
        at: i64,
    },
    Put {
        rel: &'static str,
        rows: Vec<Row>,
    },
    Checkpoint,
    /// Physical only: the partitioned engine changes its cut, the
    /// reference keeps span ∞.
    Repartition {
        span_log2: u32,
    },
    /// Adds `Y` over `[from, to]`.
    AddAttribute {
        rel: &'static str,
        from: i64,
        to: i64,
    },
    /// Drops the `attr`-th of [`value_attrs`] as of `at`.
    DropAttribute {
        rel: &'static str,
        attr: usize,
        at: i64,
    },
    /// Re-adds the `attr`-th of [`value_attrs`] over `[from, to]`.
    ReAddAttribute {
        rel: &'static str,
        attr: usize,
        from: i64,
        to: i64,
    },
}

/// The key and the non-key attributes of a generated row; `Y` exists
/// only once an [`Op::AddAttribute`] has created it.
fn value_attrs(rel: &str) -> (&'static str, &'static [&'static str]) {
    match rel {
        "r2" => ("K2", &["X", "Y"]),
        _ => ("K", &["V", "W", "Y"]),
    }
}

fn row_tuple(scheme: &Scheme, rel: &str, row: &Row) -> Tuple {
    let (key, attrs) = value_attrs(rel);
    let cells: Vec<(&str, Segs)> = attrs
        .iter()
        .zip(&row.values)
        .filter(|(a, _)| scheme.contains(&Attribute::new(**a)))
        .map(|(a, segs)| (*a, segs.clone()))
        .collect();
    common::build_tuple(scheme, key, row.key, &row.life, &cells)
}

fn row_strategy() -> impl Strategy<Value = Row> {
    let segs = common::segments_strategy;
    (
        0i64..12,
        common::lifespan_strategy(),
        segs(),
        segs(),
        segs(),
    )
        .prop_map(|(key, life, v, w, y)| Row {
            key,
            life,
            values: [v, w, y],
        })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let rel = || prop_oneof![Just("r"), Just("s"), Just("r2")];
    let span = || (0i64..40, 0i64..40).prop_map(|(a, b)| (a.min(b), a.max(b)));
    let insert = || (rel(), row_strategy()).prop_map(|(rel, row)| Op::Insert { rel, row });
    let evolve = prop_oneof![
        (rel(), span()).prop_map(|(rel, (from, to))| Op::AddAttribute { rel, from, to }),
        (rel(), 0usize..3, 0i64..40).prop_map(|(rel, attr, at)| Op::DropAttribute {
            rel,
            attr,
            at
        }),
        (rel(), 0usize..3, span()).prop_map(|(rel, attr, (from, to))| Op::ReAddAttribute {
            rel,
            attr,
            from,
            to
        }),
    ];
    prop_oneof![
        insert(),
        insert(),
        insert(),
        (0i64..8, 0i64..40, 1i64..12, 0i64..40).prop_map(|(e, lo, len, at)| Op::InsertEvt {
            e,
            lo,
            len,
            at
        }),
        (rel(), prop::collection::vec(row_strategy(), 0..8))
            .prop_map(|(rel, rows)| Op::Put { rel, rows }),
        Just(Op::Checkpoint),
        (0u32..6).prop_map(|span_log2| Op::Repartition { span_log2 }),
        evolve,
    ]
}

/// Applies `op` to one engine; its sibling call on the other engine must
/// be acknowledged identically.
fn apply(db: &ConcurrentDatabase, op: &Op, partitioned: bool) -> Result<(), String> {
    let scheme = |rel: &str| db.snapshot().catalog().scheme(rel).unwrap().clone();
    let attr = |rel: &str, i: usize| {
        let attrs = value_attrs(rel).1;
        Attribute::new(attrs[i % attrs.len()])
    };
    match op {
        Op::Insert { rel, row } => db.insert(rel, row_tuple(&scheme(rel), rel, row)),
        Op::InsertEvt { e, lo, len, at } => db.insert("evt", evt_tup(*e, *lo, *len, *at)),
        Op::Put { rel, rows } => {
            let scheme = scheme(rel);
            let by_key: BTreeMap<i64, Tuple> = rows
                .iter()
                .map(|row| (row.key, row_tuple(&scheme, rel, row)))
                .collect();
            let tuples: Vec<Tuple> = by_key.into_values().collect();
            let contents = Relation::with_tuples(scheme, tuples).unwrap();
            db.put_relation(rel, contents)
        }
        Op::Checkpoint => db.checkpoint(),
        Op::Repartition { span_log2 } => {
            if partitioned {
                db.set_partition_policy(PartitionPolicy::SpanLog2(*span_log2));
            }
            Ok(())
        }
        Op::AddAttribute { rel, from, to } => db.add_attribute(
            rel,
            Attribute::new("Y"),
            HistoricalDomain::int(),
            (*from).into(),
            (*to).into(),
        ),
        Op::DropAttribute { rel, attr: i, at } => {
            db.drop_attribute(rel, &attr(rel, *i), (*at).into())
        }
        Op::ReAddAttribute {
            rel,
            attr: i,
            from,
            to,
        } => db.re_add_attribute(rel, &attr(rel, *i), (*from).into(), (*to).into()),
    }
    .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// What a history leaves behind
// ---------------------------------------------------------------------------

/// One generated case: a write history, the queries asked after it, and
/// the knobs of the run.
#[derive(Clone, Debug)]
pub struct Case {
    pub history: Vec<Op>,
    pub queries: Vec<Query>,
    /// The initial cut of the partitioned engine, and the cut of the
    /// detached partitioned database.
    span_log2: u32,
    /// The op after which the mid-history snapshot is taken (modulo the
    /// history's length).
    mid: usize,
    /// Bytes torn off both WAL tails before the recovery check.
    cut_back: u64,
    /// Seeds the probes' random choices.
    seed: u64,
}

/// The generated queries asked after each history.
pub const GENERATED: usize = 6;

pub fn case_strategy() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(op_strategy(), 1..32),
        prop::collection::vec(query_strategy(), GENERATED),
        0u32..6,
        any::<usize>(),
        0u64..64,
        any::<u64>(),
    )
        .prop_map(|(history, queries, span_log2, mid, cut_back, seed)| Case {
            history,
            queries,
            span_log2,
            mid,
            cut_back,
            seed,
        })
}

pub type Relations = BTreeMap<String, Relation>;

pub fn relations(snap: &DbSnapshot) -> Relations {
    snap.relation_names()
        .map(|n| (n.to_string(), snap.relation(n).unwrap().clone()))
        .collect()
}

/// The state a matrix entry answers from — what its reference answers
/// are evaluated on.
#[allow(dead_code)] // each test binary reads some of the states
#[derive(Clone, Copy)]
pub enum State {
    /// After the whole history.
    Final,
    /// The prefix the mid-history snapshot caught.
    Mid,
    /// After recovery from an identically torn WAL tail.
    Recovered,
}

/// The engines and states a history leaves behind.
#[allow(dead_code)] // each test binary's entries read some of them
pub struct World {
    /// Attached, partitioned: a random cut, repartitioned by the history.
    pub part: Arc<ConcurrentDatabase>,
    /// Attached, unpartitioned (`span = ∞`).
    pub reference: ConcurrentDatabase,
    /// `part`'s directory, checkpointed if a paged open needed it.
    pub dir: PathBuf,
    /// `part` snapshotted while the history was still being written.
    pub mid: Arc<DbSnapshot>,
    /// `part` recovered from a copy with a torn WAL tail.
    pub recovered: Database,
    /// The final state, detached: unpartitioned and cut at `span_log2`.
    pub flat: Database,
    pub cut: Database,
    pub seed: u64,
    /// The history changed a scheme (an acknowledged add, drop or re-add).
    pub evolved: bool,
    /// Indexed by [`State`].
    pub states: [Relations; 3],
    dirs: Vec<PathBuf>,
}

impl World {
    /// Runs the history against a partitioned and an unpartitioned
    /// attached engine, one writer thread each, while this thread takes the
    /// mid-history snapshot; then checks what only whole histories show:
    /// equal acknowledgements, `\stats` op counts and states, byte-identical
    /// WALs, equal recovery from an identically torn tail, and the paged
    /// open's "checkpoint first" contract.
    pub fn build(case: &Case) -> World {
        let (dir, ref_dir) = (tmp("part"), tmp("ref"));
        let part = ConcurrentDatabase::open(&dir).unwrap();
        part.set_partition_policy(PartitionPolicy::SpanLog2(case.span_log2));
        let reference = ConcurrentDatabase::open(&ref_dir).unwrap();
        reference.set_partition_policy(PartitionPolicy::Unpartitioned);
        create_relations(&part);
        create_relations(&reference);

        let mid_op = case.mid % case.history.len();
        let (tx, rx) = mpsc::channel();
        let (acks, ref_acks, mid) = std::thread::scope(|scope| {
            let (part, history) = (&part, &case.history);
            let writer = scope.spawn(move || {
                let mut acks = Vec::new();
                for (i, op) in history.iter().enumerate() {
                    acks.push(apply(part, op, true));
                    if i == mid_op {
                        tx.send(()).unwrap();
                    }
                }
                acks
            });
            let ref_writer = scope.spawn(|| {
                let ops = history.iter();
                ops.map(|op| apply(&reference, op, false))
                    .collect::<Vec<_>>()
            });
            rx.recv().unwrap();
            let mid = part.snapshot();
            (writer.join().unwrap(), ref_writer.join().unwrap(), mid)
        });
        let history = &case.history;
        assert_eq!(
            acks, ref_acks,
            "the engines acknowledged {history:?} differently"
        );
        assert_eq!(
            part.stats().ops,
            reference.stats().ops,
            "`\\stats` op counts"
        );
        let last = relations(&part.snapshot());
        assert_eq!(
            last,
            relations(&reference.snapshot()),
            "states after {history:?}"
        );

        // The WAL knows nothing of partitioning.
        let (wal, ref_wal) = (wal_file(&dir), wal_file(&ref_dir));
        assert_eq!(wal.file_name(), ref_wal.file_name(), "epochs differ");
        let bytes = |p: &Path| std::fs::read(p).unwrap();
        assert!(
            bytes(&wal) == bytes(&ref_wal),
            "WAL bytes differ after {history:?}"
        );

        // Prefix consistency is engine-agnostic: copies of both torn alike
        // recover the same state.
        let torn = [
            torn_copy(&dir, case.cut_back),
            torn_copy(&ref_dir, case.cut_back),
        ];
        let recovered = Database::open(&torn[0]).unwrap();
        let recovered_state = relations(&recovered.snapshot());
        let ref_recovered = Database::open(&torn[1]).unwrap();
        assert_eq!(
            recovered_state,
            relations(&ref_recovered.snapshot()),
            "recovered states"
        );

        // A paged open takes a WAL tail of creations and inserts only: with
        // no checkpoint, or anything heavier since the last one, it must
        // refuse with the `Mode` error naming the fix — and open after it.
        let paged_opens =
            history
                .iter()
                .zip(&acks)
                .fold(false, |opens, (op, ack)| match (op, ack) {
                    (Op::Checkpoint, Ok(())) => true,
                    (Op::Insert { .. } | Op::InsertEvt { .. } | Op::Repartition { .. }, _)
                    | (_, Err(_)) => opens,
                    _ => false,
                });
        match PagedDatabase::open(&dir) {
            Ok(_) if paged_opens => {}
            Err(DbError::Mode(m)) if !paged_opens && m.contains("checkpoint") => {
                part.checkpoint().unwrap()
            }
            other => panic!("paged open after {history:?} (should open: {paged_opens}): {other:?}"),
        }

        let evolved = history.iter().zip(&acks).any(|(op, ack)| {
            let evolution = matches!(
                op,
                Op::AddAttribute { .. } | Op::DropAttribute { .. } | Op::ReAddAttribute { .. }
            );
            evolution && ack.is_ok()
        });
        let policy = PartitionPolicy::SpanLog2(case.span_log2);
        World {
            evolved,
            flat: Database::with_relations(PartitionPolicy::Unpartitioned, last.clone()).unwrap(),
            cut: Database::with_relations(policy, last.clone()).unwrap(),
            states: [last, relations(&mid), recovered_state],
            part: Arc::new(part),
            reference,
            mid,
            recovered,
            seed: case.seed,
            dirs: vec![dir.clone(), ref_dir, torn[0].clone(), torn[1].clone()],
            dir,
        }
    }
}

impl Drop for World {
    fn drop(&mut self) {
        for dir in &self.dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// The single WAL file of a directory (one per epoch).
fn wal_file(dir: &Path) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("wal.") && name.ends_with(".log")
        })
        .collect();
    assert_eq!(found.len(), 1, "exactly one WAL per epoch in {dir:?}");
    found.pop().unwrap()
}

/// A copy of the database directory `dir` with `cut_back` bytes torn off
/// its WAL — what a crash mid-append leaves.
fn torn_copy(dir: &Path, cut_back: u64) -> PathBuf {
    let copy = tmp("torn");
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
    }
    let wal = wal_file(&copy);
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len.saturating_sub(cut_back)).unwrap();
    copy
}
