//! The query pipeline as one call: parse → optimize → plan → execute
//! against a snapshot (or any other [`IndexSource`]).
//!
//! Every front end that accepts *query text* — the `hrdmq` shell, the
//! `hrdmd` network server, the examples — runs the identical pipeline:
//! parse the text, rewrite-optimize every relational expression in it,
//! select access paths against the source's indexes
//! ([`crate::plan_query`]), build the executor tree and run it
//! ([`crate::exec`]). All three query sorts take that one path: a `WHEN` or
//! an aggregate differs from a relation query only in the root its
//! executor tree ends in. This module is that glue, written once, so the
//! front ends cannot drift apart in how they treat a query.

use crate::ast::Query;
use crate::exec::{
    build_query_executor, ExecError, ExecOptions, QueryRoot, QueryStream, StorageError,
};
use crate::parser::{parse_query, ParseError};
use crate::plan::{plan_query, IndexSource};
use hrdm_core::{HrdmError, Relation, TemporalValue};
use hrdm_storage::PagedDatabase;
use hrdm_time::Lifespan;
use std::fmt;
use std::time::Instant;

/// The result of a query: one of the algebra's sorts (plus the aggregate
/// extension's time-varying values).
#[derive(Clone, PartialEq, Debug)]
pub enum QueryResult {
    /// A historical relation.
    Relation(Relation),
    /// A lifespan.
    Lifespan(Lifespan),
    /// A time-varying value (aggregate extension).
    Function(TemporalValue),
}

/// Everything that can go wrong running query *text* end to end: the text
/// may not parse, the (planned) evaluation may fail, or the stream may be
/// cut off by cancellation or a resource cap.
#[derive(Clone, PartialEq, Debug)]
pub enum PipelineError {
    /// The text is not a well-formed query.
    Parse(ParseError),
    /// The query is well-formed but evaluation failed (unknown relation,
    /// incomparable values, …).
    Eval(HrdmError),
    /// The stream's cancellation probe fired mid-query.
    Cancelled,
    /// A streaming resource cap (e.g. the row limit) was exceeded.
    Limit(String),
    /// A scan failed to read a cold partition from disk.
    Storage(StorageError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
            PipelineError::Eval(e) => write!(f, "error: {e}"),
            PipelineError::Cancelled => f.write_str("query cancelled"),
            PipelineError::Limit(m) => write!(f, "limit exceeded: {m}"),
            PipelineError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<HrdmError> for PipelineError {
    fn from(e: HrdmError) -> Self {
        PipelineError::Eval(e)
    }
}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::Eval(h) => PipelineError::Eval(h),
            ExecError::Cancelled => PipelineError::Cancelled,
            ExecError::RowLimit(n) => {
                PipelineError::Limit(format!("result exceeds the cap of {n} rows"))
            }
            ExecError::Storage(e) => PipelineError::Storage(e),
        }
    }
}

/// Where a query's wall time went: the *planning* half (parse + rewrite
/// optimization + access-path selection) versus the *execution* half
/// (operator evaluation). Servers surface these per-request so a slow
/// query can be attributed to the right phase.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct PipelineTiming {
    /// Nanoseconds spent parsing, optimizing, and planning.
    pub plan_ns: u64,
    /// Nanoseconds spent evaluating the planned operators.
    pub exec_ns: u64,
}

/// Runs query text end to end against `src`: parse → optimize → plan →
/// execute, whatever the query's sort — a `WHEN` or an aggregate gets the
/// same rewrite optimizer and index-aware access paths (index scans,
/// partition pruning) under its root as a relation-sorted query.
///
/// This is the single entry point shared by the `hrdmq` shell and the
/// `hrdmd` server — both answer exactly what this function returns.
pub fn run_query_on_snapshot(
    text: &str,
    src: &dyn IndexSource,
) -> Result<QueryResult, PipelineError> {
    stream_query_on_snapshot(text, src, &ExecOptions::default())?.collect()
}

/// A streamed query outcome: relation-sorted queries come back as a live
/// [`QueryStream`] (no materialization has happened yet); lifespan- and
/// aggregate-sorted results are scalar-sized and arrive complete, their
/// executor tree already run.
pub enum StreamedQuery<'a> {
    /// A relation-sorted result, pulled batch by batch.
    Rows(QueryStream<'a>),
    /// A lifespan-sorted result (already complete).
    Lifespan {
        /// The lifespan value.
        value: Lifespan,
        /// Where the wall time went.
        timing: PipelineTiming,
    },
    /// An aggregate-sorted, time-varying result (already complete).
    Function {
        /// The time-varying value.
        value: TemporalValue,
        /// Where the wall time went.
        timing: PipelineTiming,
    },
}

impl StreamedQuery<'_> {
    /// Drains a relation-sorted stream into a relation; the scalar sorts
    /// are complete already.
    pub fn collect(self) -> Result<QueryResult, PipelineError> {
        Ok(match self {
            StreamedQuery::Rows(stream) => QueryResult::Relation(stream.collect_relation()?),
            StreamedQuery::Lifespan { value, .. } => QueryResult::Lifespan(value),
            StreamedQuery::Function { value, .. } => QueryResult::Function(value),
        })
    }
}

/// The streaming front door: parse → optimize → plan → *open* an executor
/// tree, without materializing relation results. The returned
/// [`QueryStream`] enforces `opts`' row cap and cancellation probe per
/// batch, so front ends (the server's `RowChunk` loop, the shell) observe
/// Cancel within one batch boundary instead of after full evaluation; the
/// roots of the scalar sorts apply the same gate to what they consume, so a
/// cancelled or row-capped `WHEN` or aggregate is an error, never a partial
/// value.
///
/// [`run_query_on_snapshot`] is the collect-to-`Relation` wrapper over
/// this for callers that want the materialized answer.
pub fn stream_query_on_snapshot<'a>(
    text: &str,
    src: &'a dyn IndexSource,
    opts: &ExecOptions,
) -> Result<StreamedQuery<'a>, PipelineError> {
    let plan_started = Instant::now();
    let q = parse_query(text)?;
    stream_planned(&q, src, opts, plan_started)
}

/// [`run_query_on_snapshot`] for an already-parsed query — the entry point
/// for callers that parse once and run many times.
pub fn run_query(q: &Query, src: &dyn IndexSource) -> Result<QueryResult, PipelineError> {
    stream_planned(q, src, &ExecOptions::default(), Instant::now())?.collect()
}

fn stream_planned<'a>(
    q: &Query,
    src: &'a dyn IndexSource,
    opts: &ExecOptions,
    plan_started: Instant,
) -> Result<StreamedQuery<'a>, PipelineError> {
    let root = build_query_executor(&plan_query(q, src), src, opts);
    let plan_ns = plan_started.elapsed().as_nanos() as u64;
    let exec_started = Instant::now();
    let timing = || PipelineTiming {
        plan_ns,
        exec_ns: exec_started.elapsed().as_nanos() as u64,
    };
    match root {
        QueryRoot::Rows(root) => {
            let mut stream = QueryStream::new(root, opts)?;
            stream.set_plan_ns(plan_ns);
            Ok(StreamedQuery::Rows(stream))
        }
        QueryRoot::Lifespan(mut root) => {
            let (value, timing) = (root.run()?, timing());
            Ok(StreamedQuery::Lifespan { value, timing })
        }
        QueryRoot::Aggregate(mut root) => {
            let (value, timing) = (root.run()?, timing());
            Ok(StreamedQuery::Function { value, timing })
        }
    }
}

/// Runs query text end to end against an out-of-core database: parsed,
/// optimized and planned once against the paged view, whose scans read
/// the cold partitions their windows meet through the buffer pool (pruned
/// partitions stay on disk) and then the resident WAL tail. A cold
/// partition that fails to read (I/O error, bad checksum, …) fails the
/// query with [`PipelineError::Storage`].
pub fn run_query_on_paged(text: &str, db: &PagedDatabase) -> Result<QueryResult, PipelineError> {
    run_query_on_snapshot(text, db)
}

/// Parses and EXPLAINs query text against `src`: the physical plan with
/// access paths — the operator tree under the root of the query's sort —
/// preceded, for a relation-sorted query, by the optimizer's rewrite trace.
pub fn explain_query_text(text: &str, src: &dyn IndexSource) -> Result<String, PipelineError> {
    Ok(match parse_query(text)? {
        Query::Relation(e) => crate::plan::explain_with_access(&e, src),
        q => {
            let root = build_query_executor(&plan_query(&q, src), src, &ExecOptions::default());
            format!("== access paths ==\n{}", root.render(false))
        }
    })
}

/// Strips a leading `EXPLAIN ANALYZE` from `text`, returning the query
/// proper — the front ends' dispatch test for the analyzed mode.
pub fn strip_explain_analyze(text: &str) -> Option<&str> {
    let trimmed = text.trim_start();
    let rest = trimmed.strip_prefix("EXPLAIN ANALYZE")?;
    // Require a separator so a relation named e.g. `EXPLAIN ANALYZER`
    // cannot be mistaken for the mode keyword.
    if rest.starts_with(char::is_whitespace) || rest.starts_with('(') {
        Some(rest.trim_start())
    } else {
        None
    }
}

/// `EXPLAIN ANALYZE`: runs the query for real through the executor and
/// renders the executor tree — under a `When` or `Aggregate` root for
/// those sorts — annotated with measured per-operator wall times, output
/// row/batch counts, and (on bounded scans) partition-pruning counts,
/// followed by planning/execution totals and the rows that reached the
/// root.
///
/// The per-operator numbers are the executors' own [`crate::exec::ExecStats`];
/// with observability disabled (`HRDM_OBS_OFF`) the plan still renders,
/// without actual-time annotations.
pub fn explain_analyze_query_text(
    text: &str,
    src: &dyn IndexSource,
) -> Result<String, PipelineError> {
    let opts = ExecOptions::default();
    let plan_started = Instant::now();
    let q = parse_query(text)?;
    let mut root = build_query_executor(&plan_query(&q, src), src, &opts);
    let plan_ns = plan_started.elapsed().as_nanos() as u64;
    let exec_started = Instant::now();
    root.run_to_completion(&opts)?;
    let exec_ns = exec_started.elapsed().as_nanos() as u64;

    let mut out = String::from("== explain analyze ==\n");
    // When a trace id is ambient (a server worker installed the id the
    // client minted), print it so the remote caller can join this plan
    // to its own request, the slowlog, and the flight recorder.
    if let Some(trace) = hrdm_obs::trace::current() {
        out.push_str(&format!("trace: {}\n", hrdm_obs::trace::render(trace)));
    }
    out.push_str(&root.render(hrdm_obs::enabled()));
    out.push_str(&format!(
        "planning: {}\nexecution: {}\nrows: {}\n",
        crate::plan::fmt_ns(plan_ns),
        crate::plan::fmt_ns(exec_ns),
        root.rows(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrdm_core::prelude::*;
    use hrdm_storage::{Database, PartitionPolicy};

    fn source() -> Database {
        let era = Lifespan::interval(0, 19);
        let scheme = Scheme::builder()
            .key_attr("NAME", ValueKind::Str, era.clone())
            .attr("SALARY", HistoricalDomain::int(), era.clone())
            .build()
            .unwrap();
        let john = Tuple::builder(era.clone())
            .constant("NAME", "John")
            .value(
                "SALARY",
                TemporalValue::of(&[(0, 9, Value::Int(25_000)), (10, 19, Value::Int(30_000))]),
            )
            .finish(&scheme)
            .unwrap();
        let emp = Relation::with_tuples(scheme, vec![john]).unwrap();
        Database::with_relations(PartitionPolicy::Unpartitioned, [("emp", emp)]).unwrap()
    }

    #[test]
    fn runs_relation_and_lifespan_sorts() {
        let src = source();
        match run_query_on_snapshot("SELECT-WHEN (SALARY = 30000) (emp)", &src).unwrap() {
            QueryResult::Relation(r) => assert_eq!(r.len(), 1),
            other => panic!("expected relation, got {other:?}"),
        }
        match run_query_on_snapshot("WHEN (SELECT-WHEN (SALARY = 30000) (emp))", &src).unwrap() {
            QueryResult::Lifespan(l) => assert_eq!(l, Lifespan::interval(10, 19)),
            other => panic!("expected lifespan, got {other:?}"),
        }
    }

    #[test]
    fn parse_and_eval_errors_are_distinguished() {
        let src = source();
        assert!(matches!(
            run_query_on_snapshot("NOT A QUERY ((", &src),
            Err(PipelineError::Parse(_))
        ));
        assert!(matches!(
            run_query_on_snapshot("WHEN (ghost)", &src),
            Err(PipelineError::Eval(HrdmError::UnknownRelation(_)))
        ));
    }

    #[test]
    fn explain_text_reports_access_paths() {
        let src = source();
        let out = explain_query_text("SELECT-WHEN (NAME = \"John\") (emp)", &src).unwrap();
        assert!(out.contains("== access paths =="), "{out}");
        assert!(out.contains("IndexScan(key"), "{out}");
        // The other sorts print their operator tree under a root of the sort.
        let out = explain_query_text("WHEN (TIMESLICE [0..9] (emp)) | [30..40]", &src).unwrap();
        assert_eq!(
            out,
            "== access paths ==\n\
             Lifespan-Union\n\
             \x20 When\n\
             \x20   TimeSlice [0..9]\n\
             \x20     Scan emp [IndexScan(lifespan, [0..9]) partitions: 0/1 pruned]\n\
             \x20 Lifespan [30..40]\n"
        );
        let out = explain_query_text("COUNT SALARY (TIMESLICE [0..9] (emp))", &src).unwrap();
        assert!(out.contains("Aggregate COUNT SALARY\n"), "{out}");
        assert!(out.contains("IndexScan(lifespan, [0..9])"), "{out}");
    }

    #[test]
    fn strip_explain_analyze_requires_a_separator() {
        assert_eq!(
            strip_explain_analyze("EXPLAIN ANALYZE TIMESLICE [0..9] (emp)"),
            Some("TIMESLICE [0..9] (emp)")
        );
        assert_eq!(
            strip_explain_analyze("  EXPLAIN ANALYZE(emp)"),
            Some("(emp)")
        );
        assert_eq!(strip_explain_analyze("EXPLAIN ANALYZER"), None);
        assert_eq!(strip_explain_analyze("TIMESLICE [0..9] (emp)"), None);
    }

    #[test]
    fn explain_analyze_annotates_every_operator() {
        let src = source();
        let out = explain_analyze_query_text("TIMESLICE [0..9] (emp)", &src).unwrap();
        assert!(out.contains("== explain analyze =="), "{out}");
        // Both the slice and the scan under it carry actual-run stats.
        assert_eq!(out.matches("(actual time=").count(), 2, "{out}");
        assert!(out.contains("rows=1)"), "{out}");
        assert!(out.contains("planning: "), "{out}");
        assert!(out.contains("execution: "), "{out}");
        assert!(out.contains("rows: 1"), "{out}");
        // A WHEN is analyzed like any other query: its root and the scan
        // under it report what they did; the select between them was
        // evaluated in lifespan-only mode inside the root.
        let out =
            explain_analyze_query_text("WHEN (SELECT-WHEN (SALARY = 30000) (emp))", &src).unwrap();
        assert!(out.contains("When (actual time="), "{out}");
        assert!(out.contains("  Select-When SALARY = 30000\n"), "{out}");
        assert_eq!(out.matches("(actual time=").count(), 2, "{out}");
        assert!(out.contains("rows: 1"), "{out}");
        let out = explain_analyze_query_text("COUNT SALARY (emp)", &src).unwrap();
        assert!(
            out.contains("Aggregate COUNT SALARY (actual time="),
            "{out}"
        );
    }
}
