//! # hrdm-query — an algebra language, optimizer, planner and executor for HRDM
//!
//! The paper defines its algebra mathematically; this crate makes it
//! *runnable as text*:
//!
//! ```
//! use hrdm_query::{run_query_on_snapshot, QueryResult};
//! use hrdm_core::prelude::*;
//! use hrdm_storage::{Database, PartitionPolicy};
//!
//! // emp(NAME*, SALARY) with John earning 25K then 30K.
//! let era = Lifespan::interval(0, 19);
//! let scheme = Scheme::builder()
//!     .key_attr("NAME", ValueKind::Str, era.clone())
//!     .attr("SALARY", HistoricalDomain::int(), era.clone())
//!     .build().unwrap();
//! let john = Tuple::builder(era.clone())
//!     .constant("NAME", "John")
//!     .value("SALARY", TemporalValue::of(&[
//!         (0, 9, Value::Int(25_000)), (10, 19, Value::Int(30_000)),
//!     ]))
//!     .finish(&scheme).unwrap();
//! let emp = Relation::with_tuples(scheme, vec![john]).unwrap();
//! let db = Database::with_relations(PartitionPolicy::default(), [("emp", emp)]).unwrap();
//!
//! // The paper's §4.3 example, as text. WHEN extracts the lifespan sort.
//! // `run_query_on_snapshot` parses, optimizes, plans, and drains the
//! // streaming executor ([`exec`]) into a materialized answer.
//! let q = "WHEN (SELECT-WHEN (NAME = \"John\" AND SALARY = 30000) (emp))";
//! match run_query_on_snapshot(q, &db).unwrap() {
//!     QueryResult::Lifespan(l) => assert_eq!(l, Lifespan::interval(10, 19)),
//!     _ => unreachable!(),
//! }
//! ```
//!
//! The [`optimizer`] applies the algebraic identities the paper lists in §5
//! (select/TIME-SLICE commutation, distribution over set operators, …) as
//! rewrite rules, and [`explain()`] renders plans and rewrite traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod eval;
pub mod exec;
pub mod explain;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod pipeline;
pub mod plan;

pub use ast::{Expr, LifespanExpr, Query};
// The reference evaluator: for differential tests, not for answering queries.
#[doc(hidden)]
// lint: oracle-only-ok(the one door through which the integration tests reach the oracle)
pub use eval::{eval_expr, eval_lifespan, evaluate};
pub use exec::{
    build_executor, build_query_executor, explain_stream_plan, AggregateExec, CancelProbe,
    ExecError, ExecOptions, ExecStats, LifespanExec, QueryExecutor, QueryRoot, QueryStream,
    RowBatch, StorageError, DEFAULT_BATCH_ROWS,
};
// The build-side lever: for the differential tests, not for answering queries.
#[doc(hidden)]
pub use exec::build_executor_building;
pub use explain::{explain, explain_optimized};
pub use lexer::{lex, LexError, Token};
pub use optimizer::{optimize, Rewrite};
pub use parser::{parse_expr, parse_query, ParseError};
pub use pipeline::{
    explain_analyze_query_text, explain_query_text, run_query, run_query_on_paged,
    run_query_on_snapshot, stream_query_on_snapshot, strip_explain_analyze, PagedQueryError,
    PipelineError, PipelineTiming, QueryResult, StreamedQuery,
};
pub use plan::{
    explain_with_access, materialization_window, plan, plan_lifespan, plan_query, AccessPath,
    IndexSource, LifespanPlan, LifespanSetOp, Plan, QueryPlan, RelationSource,
};
