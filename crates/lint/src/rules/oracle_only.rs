//! `oracle-only`: the reference evaluator (`crates/query/src/eval.rs`) is
//! the differential oracle the test suites compare the planned executor
//! against — and nothing else. A query answered through it skips the
//! planner, the indexes, partition pruning, the row cap and cancellation,
//! and materializes every intermediate relation. So in non-test code under
//! any `src/`:
//!
//! * naming the oracle — a path through `eval::`, or its entry points
//!   `eval_expr` / `eval_lifespan` / `evaluate(` — is a violation (the
//!   query crate's one `pub use`, which hands the oracle to the
//!   integration tests, carries the waiver), and
//! * inside the query crate, `#[allow(deprecated)]` is too: that attribute
//!   is how a call into a deprecated second interpreter gets past the
//!   compiler unnoticed.

use std::collections::BTreeMap;

use super::Rule;
use crate::workspace::{FileClass, SourceFile};
use crate::{LintConfig, Violation};

/// See module docs.
pub struct OracleOnly;

/// The names that reach the oracle.
const ORACLE_NAMES: &[&str] = &["eval::", "eval_expr", "eval_lifespan", "evaluate("];

const ALLOW_DEPRECATED: &str = "allow(deprecated)";

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl Rule for OracleOnly {
    fn name(&self) -> &'static str {
        "oracle-only"
    }

    fn describe(&self) -> &'static str {
        "the reference evaluator is for tests only; no allow(deprecated) in the query crate"
    }

    fn check(
        &self,
        config: &LintConfig,
        files: &[SourceFile],
        stats: &mut BTreeMap<&'static str, usize>,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        for file in files {
            if !matches!(file.class, FileClass::Lib | FileClass::Bin)
                || file.rel == config.oracle_file
            {
                continue;
            }
            *stats.entry(self.name()).or_insert(0) += 1;
            let mut patterns = ORACLE_NAMES.to_vec();
            if config
                .oracle_file
                .starts_with(&format!("crates/{}/", file.crate_name))
            {
                patterns.push(ALLOW_DEPRECATED);
            }
            let masked = file.lexed.masked.as_bytes();
            for pat in patterns {
                let mut from = 0usize;
                while let Some(rel) = file.lexed.masked[from..].find(pat) {
                    let at = from + rel;
                    from = at + pat.len();
                    // Whole identifiers only: `re_evaluate(` and
                    // `eval_expr_cached` are other names.
                    let glued_before = at > 0 && is_ident(masked[at - 1]);
                    let glued_after = pat.bytes().last().is_some_and(is_ident)
                        && masked.get(from).copied().is_some_and(is_ident);
                    if file.lexed.in_test_region(at) || glued_before || glued_after {
                        continue;
                    }
                    let message = if pat == ALLOW_DEPRECATED {
                        "`#[allow(deprecated)]` in the query crate's non-test code: it is how a \
                         call into a deprecated second interpreter goes unnoticed"
                            .to_string()
                    } else {
                        format!(
                            "`{pat}` names the reference evaluator ({}) outside test code: \
                             answer queries through `plan_query` and the executor tree",
                            config.oracle_file
                        )
                    };
                    out.push(Violation {
                        rule: self.name(),
                        file: file.rel.clone(),
                        line: file.lexed.line_of(at),
                        message,
                        anchors: Vec::new(),
                    });
                }
            }
        }
        out
    }
}
