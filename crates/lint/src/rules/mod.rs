//! The rule catalog.
//!
//! | rule | what it enforces |
//! |---|---|
//! | `atomic-ordering` | `Ordering::Relaxed` only in the metrics crate |
//! | `lock-order` | no lock-acquisition inversion cycles |
//! | `no-panic` | no `unwrap`/`expect`/`panic!` in engine library code |
//! | `wire-exhaustiveness` | every frame kind fully wired end to end |
//! | `bounded-alloc` | decode-side allocations capped before trust |
//! | `oracle-only` | the reference evaluator is reachable from tests only |
//!
//! Each rule scans the pre-lexed workspace and returns raw violations;
//! the engine in [`crate::run`] applies waivers and the allowlist.

pub mod atomic_ordering;
pub mod bounded_alloc;
pub mod lock_order;
pub mod no_panic;
pub mod oracle_only;
pub mod wire_exhaustive;

use std::collections::BTreeMap;

use crate::workspace::SourceFile;
use crate::{LintConfig, Violation};

/// A single lint rule.
pub trait Rule {
    /// The rule's name as used in waivers and `--rule`.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Scans `files` and returns raw (pre-waiver) violations. Rules
    /// record how many files they actually examined in `stats` so the
    /// self-check can assert they did not silently no-op.
    fn check(
        &self,
        config: &LintConfig,
        files: &[SourceFile],
        stats: &mut BTreeMap<&'static str, usize>,
    ) -> Vec<Violation>;
}

/// Every rule, in catalog order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(atomic_ordering::AtomicOrdering),
        Box::new(lock_order::LockOrder),
        Box::new(no_panic::NoPanic),
        Box::new(wire_exhaustive::WireExhaustive),
        Box::new(bounded_alloc::BoundedAlloc),
        Box::new(oracle_only::OracleOnly),
    ]
}
