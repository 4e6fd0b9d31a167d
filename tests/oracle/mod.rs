//! The differential oracle: every production source of answers is checked
//! against the reference evaluator (`eval.rs`), on the same state.
//!
//! One world (`r`, `s`, `r2`, `evt`), one generated write history
//! (inserts, puts, checkpoints, repartitions, schema evolution), one
//! generated query of every sort plus a named regression battery, and one
//! matrix runner ([`matrix::run_matrix`]) that each test hands its list of
//! sources: a bare relation map, detached databases, the attached engine —
//! also through a snapshot taken mid-history and after recovery from a
//! torn WAL — the paged view, the streaming executor under batch caps,
//! row caps and cancels, and `hrdmd` over loopback.
//!
//! The tests live in five binaries, each defining the sources it runs:
//! `differential` (the attached engines, recovery, the wire),
//! `paged_differential`, `streaming`, `planner_equivalence` and
//! `optimizer_equivalence`. What a generated query cannot express stays a
//! short named case in the same binaries. `PROPTEST_CASES` sets the case
//! count (CI's `partition-tests` leg runs 256); with `HRDM_POOL_PAGES=4`
//! the paged entries run under continuous eviction.

pub mod matrix;
pub mod world;
