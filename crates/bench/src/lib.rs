//! # hrdm-bench — paper figures and measurement gates
//!
//! The library behind three binaries: `figures` regenerates the paper's
//! Figs. 1–12 from live model objects, `bench-json` is the CI
//! bench-regression tripwire ([`gate`]), and `obs-overhead` bounds what
//! metric emission costs a query. It also exports the seeded relation
//! generator [`gen_relation`] that the index oracle tests draw from.
//! End-to-end performance is measured by the separate `benchmark/`
//! package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod gen;
pub mod partition_fixture;

pub use gen::{gen_relation, WorkloadSpec};
