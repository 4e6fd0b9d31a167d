//! # hrdm-time — the time substrate of the Historical Relational Data Model
//!
//! Clifford & Croker (ICDE 1987, §3) ground HRDM in a set `T = {…, t0, t1, …}`
//! of *times*, at most countably infinite, with a linear order `<_T`, and they
//! invite the reader to "assume that T is isomorphic to the natural numbers".
//! A **lifespan** is *any* subset of `T` — in particular it need not be a
//! single interval, which is exactly what lets HRDM model "reincarnation"
//! (an employee hired, fired, and re-hired; a schema attribute dropped and
//! later re-added, paper Fig. 6).
//!
//! This crate provides that substrate:
//!
//! * [`Chronon`] — a point of `T` (an `i64` tick; the paper's `t_i`).
//! * [`Interval`] — a closed interval `[t1, t2] = { t | t1 <= t <= t2 }`,
//!   the paper's notational convenience for contiguous subsets of `T`.
//! * [`Lifespan`] — a finite union of closed intervals in canonical form with
//!   the full set algebra the paper requires (`∪`, `∩`, `−`, plus bounded
//!   complement), iteration over chronons, and convenience constructors.
//!
//! The paper defers "more elaborate structures for the time domain" to future
//! work, and its algebra never relates intervals qualitatively, so the crate
//! has no granularities and no interval relations beyond the set algebra.
//!
//! Everything is deterministic and allocation-conscious: lifespans are sorted
//! `Vec<Interval>` in canonical (disjoint, maximal, ordered) form, so equality
//! is structural and the binary set operations are linear merges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chronon;
mod interval;
mod lifespan;

pub use chronon::{Chronon, NOW_SYMBOL};
pub use interval::Interval;
pub use lifespan::{Lifespan, LifespanIter};
