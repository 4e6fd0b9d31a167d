//! The historical relational algebra of HRDM (paper §4).
//!
//! The temporal dimension makes the model three-dimensional (paper Fig. 10):
//! SELECT reduces along values, PROJECT along attributes, and the new
//! TIME-SLICE along time; WHEN (Ω) escapes into the lifespan sort; the JOINs
//! and set operators combine relations. Operator inventory:
//!
//! | Paper operator | Function |
//! |---|---|
//! | `∪`, `∩`, `−` | [`setops::union`], [`setops::intersection`], [`setops::difference`] |
//! | `×` | [`product::cartesian_product`] |
//! | `∪ₒ`, `∩ₒ`, `−ₒ` | [`object_setops::union_o`], [`object_setops::intersection_o`], [`object_setops::difference_o`] |
//! | `π_X` | [`project::project`] |
//! | `σ-IF(θ, Q, L)` | [`select::select_if`] |
//! | `σ-WHEN(θ)` | [`select::select_when`] |
//! | `τ_L` (static) | [`timeslice::timeslice`] |
//! | `τ@A` (dynamic) | [`timeslice::timeslice_dynamic`] |
//! | `Ω` | [`when::when`] |
//! | `JOIN [A θ B]` | [`join::theta_join`] |
//! | `[A = B]` | [`join::equijoin`] |
//! | `NATURAL-JOIN` | [`join::natural_join`] |
//! | `[@A]` | [`join::time_join`] |
//! | §5 union-join | [`join::theta_join_union`] |

pub mod aggregate;
pub mod join;
pub mod object_setops;
pub mod predicate;
pub mod product;
pub mod project;
pub mod select;
pub mod setops;
pub mod timeslice;
pub mod when;

pub use aggregate::{aggregate_over_time, AggregateOp};
pub use join::{
    equijoin, natural_join, natural_join_pair, theta_join, theta_join_pair, theta_join_union,
    time_join, time_join_pair,
};
pub use object_setops::{
    difference_o, difference_o_pair, intersection_o, intersection_o_pair, union_o,
};
pub use predicate::{Comparator, Operand, Predicate};
pub use product::{cartesian_product, null_volume, product_pair};
pub use project::project;
pub use select::{select_if, select_when, Quantifier};
pub use setops::{difference, intersection, union};
pub use timeslice::{timeslice, timeslice_dynamic};
pub use when::when;
