//! # hrdm-core — the Historical Relational Data Model and its algebra
//!
//! A faithful implementation of Clifford & Croker, *The Historical Relational
//! Data Model (HRDM) and Algebra Based on Lifespans* (ICDE 1987).
//!
//! HRDM extends the relational model along a third, temporal dimension:
//!
//! * attribute values are **partial functions from time into value domains**
//!   ([`TemporalValue`]), not atoms;
//! * both tuples and scheme attributes carry **lifespans** — the times the
//!   database models them — and a value exists only on their intersection
//!   `vls(t, A, R) = t.l ∩ ALS(A, R)`;
//! * key attributes are constant-valued, so objects keep their identity
//!   across change, "death", and "reincarnation";
//! * a full algebra ([`algebra`]) extends SELECT/PROJECT/JOIN and the set
//!   operators, and adds TIME-SLICE (temporal reduction), WHEN (into the
//!   lifespan sort), object-based set operators, and TIME-JOIN.
//!
//! ```
//! use hrdm_core::prelude::*;
//!
//! // emp(NAME*, SALARY) over the company's recorded era [0, 100].
//! let era = Lifespan::interval(0, 100);
//! let scheme = Scheme::builder()
//!     .key_attr("NAME", ValueKind::Str, era.clone())
//!     .attr("SALARY", HistoricalDomain::int(), era.clone())
//!     .build()
//!     .unwrap();
//!
//! // John: hired at 0, fired at 9, re-hired at 20 (a lifespan with a gap).
//! let life = Lifespan::of(&[(0, 9), (20, 30)]);
//! let john = Tuple::builder(life.clone())
//!     .constant("NAME", "John")
//!     .value("SALARY", TemporalValue::of(&[
//!         (0, 9, Value::Int(25_000)),
//!         (20, 30, Value::Int(30_000)),
//!     ]))
//!     .finish(&scheme)
//!     .unwrap();
//! let emp = Relation::with_tuples(scheme, vec![john]).unwrap();
//!
//! // "When did John earn 30K?" — σ-WHEN then Ω (paper §4.3/§4.5).
//! let q = Predicate::eq_value("NAME", "John")
//!     .and(Predicate::eq_value("SALARY", 30_000i64));
//! let answer = when(&select_when(&emp, &q).unwrap());
//! assert_eq!(answer, Lifespan::interval(20, 30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
mod attribute;
pub mod consistency;
pub mod constraints;
mod domain;
mod errors;
mod layout;
mod pvec;
mod relation;
mod scheme;
mod temporal;
mod tuple;
mod value;

pub use algebra::predicate;
pub use attribute::Attribute;
pub use domain::{HistoricalDomain, ValueKind};
pub use errors::{HrdmError, Result};
pub use layout::Layout;
pub use pvec::PVec;
pub use relation::Relation;
pub use scheme::{AttributeDef, Scheme, SchemeBuilder};
pub use temporal::TemporalValue;
pub use tuple::{Concat, Projection, Tuple, TupleBuilder};
pub use value::{OrderedF64, Value};

/// One-stop imports for examples and downstream code.
pub mod prelude {
    pub use crate::algebra::{
        aggregate_over_time, cartesian_product, difference, difference_o, equijoin, intersection,
        intersection_o, natural_join, null_volume, project, select_if, select_when, theta_join,
        theta_join_union, time_join, timeslice, timeslice_dynamic, union, union_o, when,
        AggregateOp, Comparator, Operand, Predicate, Quantifier,
    };
    pub use crate::constraints::{
        check_key, check_referential, holds_always, holds_pointwise, never_decreases,
        never_increases, TemporalForeignKey,
    };
    pub use crate::{
        Attribute, HistoricalDomain, HrdmError, Relation, Scheme, TemporalValue, Tuple, Value,
        ValueKind,
    };
    pub use hrdm_time::{Chronon, Interval, Lifespan};
}
