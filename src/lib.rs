//! # HRDM — The Historical Relational Data Model and Algebra Based on Lifespans
//!
//! A comprehensive Rust implementation of Clifford & Croker's HRDM
//! (ICDE 1987): a temporal extension of the relational model in which
//! attribute values are functions from time into value domains, tuples and
//! scheme attributes carry orthogonal *lifespans*, and a full historical
//! relational algebra (SELECT-IF/SELECT-WHEN, TIME-SLICE, WHEN, the JOIN
//! family, object-based set operators) operates over them.
//!
//! This crate is a facade over the workspace:
//!
//! | Crate | Level (paper Fig. 9) | Contents |
//! |---|---|---|
//! | [`time`] (`hrdm-time`) | substrate | chronons, intervals, Allen relations, lifespans, granularities |
//! | [`core`] (`hrdm-core`) | model level | values, domains, temporal functions, schemes, tuples, relations, the algebra, temporal constraints |
//! | [`interp`] (`hrdm-interp`) | representation level | interpolation functions, sparse representations, change-point compression |
//! | [`storage`] (`hrdm-storage`) | physical level | binary codec, slotted pages, heap files, evolving-schema catalog, database persistence |
//! | [`index`] (`hrdm-index`) | physical level | access methods: block-zone lifespan index, constant-key index |
//! | [`query`] (`hrdm-query`) | — | a textual algebra language, evaluator, rewrite-rule optimizer, and index-aware access-path planner |
//! | [`net`] (`hrdm-net`) | — | the wire protocol, the `hrdmd` TCP server, the sync `Client`, and the `hrdmq` shell |
//! | [`baseline`] (`hrdm-baseline`) | comparators | classical snapshot model, tuple-timestamped model, cube model |
//!
//! Start with [`prelude`], the `examples/` directory, and `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hrdm_baseline as baseline;
pub use hrdm_core as core;
pub use hrdm_index as index;
pub use hrdm_interp as interp;
pub use hrdm_net as net;
pub use hrdm_query as query;
pub use hrdm_storage as storage;
pub use hrdm_time as time;

/// Everything needed by typical HRDM programs.
pub mod prelude {
    pub use hrdm_core::prelude::*;
    pub use hrdm_interp::{change_points, from_change_points, Interpolation, Represented};
    pub use hrdm_time::{AllenRelation, Granularity, Granule};
}
