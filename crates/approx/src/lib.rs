#![warn(missing_docs)]
//! # mq-approx — the approximate candidate tier
//!
//! An optional lossy tier in front of the exact multiple-query engine:
//! a cheap index nominates a *candidate set* per query, the engine
//! restricts each session to the union of those sets, and the surviving
//! candidates are re-ranked **exactly** through the shared-page,
//! triangle-avoiding machinery of `mq_core::multiple`. Answers may lose
//! recall (a true answer the prescreen missed stays missed), but every
//! reported distance is exact, and a tier whose budget covers the whole
//! collection is bit-identical to the exact engine — the property the
//! equivalence tests pin.
//!
//! The tier is [`BinarySketch`] / [`BqPrescreen`]: per-dimension
//! multi-plane quantile thresholds ([`BinaryQuantizer`]) pack each vector
//! into a few `u64` words; a query is answered by a linear Hamming scan
//! over all codes (runtime-dispatched popcount kernel) keeping the
//! `budget` closest ids. Durable: the sidecar (`sketch.mqbq`) persists
//! next to a partition's page files and is checksum-verified on load.
//!
//! [`ApproxTier`] carries the CLI/wire syntax (`bq:<budget>`).

pub mod quantizer;
pub mod sketch;
pub mod tier;

pub use quantizer::BinaryQuantizer;
pub use sketch::{BinarySketch, BqPrescreen};
pub use tier::{build_prescreen, ApproxTier};

/// Conventional file name of the binary-sketch sidecar inside a
/// partition's store directory.
pub const SKETCH_FILE: &str = "sketch.mqbq";

/// Default bitplane count for sketches built by the server/CLI layers:
/// 4 planes × dim bits ranks 32-d feature files usefully while keeping
/// codes at a couple of `u64` words.
pub const DEFAULT_PLANES: usize = 4;
