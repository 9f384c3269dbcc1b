//! mq-server: an online similarity-query service that turns concurrent
//! client traffic into multiple similarity queries.
//!
//! The paper batches m queries that arrive *together* (classification, data
//! mining, prefetching — §3). This crate supplies the missing online half:
//! a TCP server whose clients each send ordinary single queries, and whose
//! [`BatchScheduler`] merges whatever arrived within a short window into
//! one `multiple_similarity_query` batch. Concurrent traffic then enjoys
//! the paper's §5.1 page-read sharing and §5.2 distance-calculation
//! avoidance without any client-side coordination.
//!
//! Layers:
//!
//! - [`protocol`] — length-prefixed binary frames (requests, answers,
//!   service counters) in the same `bytes` codec style as
//!   `mq_storage::persist`.
//! - [`scheduler`] — the batching scheduler: one queue, one worker,
//!   flush on `max_batch` or `max_wait`, backends for a single engine
//!   (§5.1–5.2) or a shared-nothing cluster (§5.3).
//! - [`registry`] — named collections, each owning its own scheduler,
//!   metric, index and (optionally durable) store.
//! - [`admission`] — bounded queue depth and per-tenant token buckets
//!   between decode and scheduling; overload becomes a typed reply.
//! - [`dispatch`] — the request logic behind the TCP frontend: collection
//!   resolution, validation, admission and the admin opcodes.
//! - [`client`] — a small blocking client library.
//! - [`config`] — the tuning knobs.
//!
//! The TCP frontend itself is `mq_front::FrontServer`, a readiness-polled
//! event loop over this crate's [`Dispatcher`] and schedulers.

pub mod admission;
pub mod client;
pub mod config;
pub mod dispatch;
pub mod protocol;
pub mod registry;
pub mod scheduler;

pub use admission::AdmissionController;
pub use client::{Client, ClientError, RemoteAnswers, RetryConfig, RetryingClient};
pub use config::{ExecutionMode, FileIndex, QuotaConfig, ServerConfig, StoreChoice};
pub use dispatch::{AdmittedQuery, Dispatcher};
pub use protocol::{
    refusal, CollectionInfo, Message, ProtocolError, ServiceMetrics, DEFAULT_COLLECTION,
};
pub use registry::{Collection, CollectionRegistry};
pub use scheduler::{
    build_backend, build_backend_with_recorder, BatchScheduler, ClusterBackend, QueryBackend,
    QueryReply, SingleEngineBackend,
};
