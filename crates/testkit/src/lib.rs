#![warn(missing_docs)]
//! # mq-testkit — deterministic fault injection and oracle equivalence
//!
//! The repository's failure-simulation harness. Every component of a run
//! is a pure function of one `u64` seed:
//!
//! * the **workload** — web-session objects ([`mq_datagen::sessions`])
//!   under edit distance, a mixed k-NN/range query batch;
//! * the **fault plan** — a [`mq_storage::FaultPlan`] whose per-read
//!   decisions (transient errors, torn pages, latency spikes, device
//!   death) hash the seed, the page id and a per-page attempt counter;
//! * the **retry schedule** — the engine's [`mq_core::FaultPolicy`] and,
//!   at the network layer, `mq_server::RetryingClient`'s seeded jitter.
//!
//! So a failing test is reproducible from its printed seed alone: rerun
//! with the same seed and every fault fires at the same read.
//!
//! The central invariant ([`Sim::assert_oracle_equivalence`]): whenever a
//! faulty run reports success, its answers **and** its avoidance counters
//! are bit-identical to a fault-free oracle run — across engine threads
//! {1, 2, 4} × prefetch depths {0, 2} × both leader policies. Failed read
//! attempts only ever touch [`mq_storage::FaultStats`]; they never leak
//! into I/O counters, the buffer, or the answers.
//!
//! The durable backend extends the invariant
//! ([`Sim::assert_backend_equivalence`]): a `mq_store::FilePageStore`
//! over the same workload must produce **fully** bit-identical reports —
//! including every I/O and fault counter — for every matrix
//! configuration, and recover from torn WAL tails and
//! kill-after-N-appends crashes to exactly the state a clean twin
//! reaches.
//!
//! Layers:
//!
//! * [`scenario`] — canonical fault-plan presets (disk, latency-only,
//!   device-loss);
//! * [`sim`] — [`Sim`]: workload + plan + oracle comparison over the
//!   engine-configuration matrix;
//! * [`proxy`] — [`FlakyProxy`]: a TCP forwarder injecting reply-path
//!   faults ([`ConnFault`]: byte-budgeted mid-frame cuts, one-time
//!   latency spikes), for exercising the retrying network client and the
//!   `mq-loadgen` latency harness under adversity.

pub mod proxy;
pub mod scenario;
pub mod sim;

pub use proxy::{ConnFault, FlakyProxy};
pub use sim::{config_matrix, LengthBudgetPrescreen, Sim, SimReport};
