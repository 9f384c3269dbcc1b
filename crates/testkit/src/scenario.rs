//! Canonical fault-plan presets.
//!
//! Each preset derives every probability roll from the given seed, so a
//! scenario is fully described by `(preset name, seed)` — which is exactly
//! what a failing test prints.

use mq_storage::FaultPlan;

/// A lossy disk: transient read errors, torn (checksum-mismatching) pages
/// and latency spikes, each page limited to 2 injected faults so a
/// bounded retry budget always gets through. The workhorse preset for
/// oracle-equivalence runs.
pub fn disk_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        transient_prob: 0.08,
        corrupt_prob: 0.04,
        latency_prob: 0.05,
        max_faults_per_page: 2,
        ..FaultPlan::new(seed)
    }
}

/// Latency spikes only: reads always succeed, some just count as slow.
/// Answers and every I/O counter must match the oracle exactly even with
/// a zero retry budget.
pub fn latency_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        latency_prob: 0.3,
        ..FaultPlan::new(seed)
    }
}

/// Device loss: the disk dies permanently after `after` successful
/// physical reads, and every later read — buffer hits included — fails
/// with [`mq_storage::DiskError::Unavailable`]. No retry budget recovers
/// from this; it must surface as a typed error or an explicitly degraded
/// result.
pub fn loss_plan(seed: u64, after: u64) -> FaultPlan {
    FaultPlan {
        kill_after: Some(after),
        ..FaultPlan::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_deterministic_in_the_seed() {
        assert_eq!(disk_plan(7), disk_plan(7));
        assert_eq!(latency_plan(7), latency_plan(7));
        assert_eq!(loss_plan(7, 3), loss_plan(7, 3));
        assert_ne!(disk_plan(7), disk_plan(8));
    }
}
