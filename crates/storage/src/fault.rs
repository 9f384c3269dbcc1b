//! Deterministic fault injection for the simulated disk.
//!
//! A [`FaultPlan`] turns the otherwise infallible [`SimulatedDisk`] into a
//! flaky device: physical reads may fail transiently, deliver a torn page
//! (detected by a per-page checksum mismatch), suffer a latency spike, or —
//! past a configured budget — fail permanently as if the disk died.
//!
//! Every decision is a **pure function** of `(seed, page id, attempt
//! counter)`: no wall clock, no OS entropy, no thread timing. Re-running a
//! workload with the same seed replays the exact same fault schedule, which
//! is what makes seed-only reproduction of testkit failures possible.
//!
//! [`SimulatedDisk`]: crate::SimulatedDisk

use crate::page::PageId;
use std::error::Error;
use std::fmt;

/// SplitMix64 finalizer — a high-quality 64-bit mixing function. Used to
/// derive independent pseudo-random rolls from (seed, page, attempt)
/// without any mutable RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a 64-bit hash to a uniform f64 in `[0, 1)` (53 mantissa bits).
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic, seed-driven schedule of disk faults.
///
/// Probabilities are evaluated independently per *physical read attempt*
/// of a page: buffer hits never fault (the data is already in memory).
/// Faults per page are capped by `max_faults_per_page`, so a retrying
/// caller with a sufficient budget always makes progress — except when
/// `kill_after` fires, after which the disk is permanently
/// [`DiskError::Unavailable`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the pure hash-based decision rolls.
    pub seed: u64,
    /// Probability a physical read attempt fails with a transient error.
    pub transient_prob: f64,
    /// Probability a physical read attempt delivers a torn page
    /// (checksum mismatch).
    pub corrupt_prob: f64,
    /// Probability a successful read is counted as a latency spike
    /// (accounting only — nothing sleeps).
    pub latency_prob: f64,
    /// Cap on injected faults per page: once a page has failed this many
    /// times, further attempts succeed. Guarantees liveness for retrying
    /// callers. `u32::MAX` disables the cap.
    pub max_faults_per_page: u32,
    /// After this many *successful* physical reads, the disk dies: every
    /// later read (hit or miss) fails with [`DiskError::Unavailable`].
    /// `None` = disk never dies.
    pub kill_after: Option<u64>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled; arm specific
    /// fault classes with struct-update syntax, e.g.
    /// `FaultPlan { transient_prob: 0.1, ..FaultPlan::new(seed) }`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_prob: 0.0,
            corrupt_prob: 0.0,
            latency_prob: 0.0,
            max_faults_per_page: 2,
            kill_after: None,
        }
    }

    fn roll(&self, page: PageId, attempt: u32, channel: u64) -> f64 {
        let key = self
            .seed
            .wrapping_mul(0x517c_c1b7_2722_0a95)
            .wrapping_add((page.0 as u64) << 20)
            .wrapping_add((attempt as u64) << 2)
            .wrapping_add(channel);
        unit_f64(splitmix64(key))
    }

    /// Decide the fate of one physical read attempt of `page`.
    /// `attempt` counts injected faults already suffered by this page.
    pub(crate) fn decide(&self, page: PageId, attempt: u32) -> FaultDecision {
        if attempt >= self.max_faults_per_page {
            return FaultDecision::Success {
                latency_spike: false,
            };
        }
        if self.roll(page, attempt, 0) < self.transient_prob {
            return FaultDecision::Transient;
        }
        if self.roll(page, attempt, 1) < self.corrupt_prob {
            return FaultDecision::Corrupt;
        }
        FaultDecision::Success {
            latency_spike: self.roll(page, attempt, 2) < self.latency_prob,
        }
    }

    /// Deterministic nonzero noise XORed into a torn page's checksum.
    pub(crate) fn corruption_noise(&self, page: PageId, attempt: u32) -> u64 {
        splitmix64(
            self.seed
                .wrapping_add(0x6a09_e667_f3bc_c909)
                .wrapping_add(page.0 as u64)
                .wrapping_add(attempt as u64)
                << 1,
        ) | 1
    }
}

/// Outcome of one physical read attempt under a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultDecision {
    Success { latency_spike: bool },
    Transient,
    Corrupt,
}

/// A typed disk read failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// The read attempt failed transiently; an immediate retry may succeed.
    TransientRead {
        /// The page whose read failed.
        page: PageId,
        /// How many injected faults this page had already suffered.
        attempt: u32,
    },
    /// The page was delivered torn: its checksum did not match.
    CorruptPage {
        /// The page whose transfer was torn.
        page: PageId,
        /// How many injected faults this page had already suffered.
        attempt: u32,
        /// The checksum stored for the page.
        expected: u64,
        /// The checksum of the (simulated) torn transfer.
        actual: u64,
    },
    /// The disk has died (`kill_after` exceeded); no retry can succeed.
    Unavailable {
        /// The page whose read was refused.
        page: PageId,
    },
}

impl DiskError {
    /// Whether retrying the same read can possibly succeed.
    pub fn is_transient(&self) -> bool {
        !matches!(self, DiskError::Unavailable { .. })
    }

    /// The page whose read failed.
    pub fn page(&self) -> PageId {
        match *self {
            DiskError::TransientRead { page, .. }
            | DiskError::CorruptPage { page, .. }
            | DiskError::Unavailable { page } => page,
        }
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::TransientRead { page, attempt } => {
                write!(
                    f,
                    "transient read error on page {} (attempt {})",
                    page.0, attempt
                )
            }
            DiskError::CorruptPage {
                page,
                attempt,
                expected,
                actual,
            } => write!(
                f,
                "torn page {}: checksum {:#018x} != expected {:#018x} (attempt {})",
                page.0, actual, expected, attempt
            ),
            DiskError::Unavailable { page } => {
                write!(f, "disk unavailable reading page {}", page.0)
            }
        }
    }
}

impl Error for DiskError {}

/// Counters for injected faults, kept separate from [`IoStats`] so that a
/// run whose reads all eventually succeed stays bit-identical to a
/// fault-free run in every I/O counter.
///
/// [`IoStats`]: crate::IoStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read errors injected.
    pub transient_errors: u64,
    /// Torn pages delivered (checksum mismatches).
    pub corrupt_reads: u64,
    /// Latency spikes on otherwise successful reads.
    pub latency_spikes: u64,
    /// Reads refused because the disk had died.
    pub unavailable_reads: u64,
}

impl FaultStats {
    /// Total injected failures (excludes latency spikes, which succeed).
    pub fn total_failures(&self) -> u64 {
        self.transient_errors + self.corrupt_reads + self.unavailable_reads
    }
}

/// Per-page checksum used to detect torn pages. Pure function of the page
/// contents' identifying data; the same hash on both "disk" and "wire"
/// sides, so only an injected corruption can make them disagree.
///
/// Public because the file-backed page store (`mq-store`) stamps the same
/// checksum into every on-disk frame and verifies it on read, so a torn
/// frame surfaces as the same [`DiskError::CorruptPage`] the simulated
/// fault path produces.
pub fn page_checksum(page: PageId, record_ids: impl Iterator<Item = u32>) -> u64 {
    let mut h = splitmix64(0x8000_0000_0000_0000 | page.0 as u64);
    let mut count: u64 = 0;
    for id in record_ids {
        h = splitmix64(h ^ ((id as u64) << 17));
        count += 1;
    }
    splitmix64(h ^ count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> PageId {
        PageId(n)
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan {
            transient_prob: 0.3,
            corrupt_prob: 0.2,
            ..FaultPlan::new(42)
        };
        for page in 0..50 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.decide(p(page), attempt),
                    plan.decide(p(page), attempt),
                    "decision for page {page} attempt {attempt} not stable"
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan {
            transient_prob: 0.5,
            ..FaultPlan::new(1)
        };
        let b = FaultPlan {
            transient_prob: 0.5,
            ..FaultPlan::new(2)
        };
        let fa: Vec<_> = (0..200).map(|i| a.decide(p(i), 0)).collect();
        let fb: Vec<_> = (0..200).map(|i| b.decide(p(i), 0)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn fault_cap_guarantees_eventual_success() {
        let plan = FaultPlan {
            transient_prob: 1.0,
            max_faults_per_page: 3,
            ..FaultPlan::new(7)
        };
        assert_eq!(plan.decide(p(5), 0), FaultDecision::Transient);
        assert_eq!(plan.decide(p(5), 2), FaultDecision::Transient);
        assert_eq!(
            plan.decide(p(5), 3),
            FaultDecision::Success {
                latency_spike: false
            }
        );
    }

    #[test]
    fn zero_probabilities_never_fault() {
        let plan = FaultPlan::new(99);
        for page in 0..500 {
            assert!(matches!(
                plan.decide(p(page), 0),
                FaultDecision::Success { .. }
            ));
        }
    }

    #[test]
    fn probabilities_hit_roughly_expected_rates() {
        let plan = FaultPlan {
            transient_prob: 0.25,
            ..FaultPlan::new(1234)
        };
        let faults = (0..4000)
            .filter(|&i| plan.decide(p(i), 0) == FaultDecision::Transient)
            .count();
        // 25% of 4000 = 1000; accept a generous band.
        assert!((700..1300).contains(&faults), "got {faults} faults");
    }

    #[test]
    fn corruption_noise_is_nonzero() {
        let plan = FaultPlan {
            corrupt_prob: 1.0,
            ..FaultPlan::new(3)
        };
        for page in 0..100 {
            assert_ne!(plan.corruption_noise(p(page), 0), 0);
        }
    }

    #[test]
    fn checksum_distinguishes_contents() {
        let a = page_checksum(p(1), [1u32, 2, 3].into_iter());
        let b = page_checksum(p(1), [1u32, 2, 4].into_iter());
        let c = page_checksum(p(2), [1u32, 2, 3].into_iter());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, page_checksum(p(1), [1u32, 2, 3].into_iter()));
    }

    #[test]
    fn display_formats() {
        let e = DiskError::TransientRead {
            page: p(3),
            attempt: 1,
        };
        assert!(e.to_string().contains("page 3"));
        assert!(e.is_transient());
        let u = DiskError::Unavailable { page: p(9) };
        assert!(!u.is_transient());
        assert_eq!(u.page(), p(9));
    }
}
