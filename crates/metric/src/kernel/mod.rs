//! Runtime-dispatched distance kernels: blocked scalar, SSE2, AVX2 and NEON
//! tiers behind one set of entry points.
//!
//! Every tier computes the *same* IEEE-754 operation sequence — widen each
//! `f32` lane to `f64`, subtract/multiply/add per lane, reduce through the
//! fixed `combine` tree, then add an identically-ordered scalar tail — so
//! the results are **bit-identical** across tiers. That keeps the
//! equivalence suites meaningful: a test run with `MQ_SIMD=off` pins the
//! exact bits a production AVX2 run must reproduce. The SIMD paths use
//! explicit multiply-then-add (never FMA): the scalar kernels round after
//! the multiply, and a fused operation would change the bits.
//!
//! The tier is chosen once, on first use, from runtime CPU feature
//! detection, and can be overridden with the `MQ_SIMD` environment
//! variable (`off|sse2|avx2|neon|auto`) or [`force`]. Requesting a tier
//! the CPU cannot run falls back to the best detected tier; the scalar
//! tier is always available. Per-call dispatch costs one relaxed atomic
//! load; batch loops should hoist [`active`] and call the `*_at` variants.

pub(crate) mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::atomic::{AtomicU8, Ordering};

/// Number of independent accumulator lanes in every kernel tier. Four f64
/// lanes match a 256-bit vector register and break the loop-carried
/// addition dependency so even the scalar tier auto-vectorizes well.
pub const LANES: usize = 4;

/// Relative slack applied to the squared bound before the early-exit
/// comparison in the L2 kernels. A partial sum can only exceed
/// `bound² · SLACK` if the true distance exceeds `bound` by well over the
/// combined rounding error of the squaring and the square root, so the
/// early verdict always agrees with the full computation.
pub const EARLY_EXIT_SLACK: f64 = 1.0 + 1e-9;

/// Fixed reduction tree over the lane accumulators. Every tier — scalar,
/// SSE2, AVX2, NEON, full, batched, and early-exit — reduces through this
/// same tree so results stay bit-identical no matter which code path
/// computed them.
#[inline]
pub(crate) fn combine(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// A kernel dispatch tier. Ordered by preference: higher discriminants
/// are wider (faster) paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Blocked scalar kernels — always available, the bit-identity
    /// reference for every other tier.
    Scalar = 0,
    /// 128-bit SSE2 kernels (two f64 lanes twice per block). Part of the
    /// x86-64 baseline, so always available on that architecture.
    Sse2 = 1,
    /// 256-bit AVX2 kernels (four f64 lanes per block).
    Avx2 = 2,
    /// 128-bit NEON kernels (two f64 lanes twice per block); the aarch64
    /// baseline.
    Neon = 3,
}

impl SimdLevel {
    /// The tier's name as used by `MQ_SIMD` and recorded in benchmarks.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }

    /// Parses an `MQ_SIMD` value. `Ok(None)` means `auto` (detect);
    /// `Err` carries the unrecognized token.
    pub fn parse(s: &str) -> Result<Option<SimdLevel>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "" => Ok(None),
            "off" | "scalar" | "none" => Ok(Some(SimdLevel::Scalar)),
            "sse2" => Ok(Some(SimdLevel::Sse2)),
            "avx2" => Ok(Some(SimdLevel::Avx2)),
            "neon" => Ok(Some(SimdLevel::Neon)),
            other => Err(other.to_string()),
        }
    }

    /// Whether this tier can run on the current CPU.
    pub fn supported(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => true, // x86-64 baseline
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdLevel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => SimdLevel::Sse2,
            2 => SimdLevel::Avx2,
            3 => SimdLevel::Neon,
            _ => SimdLevel::Scalar,
        }
    }
}

/// The widest tier the current CPU supports.
pub fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        return SimdLevel::Sse2;
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return SimdLevel::Neon;
        }
    }
    #[allow(unreachable_code)]
    SimdLevel::Scalar
}

/// Uninitialized sentinel for [`ACTIVE`]; never a valid `SimdLevel`.
const UNINIT: u8 = u8::MAX;

/// The process-wide selected tier; initialized lazily on first dispatch.
static ACTIVE: AtomicU8 = AtomicU8::new(UNINIT);

/// The tier the process dispatches to. On first call this is resolved
/// from `MQ_SIMD` (unset or `auto` → [`detected`]); afterwards it is a
/// single relaxed load. An unsupported or unrecognized request falls back
/// to [`detected`] with a note on stderr.
pub fn active() -> SimdLevel {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != UNINIT {
        return SimdLevel::from_u8(v);
    }
    let level = match std::env::var("MQ_SIMD") {
        Err(_) => detected(),
        Ok(raw) => match SimdLevel::parse(&raw) {
            Ok(None) => detected(),
            Ok(Some(level)) if level.supported() => level,
            Ok(Some(level)) => {
                eprintln!(
                    "MQ_SIMD={}: tier not supported on this CPU, using {}",
                    level.name(),
                    detected().name()
                );
                detected()
            }
            Err(token) => {
                eprintln!(
                    "MQ_SIMD={token}: unrecognized (want off|sse2|avx2|neon|auto), using {}",
                    detected().name()
                );
                detected()
            }
        },
    };
    ACTIVE.store(level as u8, Ordering::Relaxed);
    level
}

/// Forces the dispatch tier (e.g. from a `--simd` CLI flag), clamping an
/// unsupported request to [`detected`]. Returns the tier actually set.
pub fn force(level: SimdLevel) -> SimdLevel {
    let level = if level.supported() { level } else { detected() };
    ACTIVE.store(level as u8, Ordering::Relaxed);
    level
}

/// A human-readable summary of the CPU's relevant vector features, for
/// benchmark provenance (`BENCH_core.json`) and diagnostics.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = vec!["sse2"];
        if std::arch::is_x86_feature_detected!("sse4.2") {
            feats.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        format!("x86_64: {}", feats.join(" "))
    }
    #[cfg(target_arch = "aarch64")]
    {
        let mut feats = Vec::new();
        if std::arch::is_aarch64_feature_detected!("neon") {
            feats.push("neon");
        }
        format!("aarch64: {}", feats.join(" "))
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        format!("{}: scalar only", std::env::consts::ARCH)
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points. The `*_at` variants take an explicit tier so
// batch loops can hoist the dispatch decision and tests can compare tiers
// without mutating process state; a tier the CPU cannot run silently
// degrades to the scalar kernel (which computes the same bits anyway).
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($level:expr, $scalar:expr, $sse2:expr, $avx2:expr, $neon:expr) => {{
        match $level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 presence is verified at runtime; SSE2 is part
            // of the x86-64 baseline this crate is compiled for.
            SimdLevel::Avx2 if std::arch::is_x86_feature_detected!("avx2") => unsafe { $avx2 },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 | SimdLevel::Avx2 => unsafe { $sse2 },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON presence is verified at runtime.
            SimdLevel::Neon if std::arch::is_aarch64_feature_detected!("neon") => unsafe { $neon },
            _ => $scalar,
        }
    }};
}

/// Sum of squared differences at the process-wide tier.
#[inline]
pub fn l2_sq(xs: &[f32], ys: &[f32]) -> f64 {
    l2_sq_at(active(), xs, ys)
}

/// Sum of squared differences at an explicit tier.
#[inline]
pub fn l2_sq_at(level: SimdLevel, xs: &[f32], ys: &[f32]) -> f64 {
    dispatch!(
        level,
        scalar::l2_sq(xs, ys),
        x86::l2_sq_sse2(xs, ys),
        x86::l2_sq_avx2(xs, ys),
        neon::l2_sq_neon(xs, ys)
    )
}

/// Early-exit sum of squared differences at the process-wide tier:
/// `None` as soon as a partial sum exceeds `limit`.
#[inline]
pub fn l2_sq_le(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    l2_sq_le_at(active(), xs, ys, limit)
}

/// Early-exit sum of squared differences at an explicit tier.
#[inline]
pub fn l2_sq_le_at(level: SimdLevel, xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    dispatch!(
        level,
        scalar::l2_sq_le(xs, ys, limit),
        x86::l2_sq_le_sse2(xs, ys, limit),
        x86::l2_sq_le_avx2(xs, ys, limit),
        neon::l2_sq_le_neon(xs, ys, limit)
    )
}

/// Weighted sum of squared differences at the process-wide tier.
#[inline]
pub fn weighted_l2_sq(xs: &[f32], ys: &[f32], ws: &[f64]) -> f64 {
    weighted_l2_sq_at(active(), xs, ys, ws)
}

/// Weighted sum of squared differences at an explicit tier.
#[inline]
pub fn weighted_l2_sq_at(level: SimdLevel, xs: &[f32], ys: &[f32], ws: &[f64]) -> f64 {
    dispatch!(
        level,
        scalar::weighted_l2_sq(xs, ys, ws),
        x86::weighted_l2_sq_sse2(xs, ys, ws),
        x86::weighted_l2_sq_avx2(xs, ys, ws),
        neon::weighted_l2_sq_neon(xs, ys, ws)
    )
}

/// Sum of absolute differences at the process-wide tier.
#[inline]
pub fn l1(xs: &[f32], ys: &[f32]) -> f64 {
    l1_at(active(), xs, ys)
}

/// Sum of absolute differences at an explicit tier.
#[inline]
pub fn l1_at(level: SimdLevel, xs: &[f32], ys: &[f32]) -> f64 {
    dispatch!(
        level,
        scalar::l1(xs, ys),
        x86::l1_sse2(xs, ys),
        x86::l1_avx2(xs, ys),
        neon::l1_neon(xs, ys)
    )
}

/// Early-exit sum of absolute differences at the process-wide tier.
#[inline]
pub fn l1_le(xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    l1_le_at(active(), xs, ys, limit)
}

/// Early-exit sum of absolute differences at an explicit tier.
#[inline]
pub fn l1_le_at(level: SimdLevel, xs: &[f32], ys: &[f32], limit: f64) -> Option<f64> {
    dispatch!(
        level,
        scalar::l1_le(xs, ys, limit),
        x86::l1_le_sse2(xs, ys, limit),
        x86::l1_le_avx2(xs, ys, limit),
        neon::l1_le_neon(xs, ys, limit)
    )
}

/// Inner product at the process-wide tier (for cosine / dot-product
/// metrics; each f32 pair is widened to f64 before multiplying).
#[inline]
pub fn dot(xs: &[f32], ys: &[f32]) -> f64 {
    dot_at(active(), xs, ys)
}

/// Inner product at an explicit tier.
#[inline]
pub fn dot_at(level: SimdLevel, xs: &[f32], ys: &[f32]) -> f64 {
    dispatch!(
        level,
        scalar::dot(xs, ys),
        x86::dot_sse2(xs, ys),
        x86::dot_avx2(xs, ys),
        neon::dot_neon(xs, ys)
    )
}

/// Hamming distance between two packed bit codes (`u64` words, compared
/// up to the shorter length) at the process-wide tier. This is the
/// approximate tier's pre-screen hot loop: one XOR + popcount per word.
#[inline]
pub fn hamming(xs: &[u64], ys: &[u64]) -> u32 {
    hamming_at(active(), xs, ys)
}

/// Hamming distance at an explicit tier. Pure integer arithmetic, so all
/// tiers return the exact same count — dispatch exists because the AVX2
/// (nibble-lookup) and NEON (`vcnt`) tiers count several words per
/// instruction.
#[inline]
pub fn hamming_at(level: SimdLevel, xs: &[u64], ys: &[u64]) -> u32 {
    let n = xs.len().min(ys.len());
    let (xs, ys) = (&xs[..n], &ys[..n]);
    dispatch!(
        level,
        scalar::hamming(xs, ys),
        x86::hamming_sse2(xs, ys),
        x86::hamming_avx2(xs, ys),
        neon::hamming_neon(xs, ys)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(dim: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..dim)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 20) as f32 - 8.0
            })
            .collect()
    }

    fn available_levels() -> Vec<SimdLevel> {
        [
            SimdLevel::Scalar,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
            SimdLevel::Neon,
        ]
        .into_iter()
        .filter(|l| l.supported())
        .collect()
    }

    #[test]
    fn parse_accepts_documented_tokens() {
        assert_eq!(SimdLevel::parse("auto"), Ok(None));
        assert_eq!(SimdLevel::parse("off"), Ok(Some(SimdLevel::Scalar)));
        assert_eq!(SimdLevel::parse("SSE2"), Ok(Some(SimdLevel::Sse2)));
        assert_eq!(SimdLevel::parse("avx2"), Ok(Some(SimdLevel::Avx2)));
        assert_eq!(SimdLevel::parse("neon"), Ok(Some(SimdLevel::Neon)));
        assert!(SimdLevel::parse("avx512").is_err());
    }

    #[test]
    fn detected_tier_is_supported() {
        assert!(detected().supported());
        assert!(SimdLevel::Scalar.supported());
    }

    #[test]
    fn all_tiers_bit_identical_to_scalar() {
        for dim in [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 20, 31, 63, 64, 65, 96] {
            let xs = pseudo(dim, 3);
            let ys = pseudo(dim, 71);
            let ws: Vec<f64> = (0..dim).map(|i| 0.25 + (i % 5) as f64).collect();
            let l2_ref = l2_sq_at(SimdLevel::Scalar, &xs, &ys);
            let l1_ref = l1_at(SimdLevel::Scalar, &xs, &ys);
            let w_ref = weighted_l2_sq_at(SimdLevel::Scalar, &xs, &ys, &ws);
            let dot_ref = dot_at(SimdLevel::Scalar, &xs, &ys);
            for level in available_levels() {
                assert_eq!(
                    l2_sq_at(level, &xs, &ys).to_bits(),
                    l2_ref.to_bits(),
                    "l2_sq {level:?} dim={dim}"
                );
                assert_eq!(
                    l1_at(level, &xs, &ys).to_bits(),
                    l1_ref.to_bits(),
                    "l1 {level:?} dim={dim}"
                );
                assert_eq!(
                    weighted_l2_sq_at(level, &xs, &ys, &ws).to_bits(),
                    w_ref.to_bits(),
                    "weighted {level:?} dim={dim}"
                );
                assert_eq!(
                    dot_at(level, &xs, &ys).to_bits(),
                    dot_ref.to_bits(),
                    "dot {level:?} dim={dim}"
                );
                // Early-exit kernels: same verdict and same bits for a
                // spread of limits around the true sum.
                for limit in [f64::INFINITY, l2_ref, l2_ref * 0.5, 0.0] {
                    assert_eq!(
                        l2_sq_le_at(level, &xs, &ys, limit).map(f64::to_bits),
                        l2_sq_le_at(SimdLevel::Scalar, &xs, &ys, limit).map(f64::to_bits),
                        "l2_sq_le {level:?} dim={dim} limit={limit}"
                    );
                }
                for limit in [f64::INFINITY, l1_ref, l1_ref * 0.5, 0.0] {
                    assert_eq!(
                        l1_le_at(level, &xs, &ys, limit).map(f64::to_bits),
                        l1_le_at(SimdLevel::Scalar, &xs, &ys, limit).map(f64::to_bits),
                        "l1_le {level:?} dim={dim} limit={limit}"
                    );
                }
            }
        }
    }

    fn pseudo_words(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    #[test]
    fn hamming_identical_across_tiers_and_word_counts() {
        // Word counts around every block boundary: AVX2 blocks are 4
        // words, NEON blocks 2, and the tail loop takes the rest.
        for words in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 33] {
            let xs = pseudo_words(words, 11);
            let ys = pseudo_words(words, 97);
            let reference: u32 = xs.iter().zip(&ys).map(|(x, y)| (x ^ y).count_ones()).sum();
            for level in available_levels() {
                assert_eq!(
                    hamming_at(level, &xs, &ys),
                    reference,
                    "hamming {level:?} words={words}"
                );
            }
            // Self-distance is zero, full complement is every bit.
            let flipped: Vec<u64> = xs.iter().map(|x| !x).collect();
            for level in available_levels() {
                assert_eq!(hamming_at(level, &xs, &xs), 0, "{level:?}");
                assert_eq!(
                    hamming_at(level, &xs, &flipped),
                    64 * words as u32,
                    "{level:?}"
                );
            }
        }
    }

    #[test]
    fn hamming_compares_up_to_the_shorter_code() {
        let xs = pseudo_words(6, 5);
        let ys = pseudo_words(4, 31);
        let expect = hamming_at(SimdLevel::Scalar, &xs[..4], &ys);
        for level in available_levels() {
            assert_eq!(hamming_at(level, &xs, &ys), expect, "{level:?}");
        }
    }
}
