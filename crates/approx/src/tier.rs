//! Tier selection and its wire/CLI syntax: `bq:<budget>`.

use std::fmt;
use std::str::FromStr;

/// Which approximate candidate tier to run in front of the exact
/// multi-query re-rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApproxTier {
    /// Binary-quantized Hamming pre-screen with a per-query candidate
    /// budget.
    Bq {
        /// Candidates kept per query (the Hamming-closest ids).
        budget: usize,
    },
}

impl ApproxTier {
    /// Per-query candidate volume (the budget).
    pub fn budget(&self) -> usize {
        match *self {
            ApproxTier::Bq { budget } => budget,
        }
    }
}

impl fmt::Display for ApproxTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApproxTier::Bq { budget } => write!(f, "bq:{budget}"),
        }
    }
}

impl FromStr for ApproxTier {
    type Err = String;

    /// Parses `bq:<budget>`; the budget must be positive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, num) = s
            .split_once(':')
            .ok_or_else(|| format!("expected bq:<budget>, got '{s}'"))?;
        if kind != "bq" {
            return Err(format!("unknown approx tier '{kind}' (use bq)"));
        }
        let n: usize = num
            .parse()
            .map_err(|_| format!("'{num}' is not a number in approx tier '{s}'"))?;
        if n == 0 {
            return Err(format!("approx tier '{s}' needs a positive budget"));
        }
        Ok(ApproxTier::Bq { budget: n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_displays_round_trip() {
        let t: ApproxTier = "bq:500".parse().unwrap();
        assert_eq!(t.to_string(), "bq:500");
        assert_eq!(t, ApproxTier::Bq { budget: 500 });
        assert_eq!(t.budget(), 500);
    }

    #[test]
    fn rejects_malformed() {
        for s in ["bq", "bq:", "bq:x", "bq:0", "lsh:5", "hnsw:64", "hnsw:-3"] {
            assert!(s.parse::<ApproxTier>().is_err(), "'{s}' should not parse");
        }
    }
}
