//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` options.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
}

/// A user-facing argument error.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an argument list (excluding the program name).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("missing value for --{key}")))?;
                if out.options.insert(key.to_string(), value).is_some() {
                    return Err(ArgError(format!("--{key} given twice")));
                }
            } else if out.command.is_empty() {
                out.command = arg;
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// An optional string option with a default.
    pub fn string_or(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// An optional parsed option with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("cannot parse --{key} value '{v}'"))),
        }
    }

    /// [`parse_or`](Self::parse_or) for sizes and rates that must be
    /// positive: zero, a negative value or NaN is an error, not a panic
    /// further down.
    pub fn positive_or<T>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T: std::str::FromStr + PartialOrd + Default,
    {
        let v = self.parse_or(key, default)?;
        if v > T::default() {
            Ok(v)
        } else {
            Err(ArgError(format!(
                "--{key} must be positive, got '{}'",
                self.string_or(key, "")
            )))
        }
    }

    /// Whether an option was provided at all.
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Args, ArgError> {
        Args::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn basic_parsing() {
        let a = parse(&["query", "db.mqdb", "--knn", "10", "--index", "xtree"]).unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.positional, vec!["db.mqdb"]);
        assert_eq!(a.required("knn").unwrap(), "10");
        assert_eq!(a.parse_or("knn", 0usize).unwrap(), 10);
        assert_eq!(a.string_or("index", "scan"), "xtree");
        assert_eq!(a.string_or("missing", "fallback"), "fallback");
        assert!(a.has("index"));
        assert!(!a.has("nope"));
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["generate", "--n"]).is_err());
    }

    #[test]
    fn duplicate_option_rejected() {
        assert!(parse(&["g", "--n", "1", "--n", "2"]).is_err());
    }

    #[test]
    fn bad_parse_reported() {
        let a = parse(&["g", "--n", "abc"]).unwrap();
        assert!(a.parse_or("n", 0usize).is_err());
    }

    #[test]
    fn positive_or_rejects_zero() {
        let a = parse(&["g", "--m", "0", "--rate", "0.5", "--sessions", "-1"]).unwrap();
        assert!(a.positive_or("m", 1usize).is_err());
        assert_eq!(a.positive_or("rate", 1.0).unwrap(), 0.5);
        assert!(a.positive_or("sessions", 1i64).is_err());
        assert_eq!(a.positive_or("missing", 4usize).unwrap(), 4);
    }

    #[test]
    fn empty_command_line() {
        let a = parse(&[]).unwrap();
        assert!(a.command.is_empty());
    }
}
