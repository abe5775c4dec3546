//! Minimal command-line parsing shared by the experiment binaries.
//!
//! The binaries accept `--key value` pairs; unknown keys and unparseable
//! values are rejected with a message and exit status 2.  This avoids an external argument-parsing dependency while
//! keeping every experiment overridable (dataset, scale, k, β, N, L, …).

use std::collections::BTreeMap;

/// Parsed `--key value` arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses the process arguments, allowing only the listed keys.
    ///
    /// Returns an error message (usage text) on unknown keys or malformed
    /// input; binaries print it and exit with a non-zero status.
    pub fn parse(allowed: &[&str]) -> Result<Args, String> {
        Self::from_iter(std::env::args().skip(1), allowed)
    }

    /// Parses an explicit argument list (used by tests).
    pub fn from_iter(
        args: impl IntoIterator<Item = String>,
        allowed: &[&str],
    ) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(usage(allowed, &format!("unexpected argument `{arg}`")));
            };
            if key == "help" {
                return Err(usage(allowed, "help requested"));
            }
            if !allowed.contains(&key) {
                return Err(usage(allowed, &format!("unknown option `--{key}`")));
            }
            let Some(value) = iter.next() else {
                return Err(usage(allowed, &format!("missing value for `--{key}`")));
            };
            values.insert(key.to_string(), value);
        }
        Ok(Args { values })
    }

    /// Raw string value of a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Typed value with a default; a value that does not parse is an
    /// error naming the flag and the value.
    pub fn try_get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| invalid_value(key, raw)),
        }
    }

    /// Typed value with a default.  A value that does not parse prints
    /// the flag and value and exits with status 2, like an unknown flag.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get_or(key, default).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }

    /// `true` if the key was provided.
    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// The error for a value of `--key` that does not parse or names nothing
/// known.
pub(crate) fn invalid_value(key: &str, raw: &str) -> String {
    format!("invalid value `{raw}` for `--{key}`")
}

fn usage(allowed: &[&str], reason: &str) -> String {
    let opts = allowed
        .iter()
        .map(|k| format!("--{k} <value>"))
        .collect::<Vec<_>>()
        .join(" ");
    format!("{reason}\nusage: [{opts}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str], allowed: &[&str]) -> Result<Args, String> {
        Args::from_iter(list.iter().map(|s| s.to_string()), allowed)
    }

    #[test]
    fn parses_known_keys() {
        let a = args(&["--k", "25", "--dataset", "reddit"], &["k", "dataset"]).unwrap();
        assert_eq!(a.get("dataset"), Some("reddit"));
        assert_eq!(a.get_or("k", 5usize), 25);
        assert_eq!(a.get_or("missing", 7usize), 7);
        assert!(a.has("k"));
        assert!(!a.has("beta"));
    }

    #[test]
    fn rejects_unknown_keys_and_missing_values() {
        assert!(args(&["--bogus", "1"], &["k"]).is_err());
        assert!(args(&["--k"], &["k"]).is_err());
        assert!(args(&["positional"], &["k"]).is_err());
        let err = args(&["--help"], &["k"]).unwrap_err();
        assert!(err.contains("usage"));
    }

    #[test]
    fn malformed_values_are_rejected_naming_flag_and_value() {
        let a = args(&["--k", "abc", "--beta", "0.5"], &["k", "beta"]).unwrap();
        let err = a.try_get_or("k", 3usize).unwrap_err();
        assert!(err.contains("--k") && err.contains("abc"), "{err}");
        assert_eq!(a.try_get_or("beta", 0.1f64), Ok(0.5));
        assert_eq!(a.try_get_or("missing", 7usize), Ok(7));
    }
}
