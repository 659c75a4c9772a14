//! A small hand-rolled argument parser: `--key value` options, `--flag`
//! booleans, and positional arguments, collected in order; any other
//! `--word` is an error. Keeps the toolkit free of CLI dependencies.

use std::collections::HashMap;
use std::fmt;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    options: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

/// Error produced when an argument cannot be interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Option names that take a value.
const VALUED: &[&str] = &[
    "parser",
    "dataset",
    "count",
    "seed",
    "sample",
    "support",
    "clusters",
    "threshold",
    "preprocess",
    "events-out",
    "structured-out",
    "blocks",
    "rate",
    "alpha",
    "components",
    "threads",
    // `serve` options
    "listen",
    "shards",
    "batch-size",
    "flush-ms",
    "window",
    "history",
    "warmup",
    "checkpoint",
    "checkpoint-every",
    "events-max-mb",
    "max-lines",
    "metrics-addr",
    "alert-rules",
    // `metrics` / `top` options
    "scrape",
    "interval-ms",
    "iterations",
    // `alerts` options
    "rules",
    "fixture",
    // `jobs` / `worker` options
    "job-dir",
    "workers",
    "max-retries",
    "backoff-ms",
    "task-timeout-ms",
    "task",
    "attempt",
];

/// Boolean flag names. With [`VALUED`] this is every `--word` a
/// subcommand reads, so a typo fails instead of silently turning the
/// option's value into a positional argument.
const FLAGS: &[&str] = &[
    "follow",
    "labels",
    "no-alerts",
    "no-drift",
    "resume",
    "traces",
];

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when a valued option is missing its value or
    /// a `--name` is neither a valued option nor a flag.
    pub fn parse<I, S>(raw: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if VALUED.contains(&name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError(format!("option --{name} needs a value")))?;
                    args.options.insert(name.to_owned(), value);
                } else if FLAGS.contains(&name) {
                    args.flags.push(name.to_owned());
                } else {
                    return Err(ArgError(format!("unknown option --{name}")));
                }
            } else if arg == "-j" {
                // Conventional short alias for `--threads`.
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError("option -j needs a value".to_owned()))?;
                args.options.insert("threads".to_owned(), value);
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    /// The value of `--name`, if given.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed as `T`, if given.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        self.option(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| ArgError(format!("invalid value `{raw}` for --{name}")))
            })
            .transpose()
    }

    /// The value of `--name` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] when the value does not parse.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// Whether the boolean `--name` flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_options_flags_and_positionals() {
        let args = Args::parse(["--parser", "iplom", "--labels", "input.log"]).unwrap();
        assert_eq!(args.option("parser"), Some("iplom"));
        assert!(args.has_flag("labels"));
        assert_eq!(args.positional(), ["input.log"]);
    }

    #[test]
    fn unknown_options_are_rejected() {
        // Taken as a flag, `--thread` would leave `4` as the input file.
        let err = Args::parse(["--thread", "4", "app.log"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --thread");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(["--parser"]).unwrap_err();
        assert!(err.to_string().contains("--parser"));
    }

    #[test]
    fn parsed_or_uses_default_and_validates() {
        let args = Args::parse(["--count", "50"]).unwrap();
        assert_eq!(args.parsed_or("count", 7usize).unwrap(), 50);
        assert_eq!(args.parsed_or("seed", 7u64).unwrap(), 7);
        let bad = Args::parse(["--count", "x"]).unwrap();
        assert!(bad.parsed_or("count", 0usize).is_err());
    }

    #[test]
    fn dash_j_is_an_alias_for_threads() {
        let args = Args::parse(["-j", "4", "input.log"]).unwrap();
        assert_eq!(args.option("threads"), Some("4"));
        assert_eq!(args.positional(), ["input.log"]);
        assert!(Args::parse(["-j"]).is_err());
        let long = Args::parse(["--threads", "8"]).unwrap();
        assert_eq!(long.parsed_or("threads", 1usize).unwrap(), 8);
    }

    #[test]
    fn empty_input_parses_to_empty() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert!(args.positional().is_empty());
        assert!(!args.has_flag("anything"));
    }
}
