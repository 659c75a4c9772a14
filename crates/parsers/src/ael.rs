//! AEL — Abstracting Execution Logs (Jiang, Hassan, Hamann, Flora;
//! QSIC 2008).
//!
//! **Extension parser** (not part of the DSN'16 study, but a classic the
//! follow-on LogPAI toolkit includes). AEL works in three steps:
//!
//! 1. **Anonymize** — heuristics replace obvious dynamic values
//!    (`key=value` pairs, numbers, hex, ip-like tokens) with a generic
//!    `$v` token;
//! 2. **Categorize** — messages are binned by `(token count, parameter
//!    count)`;
//! 3. **Reconcile** — within each bin, messages whose anonymized token
//!    sequences are identical form one event; bins therefore never mix
//!    events that differ in any constant token.

use std::collections::HashMap;

use logparse_core::{Corpus, LogParser, Parse, ParseBuilder, ParseError};

/// The AEL parser. Construct via [`Ael::builder`].
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser};
/// use logparse_parsers::Ael;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines([
///     "user=alice logged in from 10.0.0.1",
///     "user=bob logged in from 10.0.0.2",
/// ]);
/// let parse = Ael::default().parse(&corpus)?;
/// assert_eq!(parse.event_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ael {
    /// Minimum number of merged dynamic tokens for a `key=value` pair to
    /// anonymize the value side.
    anonymize_numbers: bool,
}

impl Default for Ael {
    fn default() -> Self {
        Ael {
            anonymize_numbers: true,
        }
    }
}

impl Ael {
    /// Starts building an AEL configuration.
    pub fn builder() -> AelBuilder {
        AelBuilder::default()
    }
}

/// Builder for [`Ael`].
#[derive(Debug, Clone, Default)]
pub struct AelBuilder {
    anonymize_numbers: Option<bool>,
}

impl AelBuilder {
    /// Enables/disables the bare-number anonymization heuristic
    /// (default on).
    #[must_use]
    pub fn anonymize_numbers(mut self, enabled: bool) -> Self {
        self.anonymize_numbers = Some(enabled);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> Ael {
        Ael {
            anonymize_numbers: self.anonymize_numbers.unwrap_or(true),
        }
    }
}

/// Is this token a dynamic value under AEL's anonymization heuristics?
fn is_dynamic(token: &str, anonymize_numbers: bool) -> bool {
    if token.contains('=') {
        return true; // key=value pair: the value side is dynamic
    }
    let has_digit = token.bytes().any(|b| b.is_ascii_digit());
    if !has_digit {
        return false;
    }
    if anonymize_numbers {
        // Any token containing digits mixed with separators is dynamic
        // (ids, IPs, sizes, hex) — AEL's "generalization" heuristic.
        token
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b':' | b'-' | b'_' | b'/'))
    } else {
        false
    }
}

impl LogParser for Ael {
    fn name(&self) -> &'static str {
        "AEL"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        // Anonymize + categorize + reconcile in one pass: the event key
        // is (token count, parameter count, anonymized sequence).
        let mut bins: HashMap<Vec<&str>, Vec<usize>> = HashMap::new();
        for idx in 0..corpus.len() {
            let tokens = corpus.tokens(idx);
            if tokens.is_empty() {
                continue;
            }
            let key: Vec<&str> = tokens
                .iter()
                .map(|t| {
                    if is_dynamic(t, self.anonymize_numbers) {
                        "$v"
                    } else {
                        *t
                    }
                })
                .collect();
            bins.entry(key).or_default().push(idx);
        }
        let mut groups: Vec<Vec<usize>> = bins.into_values().collect();
        groups.sort_by_key(|g| g.first().copied());
        let mut builder = ParseBuilder::new(corpus.len());
        for group in groups {
            builder.add_cluster(corpus, &group);
        }
        Ok(builder.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines)
    }

    #[test]
    fn key_value_pairs_are_dynamic() {
        assert!(is_dynamic("user=alice", true));
        assert!(is_dynamic("size=42", false));
        assert!(!is_dynamic("user", true));
    }

    #[test]
    fn digit_bearing_ids_are_dynamic_when_enabled() {
        assert!(is_dynamic("blk_-123", true));
        assert!(is_dynamic("10.0.0.1:8080", true));
        assert!(is_dynamic("0xDEAD42", true));
        assert!(!is_dynamic("10.0.0.1:8080", false));
        // Digits mixed with exotic punctuation stay constant text...
        assert!(!is_dynamic("a+b:1?!", true));
        // ...but a '=' pair is always a parameter, whatever the mode.
        assert!(is_dynamic("a+b=1?!", false));
    }

    #[test]
    fn identical_skeletons_group() {
        let c = corpus(&[
            "session 17 opened for alice",
            "session 23 opened for alice",
            "session 31 closed for alice",
        ]);
        let parse = Ael::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
        let t: Vec<String> = parse.templates().iter().map(|t| t.to_string()).collect();
        assert!(
            t.contains(&"session * opened for alice".to_string()),
            "{t:?}"
        );
    }

    #[test]
    fn parameter_count_separates_bins() {
        // Same token count, different parameter mix → different events.
        let c = corpus(&["commit 42 done", "commit abc done"]);
        let parse = Ael::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
    }

    #[test]
    fn numbers_heuristic_can_be_disabled() {
        let c = corpus(&["tick 1", "tick 2"]);
        let on = Ael::default().parse(&c).unwrap();
        assert_eq!(on.event_count(), 1);
        let off = Ael::builder()
            .anonymize_numbers(false)
            .build()
            .parse(&c)
            .unwrap();
        assert_eq!(off.event_count(), 2);
    }

    #[test]
    fn empty_lines_are_outliers() {
        let parse = Ael::default().parse(&corpus(&["", "a"])).unwrap();
        assert_eq!(parse.assignments()[0], None);
    }

    #[test]
    fn deterministic_across_runs() {
        let c = corpus(&["a 1 b", "a 2 b", "c d", "c e"]);
        let p = Ael::default();
        assert_eq!(p.parse(&c).unwrap(), p.parse(&c).unwrap());
    }
}
