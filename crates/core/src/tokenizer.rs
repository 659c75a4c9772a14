use crate::intern::{Interner, Symbol};

/// Splits raw log message content into tokens.
///
/// All parsers in the toolkit operate on token sequences, mirroring the
/// original algorithms (SLCT's word positions, IPLoM's token counts, LKE's
/// token edit distance, LogSig's word pairs). The tokenizer is therefore a
/// shared substrate and its behaviour is part of the evaluation contract.
///
/// By default the content is split on ASCII whitespace only. Two extra
/// behaviours can be enabled:
///
/// * **extra delimiters** — characters such as `=` or `,` that should
///   *separate* tokens (they are dropped from the output);
/// * **trim punctuation** — leading/trailing punctuation (`:,;()[]"'`) is
///   stripped from each token, so `src:` and `src` compare equal.
///
/// Delimiter lookup is a 128-bit ASCII bitmask (one shift + mask per
/// character); non-ASCII delimiters fall back to a linear scan of the
/// (tiny) overflow list, so exotic configurations stay correct without
/// taxing the common path.
///
/// # Example
///
/// ```
/// use logparse_core::Tokenizer;
///
/// let t = Tokenizer::new().with_extra_delimiter('=');
/// assert_eq!(t.tokenize("size=42 done"), vec!["size", "42", "done"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tokenizer {
    /// ASCII delimiters as a bitmask: bit `c` set ⇔ `c` is a delimiter.
    ascii_delimiters: u128,
    /// Non-ASCII delimiters, scanned linearly (empty in practice).
    wide_delimiters: Vec<char>,
    trim_punctuation: bool,
}

impl Tokenizer {
    /// Creates a tokenizer that splits on ASCII whitespace only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a character that separates tokens in addition to whitespace.
    ///
    /// The delimiter itself does not appear in the output.
    #[must_use]
    pub fn with_extra_delimiter(mut self, delimiter: char) -> Self {
        if delimiter.is_ascii() {
            self.ascii_delimiters |= 1u128 << u32::from(delimiter);
        } else if !self.wide_delimiters.contains(&delimiter) {
            self.wide_delimiters.push(delimiter);
        }
        self
    }

    /// Enables stripping of leading/trailing punctuation from every token.
    ///
    /// The stripped set is `: , ; ( ) [ ] " '`. Interior punctuation (as in
    /// `blk_-123` or `10.0.0.1:50010`) is preserved.
    #[must_use]
    pub fn with_trimmed_punctuation(mut self) -> Self {
        self.trim_punctuation = true;
        self
    }

    /// Returns `true` when token punctuation trimming is enabled.
    pub fn trims_punctuation(&self) -> bool {
        self.trim_punctuation
    }

    /// Is `c` a token separator under this configuration?
    #[inline]
    fn is_separator(&self, c: char) -> bool {
        if c.is_whitespace() {
            return true;
        }
        if c.is_ascii() {
            self.ascii_delimiters >> u32::from(c) & 1 == 1
        } else {
            !self.wide_delimiters.is_empty() && self.wide_delimiters.contains(&c)
        }
    }

    /// Borrowed token slices of `content`, in order — the zero-copy core
    /// every tokenize flavour shares, and the loader's checked slow path
    /// for lines with non-ASCII bytes (full Unicode separator semantics,
    /// wide delimiters included).
    pub(crate) fn token_slices<'s, 'c: 's>(
        &'s self,
        content: &'c str,
    ) -> impl Iterator<Item = &'c str> + 's {
        content
            .split(move |c: char| self.is_separator(c))
            .filter_map(move |raw| {
                let token = if self.trim_punctuation {
                    raw.trim_matches(|c: char| {
                        matches!(c, ':' | ',' | ';' | '(' | ')' | '[' | ']' | '"' | '\'')
                    })
                } else {
                    raw
                };
                if token.is_empty() {
                    None
                } else {
                    Some(token)
                }
            })
    }

    /// Splits `content` into owned tokens according to the configuration.
    ///
    /// Empty tokens (produced by runs of delimiters) are skipped, so the
    /// output never contains empty strings.
    pub fn tokenize(&self, content: &str) -> Vec<String> {
        self.token_slices(content).map(str::to_owned).collect()
    }

    /// Splits `content` into tokens borrowed from it — no per-token
    /// allocation. The streaming ingest workers use this.
    pub fn tokenize_refs<'c>(&self, content: &'c str) -> Vec<&'c str> {
        self.token_slices(content).collect()
    }

    /// The ASCII delimiter bitmask (bit `c` set ⇔ byte `c` separates
    /// tokens in addition to whitespace). The zero-copy loader compiles
    /// this into its SWAR byte classes.
    pub(crate) fn ascii_delimiter_mask(&self) -> u128 {
        self.ascii_delimiters
    }

    /// Splits `content` and interns every token into `interner`,
    /// returning the symbol row. Allocates only when a token is seen for
    /// the first time — this is the corpus-construction path.
    pub fn tokenize_interned(&self, content: &str, interner: &mut Interner) -> Vec<Symbol> {
        self.token_slices(content)
            .map(|t| interner.intern(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_split_is_default() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("PacketResponder 1 for block blk_1 terminating"),
            vec![
                "PacketResponder",
                "1",
                "for",
                "block",
                "blk_1",
                "terminating"
            ]
        );
    }

    #[test]
    fn repeated_whitespace_yields_no_empty_tokens() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("a   b\t\tc"), vec!["a", "b", "c"]);
    }

    #[test]
    fn extra_delimiters_split_and_are_dropped() {
        let t = Tokenizer::new()
            .with_extra_delimiter('=')
            .with_extra_delimiter(',');
        assert_eq!(t.tokenize("x=1,y=2"), vec!["x", "1", "y", "2"]);
    }

    #[test]
    fn duplicate_delimiter_registration_is_idempotent() {
        let a = Tokenizer::new().with_extra_delimiter('=');
        let b = a.clone().with_extra_delimiter('=');
        assert_eq!(a, b);
        let wide = Tokenizer::new().with_extra_delimiter('→');
        assert_eq!(wide.clone().with_extra_delimiter('→'), wide);
    }

    #[test]
    fn non_ascii_delimiters_fall_back_to_the_scan_list() {
        let t = Tokenizer::new()
            .with_extra_delimiter('→')
            .with_extra_delimiter('=');
        assert_eq!(t.tokenize("a→b=c d"), vec!["a", "b", "c", "d"]);
        // A non-ASCII character that is *not* registered stays in its token.
        assert_eq!(t.tokenize("x→y z·w"), vec!["x", "y", "z·w"]);
    }

    #[test]
    fn ascii_delimiter_mask_covers_the_full_range() {
        // Boundary bits: NUL (0) and DEL (127).
        let t = Tokenizer::new()
            .with_extra_delimiter('\u{0}')
            .with_extra_delimiter('\u{7f}');
        assert_eq!(t.tokenize("a\u{0}b\u{7f}c"), vec!["a", "b", "c"]);
    }

    #[test]
    fn punctuation_trim_preserves_interior_punctuation() {
        let t = Tokenizer::new().with_trimmed_punctuation();
        assert_eq!(
            t.tokenize("src: /10.0.0.1:5000, dest: [node-7]"),
            vec!["src", "/10.0.0.1:5000", "dest", "node-7"]
        );
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(Tokenizer::default().tokenize("").is_empty());
        assert!(Tokenizer::default().tokenize("   ").is_empty());
    }

    #[test]
    fn token_fully_made_of_punctuation_is_dropped_when_trimming() {
        let t = Tokenizer::new().with_trimmed_punctuation();
        assert_eq!(t.tokenize("a :: b"), vec!["a", "b"]);
    }

    #[test]
    fn refs_and_interned_flavours_agree_with_tokenize() {
        let t = Tokenizer::new()
            .with_extra_delimiter('=')
            .with_trimmed_punctuation();
        let line = "src: a=1, b=xyz →ok";
        let owned = t.tokenize(line);
        assert_eq!(t.tokenize_refs(line), owned);
        let mut interner = Interner::new();
        let syms = t.tokenize_interned(line, &mut interner);
        assert_eq!(interner.resolve_row(&syms), owned);
    }
}
