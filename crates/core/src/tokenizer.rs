use crate::intern::{Interner, Symbol};

/// Splits raw log message content into tokens.
///
/// All parsers in the toolkit operate on token sequences, mirroring the
/// original algorithms (SLCT's word positions, IPLoM's token counts, LKE's
/// token edit distance, LogSig's word pairs). The tokenizer is therefore a
/// shared substrate and its behaviour is part of the evaluation contract.
///
/// There is one rule and nothing to configure: a token is a maximal run
/// of non-whitespace characters (`char::is_whitespace`, so U+00A0 and
/// U+3000 separate as a space does). Anything specific to a dataset —
/// the paper's §IV-B domain knowledge — is a
/// [`MaskRule`](crate::MaskRule) over these tokens, not a different
/// split.
///
/// # Example
///
/// ```
/// use logparse_core::Tokenizer;
///
/// let t = Tokenizer::new();
/// assert_eq!(t.tokenize("size=42  done"), vec!["size=42", "done"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Tokenizer {}

impl Tokenizer {
    /// Creates the tokenizer.
    pub fn new() -> Self {
        Tokenizer {}
    }

    /// Borrowed token slices of `content`, in order — the char-level
    /// statement of the token rule: what [`Corpus::from_lines`]
    /// tokenizes with, what the loader's byte scanner is held to, and
    /// the loader's own path for lines with non-ASCII bytes.
    ///
    /// [`Corpus::from_lines`]: crate::Corpus::from_lines
    pub(crate) fn token_slices<'c>(&self, content: &'c str) -> std::str::SplitWhitespace<'c> {
        content.split_whitespace()
    }

    /// Splits `content` into owned tokens. The output never contains an
    /// empty string.
    pub fn tokenize(&self, content: &str) -> Vec<String> {
        self.token_slices(content).map(str::to_owned).collect()
    }

    /// Replaces `row` with the symbols of `content`'s tokens, interning
    /// each into `interner`. Allocates only when a token is seen for the
    /// first time or `row` has to grow, so a caller that keeps one row
    /// for every line it sees — a streaming parser — allocates nothing
    /// per line.
    ///
    /// The split is byte-level while the line is ASCII, where the rule's
    /// whitespace is `\t`..=`\r` and space; at the first byte ≥ 0x80 it
    /// starts over at char level. The tokens interned before that are the
    /// char-level split's first tokens too, so the ids are the same.
    pub fn tokenize_interned(&self, content: &str, interner: &mut Interner, row: &mut Vec<Symbol>) {
        row.clear();
        let mut start = None;
        for (at, &byte) in content.as_bytes().iter().enumerate() {
            if byte >= 0x80 {
                row.clear();
                row.extend(self.token_slices(content).map(|t| interner.intern(t)));
                return;
            }
            if matches!(byte, b'\t'..=b'\r' | b' ') {
                if let Some(from) = start.take() {
                    row.push(interner.intern(&content[from..at]));
                }
            } else if start.is_none() {
                start = Some(at);
            }
        }
        if let Some(from) = start {
            row.push(interner.intern(&content[from..]));
        }
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
        // Punctuation and `=` stay inside their token; every Unicode
        // space separates.
        assert_eq!(
            t.tokenize("src: a=1,\u{a0}[b]\u{3000}c"),
            vec!["src:", "a=1,", "[b]", "c"]
        );
    }

    #[test]
    fn repeated_whitespace_yields_no_empty_tokens() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("a   b\t\tc"), vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(Tokenizer::default().tokenize("").is_empty());
        assert!(Tokenizer::default().tokenize("   ").is_empty());
    }

    #[test]
    fn interned_flavour_agrees_with_tokenize_and_reuses_its_row() {
        let t = Tokenizer::default();
        let mut interner = Interner::new();
        let mut row = Vec::new();
        for line in [
            "src: a=1, b=xyz →ok",
            "b=xyz",
            "",
            " \x0ba\x0cb\r c\t",
            "x\u{a0}y z\u{3000}w \u{85}v",
        ] {
            t.tokenize_interned(line, &mut interner, &mut row);
            assert_eq!(interner.resolve_row(&row), t.tokenize(line));
        }
    }

    proptest::proptest! {
        /// The byte-level split with its char-level fallback interns the
        /// same tokens, in the same order and so to the same ids, as
        /// interning `split_whitespace` over the same lines.
        #[test]
        fn interned_split_matches_the_char_rule(
            lines in proptest::collection::vec(
                "[ a-c\t\x0b\x0c\r\u{85}\u{a0}\u{3000}é]{0,16}",
                0..12,
            ),
        ) {
            let (mut fast, mut reference) = (Interner::new(), Interner::new());
            let mut row = Vec::new();
            for line in &lines {
                Tokenizer::new().tokenize_interned(line, &mut fast, &mut row);
                let expected: Vec<Symbol> =
                    line.split_whitespace().map(|t| reference.intern(t)).collect();
                proptest::prop_assert_eq!(&row, &expected);
            }
        }
    }
}
