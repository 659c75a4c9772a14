use logparse_obs::Registry;

use crate::intern::{Interner, Symbol, TokenArena};
use crate::Corpus;

/// A domain-knowledge masking rule applied before parsing.
///
/// The paper (§IV-B, Finding 2) preprocesses logs by removing "obvious
/// numerical parameters — IP addresses in HPC/Zookeeper/HDFS, core IDs in
/// BGL, and block IDs in HDFS". Each rule recognizes one such parameter
/// class at token granularity and replaces the whole token with a constant
/// tag, so that a variable position becomes constant for the parser.
///
/// Rules are hand-rolled byte scanners rather than regular expressions to
/// keep the toolkit dependency-free and fast on multi-million-line corpora:
/// the zero-copy loader runs them on every token, before interning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MaskRule {
    /// Tokens containing an IPv4 address (optionally with `:port`,
    /// a leading `/`, or other adornments), e.g. `/10.251.31.5:50010`.
    IpAddress,
    /// HDFS block identifiers: `blk_` followed by an optionally signed
    /// integer, e.g. `blk_-1608999687919862906`.
    BlockId,
    /// BGL core dump identifiers: `core.` followed by digits, e.g.
    /// `core.2275`.
    CoreId,
    /// Pure (optionally signed) decimal integers and floats: `42`, `-7`,
    /// `67108864`, `3.5`.
    Number,
    /// Hexadecimal values: `0xDEADBEEF` or bare hex strings of at least
    /// eight hex digits containing at least one letter.
    HexValue,
    /// Filesystem-like paths: tokens starting with `/` that contain a
    /// second `/` (so `/user/root/file` masks but `/10.0.0.1:80` does not
    /// unless [`MaskRule::IpAddress`] also fires).
    Path,
}

/// Byte classes for the masker's early-out: one table load per token
/// byte, OR-ed together, answers "could any rule match this token?"
/// before a single matcher runs.
const DIGIT: u8 = 1;
const SLASH: u8 = 2;
/// Set by every byte that is not an ASCII hex digit. XOR-ing the
/// OR-ed classes with it turns the bit into [`ALL_HEX`].
const NON_HEX: u8 = 4;
/// After the XOR: the token consists of hex digits only.
const ALL_HEX: u8 = NON_HEX;

const BYTE_CLASS: [u8; 256] = {
    let mut table = [NON_HEX; 256];
    let mut b = 0usize;
    while b < 256 {
        let byte = b as u8;
        if byte.is_ascii_digit() {
            table[b] = DIGIT;
        } else if byte.is_ascii_hexdigit() {
            table[b] = 0;
        } else if byte == b'/' {
            table[b] = SLASH | NON_HEX;
        }
        b += 1;
    }
    table
};

impl MaskRule {
    /// Every rule, in the order the CLI documents them.
    pub const ALL: [MaskRule; 6] = [
        MaskRule::IpAddress,
        MaskRule::BlockId,
        MaskRule::CoreId,
        MaskRule::Number,
        MaskRule::HexValue,
        MaskRule::Path,
    ];

    /// The rule's short name: what `--preprocess` accepts and what the
    /// `rule` label of `core_preprocess_masked_tokens_total` carries.
    pub fn name(self) -> &'static str {
        match self {
            MaskRule::IpAddress => "ip",
            MaskRule::BlockId => "blk",
            MaskRule::CoreId => "core",
            MaskRule::Number => "num",
            MaskRule::HexValue => "hex",
            MaskRule::Path => "path",
        }
    }

    /// The tag a matching token is replaced with.
    pub fn tag(self) -> &'static str {
        match self {
            MaskRule::IpAddress => "$IP",
            MaskRule::BlockId => "$BLK",
            MaskRule::CoreId => "$CORE",
            MaskRule::Number => "$NUM",
            MaskRule::HexValue => "$HEX",
            MaskRule::Path => "$PATH",
        }
    }

    /// Tests whether `token` belongs to this rule's parameter class.
    pub fn matches(self, token: &str) -> bool {
        self.matches_bytes(token.as_bytes())
    }

    /// [`matches`](MaskRule::matches) on the token's bytes. Every
    /// pattern is ASCII, so the answer is the same for any token the
    /// tokenizer can produce, valid UTF-8 or not yet validated.
    fn matches_bytes(self, token: &[u8]) -> bool {
        match self {
            MaskRule::IpAddress => contains_ipv4(token),
            MaskRule::BlockId => is_block_id(token),
            MaskRule::CoreId => is_core_id(token),
            MaskRule::Number => is_number(token),
            MaskRule::HexValue => is_hex_value(token),
            MaskRule::Path => is_path(token),
        }
    }

    /// The byte classes of which a matching token shows at least one
    /// (after the [`ALL_HEX`] flip). A token showing none of a rule
    /// set's wanted classes is a constant word: no matcher runs.
    fn wanted(self) -> u8 {
        match self {
            MaskRule::IpAddress | MaskRule::BlockId | MaskRule::CoreId | MaskRule::Number => DIGIT,
            // `0x…` carries the digit `0`; a bare hex string is all hex.
            MaskRule::HexValue => DIGIT | ALL_HEX,
            MaskRule::Path => SLASH,
        }
    }
}

fn contains_ipv4(bytes: &[u8]) -> bool {
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            // A dotted quad may start here; require a non-digit (or start)
            // before it so we do not match inside longer digit runs.
            if i > 0 && bytes[i - 1].is_ascii_digit() {
                i += 1;
                continue;
            }
            let mut pos = i;
            let mut octets = 0;
            loop {
                let start = pos;
                let mut value: u32 = 0;
                while pos < bytes.len() && bytes[pos].is_ascii_digit() && pos - start < 3 {
                    value = value * 10 + u32::from(bytes[pos] - b'0');
                    pos += 1;
                }
                if pos == start || value > 255 {
                    break;
                }
                octets += 1;
                if octets == 4 {
                    // Reject if the quad continues with another digit
                    // (e.g. 1.2.3.4567).
                    if pos < bytes.len() && bytes[pos].is_ascii_digit() {
                        break;
                    }
                    return true;
                }
                if pos < bytes.len() && bytes[pos] == b'.' {
                    pos += 1;
                } else {
                    break;
                }
            }
        }
        i += 1;
    }
    false
}

fn all_digits(bytes: &[u8]) -> bool {
    !bytes.is_empty() && bytes.iter().all(u8::is_ascii_digit)
}

fn is_block_id(token: &[u8]) -> bool {
    let Some(rest) = token.strip_prefix(b"blk_") else {
        return false;
    };
    all_digits(rest.strip_prefix(b"-").unwrap_or(rest))
}

fn is_core_id(token: &[u8]) -> bool {
    token.strip_prefix(b"core.").is_some_and(all_digits)
}

fn is_number(token: &[u8]) -> bool {
    let rest = match token {
        [b'-' | b'+', rest @ ..] => rest,
        _ => token,
    };
    let mut seen_dot = false;
    let mut seen_digit = false;
    for &b in rest {
        match b {
            b'0'..=b'9' => seen_digit = true,
            b'.' if !seen_dot => seen_dot = true,
            _ => return false,
        }
    }
    seen_digit
}

fn is_hex_value(token: &[u8]) -> bool {
    if let [b'0', b'x' | b'X', rest @ ..] = token {
        return !rest.is_empty() && rest.iter().all(u8::is_ascii_hexdigit);
    }
    token.len() >= 8
        && token.iter().all(u8::is_ascii_hexdigit)
        && token.iter().any(u8::is_ascii_alphabetic)
}

fn is_path(token: &[u8]) -> bool {
    matches!(token, [b'/', rest @ ..] if rest.contains(&b'/')) && !contains_ipv4(token)
}

/// Applies a sequence of [`MaskRule`]s to every token of a corpus.
///
/// Rules fire in registration order; the first matching rule wins.
///
/// Two entry points share one classifier: the zero-copy loader masks
/// each token *before* interning it
/// ([`Corpus::from_path_masked`](crate::Corpus::from_path_masked) /
/// [`from_bytes_masked`](crate::Corpus::from_bytes_masked) — one pass,
/// vocabulary proportional to templates), and [`apply`](Self::apply)
/// masks an already-built corpus at symbol level. Both produce the same
/// corpus, symbol ids included.
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, MaskRule, Preprocessor, Tokenizer};
///
/// let corpus = Corpus::from_lines(
///     ["Receiving block blk_123 src: /10.0.0.1:5000"],
///     &Tokenizer::default(),
/// );
/// let pre = Preprocessor::new(vec![MaskRule::BlockId, MaskRule::IpAddress]);
/// let masked = pre.apply(&corpus);
/// assert_eq!(masked.tokens(0), &["Receiving", "block", "$BLK", "src:", "$IP"]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Preprocessor {
    rules: Vec<MaskRule>,
    /// Union of the rules' [`MaskRule::wanted`] classes.
    wanted: u8,
}

impl Preprocessor {
    /// Creates a preprocessor applying `rules` in order.
    pub fn new(rules: Vec<MaskRule>) -> Self {
        let wanted = rules.iter().fold(0, |acc, rule| acc | rule.wanted());
        Preprocessor { rules, wanted }
    }

    /// A preprocessor with no rules: `apply` is the identity.
    pub fn identity() -> Self {
        Preprocessor::default()
    }

    /// The configured rules, in application order.
    pub fn rules(&self) -> &[MaskRule] {
        &self.rules
    }

    /// Index into [`rules`](Self::rules) of the first rule matching
    /// `token`. Constant words — no digit, no `/`, not all-hex, whatever
    /// the rule set asks for — leave after one pass over their bytes and
    /// one branch.
    #[inline]
    pub(crate) fn classify(&self, token: &[u8]) -> Option<usize> {
        let seen = token
            .iter()
            .fold(0, |acc, &b| acc | BYTE_CLASS[usize::from(b)]);
        if (seen ^ NON_HEX) & self.wanted == 0 {
            return None;
        }
        self.rules.iter().position(|rule| rule.matches_bytes(token))
    }

    /// Masks a single token, returning the tag of the first matching rule
    /// or the token itself when no rule fires.
    pub fn mask_token<'t>(&self, token: &'t str) -> &'t str {
        match self.classify(token.as_bytes()) {
            Some(rule) => self.rules[rule].tag(),
            None => token,
        }
    }

    /// Returns a new corpus with every token masked. Only the token rows
    /// change: records — line numbers, timestamps and the *raw* content,
    /// variables included — are the parent's, so structured output can
    /// still cite what a placeholder stands for.
    ///
    /// Works at symbol level: each distinct symbol of `corpus` is
    /// classified once, and the rows are remapped into a fresh table
    /// whose ids are first-occurrence-ordered over the masked stream —
    /// the corpus the masking loader builds from the same lines.
    pub fn apply(&self, corpus: &Corpus) -> Corpus {
        if self.rules.is_empty() {
            return corpus.clone();
        }
        let source = corpus.interner();
        let mut interner = Interner::new();
        let mut arena = TokenArena::new();
        // Per source symbol: its masked symbol and the counter it feeds
        // (a rule's, or the trailing slot for tokens left alone).
        let mut memo: Vec<Option<(Symbol, usize)>> = vec![None; source.len()];
        let mut masked = vec![0u64; self.rules.len() + 1];
        for row in corpus.arena().iter() {
            for &symbol in row {
                let slot = &mut memo[symbol.id() as usize];
                let (mapped, counter) = *slot.get_or_insert_with(|| {
                    let token = source.resolve(symbol);
                    match self.classify(token.as_bytes()) {
                        Some(rule) => (interner.intern(self.rules[rule].tag()), rule),
                        None => (interner.intern(token), self.rules.len()),
                    }
                });
                masked[counter] += 1;
                arena.push_symbol(mapped);
            }
            arena.finish_row();
        }
        self.publish_masked(logparse_obs::global(), &masked);
        corpus.with_tokens(arena, interner)
    }

    /// Publishes one build's masked-token counts (`masked[i]` tokens hit
    /// `rules()[i]`). Zero counts are published too: a rule that never
    /// fired is what an operator needs to see.
    pub(crate) fn publish_masked(&self, registry: &Registry, masked: &[u64]) {
        for (rule, &count) in self.rules.iter().zip(masked) {
            registry
                .counter(
                    "core_preprocess_masked_tokens_total",
                    "Tokens replaced by a placeholder during corpus masking, by rule",
                    &[("rule", rule.name())],
                )
                .inc_by(count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogRecord, Tokenizer};

    #[test]
    fn ipv4_detection_accepts_adorned_addresses() {
        for t in [
            "10.251.31.5",
            "/10.251.31.5:42506",
            "src=/10.0.0.1",
            "(192.168.0.255)",
        ] {
            assert!(contains_ipv4(t.as_bytes()), "{t} should contain an ipv4");
        }
    }

    #[test]
    fn ipv4_detection_rejects_non_addresses() {
        for t in [
            "1.2.3",
            "300.1.2.3",
            "1.2.3.4567",
            "version-1.2.3.x",
            "10..0.0.1",
            "word",
            "",
        ] {
            assert!(
                !contains_ipv4(t.as_bytes()),
                "{t} should not contain an ipv4"
            );
        }
    }

    #[test]
    fn ipv4_inside_longer_digit_run_is_rejected() {
        // a valid quad with a trailing non-digit adornment still counts
        assert!(contains_ipv4(b"91.2.3.4x"));
        // but digits that extend an octet past 3 places / 255 do not
        assert!(!contains_ipv4(b"x5912.3.4.5678"));
        assert!(!contains_ipv4(b"1234.1.2.3"));
    }

    #[test]
    fn block_ids_match_signed_integers_only() {
        assert!(is_block_id(b"blk_904791815409399662"));
        assert!(is_block_id(b"blk_-1608999687919862906"));
        assert!(!is_block_id(b"blk_"));
        assert!(!is_block_id(b"blk_12a"));
        assert!(!is_block_id(b"block_12"));
    }

    #[test]
    fn core_ids_match_digit_suffix_only() {
        assert!(is_core_id(b"core.2275"));
        assert!(!is_core_id(b"core."));
        assert!(!is_core_id(b"core.2275a"));
        assert!(!is_core_id(b"score.12"));
    }

    #[test]
    fn numbers_accept_signs_and_single_decimal_point() {
        for t in ["42", "-7", "+3", "67108864", "3.5", "-0.25"] {
            assert!(is_number(t.as_bytes()), "{t}");
        }
        for t in ["", "-", "1.2.3", "12a", "a12", "."] {
            assert!(!is_number(t.as_bytes()), "{t}");
        }
    }

    #[test]
    fn hex_values_require_prefix_or_length_and_letter() {
        assert!(is_hex_value(b"0xDEADBEEF"));
        assert!(is_hex_value(b"0x0"));
        assert!(is_hex_value(b"deadbeef01"));
        assert!(!is_hex_value(b"12345678")); // digits only: likely an id, not hex
        assert!(!is_hex_value(b"dead")); // too short without prefix
        assert!(!is_hex_value(b"0x"));
    }

    #[test]
    fn paths_need_two_slashes_and_no_ip() {
        assert!(is_path(b"/user/root/file.txt"));
        assert!(!is_path(b"/tmp"));
        assert!(!is_path(b"/10.0.0.1:80/x"));
        assert!(!is_path(b"relative/path"));
    }

    #[test]
    fn first_matching_rule_wins() {
        // `10.0.0.1` is both a "number-ish" token and an IP; ordering decides.
        let ip_first = Preprocessor::new(vec![MaskRule::IpAddress, MaskRule::Number]);
        assert_eq!(ip_first.mask_token("10.0.0.1"), "$IP");
    }

    /// The early-out must never hide a match: for every rule alone,
    /// `classify` agrees with running the matcher outright.
    #[test]
    fn early_out_agrees_with_the_matchers() {
        let tokens = [
            "word",
            "deadbeef",
            "DEADBEEF01",
            "feedface",
            "defaced",
            "0x1f",
            "0X",
            "42",
            "-7",
            "+",
            "3.5.1",
            "blk_1",
            "blk_-",
            "core.9",
            "core.",
            "/a/b",
            "/a",
            "//",
            "a/b/c",
            "/10.0.0.1/x",
            "10.0.0.1",
            "(10.0.0.1):",
            "$IP",
            "näme",
            "x9",
            "",
        ];
        for rule in MaskRule::ALL {
            let pre = Preprocessor::new(vec![rule]);
            for t in tokens {
                assert_eq!(
                    pre.classify(t.as_bytes()).is_some(),
                    rule.matches(t),
                    "{rule:?} on `{t}`"
                );
            }
        }
    }

    #[test]
    fn apply_keeps_records_and_masks_only_tokens() {
        let corpus = Corpus::from_records(
            [LogRecord::new(5, "delete blk_1 now")],
            &Tokenizer::default(),
        );
        let masked = Preprocessor::new(vec![MaskRule::BlockId]).apply(&corpus);
        assert_eq!(masked.record(0).line_no, 5);
        // Content is the raw line; the variable survives for output.
        assert_eq!(masked.record(0).content, "delete blk_1 now");
        assert_eq!(masked.tokens(0), ["delete", "$BLK", "now"]);
    }

    #[test]
    fn apply_numbers_symbols_by_first_occurrence_in_the_masked_stream() {
        // `$NUM` occurs raw on line 2, after the rule already produced
        // it on line 1: one symbol, claimed at its first occurrence.
        let corpus = Corpus::from_lines(["took 7 ms", "took $NUM ms 9"], &Tokenizer::default());
        let masked = Preprocessor::new(vec![MaskRule::Number]).apply(&corpus);
        let ids = |i: usize| -> Vec<u32> { masked.symbols(i).iter().map(|s| s.id()).collect() };
        assert_eq!(ids(0), [0, 1, 2]);
        assert_eq!(ids(1), [0, 1, 2, 1]);
        assert_eq!(masked.interner().len(), 3, "vocabulary is the masked one");
    }

    #[test]
    fn identity_preprocessor_is_a_noop() {
        let corpus = Corpus::from_lines(["a 1 2.3"], &Tokenizer::default());
        assert_eq!(Preprocessor::identity().apply(&corpus), corpus);
    }
}
