//! Value-generation strategies (no shrinking).

use rand::rngs::StdRng;
use rand::Rng;

/// The generator driving all strategies.
pub type TestRng = StdRng;

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and draws
    /// from the result.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Boxes a strategy behind a trait object (used by [`crate::prop_oneof!`]).
pub fn boxed<S>(strategy: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(strategy)
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies of a common value type.
pub struct Union<T> {
    variants: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Builds the union; panics if `variants` is empty.
    pub fn new(variants: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(
            !variants.is_empty(),
            "prop_oneof! needs at least one strategy"
        );
        Union { variants }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_range(0..self.variants.len());
        self.variants[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

/// String pattern strategies: a `&str` literal is interpreted as a small
/// regex subset (character classes, groups, `{m,n}`/`{m}`/`?`/`*`/`+`
/// quantifiers, escapes) and generates matching strings, mirroring
/// proptest's regex string strategies for the patterns used in this
/// repository.
///
/// Inside and outside a class, `\t`, `\n`, `\r`, `\xNN` and `\u{N..}`
/// name a character and a backslash before ASCII punctuation (`\\`,
/// `\]`, `\-`, `\{`, …) makes it literal. What the subset does not
/// implement panics with its name rather than drawing from a different
/// language: `.`, `^`, `$` and `|` outside a class, a negated class
/// `[^…]`, the class escapes `\d`, `\w`, `\s` (and their negations), and
/// any other escaped letter or digit.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let nodes = parse_pattern(self);
        let mut out = String::new();
        render_seq(&nodes, rng, &mut out);
        out
    }
}

#[derive(Debug, Clone)]
enum Node {
    Literal(char),
    Class(Vec<(char, char)>),
    Group(Vec<Quantified>),
}

#[derive(Debug, Clone)]
struct Quantified {
    node: Node,
    min: usize,
    max: usize,
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn parse_pattern(pattern: &str) -> Vec<Quantified> {
    let mut chars = pattern.chars().peekable();
    let nodes = parse_seq(&mut chars, pattern);
    assert!(
        chars.next().is_none(),
        "unbalanced `)` in pattern `{pattern}`"
    );
    nodes
}

/// The character an escape names; `chars` is just past the `\`.
fn escape(chars: &mut Chars, pattern: &str) -> char {
    let c = chars
        .next()
        .unwrap_or_else(|| panic!("dangling `\\` in pattern `{pattern}`"));
    let hex = |digits: String| {
        u32::from_str_radix(&digits, 16)
            .ok()
            .and_then(char::from_u32)
            .unwrap_or_else(|| panic!("bad `\\{c}{digits}` escape in pattern `{pattern}`"))
    };
    match c {
        't' => '\t',
        'n' => '\n',
        'r' => '\r',
        'x' => hex(chars.by_ref().take(2).collect()),
        'u' => {
            assert_eq!(
                chars.next(),
                Some('{'),
                "`\\u` needs braces in pattern `{pattern}`"
            );
            hex(chars.by_ref().take_while(|&h| h != '}').collect())
        }
        'd' | 'D' | 'w' | 'W' | 's' | 'S' => {
            panic!("class escape `\\{c}` is not implemented (pattern `{pattern}`)")
        }
        c if c.is_ascii_punctuation() => c,
        c => panic!("unknown escape `\\{c}` in pattern `{pattern}`"),
    }
}

/// One member character of a class, escapes resolved; `None` at the
/// closing `]`.
fn class_char(chars: &mut Chars, pattern: &str) -> Option<char> {
    match chars.next() {
        None => panic!("unterminated `[` in pattern `{pattern}`"),
        Some(']') => None,
        Some('\\') => Some(escape(chars, pattern)),
        Some(c) => Some(c),
    }
}

fn parse_class(chars: &mut Chars, pattern: &str) -> Vec<(char, char)> {
    assert!(
        chars.peek() != Some(&'^'),
        "negated class `[^` is not implemented (pattern `{pattern}`)"
    );
    let mut ranges = Vec::new();
    while let Some(lo) = class_char(chars, pattern) {
        if chars.peek() == Some(&'-') {
            chars.next();
            let hi = class_char(chars, pattern)
                .filter(|&hi| hi >= lo)
                .unwrap_or_else(|| panic!("bad range in pattern `{pattern}`"));
            ranges.push((lo, hi));
        } else {
            ranges.push((lo, lo));
        }
    }
    assert!(!ranges.is_empty(), "empty class in pattern `{pattern}`");
    ranges
}

fn parse_seq(chars: &mut Chars, pattern: &str) -> Vec<Quantified> {
    let mut out = Vec::new();
    while let Some(&c) = chars.peek() {
        if c == ')' {
            break;
        }
        chars.next();
        let node = match c {
            '(' => {
                let inner = parse_seq(chars, pattern);
                assert_eq!(
                    chars.next(),
                    Some(')'),
                    "unbalanced `(` in pattern `{pattern}`"
                );
                Node::Group(inner)
            }
            '[' => Node::Class(parse_class(chars, pattern)),
            '\\' => Node::Literal(escape(chars, pattern)),
            '.' | '^' | '$' | '|' => {
                panic!("`{c}` is not implemented (pattern `{pattern}`)")
            }
            other => Node::Literal(other),
        };
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("quantifier min"),
                        hi.trim().parse().expect("quantifier max"),
                    ),
                    None => {
                        let n = spec.trim().parse().expect("quantifier count");
                        (n, n)
                    }
                }
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            Some('*') => {
                chars.next();
                (0, 4)
            }
            Some('+') => {
                chars.next();
                (1, 4)
            }
            _ => (1, 1),
        };
        out.push(Quantified { node, min, max });
    }
    out
}

fn render_seq(nodes: &[Quantified], rng: &mut TestRng, out: &mut String) {
    for q in nodes {
        let reps = rng.gen_range(q.min..=q.max);
        for _ in 0..reps {
            match &q.node {
                Node::Literal(c) => out.push(*c),
                Node::Class(ranges) => {
                    let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
                    out.push(
                        char::from_u32(rng.gen_range(lo as u32..=hi as u32))
                            .expect("class range stays in valid chars"),
                    );
                }
                Node::Group(inner) => render_seq(inner, rng, out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pattern_parser_handles_the_repo_pattern() {
        let mut rng = TestRng::seed_from_u64(7);
        for _ in 0..200 {
            let s = "[a-z]{2,6}( [a-z]{2,6}){2,5}".generate(&mut rng);
            let words: Vec<&str> = s.split(' ').collect();
            assert!((3..=6).contains(&words.len()), "{s}");
            assert!(words.iter().all(|w| (2..=6).contains(&w.len())), "{s}");
        }
    }

    /// Draws `pattern` (one class, or one escape) 500 times: every draw
    /// is one of `members`, and every member is drawn.
    fn draws_exactly(pattern: &str, members: &[char]) {
        let mut rng = TestRng::seed_from_u64(9);
        let mut seen = vec![false; members.len()];
        for _ in 0..500 {
            let draw = pattern.generate(&mut rng);
            let mut chars = draw.chars();
            let (Some(c), None) = (chars.next(), chars.next()) else {
                panic!("`{pattern}` drew {draw:?}, not one character");
            };
            let at = members.iter().position(|&m| m == c);
            let at = at.unwrap_or_else(|| panic!("`{pattern}` drew {c:?}, not in {members:?}"));
            seen[at] = true;
        }
        for (member, seen) in members.iter().zip(seen) {
            assert!(seen, "`{pattern}` never drew {member:?} in 500 draws");
        }
    }

    #[test]
    fn class_escapes_name_control_characters() {
        draws_exactly(r"[ \t]", &[' ', '\t']);
        draws_exactly(r"[\n\r]", &['\n', '\r']);
        draws_exactly(r"\t", &['\t']);
    }

    #[test]
    fn class_escapes_make_metacharacters_literal() {
        draws_exactly(r"[\\]", &['\\']);
        draws_exactly(r"[\]a]", &[']', 'a']);
        draws_exactly(r"[a\-c]", &['a', '-', 'c']);
        draws_exactly(r"[\--\/]", &['-', '.', '/']);
    }

    #[test]
    fn hex_and_unicode_escapes_name_any_character() {
        draws_exactly(r"[\x41-\x43]", &['A', 'B', 'C']);
        draws_exactly(r"[\x0b\x7f]", &['\x0b', '\x7f']);
        draws_exactly(
            r"[\u{a0}\u{3000}\u{1F600}]",
            &['\u{a0}', '\u{3000}', '\u{1F600}'],
        );
        draws_exactly(r"\u{85}", &['\u{85}']);
    }

    #[test]
    fn a_literal_backslash_in_a_class_keeps_the_tree_s_draws() {
        // A class member written `\\` is the one backslash the old parser
        // took from a lone `\`: the members, so the draws, are the same.
        draws_exactly(r#"["\\ ]"#, &['"', '\\', ' ']);
    }

    #[test]
    #[should_panic(expected = "`.` is not implemented")]
    fn dot_is_refused() {
        "a.b".generate(&mut TestRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "`^` is not implemented")]
    fn caret_is_refused() {
        "^a".generate(&mut TestRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "`$` is not implemented")]
    fn dollar_is_refused() {
        "a$".generate(&mut TestRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "`|` is not implemented")]
    fn alternation_is_refused() {
        "(a|b)".generate(&mut TestRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "negated class `[^` is not implemented")]
    fn negated_class_is_refused() {
        "[^a]".generate(&mut TestRng::seed_from_u64(1));
    }

    #[test]
    fn perl_classes_are_refused_in_and_out_of_a_class() {
        for pattern in [r"\d", r"[\w]", r"a\s", r"[a\D]", r"\W", r"[\S]"] {
            let refused = std::panic::catch_unwind(|| {
                pattern.generate(&mut TestRng::seed_from_u64(1));
            });
            let message = refused.expect_err(pattern);
            let message = message.downcast_ref::<String>().expect("formatted panic");
            assert!(
                message.starts_with("class escape `\\") && message.contains("not implemented"),
                "{pattern}: {message}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown escape `\\q`")]
    fn unknown_letter_escapes_are_refused() {
        "[\\q]".generate(&mut TestRng::seed_from_u64(1));
    }

    #[test]
    fn quantifiers_and_escapes() {
        let mut rng = TestRng::seed_from_u64(8);
        let s = "ab\\{c?[0-9]{3}".generate(&mut rng);
        assert!(s.starts_with("ab{"), "{s}");
        let digits: String = s.chars().rev().take(3).collect();
        assert!(digits.chars().all(|c| c.is_ascii_digit()), "{s}");
    }
}
