//! Property-based tests of the workspace's one JSON (`logparse_obs::Json`).
//! They live here, not beside the type, because `logparse-obs` takes no
//! dependency — not even the vendored proptest as a dev-dependency.

use logmine::obs::Json;
use proptest::prelude::*;
use proptest::strategy::boxed;

/// Controls, the two escaped punctuation marks, ASCII, Latin-1, BMP and
/// astral characters.
const TEXT: &str = "[\u{0}-\u{1f}\"\\\\ a-z\u{e9}\u{4e2d}\u{1F600}-\u{1F64F}]{0,8}";

/// Any finite `f64` — subnormals, huge magnitudes and `-0.0` included —
/// plus the everyday range the raw bit patterns almost never land in.
fn number() -> impl Strategy<Value = Json> {
    let finite = |n: f64| Json::Num(if n.is_finite() { n } else { 0.0 });
    prop_oneof![
        (0u64..=u64::MAX).prop_map(move |bits| finite(f64::from_bits(bits))),
        (-1.0e6f64..1.0e6).prop_map(Json::Num),
        (0usize..100_000).prop_map(Json::usize),
    ]
}

/// Documents nested up to `depth` containers deep.
fn json(depth: usize) -> Box<dyn Strategy<Value = Json>> {
    let leaf = prop_oneof![
        Just(Json::Null),
        (0u8..2).prop_map(|bit| Json::Bool(bit == 1)),
        number(),
        TEXT.prop_map(Json::Str),
    ];
    if depth == 0 {
        return boxed(leaf);
    }
    boxed(prop_oneof![
        leaf,
        prop::collection::vec(json(depth - 1), 0..4).prop_map(Json::Arr),
        prop::collection::vec((TEXT, json(depth - 1)), 0..4).prop_map(Json::Obj),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn what_is_written_parses_back(value in json(5)) {
        let text = value.to_string();
        prop_assert!(!text.contains('\n'), "one line: {text}");
        prop_assert_eq!(Json::parse(&text), Ok(value), "{text}");
    }

    #[test]
    fn numbers_never_print_an_exponent_and_round_trip_exactly(value in number()) {
        let text = value.to_string();
        prop_assert!(!text.contains(['e', 'E']), "{text}");
        let back = Json::parse(&text).unwrap().as_f64().unwrap();
        // Bit-exact, which `==` on f64 would not check for -0.0.
        prop_assert_eq!(back.to_bits(), value.as_f64().unwrap().to_bits());
    }
}
