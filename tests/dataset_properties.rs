//! Property-based tests tying the dataset generators, the template
//! model, and the oracle parser together: generation and parsing are
//! inverse operations when the template library is known.

use logmine::core::{EventId, LogParser};
use logmine::datasets::{study_datasets, DatasetSpec, TemplateSpec};
use logmine::parsers::Oracle;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The oracle, armed with the generating library, recovers the
    /// ground-truth labels on (almost) every message of every dataset —
    /// the sanity bound for all other parsers' accuracy scores.
    #[test]
    fn oracle_recovers_generation_labels(seed in 0u64..1000, n in 50usize..300) {
        for spec in study_datasets() {
            let data = spec.generate(n, seed);
            let oracle = Oracle::new(data.truth_templates.clone());
            let parse = oracle.parse(&data.corpus).unwrap();
            let correct = (0..n)
                .filter(|&i| parse.assignments()[i] == Some(EventId::new(data.labels[i])))
                .count();
            // Rare cross-template ambiguity (a rendered message matching a
            // second, more specific template) is tolerated at < 2 %.
            prop_assert!(
                correct as f64 >= 0.98 * n as f64,
                "{}: only {correct}/{n} recovered",
                spec.name()
            );
        }
    }

    /// Rendered messages always match their own ground-truth template and
    /// parameter extraction returns exactly the slot values' count.
    #[test]
    fn render_extract_round_trip(seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let spec = TemplateSpec::parse(
            "Received block <blk> of size <size> from <ip> in <ms> path <path>",
        );
        let truth = spec.ground_truth();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let message = spec.render(&mut rng);
            let tokens: Vec<String> = message.split_whitespace().map(str::to_owned).collect();
            let params = truth.extract_parameters(&tokens);
            prop_assert!(params.is_some(), "{message} must match its template");
            prop_assert_eq!(params.unwrap().len(), truth.wildcard_count());
        }
    }

    /// Generation is pure: same (spec, size, seed) → same corpus; and
    /// sampling commutes with it.
    #[test]
    fn generation_is_a_pure_function(seed in 0u64..500, n in 10usize..200) {
        let spec = logmine::datasets::hdfs::spec();
        let a = spec.generate(n, seed);
        let b = spec.generate(n, seed);
        prop_assert_eq!(&a.corpus, &b.corpus);
        prop_assert_eq!(&a.labels, &b.labels);
        let sa = a.sample(n / 2, seed ^ 1);
        let sb = b.sample(n / 2, seed ^ 1);
        prop_assert_eq!(&sa.corpus, &sb.corpus);
    }

    /// HDFS sessions keep their invariant under any seed/rate: every
    /// message belongs to a valid block, and block ids appear in their
    /// own messages.
    #[test]
    fn hdfs_sessions_are_internally_consistent(
        seed in 0u64..500,
        blocks in 5usize..60,
        rate in 0.0f64..0.5,
    ) {
        let s = logmine::datasets::hdfs::generate_sessions(blocks, rate, seed);
        prop_assert_eq!(s.block_ids.len(), blocks);
        prop_assert_eq!(s.anomalous.len(), blocks);
        prop_assert_eq!(s.block_of.len(), s.data.len());
        for (i, &b) in s.block_of.iter().enumerate() {
            prop_assert!(b < blocks);
            prop_assert!(
                s.data.corpus.tokens(i).iter().any(|t| t == &s.block_ids[b]),
                "message {i} lacks its block id"
            );
        }
    }

    /// Custom specs honour their declared shape: rendered length equals
    /// the template length, and the frequency skew respects weights.
    #[test]
    fn custom_spec_shape_is_honoured(seed in 0u64..500) {
        let spec = DatasetSpec::with_weights(
            "shape",
            vec![
                TemplateSpec::parse("alpha <int> beta"),
                TemplateSpec::parse("gamma <ip> delta <ms> end"),
            ],
            vec![10.0, 1.0],
        );
        let data = spec.generate(400, seed);
        let mut counts = [0usize; 2];
        for i in 0..data.len() {
            counts[data.labels[i]] += 1;
            let expected_len = spec.templates()[data.labels[i]].len();
            prop_assert_eq!(data.corpus.tokens(i).len(), expected_len);
        }
        prop_assert!(counts[0] > counts[1], "{counts:?}");
    }
}
