//! A miniature Table II: tune and compare the four study parsers on a
//! sample of every dataset, raw vs. preprocessed.
//!
//! ```sh
//! cargo run --release --example parser_comparison
//! ```

use logmine::datasets::{study_datasets, LabeledCorpus};
use logmine::eval::{dataset_preprocessor, pairwise_f_measure, tune, ParserKind, TextTable};

fn main() {
    const SAMPLE: usize = 800;
    let mut table = TextTable::new(vec!["Dataset", "Parser", "F1 raw", "F1 preprocessed"]);

    for spec in study_datasets() {
        let sample = spec.generate(SAMPLE, 42);
        let preprocessor = dataset_preprocessor(spec.name());
        let preprocessed =
            (!preprocessor.rules().is_empty()).then(|| sample.preprocessed(&preprocessor));

        for kind in ParserKind::ALL {
            let f1 = |data: &LabeledCorpus| {
                tune(kind, data)
                    .instantiate(0)
                    .parse(&data.corpus)
                    .map(|p| pairwise_f_measure(&data.labels, &p.cluster_labels()).f1)
                    .unwrap_or(0.0)
            };
            let raw = f1(&sample);
            let pre = preprocessed
                .as_ref()
                .map_or_else(|| "-".to_string(), |d| format!("{:.2}", f1(d)));
            table.add_row(vec![
                spec.name().to_string(),
                kind.name().to_string(),
                format!("{raw:.2}"),
                pre,
            ]);
        }
    }
    println!("{table}");
    println!("(Finding 1: overall accuracy is high; Finding 2: preprocessing helps most");
    println!("methods. Paper reference values are printed by the table2 binary.)");
}
