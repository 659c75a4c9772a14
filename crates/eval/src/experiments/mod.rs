//! Experiment runners, one per table/figure of the paper plus the
//! extension ablations. Each module exposes a `run` function returning
//! structured results, a `render` function producing a paper-style text
//! table, and a `report` function returning the experiment's whole
//! stdout (title, tables, paper-reference block) at the scale
//! [`RunOptions`] selects. [`ALL`] is the one table of them: the
//! `experiments` binary, `run_experiments.sh` and `tests/paper_pins.rs`
//! all iterate it.
//!
//! | name | module | reproduces | pinned |
//! |------|--------|------------|--------|
//! | `table1` | [`table1`] | Table I — dataset summary | yes |
//! | `table2` | [`table2`] | Table II — parsing accuracy raw/preprocessed | yes |
//! | `fig2` | [`fig2`] | Fig. 2 — running time vs. corpus size | no (seconds) |
//! | `fig3` | [`fig3`] | Fig. 3 — accuracy vs. corpus size, params tuned on 2 k | yes |
//! | `table3` | [`table3`] | Table III — anomaly detection with different parsers | yes |
//! | `critical_events` | [`critical`] | Finding 6 ablation — critical-event parse errors | yes |
//! | `preprocess_ablation` | [`preprocess_ablation`] | Finding 2 ablation — per-rule preprocessing | yes |
//! | `mining_tasks` | [`mining_tasks`] | §III-A extension — deployment verification & FSM | yes |
//! | `extensions` | [`extensions`] | extension — the next-generation LogPAI parsers | yes |
//! | `seed_sensitivity` | [`seed_sensitivity`] | extension — LogSig accuracy spread across seeds | yes |
//! | `invariant_compare` | [`invariant_compare`] | extension — PCA vs. invariant-mining detection | yes |
//! | `speedup` | [`speedup`] | extension — chunked-parallel parsing speedup | no (seconds) |

use crate::{ParserKind, TextTable};

pub mod critical;
pub mod extensions;
pub mod fig2;
pub mod fig3;
pub mod invariant_compare;
pub mod mining_tasks;
pub mod preprocess_ablation;
pub mod seed_sensitivity;
pub mod speedup;
pub mod table1;
pub mod table2;
pub mod table3;

/// What the runner hands every [`Experiment::report`].
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Reduced-size run (`--quick`).
    pub quick: bool,
    /// Threads for the timed parse (`--threads N`); `fig2` is the only
    /// reader.
    pub threads: usize,
}

/// One row of [`ALL`].
pub struct Experiment {
    /// Name on the runner's command line and of its `results/` file.
    pub name: &'static str,
    /// Whether two runs print the same bytes, so `results/` can pin
    /// them; false for the two whose output contains seconds.
    pub pinned: bool,
    /// Runs the experiment and returns its stdout.
    pub report: fn(&RunOptions) -> String,
}

/// Generation seed of the experiments whose `run` takes one.
const SEED: u64 = 42;

/// Sub-figure order of the paper's Fig. 2 and Fig. 3 (Table I's, which
/// `study_datasets` follows, has Proxifier third).
const FIGURE_DATASETS: [&str; 5] = ["BGL", "HPC", "HDFS", "Zookeeper", "Proxifier"];

/// Largest size a sweep attempts `kind` at (`usize::MAX` when uncapped).
fn size_cap(kind: ParserKind, lke_cap: usize, logsig_cap: usize) -> usize {
    match kind {
        ParserKind::Lke => lke_cap,
        ParserKind::LogSig => logsig_cap,
        _ => usize::MAX,
    }
}

/// The table Fig. 2 and Fig. 3 draw per dataset: one row per parser, one
/// column per swept size, `-` where `cell` has nothing (a capped method).
fn series_table(
    sizes: impl Iterator<Item = usize>,
    cell: impl Fn(ParserKind, usize) -> Option<String>,
) -> TextTable {
    let mut sizes: Vec<usize> = sizes.collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut headers = vec!["Parser".to_string()];
    headers.extend(sizes.iter().map(|s| format!("{s}")));
    let mut table = TextTable::new(headers);
    for kind in ParserKind::ALL {
        let mut row = vec![kind.name().to_string()];
        row.extend(
            sizes
                .iter()
                .map(|&size| cell(kind, size).unwrap_or_else(|| "-".to_string())),
        );
        table.add_row(row);
    }
    table
}

/// Every experiment, in the order `experiments list` prints them.
#[rustfmt::skip]
pub static ALL: [Experiment; 12] = [
    Experiment { name: "table1", pinned: true, report: table1::report },
    Experiment { name: "table2", pinned: true, report: table2::report },
    Experiment { name: "fig2", pinned: false, report: fig2::report },
    Experiment { name: "fig3", pinned: true, report: fig3::report },
    Experiment { name: "table3", pinned: true, report: table3::report },
    Experiment { name: "critical_events", pinned: true, report: critical::report },
    Experiment { name: "preprocess_ablation", pinned: true, report: preprocess_ablation::report },
    Experiment { name: "mining_tasks", pinned: true, report: mining_tasks::report },
    Experiment { name: "extensions", pinned: true, report: extensions::report },
    Experiment { name: "seed_sensitivity", pinned: true, report: seed_sensitivity::report },
    Experiment { name: "invariant_compare", pinned: true, report: invariant_compare::report },
    Experiment { name: "speedup", pinned: false, report: speedup::report },
];
