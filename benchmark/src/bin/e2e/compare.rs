//! `e2e compare A.json B.json`: one row per workload × end-to-end metric
//! with both medians, the bound from `BENCHMARK.json` and a verdict. This
//! is what the A/A acceptance check runs; it exits non-zero on `worse`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use logmine_benchmark::json::Json;

use crate::spec::{MetricSpec, Spec};
use crate::Flags;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    /// Run-to-run quartile spread on either side exceeds the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the run's median and its within-run spread.
#[derive(Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: Option<f64>,
}

pub fn judge(metric: &MetricSpec, base: Side, new: Side) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    if [base.spread, new.spread]
        .into_iter()
        .flatten()
        .any(|s| s > bound)
    {
        return Verdict::Unresolved;
    }
    // Positive when `new` is worse, as a share of the baseline.
    let scale = base.value.abs().max(f64::MIN_POSITIVE);
    let worsening = if metric.higher_is_better {
        (base.value - new.value) / scale
    } else {
        (new.value - base.value) / scale
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let entry = doc
        .get("workloads")?
        .get(workload)?
        .get("e2e")?
        .get(metric)?;
    Some(Side {
        value: entry.get("value")?.as_f64()?,
        spread: entry.get("spread").and_then(Json::as_f64),
    })
}

pub fn compare(flags: &Flags) -> Result<ExitCode, String> {
    let [_, a, b] = flags.positional.as_slice() else {
        return Err("usage: e2e compare A.json B.json [--root DIR]".into());
    };
    let root = PathBuf::from(flags.option("--root").unwrap_or("."));
    let spec = Spec::load(&root.join("BENCHMARK.json")).map_err(|e| e.to_string())?;
    let (base, new) = (load(Path::new(a))?, load(Path::new(b))?);

    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut worse = 0;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(x), Some(y)) = (
                side(&base, workload, &metric.name),
                side(&new, workload, &metric.name),
            ) else {
                continue;
            };
            let verdict = judge(metric, x, y);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>+7.2}% {:>6.1}%  {}",
                workload,
                metric.name,
                x.value,
                y.value,
                (y.value - x.value) / x.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.label(),
            );
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    fn steady(value: f64) -> Side {
        Side {
            value,
            spread: Some(0.01),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let rate = metric(true, 0.07);
        assert_eq!(
            judge(&rate, steady(100.0), steady(95.0)),
            Verdict::Unchanged
        );
        assert_eq!(judge(&rate, steady(100.0), steady(92.0)), Verdict::Worse);
        assert_eq!(judge(&rate, steady(100.0), steady(108.0)), Verdict::Better);
        let cost = metric(false, 0.05);
        assert_eq!(
            judge(&cost, steady(100.0), steady(104.0)),
            Verdict::Unchanged
        );
        assert_eq!(judge(&cost, steady(100.0), steady(106.0)), Verdict::Worse);
        assert_eq!(judge(&cost, steady(100.0), steady(94.0)), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let rate = metric(true, 0.07);
        let noisy = Side {
            value: 80.0,
            spread: Some(0.2),
        };
        assert_eq!(judge(&rate, steady(100.0), noisy), Verdict::Unresolved);
        assert_eq!(judge(&rate, noisy, steady(100.0)), Verdict::Unresolved);
        // A deterministic metric has no spread and is always resolved.
        let exact = Side {
            value: 1.0,
            spread: None,
        };
        assert_eq!(judge(&metric(true, 0.0), exact, exact), Verdict::Unchanged);
    }
}
