//! One result schema for every row:
//! `{host:{nproc,cpu,rustc,commit}, seed, workloads:{<name>:{e2e:{<metric>:
//! {value,unit,samples,spread}}, layers:{…}}}}`.

use std::path::Path;
use std::process::Command;

use logmine_benchmark::json::Json;

use crate::harness::{Ctx, Metric, Metrics, Tally};
use crate::spec::Spec;

pub struct WorkloadResult {
    pub name: String,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
}

fn unit<'s>(spec: &'s Spec, metric: &Metric) -> Result<&'s str, String> {
    spec.unit(&metric.name)
        .ok_or_else(|| format!("metric `{}` is not declared in BENCHMARK.json", metric.name))
}

/// `workload/name unit value` for every metric measured.
pub fn print_lines(spec: &Spec, result: &WorkloadResult) -> Result<(), String> {
    for metric in result.e2e.0.iter().chain(&result.layers.0) {
        println!(
            "{}/{} {} {}",
            result.name,
            metric.name,
            unit(spec, metric)?,
            metric.value
        );
    }
    Ok(())
}

fn metrics_json(spec: &Spec, metrics: &Metrics) -> Result<Json, String> {
    let pairs = metrics
        .0
        .iter()
        .map(|metric| {
            Ok((
                metric.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(metric.value)),
                    ("unit", Json::str(unit(spec, metric)?)),
                    ("samples", Json::Num(metric.samples as f64)),
                    ("spread", metric.spread.map_or(Json::Null, Json::Num)),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::Obj(pairs))
}

fn first_line_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn host(root: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let cpus_allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|list| list.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        // CPUs this process may run on: 1 when `run.sh` pinned it.
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpus_allowed", Json::str(cpus_allowed)),
        ("cpu", Json::str(cpu)),
        (
            "rustc",
            Json::str(first_line_of(Command::new("rustc").arg("--version"))),
        ),
        (
            "commit",
            Json::str(first_line_of(
                Command::new("git")
                    .arg("-C")
                    .arg(root)
                    .args(["rev-parse", "--short", "HEAD"]),
            )),
        ),
    ])
}

pub fn document(
    spec: &Spec,
    root: &Path,
    ctx: &Ctx,
    results: &[WorkloadResult],
) -> Result<Json, String> {
    let workloads = results
        .iter()
        .map(|result| {
            Ok((
                result.name.clone(),
                Json::obj(vec![
                    ("attempted", Json::Num(result.tally.attempted as f64)),
                    ("failed", Json::Num(result.tally.failed as f64)),
                    ("e2e", metrics_json(spec, &result.e2e)?),
                    ("layers", metrics_json(spec, &result.layers)?),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::obj(vec![
        ("host", host(root)),
        ("seed", Json::Num(ctx.seed as f64)),
        ("quick", Json::Bool(ctx.quick)),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// The line the driver reads: every end-to-end metric (`--trace 0`) or
/// every per-layer metric (`--trace 1`) that `BENCHMARK.json` lists. A
/// per-layer metric this workload does not reach reads 0: the layer did no
/// work here.
pub fn driver_line(spec: &Spec, result: &WorkloadResult, traced: bool) -> Json {
    let (listed, measured) = if traced {
        (&spec.per_layer, &result.layers)
    } else {
        (&spec.end_to_end, &result.e2e)
    };
    let metrics = listed
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(measured.get(&m.name).unwrap_or(0.0))),
                    ("unit", Json::str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(result.tally.failed == 0)),
        ("attempted", Json::Num(result.tally.attempted.max(1) as f64)),
        ("failed", Json::Num(result.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}
