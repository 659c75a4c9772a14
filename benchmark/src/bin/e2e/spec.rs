//! `BENCHMARK.json`: the one place metric names, units, directions and
//! regression bounds are written down. The harness reads it; it never
//! carries a second copy.

use std::io;
use std::path::Path;

use logmine_benchmark::json::Json;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn metric_list(doc: &Json, key: &str) -> io::Result<Vec<MetricSpec>> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| invalid(format!("BENCHMARK.json has no `{key}` list")))?
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| invalid(format!("a `{key}` metric has no `{field}`")))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn load(path: &Path) -> io::Result<Spec> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let doc = Json::parse(&text).map_err(invalid)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| invalid("BENCHMARK.json has no `workloads` list"))?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect();
        Ok(Spec {
            workloads,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(10.0),
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    /// The spec of a metric by name. `failed_ratio` is the one metric the
    /// harness reports that the file cannot list (it is 0 on every good
    /// run, which a relative bound cannot gate); `passed_ratio` stands in.
    pub fn unit(&self, name: &str) -> Option<&str> {
        if name == "failed_ratio" {
            return Some("ratio");
        }
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}
