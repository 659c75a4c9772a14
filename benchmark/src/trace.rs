//! Harness-side span trace: one span around every phase the benchmark
//! drives (generate, warm-up, each CLI invocation, send, drain-wait, each
//! probe call), kept in memory and written out once at the end. No span is
//! recorded inside the program; that is a later change.

use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Which repetition of the workload's run the span belongs to.
    pub run: u32,
}

pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_owned(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded from here on carry this run id.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Runs `body` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let result = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Records a span timed elsewhere (another thread, or the `layers`
    /// process) under the innermost open span. `start_ns` and `end_ns` are
    /// on this tracer's clock.
    pub fn record(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
    }

    /// Self time of each span: its duration minus the part of that
    /// interval its children cover (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time per span name, in seconds, largest first.
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut totals: Vec<(String, f64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let secs = self_ns as f64 / 1e9;
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some(entry) => entry.1 += secs,
                None => totals.push((span.name.clone(), secs)),
            }
        }
        totals.sort_by(|a, b| b.1.total_cmp(&a.1));
        totals
    }

    pub fn to_json(&self) -> Json {
        let self_times = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(span.name.clone())),
                    ("start_ns", Json::Num(span.start_ns as f64)),
                    ("end_ns", Json::Num(span.end_ns as f64)),
                    ("self_ns", Json::Num(self_times[id] as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("workload", Json::str(self.workload.clone())),
                    ("run", Json::Num(f64::from(span.run))),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload.clone())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new("w");
        tracer.span("root", |t| {
            // Two overlapping children and one disjoint child, on a fixed clock.
            t.record("a", 100, 300);
            t.record("b", 200, 400);
            t.record("c", 600, 700);
        });
        tracer.spans[0].start_ns = 0;
        tracer.spans[0].end_ns = 1_000;
        let self_times = tracer.self_times_ns();
        assert_eq!(self_times[0], 1_000 - 300 - 100);
        assert_eq!(self_times[1], 200);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[0].parent, None);
    }

    #[test]
    fn nested_spans_get_parents_and_run_ids() {
        let mut tracer = Tracer::new("w");
        tracer.set_run(3);
        tracer.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[1].run, 3);
        let json = tracer.to_json();
        assert_eq!(
            json.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
