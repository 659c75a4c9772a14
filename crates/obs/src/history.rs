//! Time-series history: a bounded ring of periodic samples per series.
//!
//! Point-in-time counters answer "how many"; drift questions — is
//! template churn *rising*, did the singleton fraction *spike* — need a
//! short trailing window of values. [`History`] keeps one fixed-capacity
//! ring of `f64` samples per named series, sharded across a handful of
//! mutexes like the [`crate::Registry`], so recording from the ingest
//! aggregator never contends with a scrape or an alert evaluation for
//! long. Memory is bounded by `series × capacity × 8` bytes.
//!
//! Two entry points append points:
//!
//! * [`History::record_sample`] — the *instrumentation* surface. Call
//!   sites pass a literal series name; the workspace lint cross-checks
//!   those names against the DESIGN.md Observability table the same way
//!   it does metric families.
//! * [`History::replay`] — the *data import* surface, for feeding back
//!   series whose names arrive at runtime (the `logmine alerts check`
//!   fixture loader). Same behaviour, exempt from the literal-name rule.
//!
//! [`HistorySampler`] bridges the registry to the ring: it holds handles
//! to selected counters, gauges and histogram quantiles and copies their
//! current values into the history on every [`HistorySampler::tick`] —
//! one tick per ingest window gives every series a shared time base, so
//! rate/delta derivation ([`History::delta`], [`History::rate`]) and the
//! alert engine's `for N windows` hysteresis all speak in windows.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge};

/// Number of independently locked shards; series hash to a shard.
const SHARDS: usize = 8;

/// The smallest usable ring: `delta` needs two points.
const MIN_CAPACITY: usize = 2;

/// A lock-sharded store of bounded per-series sample rings.
#[derive(Debug)]
pub struct History {
    capacity: usize,
    shards: Vec<Mutex<HashMap<String, VecDeque<f64>>>>,
}

impl History {
    /// A history keeping at most `capacity` samples per series
    /// (clamped to at least 2 so deltas are always derivable).
    pub fn new(capacity: usize) -> History {
        History {
            capacity: capacity.max(MIN_CAPACITY),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The per-series ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard(&self, series: &str) -> &Mutex<HashMap<String, VecDeque<f64>>> {
        let hash = crate::Fnv1a::new().bytes(series.as_bytes()).finish();
        // The modulo keeps the index in range of the SHARDS-sized Vec.
        &self.shards[(hash as usize) % SHARDS]
    }

    /// Appends one sample to `series`, evicting the oldest point once
    /// the ring is full. Instrumentation call sites pass a literal name;
    /// use [`History::replay`] for names that arrive at runtime.
    pub fn record_sample(&self, series: &str, value: f64) {
        self.replay(series, value);
    }

    /// Appends one sample to a series whose name is runtime data
    /// (fixture replay, imports). Identical behaviour to
    /// [`History::record_sample`].
    pub fn replay(&self, series: &str, value: f64) {
        let mut shard = self
            .shard(series)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ring = shard
            .entry(series.to_string())
            .or_insert_with(|| VecDeque::with_capacity(self.capacity.min(64)));
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(value);
    }

    /// All samples of `series`, oldest first (empty if unknown).
    pub fn series(&self, series: &str) -> Vec<f64> {
        let shard = self
            .shard(series)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard
            .get(series)
            .map(|ring| ring.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The most recent sample of `series`.
    pub fn latest(&self, series: &str) -> Option<f64> {
        let shard = self
            .shard(series)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.get(series).and_then(|ring| ring.back().copied())
    }

    /// `newest - previous`: the change over the last recorded step.
    /// `None` until the series has two points.
    pub fn delta(&self, series: &str) -> Option<f64> {
        self.rate(series, 1)
    }

    /// Average change per step over the trailing `steps` intervals:
    /// `(newest - sample[len-1-steps]) / steps`. `None` if the series
    /// is shorter than `steps + 1` points or `steps` is zero.
    pub fn rate(&self, series: &str, steps: usize) -> Option<f64> {
        if steps == 0 {
            return None;
        }
        let shard = self
            .shard(series)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ring = shard.get(series)?;
        let newest = ring.back().copied()?;
        let base = ring.get(ring.len().checked_sub(steps + 1)?).copied()?;
        Some((newest - base) / steps as f64)
    }

    /// Number of samples currently held for `series`.
    pub fn len(&self, series: &str) -> usize {
        let shard = self
            .shard(series)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.get(series).map(VecDeque::len).unwrap_or(0)
    }

    /// True if no series has any samples.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| {
            shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .is_empty()
        })
    }

    /// All series names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort();
        out
    }
}

/// A registry probe: where a sampled series reads its value from.
#[derive(Debug, Clone)]
enum Probe {
    /// Cumulative counter value (derive per-window rates with
    /// [`History::delta`]).
    Counter(Counter),
    /// Instantaneous gauge value.
    Gauge(Gauge),
    /// An estimated quantile of a histogram's full distribution.
    Quantile(Histogram, f64),
}

/// Copies selected metric handles into a [`History`] on each tick.
///
/// Build it once at pipeline setup (handle registration takes `&mut
/// self`), then call [`HistorySampler::tick`] at every window boundary.
#[derive(Debug)]
pub struct HistorySampler {
    history: Arc<History>,
    probes: Vec<(String, Probe)>,
}

impl HistorySampler {
    /// A sampler recording into `history`.
    pub fn new(history: Arc<History>) -> HistorySampler {
        HistorySampler {
            history,
            probes: Vec::new(),
        }
    }

    /// The history this sampler records into.
    pub fn history(&self) -> &Arc<History> {
        &self.history
    }

    /// Samples `counter`'s cumulative value as `series` on every tick.
    pub fn track_counter(&mut self, series: &str, counter: Counter) {
        self.probes
            .push((series.to_string(), Probe::Counter(counter)));
    }

    /// Samples `gauge`'s current value as `series` on every tick.
    pub fn track_gauge(&mut self, series: &str, gauge: Gauge) {
        self.probes.push((series.to_string(), Probe::Gauge(gauge)));
    }

    /// Samples the estimated `q`-quantile of `histogram` as `series` on
    /// every tick.
    pub fn track_quantile(&mut self, series: &str, histogram: Histogram, q: f64) {
        self.probes
            .push((series.to_string(), Probe::Quantile(histogram, q)));
    }

    /// Number of tracked probes.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// Records one sample per tracked probe.
    pub fn tick(&self) {
        for (series, probe) in &self.probes {
            let value = match probe {
                Probe::Counter(c) => c.get() as f64,
                Probe::Gauge(g) => g.get(),
                Probe::Quantile(h, q) => h.snapshot().quantile(*q).unwrap_or(f64::NAN),
            };
            self.history.replay(series, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Buckets;

    #[test]
    fn ring_is_bounded_and_fifo() {
        let history = History::new(3);
        for i in 0..5 {
            history.record_sample("s", i as f64);
        }
        assert_eq!(history.series("s"), vec![2.0, 3.0, 4.0]);
        assert_eq!(history.len("s"), 3);
        assert_eq!(history.latest("s"), Some(4.0));
    }

    #[test]
    fn capacity_is_clamped_to_two() {
        let history = History::new(0);
        assert_eq!(history.capacity(), 2);
        history.record_sample("s", 1.0);
        history.record_sample("s", 2.0);
        history.record_sample("s", 3.0);
        assert_eq!(history.series("s"), vec![2.0, 3.0]);
    }

    #[test]
    fn delta_and_rate_derive_from_the_ring() {
        let history = History::new(8);
        assert_eq!(history.delta("s"), None, "empty series has no delta");
        history.record_sample("s", 10.0);
        assert_eq!(history.delta("s"), None, "one point has no delta");
        history.record_sample("s", 25.0);
        assert_eq!(history.delta("s"), Some(15.0));
        history.record_sample("s", 40.0);
        assert_eq!(history.rate("s", 2), Some(15.0));
        assert_eq!(history.rate("s", 3), None, "not enough points");
        assert_eq!(history.rate("s", 0), None);
    }

    #[test]
    fn unknown_series_is_empty_everywhere() {
        let history = History::new(4);
        assert!(history.series("nope").is_empty());
        assert_eq!(history.latest("nope"), None);
        assert_eq!(history.len("nope"), 0);
        assert!(history.is_empty());
    }

    #[test]
    fn names_are_sorted_across_shards() {
        let history = History::new(4);
        for name in ["zeta", "alpha", "mid", "beta"] {
            history.replay(name, 1.0);
        }
        assert_eq!(history.names(), vec!["alpha", "beta", "mid", "zeta"]);
        assert!(!history.is_empty());
    }

    #[test]
    fn sampler_ticks_counters_gauges_and_quantiles() {
        let history = Arc::new(History::new(8));
        let counter = Counter::detached();
        let gauge = Gauge::detached();
        let hist = Histogram::detached();
        let mut sampler = HistorySampler::new(Arc::clone(&history));
        sampler.track_counter("lines", counter.clone());
        sampler.track_gauge("depth", gauge.clone());
        sampler.track_quantile("p99", hist.clone(), 0.99);
        assert_eq!(sampler.probe_count(), 3);

        counter.inc_by(7);
        gauge.set(3.0);
        hist.observe(0.5);
        sampler.tick();
        counter.inc_by(3);
        sampler.tick();

        assert_eq!(history.series("lines"), vec![7.0, 10.0]);
        assert_eq!(history.delta("lines"), Some(3.0));
        assert_eq!(history.latest("depth"), Some(3.0));
        let p99 = history.latest("p99").unwrap();
        assert!(p99.is_finite() && p99 > 0.0, "{p99}");
    }

    #[test]
    fn concurrent_recording_from_8_threads_stays_bounded() {
        let history = Arc::new(History::new(16));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let history = Arc::clone(&history);
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        history.replay(&format!("series-{}", t % 4), i as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for name in history.names() {
            assert!(history.len(&name) <= 16);
        }
        assert_eq!(history.names().len(), 4);
    }

    #[test]
    fn quantile_sampling_uses_snapshot_estimate() {
        let hist = Histogram::with_buckets(&Buckets::explicit(&[1.0, 2.0, 4.0]));
        for _ in 0..90 {
            hist.observe(0.5);
        }
        for _ in 0..10 {
            hist.observe(3.0);
        }
        let p50 = hist.snapshot().quantile(0.5).unwrap();
        assert!(p50 <= 1.0, "median lands in the first bucket: {p50}");
        let p99 = hist.snapshot().quantile(0.99).unwrap();
        assert!(p99 > 2.0, "tail lands in the last bucket: {p99}");
    }
}
