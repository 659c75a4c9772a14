//! A gate against the machine's own noise.
//!
//! The 2-vCPU sandbox this benchmark is sized for is noisy in one
//! direction only: a run is never faster than the program allows, but for
//! seconds to a minute at a time everything takes 1.35–1.5× as long (the
//! vCPU has neighbours), with smaller disturbances in between. A median
//! over runs reports whichever state filled most of the pass, and two
//! passes of the same commit differ by a third.
//!
//! So the harness times a fixed kernel of its own before and after every
//! run. A run is *calm* when both timings are within [`CALM_FACTOR`] of the
//! fastest the kernel has ever run in this checkout. Before a run the
//! harness waits for a calm kernel timing; timing metrics come from the
//! fastest calm run; and a pass that has too few calm runs keeps going, up
//! to a cap. Nothing is rescaled: every reported value is a wall or CPU
//! time as measured. The kernel is the harness's code, not the program's,
//! so a change to the program cannot move the gate.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A kernel timing up to this multiple of the fastest one seen counts as
/// the fast state. Fast-state timings scatter by 10–20 %; the slow state
/// starts at 1.4×.
const CALM_FACTOR: f64 = 1.25;

/// About 10 ms of integer mixing, single-threaded, no memory traffic.
fn kernel_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..8_000_000u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= z ^ (z >> 31);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

pub struct Gate {
    /// Fastest kernel timing seen, in this process or an earlier one.
    fastest_ms: f64,
    /// Where that is kept between invocations, so that a pass which never
    /// saw the fast state can tell.
    path: PathBuf,
    last_ms: f64,
}

impl Gate {
    pub fn open(out: &Path) -> Gate {
        let path = out.join("kernel-fastest-ms.txt");
        let remembered = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| text.trim().parse::<f64>().ok())
            .filter(|ms| ms.is_finite() && *ms > 0.0);
        let mut gate = Gate {
            fastest_ms: remembered.unwrap_or(f64::INFINITY),
            path,
            last_ms: 0.0,
        };
        gate.probe();
        gate
    }

    fn probe(&mut self) -> f64 {
        self.last_ms = kernel_ms();
        if self.last_ms < self.fastest_ms {
            self.fastest_ms = self.last_ms;
            let _ = std::fs::write(&self.path, format!("{}\n", self.fastest_ms));
        }
        self.last_ms
    }

    fn is_calm(&self, kernel_ms: f64) -> bool {
        kernel_ms <= self.fastest_ms * CALM_FACTOR
    }

    /// Sleeps until the kernel runs at its fast-state speed, or `deadline`.
    pub fn wait_for_calm(&mut self, deadline: Instant) {
        while !self.is_calm(self.last_ms) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            self.probe();
        }
    }

    /// Runs `body` between two kernel timings (the one before is the
    /// previous call's one after) and says whether both were calm.
    pub fn around<R, E>(&mut self, body: impl FnOnce() -> Result<R, E>) -> Result<(R, bool), E> {
        let before = self.last_ms;
        let result = body()?;
        let slower = before.max(self.probe());
        Ok((result, self.is_calm(slower)))
    }

    pub fn describe(&self) -> String {
        format!(
            "kernel now {:.1} ms, fastest seen {:.1} ms",
            self.last_ms, self.fastest_ms
        )
    }
}
