//! The pure scheduling state machine of a map job.
//!
//! The [`Scheduler`] owns every decision that matters for correctness —
//! which task runs next, whether a failure retries or dead-letters, how
//! long a retry backs off — while knowing nothing about processes,
//! files or clocks: time is an abstract `now_ms` the caller passes in.
//! The coordinator drives it against real subprocesses; the property
//! tests drive it against simulated fault plans, which is how the
//! partition and backoff invariants are checked over arbitrary (shard
//! count, worker count, fault plan) triples without spawning anything.
//!
//! # Invariants
//!
//! * Every task ends in exactly one terminal state ([`TaskState::Completed`]
//!   or [`TaskState::DeadLettered`]); together the terminal tasks
//!   partition the job's chunk ranges exactly once.
//! * A task is dead-lettered precisely when its `max_retries`-th
//!   attempt (the attempt budget, first try included) fails.
//! * Per task, retry backoff delays are monotone non-decreasing:
//!   attempt `a` waits in `[step_a, 2·step_a]` with
//!   `step_a = backoff_ms · 2^(a-1)`, and the delay is additionally
//!   clamped to never regress below the previous delay (relevant only
//!   once the exponential saturates).
//! * At most `workers` tasks are running at any moment.

use logparse_obs::Fnv1a;

/// Where a task stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting to run `attempt` (1-based) once `ready_at_ms` passes.
    Pending {
        /// The attempt number the next spawn will carry.
        attempt: u32,
        /// Earliest `now_ms` at which the attempt may start.
        ready_at_ms: u64,
    },
    /// `attempt` is running since `started_at_ms`.
    Running {
        /// The running attempt number.
        attempt: u32,
        /// When the attempt started, in the caller's `now_ms` clock.
        started_at_ms: u64,
    },
    /// A validated result exists.
    Completed,
    /// The attempt budget is exhausted; a DLQ record exists.
    DeadLettered,
}

/// Initial task state when (re)building a scheduler from a job
/// directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSeed {
    /// Never attempted (or attempted with nothing durable to show).
    Fresh,
    /// Some attempts were consumed by a previous coordinator
    /// incarnation; the next spawn carries `next_attempt`.
    Resumed {
        /// The attempt number the next spawn will carry.
        next_attempt: u32,
    },
    /// A validated result already exists.
    Completed,
    /// A dead-letter record already exists.
    DeadLettered,
}

/// What the coordinator should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Spawn `attempt` of `task` now. The scheduler has already moved
    /// the task to [`TaskState::Running`].
    Spawn {
        /// Task to spawn.
        task: usize,
        /// Attempt number to pass to the worker (1-based).
        attempt: u32,
    },
    /// Nothing to spawn right now: wait for a running worker to exit,
    /// or until `until_ms` (the earliest retry becomes ready) if given.
    Wait {
        /// Earliest `now_ms` at which a pending retry unblocks, when
        /// the only obstacle is backoff rather than a full worker pool.
        until_ms: Option<u64>,
    },
    /// Every task is terminal.
    Done,
}

/// How a reported failure was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureDisposition {
    /// The task will be retried as `next_attempt` after `backoff_ms`.
    Retry {
        /// The attempt number of the upcoming retry.
        next_attempt: u32,
        /// The backoff delay before it becomes ready.
        backoff_ms: u64,
    },
    /// The attempt budget is exhausted after `attempts` tries; the
    /// caller must write the DLQ record.
    DeadLetter {
        /// Total attempts consumed (== the budget).
        attempts: u32,
    },
}

/// The scheduling state machine, as the `scheduler` module docs set
/// it out.
#[derive(Debug, Clone)]
pub struct Scheduler {
    tasks: Vec<TaskState>,
    /// Largest delay handed out so far, per task — the monotonicity
    /// clamp for the saturated tail of the exponential.
    last_delay_ms: Vec<u64>,
    workers: usize,
    max_retries: u32,
    backoff_ms: u64,
    seed: u64,
}

/// FNV-1a over `(seed, task, attempt)`, reduced to `0..=bound` — the
/// deterministic jitter source. The same job id always jitters the
/// same way, which keeps chaos tests reproducible.
fn jitter(seed: u64, task: usize, attempt: u32, bound: u64) -> u64 {
    if bound == 0 {
        return 0;
    }
    let hash = Fnv1a::seeded(seed)
        .bytes(&(task as u64).to_le_bytes())
        .bytes(&u64::from(attempt).to_le_bytes())
        .finish();
    hash % (bound.saturating_add(1))
}

impl Scheduler {
    /// A scheduler for `tasks` map tasks over at most `workers`
    /// concurrent workers, with a per-task attempt budget of
    /// `max_retries` (clamped to at least 1) and a base backoff of
    /// `backoff_ms`. `seed` feeds the deterministic jitter.
    pub fn new(tasks: usize, workers: usize, max_retries: u32, backoff_ms: u64, seed: u64) -> Self {
        Scheduler {
            tasks: vec![
                TaskState::Pending {
                    attempt: 1,
                    ready_at_ms: 0,
                };
                tasks
            ],
            last_delay_ms: vec![0; tasks],
            workers: workers.max(1),
            max_retries: max_retries.max(1),
            backoff_ms,
            seed,
        }
    }

    /// Re-seats `task` from recovered on-disk state (resume path).
    /// A resumed attempt counter at or beyond the budget seats the
    /// task as pending its final attempt — the caller is expected to
    /// have dead-lettered such tasks before restoring.
    pub fn restore(&mut self, task: usize, seed: TaskSeed) {
        let Some(slot) = self.tasks.get_mut(task) else {
            return;
        };
        *slot = match seed {
            TaskSeed::Fresh => TaskState::Pending {
                attempt: 1,
                ready_at_ms: 0,
            },
            TaskSeed::Resumed { next_attempt } => TaskState::Pending {
                attempt: next_attempt.clamp(1, self.max_retries),
                ready_at_ms: 0,
            },
            TaskSeed::Completed => TaskState::Completed,
            TaskSeed::DeadLettered => TaskState::DeadLettered,
        };
    }

    /// The state of `task` (out-of-range reads as dead-lettered, which
    /// never happens for in-contract callers).
    pub fn state(&self, task: usize) -> TaskState {
        self.tasks
            .get(task)
            .copied()
            .unwrap_or(TaskState::DeadLettered)
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The attempt budget.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Tasks currently running.
    pub fn running(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| matches!(t, TaskState::Running { .. }))
            .count()
    }

    /// Task ids in a terminal state, split `(completed, dead_lettered)`.
    pub fn terminal(&self) -> (Vec<usize>, Vec<usize>) {
        let mut completed = Vec::new();
        let mut dead = Vec::new();
        for (task, state) in self.tasks.iter().enumerate() {
            match state {
                TaskState::Completed => completed.push(task),
                TaskState::DeadLettered => dead.push(task),
                _ => {}
            }
        }
        (completed, dead)
    }

    /// Whether every task is terminal.
    pub fn is_done(&self) -> bool {
        self.tasks
            .iter()
            .all(|t| matches!(t, TaskState::Completed | TaskState::DeadLettered))
    }

    /// Picks the next thing to do at `now_ms`. Spawns the lowest-id
    /// ready pending task while worker slots are free; moves it to
    /// [`TaskState::Running`] before returning.
    pub fn next_action(&mut self, now_ms: u64) -> Action {
        if self.is_done() {
            return Action::Done;
        }
        let mut earliest: Option<u64> = None;
        if self.running() < self.workers {
            for (task, state) in self.tasks.iter().enumerate() {
                if let TaskState::Pending {
                    attempt,
                    ready_at_ms,
                } = *state
                {
                    if ready_at_ms <= now_ms {
                        if let Some(slot) = self.tasks.get_mut(task) {
                            *slot = TaskState::Running {
                                attempt,
                                started_at_ms: now_ms,
                            };
                        }
                        return Action::Spawn { task, attempt };
                    }
                    earliest = Some(earliest.map_or(ready_at_ms, |e| e.min(ready_at_ms)));
                }
            }
        }
        Action::Wait { until_ms: earliest }
    }

    /// Records a validated completion of `task`.
    pub fn completed(&mut self, task: usize) {
        if let Some(slot) = self.tasks.get_mut(task) {
            *slot = TaskState::Completed;
        }
    }

    /// Records a failed attempt of `task` at `now_ms`. Returns how the
    /// failure was absorbed, or `None` if the task was not running
    /// (a caller bookkeeping bug, surfaced instead of panicking).
    pub fn failed(&mut self, task: usize, now_ms: u64) -> Option<FailureDisposition> {
        let TaskState::Running { attempt, .. } = self.state(task) else {
            return None;
        };
        if attempt >= self.max_retries {
            if let Some(slot) = self.tasks.get_mut(task) {
                *slot = TaskState::DeadLettered;
            }
            return Some(FailureDisposition::DeadLetter { attempts: attempt });
        }
        let delay = self.backoff_delay_ms(task, attempt);
        if let Some(slot) = self.tasks.get_mut(task) {
            *slot = TaskState::Pending {
                attempt: attempt + 1,
                ready_at_ms: now_ms.saturating_add(delay),
            };
        }
        Some(FailureDisposition::Retry {
            next_attempt: attempt + 1,
            backoff_ms: delay,
        })
    }

    /// The backoff delay after `failed_attempt` of `task` fails:
    /// exponential step plus deterministic jitter in `[0, step]`,
    /// clamped non-decreasing against the task's previous delay.
    pub fn backoff_delay_ms(&mut self, task: usize, failed_attempt: u32) -> u64 {
        let exponent = failed_attempt.saturating_sub(1).min(20);
        let step = self.backoff_ms.saturating_mul(1u64 << exponent);
        let raw = step.saturating_add(jitter(self.seed, task, failed_attempt, step));
        let previous = self.last_delay_ms.get(task).copied().unwrap_or(0);
        let delay = raw.max(previous);
        if let Some(slot) = self.last_delay_ms.get_mut(task) {
            *slot = delay;
        }
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_runs_every_task_once() {
        let mut sched = Scheduler::new(3, 2, 3, 100, 7);
        let mut spawned = Vec::new();
        let mut now = 0;
        loop {
            match sched.next_action(now) {
                Action::Spawn { task, attempt } => {
                    assert_eq!(attempt, 1);
                    spawned.push(task);
                    assert!(sched.running() <= 2, "worker cap respected");
                }
                Action::Wait { .. } => {
                    // Complete one running task to free a slot.
                    let running: Vec<usize> = (0..3)
                        .filter(|&t| matches!(sched.state(t), TaskState::Running { .. }))
                        .collect();
                    sched.completed(running[0]);
                    now += 1;
                }
                Action::Done => break,
            }
        }
        spawned.sort_unstable();
        assert_eq!(spawned, vec![0, 1, 2]);
        let (completed, dead) = sched.terminal();
        assert_eq!(completed, vec![0, 1, 2]);
        assert!(dead.is_empty());
    }

    #[test]
    fn budget_exhaustion_dead_letters_after_exactly_max_retries() {
        let mut sched = Scheduler::new(1, 1, 3, 10, 42);
        let mut attempts_seen = Vec::new();
        let mut now = 0u64;
        loop {
            match sched.next_action(now) {
                Action::Spawn { task, attempt } => {
                    attempts_seen.push(attempt);
                    match sched.failed(task, now).unwrap() {
                        FailureDisposition::Retry { backoff_ms, .. } => now += backoff_ms,
                        FailureDisposition::DeadLetter { attempts } => {
                            assert_eq!(attempts, 3);
                        }
                    }
                }
                Action::Wait { until_ms } => now = until_ms.unwrap_or(now + 1),
                Action::Done => break,
            }
        }
        assert_eq!(attempts_seen, vec![1, 2, 3]);
        assert!(matches!(sched.state(0), TaskState::DeadLettered));
    }

    #[test]
    fn backoff_is_monotone_and_roughly_exponential() {
        let mut sched = Scheduler::new(1, 1, 8, 50, 1234);
        let delays: Vec<u64> = (1..8).map(|a| sched.backoff_delay_ms(0, a)).collect();
        for (i, pair) in delays.windows(2).enumerate() {
            assert!(pair[0] <= pair[1], "attempt {}: {delays:?}", i + 1);
        }
        // Attempt a's delay lies in [step, 2*step].
        for (i, &delay) in delays.iter().enumerate() {
            let step = 50u64 << i;
            assert!(
                delay >= step && delay <= 2 * step,
                "attempt {}: {delay}",
                i + 1
            );
        }
        // A pure function of the job id. Values from the hand-rolled
        // loop `Fnv1a` replaced.
        let seed = 0xba41_36d1_c510_7724;
        assert_eq!((jitter(seed, 2, 3, 100), jitter(0, 2, 3, 100)), (53, 89));
        assert_eq!(jitter(seed, 2, 3, u64::MAX), 11_027_018_866_446_876_256);
    }

    #[test]
    fn retries_respect_ready_at() {
        let mut sched = Scheduler::new(1, 1, 2, 100, 0);
        assert!(matches!(
            sched.next_action(0),
            Action::Spawn {
                task: 0,
                attempt: 1
            }
        ));
        let Some(FailureDisposition::Retry { backoff_ms, .. }) = sched.failed(0, 0) else {
            panic!("first failure must retry");
        };
        // Not ready yet: the scheduler says when to wake up.
        match sched.next_action(backoff_ms - 1) {
            Action::Wait { until_ms } => assert_eq!(until_ms, Some(backoff_ms)),
            other => panic!("expected Wait, got {other:?}"),
        }
        assert!(matches!(
            sched.next_action(backoff_ms),
            Action::Spawn {
                task: 0,
                attempt: 2
            }
        ));
    }

    #[test]
    fn restore_reseats_resumed_state() {
        let mut sched = Scheduler::new(3, 2, 3, 10, 0);
        sched.restore(0, TaskSeed::Completed);
        sched.restore(1, TaskSeed::DeadLettered);
        sched.restore(2, TaskSeed::Resumed { next_attempt: 3 });
        assert!(matches!(sched.state(0), TaskState::Completed));
        assert!(matches!(sched.state(1), TaskState::DeadLettered));
        match sched.next_action(0) {
            Action::Spawn {
                task: 2,
                attempt: 3,
            } => {}
            other => panic!("expected final attempt of task 2, got {other:?}"),
        }
        // Failing the final attempt dead-letters immediately.
        assert_eq!(
            sched.failed(2, 0),
            Some(FailureDisposition::DeadLetter { attempts: 3 })
        );
        assert!(sched.is_done());
    }

    #[test]
    fn failed_on_a_non_running_task_is_reported_not_panicked() {
        let mut sched = Scheduler::new(1, 1, 2, 10, 0);
        assert_eq!(sched.failed(0, 0), None);
        assert_eq!(sched.failed(9, 0), None);
    }
}
