//! Running the program as a child: wall, CPU and peak memory of its
//! process tree, a timeout on every child, and no child left behind.

use std::fs;
use std::io;
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// architecture the program supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// How often the waiter looks at the child. It sets the resolution of the
/// measured wall time, so it is short; one `try_wait` a millisecond costs
/// nothing next to the child's own work.
const POLL: Duration = Duration::from_millis(1);

/// How often peak memory is sampled: a single process is one small file,
/// a tree needs a scan of `/proc`.
const RSS_EVERY: Duration = Duration::from_millis(10);
const RSS_TREE_EVERY: Duration = Duration::from_millis(20);

/// User + system CPU seconds of all children this process has waited for
/// (fields `cutime` and `cstime` of `/proc/self/stat`), which includes
/// their own waited-for descendants.
pub fn children_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields are counted after its `)`.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state); cutime and cstime are fields 16, 17.
    let tick = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(16) + tick(17)) / TICKS_PER_SECOND
}

fn vm_hwm_kb(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// `root` and every live descendant of it.
fn process_tree(root: u32) -> Vec<u32> {
    let mut parent_of: Vec<(u32, u32)> = Vec::new();
    if let Ok(entries) = fs::read_dir("/proc") {
        for entry in entries.flatten() {
            let Some(pid) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.parse::<u32>().ok())
            else {
                continue;
            };
            let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
                continue;
            };
            if let Some(ppid) = stat
                .rsplit_once(')')
                .and_then(|(_, rest)| rest.split_ascii_whitespace().nth(1))
                .and_then(|f| f.parse().ok())
            {
                parent_of.push((pid, ppid));
            }
        }
    }
    let mut tree = vec![root];
    let mut next = 0;
    while next < tree.len() {
        let parent = tree[next];
        next += 1;
        tree.extend(
            parent_of
                .iter()
                .filter(|(_, p)| *p == parent)
                .map(|(c, _)| *c),
        );
    }
    tree
}

/// What one child run cost.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// From the instant given to [`Running::wait`] to process exit.
    pub wall_s: f64,
    /// User + system CPU of the child and the descendants it waited for.
    pub cpu_s: f64,
    /// Highest sum of `VmHWM` over the live process tree.
    pub peak_rss_mb: f64,
    /// Exit status 0 and no timeout.
    pub ok: bool,
}

/// A spawned child. Dropping it kills and reaps the child, so an error
/// anywhere in the harness leaves no process behind.
pub struct Running {
    child: Child,
    cpu_before: f64,
    peak_kb: u64,
    tree: bool,
    last_rss: Option<Instant>,
}

impl Running {
    /// `tree` asks for peak memory over the child's whole process tree.
    pub fn spawn(command: &mut Command, tree: bool) -> io::Result<Running> {
        let cpu_before = children_cpu_s();
        Ok(Running {
            child: command.spawn()?,
            cpu_before,
            peak_kb: 0,
            tree,
            last_rss: None,
        })
    }

    fn sample_rss(&mut self) {
        let every = if self.tree { RSS_TREE_EVERY } else { RSS_EVERY };
        if self.last_rss.is_some_and(|at| at.elapsed() < every) {
            return;
        }
        self.last_rss = Some(Instant::now());
        let pid = self.child.id();
        let now_kb = if self.tree {
            process_tree(pid).into_iter().map(vm_hwm_kb).sum()
        } else {
            vm_hwm_kb(pid)
        };
        self.peak_kb = self.peak_kb.max(now_kb);
    }

    /// Non-blocking look at the child; also samples its memory.
    pub fn poll(&mut self) -> io::Result<Option<ExitStatus>> {
        let status = self.child.try_wait()?;
        if status.is_none() {
            self.sample_rss();
        }
        Ok(status)
    }

    /// Waits for the child to exit, killing it at `deadline`. Wall time is
    /// counted from `since`.
    pub fn wait(mut self, since: Instant, deadline: Instant) -> io::Result<Finished> {
        let (status, ended) = loop {
            if let Some(status) = self.poll()? {
                break (Some(status), Instant::now());
            }
            if Instant::now() >= deadline {
                self.kill_tree();
                break (None, Instant::now());
            }
            std::thread::sleep(POLL);
        };
        Ok(Finished {
            wall_s: ended.duration_since(since).as_secs_f64(),
            cpu_s: children_cpu_s() - self.cpu_before,
            peak_rss_mb: self.peak_kb as f64 / 1024.0,
            ok: status.is_some_and(|s| s.success()),
        })
    }

    /// Kills and reaps the child; a `jobs run` coordinator's workers are
    /// not its to reap once it is dead, so they are killed by pid.
    fn kill_tree(&mut self) {
        let descendants: Vec<String> = if self.tree {
            process_tree(self.child.id())
                .into_iter()
                .skip(1)
                .map(|pid| pid.to_string())
                .collect()
        } else {
            Vec::new()
        };
        let _ = self.child.kill();
        let _ = self.child.wait();
        if !descendants.is_empty() {
            let _ = Command::new("kill")
                .arg("-KILL")
                .args(&descendants)
                .status();
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        // Already reaped after `wait`; otherwise this is the error path.
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill_tree();
        }
    }
}

/// Runs `command` to completion, measured from spawn.
pub fn run(command: &mut Command, tree: bool, timeout: Duration) -> io::Result<Finished> {
    let since = Instant::now();
    Running::spawn(command, tree)?.wait(since, since + timeout)
}
