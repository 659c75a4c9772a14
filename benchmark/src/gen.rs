//! Seed-driven corpus generators with per-line ground truth.
//!
//! The template *sets* are fixed in this file; the seed only drives which
//! template each line takes and what its parameters are. Two seeds
//! therefore give statistically identical corpora, which is what lets the
//! benchmark compare runs taken on different seeds.

/// SplitMix64: small, fast, and good enough to shuffle log lines.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-high.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// FNV-1a over bytes; the tests pin corpus prefixes with it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A generated corpus: the bytes the program sees, and what the
/// benchmark alone knows about them.
pub struct Corpus {
    /// Newline-terminated lines.
    pub bytes: Vec<u8>,
    /// Ground-truth template id of each line.
    pub truth: Vec<u32>,
    /// Number of distinct templates the generator can emit.
    pub templates: usize,
    /// `hdfs` only: the block (session) index of each line.
    pub session: Vec<u32>,
    /// `hdfs` only: number of blocks.
    pub sessions: usize,
}

impl Corpus {
    pub fn lines(&self) -> usize {
        self.truth.len()
    }

    /// Byte offset just past line `n - 1`, i.e. the length of the first
    /// `n` lines.
    pub fn prefix_len(&self, n: usize) -> usize {
        if n >= self.lines() {
            return self.bytes.len();
        }
        let mut seen = 0;
        for (i, &b) in self.bytes.iter().enumerate() {
            if b == b'\n' {
                seen += 1;
                if seen == n {
                    return i + 1;
                }
            }
        }
        self.bytes.len()
    }
}

/// The corpora by name, as the workloads and `layers` refer to them.
pub fn by_name(name: &str, lines: usize, seed: u64) -> Option<Corpus> {
    match name {
        "steady" => Some(steady(lines, seed)),
        "hdfs" => Some(hdfs(lines, seed)),
        "churn" => Some(churn(lines, seed)),
        _ => None,
    }
}

#[derive(Clone, Copy)]
enum Slot {
    Lit(&'static str),
    /// `node-NN`, 64 values.
    Node,
    /// Decimal `0..200`.
    Num,
    /// 32 user names.
    User,
    /// 8 states.
    State,
    /// 16 service names.
    Svc,
    /// 24 volume paths.
    Path,
    /// `E100..E119`.
    Code,
    /// `blk_` + signed 64-bit id of the line's block.
    Blk,
    /// `/a.b.c.d:port`, random ephemeral port.
    SlashIpPort,
    /// `a.b.c.d:port`.
    IpPort,
    /// `/a.b.c.d`.
    SlashIp,
    /// Random byte count below 2^26.
    Size,
    /// One of 48 HDFS file paths.
    HdfsPath,
}

const USERS: [&str; 32] = [
    "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi", "ivan", "judy", "kim",
    "leo", "mallory", "nina", "oscar", "peggy", "quinn", "rupert", "sybil", "trent", "uma",
    "victor", "wendy", "xavier", "yara", "zane", "amir", "bianca", "cyrus", "dalia", "emil",
    "fatima",
];
const STATES: [&str; 8] = [
    "idle", "ready", "busy", "draining", "degraded", "young", "old", "mixed",
];
const SVCS: [&str; 16] = [
    "billing", "catalog", "checkout", "search", "profile", "ledger", "mailer", "notify", "orders",
    "pricing", "reports", "routing", "session", "shipping", "tagging", "uploads",
];

fn parse_template(pattern: &'static str) -> Vec<Slot> {
    pattern
        .split(' ')
        .map(|tok| match tok {
            "{node}" => Slot::Node,
            "{n}" => Slot::Num,
            "{user}" => Slot::User,
            "{state}" => Slot::State,
            "{svc}" => Slot::Svc,
            "{path}" => Slot::Path,
            "{code}" => Slot::Code,
            "{blk}" => Slot::Blk,
            "/{ip:port}" => Slot::SlashIpPort,
            "{ip:port}" => Slot::IpPort,
            "/{ip}" => Slot::SlashIp,
            "{size}" => Slot::Size,
            "{hpath}" => Slot::HdfsPath,
            lit => Slot::Lit(lit),
        })
        .collect()
}

fn push_num(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

fn push_ip(out: &mut Vec<u8>, rng: &mut Rng) {
    out.extend_from_slice(b"10.");
    push_num(out, 250 + rng.below(2));
    out.push(b'.');
    push_num(out, rng.below(64));
    out.push(b'.');
    push_num(out, 1 + rng.below(250));
}

fn push_slot(out: &mut Vec<u8>, slot: Slot, rng: &mut Rng, blk: u64) {
    match slot {
        Slot::Lit(s) => out.extend_from_slice(s.as_bytes()),
        Slot::Node => {
            out.extend_from_slice(b"node-");
            let n = rng.below(64);
            out.push(b'0' + (n / 10) as u8);
            out.push(b'0' + (n % 10) as u8);
        }
        Slot::Num => push_num(out, rng.below(200)),
        Slot::User => out.extend_from_slice(USERS[rng.below(32) as usize].as_bytes()),
        Slot::State => out.extend_from_slice(STATES[rng.below(8) as usize].as_bytes()),
        Slot::Svc => out.extend_from_slice(SVCS[rng.below(16) as usize].as_bytes()),
        Slot::Path => {
            out.extend_from_slice(b"/var/data/vol");
            let n = rng.below(24);
            out.push(b'a' + n as u8);
        }
        Slot::Code => {
            out.extend_from_slice(b"E1");
            let n = rng.below(20);
            out.push(b'0' + (n / 10) as u8);
            out.push(b'0' + (n % 10) as u8);
        }
        Slot::Blk => {
            out.extend_from_slice(b"blk_");
            if blk >> 63 == 1 {
                out.push(b'-');
            }
            push_num(out, blk & (u64::MAX >> 1));
        }
        Slot::SlashIpPort => {
            out.push(b'/');
            push_ip(out, rng);
            out.push(b':');
            push_num(out, 1024 + rng.below(64_000));
        }
        Slot::IpPort => {
            push_ip(out, rng);
            out.push(b':');
            push_num(out, 1024 + rng.below(64_000));
        }
        Slot::SlashIp => {
            out.push(b'/');
            push_ip(out, rng);
        }
        Slot::Size => push_num(out, 1 + rng.below(1 << 26)),
        Slot::HdfsPath => {
            out.extend_from_slice(b"/user/root/rand/_temporary/_task_");
            push_num(out, rng.below(48));
            out.extend_from_slice(b"/part");
        }
    }
}

fn push_line(out: &mut Vec<u8>, template: &[Slot], rng: &mut Rng, blk: u64) {
    for (i, &slot) in template.iter().enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        push_slot(out, slot, rng, blk);
    }
    out.push(b'\n');
}

/// Cumulative thresholds for Zipf(1) over `n` ranks, scaled to `u64`.
fn zipf_thresholds(n: usize) -> Vec<u64> {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut acc = 0.0;
    (1..=n)
        .map(|k| {
            acc += 1.0 / k as f64 / total;
            if k == n {
                u64::MAX
            } else {
                (acc * u64::MAX as f64) as u64
            }
        })
        .collect()
}

/// 32 templates of 5–14 tokens, most frequent first (Zipf). Each keeps its
/// first two tokens literal and at least half of its tokens literal. First
/// token and length vary, and the order is chosen so that the streaming
/// router (FNV of first token and token count, modulo shards) puts 51 % of
/// the lines on one of two shards and 49 % on the other.
const STEADY_TEMPLATES: [&str; 32] = [
    "sched: assigned task {n} to {node}",
    "db: query on {svc} by {user} scanned {n} rows in {n} ms plan {state}",
    "sched: task {n} finished on {node} in {n} ms",
    "net: closed connection to {node}",
    "net: accepted connection from {node} on port {n}",
    "store: compaction of {path} took {n} ms and freed {n} blocks",
    "store: wrote {n} blocks to {path} for {user}",
    "rpc: retrying {svc} attempt {n} of {n}",
    "auth: user {user} logged in from {node}",
    "health: node {node} reports state {state}",
    "rpc: call {svc} from {node} returned {code} after {n} ms",
    "db: checkpoint {n} written to {path}",
    "cache: hit ratio {n} percent on {node}",
    "sched: queue depth {n} above limit on {node} shedding {n} tasks",
    "gc: pause {n} ms heap {n} MB generation {state}",
    "net: retransmit to {node} after {n} ms",
    "auth: rejected token for {user} reason {code}",
    "auth: password change requested by {user}",
    "cache: evicted {n} entries from {svc} region",
    "db: slow lock wait by {user} on {svc} table for {n} ms",
    "quota: tenant {user} used {n} of {n} units",
    "store: volume {path} usage {n} percent state {state}",
    "rpc: deadline exceeded calling {svc} on {node} budget {n} ms",
    "mail: delivered message for {user} via {svc}",
    "cron: job {svc} started on {node}",
    "cache: warmed {n} keys for {svc} in {n} ms",
    "lease: renewed lease {n} for {svc} holder {node} ttl {n}",
    "gc: promoted {n} MB to generation {state}",
    "cron: job {svc} exited with {code} after {n} ms on {node}",
    "quota: tenant {user} exceeded limit {n} on {svc} action {state}",
    "audit: read of {path} by {user} from {node}",
    "lease: expired lease {n} held by {node}",
];

/// Low-vocabulary corpus: scanning, the arena, Drain and the writers do
/// the work; the interner almost none.
pub fn steady(lines: usize, seed: u64) -> Corpus {
    let templates: Vec<Vec<Slot>> = STEADY_TEMPLATES.iter().map(|p| parse_template(p)).collect();
    let thresholds = zipf_thresholds(templates.len());
    let mut rng = Rng::new(seed);
    let mut bytes = Vec::with_capacity(lines * 56);
    let mut truth = Vec::with_capacity(lines);
    for _ in 0..lines {
        let draw = rng.next_u64();
        let id = thresholds.partition_point(|&t| t < draw);
        push_line(&mut bytes, &templates[id], &mut rng, 0);
        truth.push(id as u32);
    }
    Corpus {
        bytes,
        truth,
        templates: templates.len(),
        session: Vec::new(),
        sessions: 0,
    }
}

/// 30 HDFS-style templates, most frequent first (Zipf). The frequent ones
/// carry fresh addresses and sizes, so the vocabulary grows with the file.
const HDFS_TEMPLATES: [&str; 30] = [
    "INFO dfs.DataNode$DataXceiver: Receiving block {blk} src: /{ip:port} dest: /{ip:port}",
    "INFO dfs.FSNamesystem: BLOCK* NameSystem.addStoredBlock: blockMap updated: {ip:port} is added to {blk} size {size}",
    "INFO dfs.DataNode$DataXceiver: Received block {blk} src: /{ip:port} dest: /{ip:port} of size {size}",
    "INFO dfs.DataNode$PacketResponder: Received block {blk} of size {size} from /{ip}",
    "INFO dfs.DataNode$DataXceiver: {ip:port} Served block {blk} to /{ip}",
    "INFO dfs.DataNode$PacketResponder: PacketResponder {n} for block {blk} terminating",
    "INFO dfs.FSNamesystem: BLOCK* ask {ip:port} to replicate {blk} to datanode(s) {ip:port}",
    "INFO dfs.FSNamesystem: BLOCK* NameSystem.delete: {blk} is added to invalidSet of {ip:port}",
    "INFO dfs.DataNode$PacketResponder: Changing block file offset of block {blk} from {size} to {size} meta file offset to {size}",
    "INFO dfs.FSDataset: Deleting block {blk} file {hpath}",
    "INFO dfs.FSNamesystem: BLOCK* NameSystem.allocateBlock: {hpath} {blk}",
    "INFO dfs.DataBlockScanner: Verification succeeded for {blk}",
    "INFO dfs.DataNode: Starting thread to transfer block {blk} to {ip:port}",
    "INFO dfs.DataNode$DataTransfer: {ip:port} Transmitted block {blk} to /{ip:port}",
    "WARN dfs.DataNode$DataXceiver: {ip:port} Got exception while serving {blk} to /{ip}",
    "INFO dfs.DataNode$DataXceiver: writeBlock {blk} received exception java.io.IOException: Connection reset by peer",
    "INFO dfs.DataNode$DataXceiver: Exception in receiveBlock for block {blk} java.io.IOException: Connection reset by peer",
    "INFO dfs.DataNode$PacketResponder: PacketResponder {blk} {n} Exception java.io.IOException: Broken pipe",
    "WARN dfs.FSDataset: Unexpected error trying to delete block {blk} BlockInfo not found in volumeMap",
    "WARN dfs.DataNode$DataTransfer: {ip:port} Failed to transfer {blk} to {ip:port} got java.io.IOException: Connection reset by peer",
    "INFO dfs.DataNode$BlockReceiver: Receiving empty packet for block {blk}",
    "INFO dfs.DataNode$BlockReceiver: Exception in receiveBlock for block {blk} java.io.EOFException",
    "INFO dfs.FSNamesystem: BLOCK* NameSystem.addStoredBlock: Redundant addStoredBlock request received for {blk} on {ip:port} size {size}",
    "INFO dfs.FSNamesystem: BLOCK* Removing block {blk} from neededReplications as it does not belong to any file",
    "WARN dfs.PendingReplicationBlocks$PendingReplicationMonitor: PendingReplicationMonitor timed out block {blk}",
    "INFO dfs.DataNode$PacketResponder: PacketResponder {n} for block {blk} Interrupted",
    "INFO dfs.DataNode$DataXceiver: Reopen already-open Block for append {blk} from /{ip:port}",
    "INFO dfs.DataBlockScanner: Adding an already existing block {blk} reported by {ip:port}",
    "WARN dfs.DataBlockScanner: Verification failed for {blk} first error at offset {size}",
    "INFO dfs.FSDataset: Reopen Block {blk} in volume {hpath} length {size}",
];

/// Lines per block, on average; a block's lines fall near each other.
const HDFS_LINES_PER_BLOCK: usize = 6;

/// The "vocabulary wall": the corpus build is bound by first-occurrence
/// interning, and the masking rules erase exactly the tokens that cause it.
pub fn hdfs(lines: usize, seed: u64) -> Corpus {
    let templates: Vec<Vec<Slot>> = HDFS_TEMPLATES.iter().map(|p| parse_template(p)).collect();
    let thresholds = zipf_thresholds(templates.len());
    let mut rng = Rng::new(seed ^ 0x6864_6673);
    let sessions = lines.div_ceil(HDFS_LINES_PER_BLOCK).max(1);
    // A block's id depends on the seed and its index alone, so a longer
    // corpus starts with the lines of a shorter one.
    let block_id = |block: usize| {
        Rng::new(seed ^ (block as u64).wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
    };
    let mut bytes = Vec::with_capacity(lines * 120);
    let mut truth = Vec::with_capacity(lines);
    let mut session = Vec::with_capacity(lines);
    for i in 0..lines {
        let draw = rng.next_u64();
        let id = thresholds.partition_point(|&t| t < draw);
        // A window of 16 live blocks slides through the file.
        let newest = i / HDFS_LINES_PER_BLOCK;
        let block = newest.saturating_sub(rng.below(16) as usize);
        push_line(&mut bytes, &templates[id], &mut rng, block_id(block));
        truth.push(id as u32);
        session.push(block as u32);
    }
    Corpus {
        bytes,
        truth,
        templates: templates.len(),
        session,
        sessions,
    }
}

const CHURN_COMPONENTS: [&str; 20] = [
    "alloc", "balancer", "billing", "broker", "builder", "cluster", "deploy", "driver", "election",
    "fetcher", "gateway", "indexer", "journal", "kernel", "loader", "mapper", "monitor", "planner",
    "reaper", "syncer",
];
const CHURN_VERBS: [&str; 15] = [
    "accepted",
    "aborted",
    "booted",
    "cancelled",
    "claimed",
    "dropped",
    "enqueued",
    "flushed",
    "granted",
    "healed",
    "joined",
    "leased",
    "moved",
    "parked",
    "rotated",
];
const CHURN_TAIL: [&str; 8] = [
    "for tenant",
    "on shard",
    "during rollout",
    "after timeout",
    "under load",
    "by operator",
    "with backoff",
    "in region",
];
/// Number of `churn` templates: one per (component, verb) pair.
pub const CHURN_TEMPLATES: usize = CHURN_COMPONENTS.len() * CHURN_VERBS.len();

/// The two literal tokens every line of `churn` template `id` starts
/// with. No first token has more than 15 second tokens under it, which
/// keeps all 300 templates apart in Drain's prefix tree (it folds the
/// children of a node together past 100).
pub fn churn_head(id: usize) -> (&'static str, &'static str) {
    (
        CHURN_COMPONENTS[id % CHURN_COMPONENTS.len()],
        CHURN_VERBS[id / CHURN_COMPONENTS.len() % CHURN_VERBS.len()],
    )
}

/// 300 templates born linearly through the file, one high-cardinality
/// `id=` token per line: the streaming aggregator's merge and window
/// scoring costs grow with the live template count.
pub fn churn(lines: usize, seed: u64) -> Corpus {
    let mut rng = Rng::new(seed ^ 0x6368_7572);
    let mut bytes = Vec::with_capacity(lines * 64);
    let mut truth = Vec::with_capacity(lines);
    for i in 0..lines {
        // Template k is born at line k * lines / 300.
        let alive = (1 + i * CHURN_TEMPLATES / lines.max(1)).min(CHURN_TEMPLATES);
        // Triangular draw: a template's share of the lines grows from
        // zero with its age. A newborn that took a full share at once
        // would put every window on the detector's anomaly threshold, and
        // whether windows are flagged decides how much history it scores.
        let u = rng.next_u64() as f64 / u64::MAX as f64;
        let id = ((alive as f64) * (1.0 - u.sqrt())) as usize;
        let id = id.min(alive - 1);
        let (component, verb) = churn_head(id);
        // Length varies with the template (6 to 8 tokens), not the line.
        let tail = CHURN_TAIL[id % CHURN_TAIL.len()];
        bytes.extend_from_slice(component.as_bytes());
        bytes.push(b' ');
        bytes.extend_from_slice(verb.as_bytes());
        bytes.extend_from_slice(b" unit ");
        bytes.extend_from_slice(b"id=");
        let token = rng.next_u64();
        for shift in (0..10).rev() {
            bytes.push(b"0123456789abcdef"[((token >> (shift * 4)) & 15) as usize]);
        }
        bytes.push(b' ');
        bytes.extend_from_slice(tail.as_bytes());
        for extra in 0..(id % 3) {
            bytes.extend_from_slice(if extra == 0 { b" again" } else { b" twice" });
        }
        bytes.push(b'\n');
        truth.push(id as u32);
    }
    Corpus {
        bytes,
        truth,
        templates: CHURN_TEMPLATES,
        session: Vec::new(),
        sessions: 0,
    }
}
