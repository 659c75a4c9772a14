//! The HDFS dataset: 29 block-lifecycle event types modeled on the
//! Hadoop File System logs Xu et al. collected on Amazon EC2 (the corpus
//! behind the study's Fig. 1 and its RQ3 anomaly-detection experiment).
//!
//! Two generators are provided:
//!
//! * [`spec`]/[`generate`] — i.i.d. sampling over the template library,
//!   used by the parsing accuracy and efficiency experiments;
//! * [`generate_sessions`] — a **block-session simulator** that emits
//!   per-block event flows (allocate → receive×replicas → responder →
//!   addStoredBlock → …) with labeled anomalous flows injected at a
//!   configurable rate. This is the substitute for the paper's 575 061
//!   hand-labeled block operation requests (16 838 anomalies ≈ 2.9 %);
//!   see DESIGN.md for the substitution rationale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{DatasetSpec, LabeledCorpus, TemplateSpec};

/// Event indices into [`templates`], named for readability of the session
/// simulator below.
pub mod event {
    /// `BLOCK* NameSystem.allocateBlock: <path> <blk>`
    pub const ALLOCATE: usize = 0;
    /// `Receiving block <blk> src: <ip:port> dest: <ip:port>`
    pub const RECEIVING: usize = 1;
    /// `Received block <blk> of size <size> from <ip>`
    pub const RECEIVED: usize = 2;
    /// `PacketResponder <small> for block <blk> terminating`
    pub const RESPONDER: usize = 3;
    /// `BLOCK* NameSystem.addStoredBlock: blockMap updated: …`
    pub const ADD_STORED: usize = 4;
    /// `Verification succeeded for <blk>`
    pub const VERIFICATION: usize = 5;
    /// `Served block <blk> to <ip>`
    pub const SERVED: usize = 6;
    /// `BLOCK* NameSystem.delete: <blk> is added to invalidSet of …`
    pub const DELETE: usize = 7;
    /// `Deleting block <blk> file <path>`
    pub const DELETING_FILE: usize = 8;
    /// `Receiving empty packet for block <blk>`
    pub const RECEIVING_EMPTY: usize = 9;
    /// `PacketResponder <small> for block <blk> Interrupted.`
    pub const RESPONDER_INTERRUPTED: usize = 10;
    /// `Exception in receiveBlock for block <blk> …`
    pub const EXCEPTION_RECEIVE: usize = 11;
    /// `writeBlock <blk> received exception …`
    pub const WRITE_EXCEPTION: usize = 12;
    /// `… Redundant addStoredBlock request received …`
    pub const REDUNDANT_ADD: usize = 13;
    /// `… addStoredBlock request received … does not belong to any file.`
    pub const ADD_NO_FILE: usize = 14;
    /// `BLOCK* ask <ip:port> to replicate <blk> to datanode(s) <ip:port>`
    pub const ASK_REPLICATE: usize = 15;
    /// `Starting thread to transfer block <blk> to <ip:port>`
    pub const START_TRANSFER: usize = 16;
    /// `Failed to transfer <blk> to <ip:port> …`
    pub const FAILED_TRANSFER: usize = 17;
    /// `Transmitted block <blk> to <ip:port>`
    pub const TRANSMITTED: usize = 18;
    /// `PendingReplicationMonitor timed out block <blk>`
    pub const PENDING_TIMEOUT: usize = 19;
    /// `Unexpected error trying to delete block <blk> …`
    pub const UNEXPECTED_DELETE: usize = 20;
    /// `Changing block file offset of block <blk> …`
    pub const CHANGING_OFFSET: usize = 21;
    /// `BLOCK* Removing block <blk> from neededReplications …`
    pub const REMOVING_NEEDED: usize = 22;
    /// `Adding an already existing block <blk>`
    pub const ALREADY_EXISTS: usize = 23;
    /// `Got exception while serving <blk> to <ip:port> …`
    pub const SERVE_EXCEPTION: usize = 24;
    /// `Reopen Block <blk>`
    pub const REOPEN: usize = 25;
    /// `waitForAckedSeqno took <ms> for block <blk>`
    pub const ACK_WAIT: usize = 26;
    /// `BLOCK* NameSystem.blockReceived: <blk> is received from <ip:port>`
    pub const BLOCK_RECEIVED: usize = 27;
    /// `Interrupted receiver for block <blk> from <ip:port>`
    pub const INTERRUPTED_RECEIVER: usize = 28;
}

/// The 29 HDFS event templates (the paper reports exactly 29 event types
/// for this dataset).
pub fn templates() -> Vec<TemplateSpec> {
    [
        "BLOCK* NameSystem.allocateBlock: <path> <blk>",
        "Receiving block <blk> src: <ip:port> dest: <ip:port>",
        "Received block <blk> of size <size> from <ip>",
        "PacketResponder <small> for block <blk> terminating",
        "BLOCK* NameSystem.addStoredBlock: blockMap updated: <ip:port> is added to <blk> size <size>",
        "Verification succeeded for <blk>",
        "Served block <blk> to <ip>",
        "BLOCK* NameSystem.delete: <blk> is added to invalidSet of <ip:port>",
        "Deleting block <blk> file <path>",
        "Receiving empty packet for block <blk>",
        "PacketResponder <small> for block <blk> Interrupted.",
        "Exception in receiveBlock for block <blk> java.io.IOException: Connection reset by peer",
        "writeBlock <blk> received exception java.io.IOException: Could not read from stream",
        "BLOCK* NameSystem.addStoredBlock: Redundant addStoredBlock request received for <blk> on <ip:port> size <size>",
        "BLOCK* NameSystem.addStoredBlock: addStoredBlock request received for <blk> on <ip:port> size <size> But it does not belong to any file.",
        "BLOCK* ask <ip:port> to replicate <blk> to datanode(s) <ip:port>",
        "Starting thread to transfer block <blk> to <ip:port>",
        "Failed to transfer <blk> to <ip:port> got java.io.IOException: Connection refused",
        "Transmitted block <blk> to <ip:port>",
        "PendingReplicationMonitor timed out block <blk>",
        "Unexpected error trying to delete block <blk> BlockInfo not found in volumeMap",
        "Changing block file offset of block <blk> from <int> to <int> meta file offset to <int>",
        "BLOCK* Removing block <blk> from neededReplications as it does not belong to any file",
        "Adding an already existing block <blk>",
        "Got exception while serving <blk> to <ip:port> java.io.IOException: Broken pipe",
        "Reopen Block <blk>",
        "waitForAckedSeqno took <ms> for block <blk>",
        "BLOCK* NameSystem.blockReceived: <blk> is received from <ip:port>",
        "Interrupted receiver for block <blk> from <ip:port>",
    ]
    .iter()
    .map(|p| TemplateSpec::parse(p))
    .collect()
}

/// The HDFS dataset spec with volume weights shaped like the real corpus
/// (the write-path events dominate: receiving / received / responder /
/// addStoredBlock account for most of the 11 M lines).
pub fn spec() -> DatasetSpec {
    let templates = templates();
    let mut weights = vec![0.3f64; templates.len()];
    weights[event::ALLOCATE] = 20.0;
    weights[event::RECEIVING] = 60.0;
    weights[event::RECEIVED] = 55.0;
    weights[event::RESPONDER] = 55.0;
    weights[event::ADD_STORED] = 60.0;
    weights[event::VERIFICATION] = 10.0;
    weights[event::SERVED] = 12.0;
    weights[event::DELETE] = 6.0;
    weights[event::DELETING_FILE] = 6.0;
    weights[event::BLOCK_RECEIVED] = 18.0;
    DatasetSpec::with_weights("HDFS", templates, weights)
}

/// Generates `n` i.i.d. HDFS messages.
pub fn generate(n: usize, seed: u64) -> LabeledCorpus {
    spec().generate(n, seed)
}

/// Output of the block-session simulator.
#[derive(Debug, Clone)]
pub struct HdfsSessions {
    /// The generated messages with ground-truth event labels.
    pub data: LabeledCorpus,
    /// For each message, the index of the block (session) it belongs to.
    pub block_of: Vec<usize>,
    /// The block id string of each block, e.g. `blk_1234…`.
    pub block_ids: Vec<String>,
    /// Ground-truth anomaly label per block.
    pub anomalous: Vec<bool>,
}

impl HdfsSessions {
    /// Number of blocks (sessions).
    pub fn block_count(&self) -> usize {
        self.block_ids.len()
    }

    /// Number of ground-truth anomalous blocks.
    pub fn anomaly_count(&self) -> usize {
        self.anomalous.iter().filter(|&&a| a).count()
    }
}

/// The distinct anomalous flow shapes the simulator injects. Each mirrors
/// a failure mode of the real system that Xu et al.'s labels capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnomalyKind {
    /// Write aborted mid-stream: receivers raise exceptions, responders
    /// never terminate.
    TruncatedWrite,
    /// A replica was lost; the namenode re-replicates, transfers fail
    /// repeatedly and the pending-replication monitor times out.
    ReplicationStorm,
    /// The namenode receives redundant addStoredBlock requests.
    RedundantAdd,
    /// Deletion raced block reports: volume map inconsistencies.
    DeleteRace,
    /// Read path failure: serving throws, receiver interrupted, reopen.
    ServeFailure,
}

const ANOMALY_KINDS: [AnomalyKind; 5] = [
    AnomalyKind::TruncatedWrite,
    AnomalyKind::ReplicationStorm,
    AnomalyKind::RedundantAdd,
    AnomalyKind::DeleteRace,
    AnomalyKind::ServeFailure,
];

/// Simulates `blocks` block sessions with anomalies injected at
/// `anomaly_rate` (the paper's corpus has 16 838 / 575 061 ≈ 2.9 %).
/// Within a session every message carries the session's block id, so the
/// downstream event-count matrix can be keyed by block exactly as in
/// Xu et al.
///
/// # Panics
///
/// Panics if `anomaly_rate` is not within `[0, 1]`.
pub fn generate_sessions(blocks: usize, anomaly_rate: f64, seed: u64) -> HdfsSessions {
    assert!(
        (0.0..=1.0).contains(&anomaly_rate),
        "anomaly rate must lie in [0, 1], got {anomaly_rate}"
    );
    let specs = templates();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::new();
    let mut labels = Vec::new();
    let mut block_of = Vec::new();
    let mut block_ids = Vec::with_capacity(blocks);
    let mut anomalous = Vec::with_capacity(blocks);

    for block in 0..blocks {
        let block_id = format!("blk_{}", rng.gen_range(10_u64.pow(17)..10_u64.pow(19)));
        let is_anomalous = rng.gen_bool(anomaly_rate);
        let emit = |ev: usize,
                    rng: &mut StdRng,
                    lines: &mut Vec<String>,
                    labels: &mut Vec<usize>,
                    block_of: &mut Vec<usize>| {
            lines.push(render_for_block(&specs[ev], rng, &block_id));
            labels.push(ev);
            block_of.push(block);
        };

        if is_anomalous {
            let kind = ANOMALY_KINDS[rng.gen_range(0..ANOMALY_KINDS.len())];
            match kind {
                AnomalyKind::TruncatedWrite => {
                    emit(
                        event::ALLOCATE,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    for _ in 0..3 {
                        emit(
                            event::RECEIVING,
                            &mut rng,
                            &mut lines,
                            &mut labels,
                            &mut block_of,
                        );
                    }
                    for _ in 0..rng.gen_range(1..=3) {
                        emit(
                            event::EXCEPTION_RECEIVE,
                            &mut rng,
                            &mut lines,
                            &mut labels,
                            &mut block_of,
                        );
                    }
                    emit(
                        event::WRITE_EXCEPTION,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    emit(
                        event::RESPONDER_INTERRUPTED,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                }
                AnomalyKind::ReplicationStorm => {
                    normal_write(
                        &mut rng,
                        &specs,
                        &block_id,
                        block,
                        2,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    emit(
                        event::ASK_REPLICATE,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    for _ in 0..rng.gen_range(2..=4) {
                        emit(
                            event::START_TRANSFER,
                            &mut rng,
                            &mut lines,
                            &mut labels,
                            &mut block_of,
                        );
                        emit(
                            event::FAILED_TRANSFER,
                            &mut rng,
                            &mut lines,
                            &mut labels,
                            &mut block_of,
                        );
                    }
                    emit(
                        event::PENDING_TIMEOUT,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                }
                AnomalyKind::RedundantAdd => {
                    normal_write(
                        &mut rng,
                        &specs,
                        &block_id,
                        block,
                        3,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    emit(
                        event::ALREADY_EXISTS,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    for _ in 0..rng.gen_range(3..=6) {
                        emit(
                            event::REDUNDANT_ADD,
                            &mut rng,
                            &mut lines,
                            &mut labels,
                            &mut block_of,
                        );
                    }
                }
                AnomalyKind::DeleteRace => {
                    normal_write(
                        &mut rng,
                        &specs,
                        &block_id,
                        block,
                        3,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    emit(
                        event::DELETE,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    emit(
                        event::UNEXPECTED_DELETE,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    emit(
                        event::ADD_NO_FILE,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    emit(
                        event::REMOVING_NEEDED,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                }
                AnomalyKind::ServeFailure => {
                    normal_write(
                        &mut rng,
                        &specs,
                        &block_id,
                        block,
                        3,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    emit(
                        event::SERVED,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    for _ in 0..rng.gen_range(2..=3) {
                        emit(
                            event::SERVE_EXCEPTION,
                            &mut rng,
                            &mut lines,
                            &mut labels,
                            &mut block_of,
                        );
                    }
                    emit(
                        event::INTERRUPTED_RECEIVER,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                    emit(
                        event::REOPEN,
                        &mut rng,
                        &mut lines,
                        &mut labels,
                        &mut block_of,
                    );
                }
            }
        } else {
            normal_write(
                &mut rng,
                &specs,
                &block_id,
                block,
                3,
                &mut lines,
                &mut labels,
                &mut block_of,
            );
            // Occasional healthy read / maintenance traffic.
            if rng.gen_bool(0.3) {
                lines.push(render_for_block(
                    &specs[event::VERIFICATION],
                    &mut rng,
                    &block_id,
                ));
                labels.push(event::VERIFICATION);
                block_of.push(block);
            }
            for _ in 0..rng.gen_range(0..=2) {
                lines.push(render_for_block(&specs[event::SERVED], &mut rng, &block_id));
                labels.push(event::SERVED);
                block_of.push(block);
            }
            if rng.gen_bool(0.15) {
                lines.push(render_for_block(&specs[event::DELETE], &mut rng, &block_id));
                labels.push(event::DELETE);
                block_of.push(block);
                lines.push(render_for_block(
                    &specs[event::DELETING_FILE],
                    &mut rng,
                    &block_id,
                ));
                labels.push(event::DELETING_FILE);
                block_of.push(block);
            }
        }
        block_ids.push(block_id);
        anomalous.push(is_anomalous);
    }

    let mut text = String::new();
    for line in &lines {
        text.push_str(line);
        text.push('\n');
    }
    let truth = specs.iter().map(TemplateSpec::ground_truth).collect();
    let data = LabeledCorpus::new(text, labels, truth);
    HdfsSessions {
        data,
        block_of,
        block_ids,
        anomalous,
    }
}

/// Emits the healthy write flow for one block: allocate, then per replica
/// receiving / acknowledgement, then responder terminations and namenode
/// bookkeeping.
#[allow(clippy::too_many_arguments)]
fn normal_write(
    rng: &mut StdRng,
    specs: &[TemplateSpec],
    block_id: &str,
    block: usize,
    replicas: usize,
    lines: &mut Vec<String>,
    labels: &mut Vec<usize>,
    block_of: &mut Vec<usize>,
) {
    let mut emit = |ev: usize, rng: &mut StdRng| {
        lines.push(render_for_block(&specs[ev], rng, block_id));
        labels.push(ev);
        block_of.push(block);
    };
    emit(event::ALLOCATE, rng);
    for _ in 0..replicas {
        emit(event::RECEIVING, rng);
    }
    if rng.gen_bool(0.05) {
        emit(event::CHANGING_OFFSET, rng);
    }
    if rng.gen_bool(0.05) {
        emit(event::RECEIVING_EMPTY, rng);
    }
    for _ in 0..replicas {
        emit(event::RECEIVED, rng);
    }
    for _ in 0..replicas {
        emit(event::RESPONDER, rng);
    }
    for _ in 0..replicas {
        emit(event::ADD_STORED, rng);
    }
    if rng.gen_bool(0.4) {
        emit(event::BLOCK_RECEIVED, rng);
    }
    if rng.gen_bool(0.1) {
        emit(event::ACK_WAIT, rng);
    }
    if rng.gen_bool(0.1) {
        emit(event::TRANSMITTED, rng);
    }
}

/// Renders a spec and pins every generated block id to the session's.
fn render_for_block(spec: &TemplateSpec, rng: &mut StdRng, block_id: &str) -> String {
    let raw = spec.render(rng);
    raw.split_whitespace()
        .map(|token| {
            if token.starts_with("blk_") {
                block_id
            } else {
                token
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_nine_event_types() {
        assert_eq!(templates().len(), 29);
        assert_eq!(spec().event_count(), 29);
    }

    #[test]
    fn iid_generation_labels_are_consistent() {
        let data = generate(500, 11);
        for i in 0..data.len() {
            assert!(data.truth_templates[data.labels[i]].matches(&data.corpus.tokens(i)));
        }
    }

    #[test]
    fn sessions_share_one_block_id_per_block() {
        let s = generate_sessions(20, 0.0, 3);
        for (i, &block) in s.block_of.iter().enumerate() {
            let id = &s.block_ids[block];
            let has_id = s.data.corpus.tokens(i).iter().any(|t| t == id);
            assert!(has_id, "message {i} must carry its session's block id");
        }
    }

    #[test]
    fn anomaly_rate_zero_means_no_anomalies() {
        let s = generate_sessions(50, 0.0, 5);
        assert_eq!(s.anomaly_count(), 0);
    }

    #[test]
    fn anomaly_rate_one_means_all_anomalous() {
        let s = generate_sessions(50, 1.0, 5);
        assert_eq!(s.anomaly_count(), 50);
    }

    #[test]
    fn anomaly_rate_is_approximately_respected() {
        let s = generate_sessions(2000, 0.03, 7);
        let rate = s.anomaly_count() as f64 / 2000.0;
        assert!((0.015..=0.05).contains(&rate), "rate {rate}");
    }

    #[test]
    fn sessions_are_reproducible() {
        let a = generate_sessions(30, 0.1, 9);
        let b = generate_sessions(30, 0.1, 9);
        assert_eq!(a.data.corpus, b.data.corpus);
        assert_eq!(a.anomalous, b.anomalous);
    }

    #[test]
    fn anomalous_blocks_contain_failure_events() {
        let s = generate_sessions(200, 1.0, 13);
        use event::*;
        let failure_events = [
            EXCEPTION_RECEIVE,
            WRITE_EXCEPTION,
            FAILED_TRANSFER,
            PENDING_TIMEOUT,
            REDUNDANT_ADD,
            UNEXPECTED_DELETE,
            SERVE_EXCEPTION,
            INTERRUPTED_RECEIVER,
            RESPONDER_INTERRUPTED,
            ADD_NO_FILE,
        ];
        for block in 0..s.block_count() {
            let has_failure = s
                .block_of
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b == block)
                .any(|(i, _)| failure_events.contains(&s.data.labels[i]));
            assert!(has_failure, "anomalous block {block} lacks failure events");
        }
    }

    #[test]
    fn normal_blocks_avoid_failure_events() {
        let s = generate_sessions(200, 0.0, 17);
        use event::*;
        let failure_events = [
            EXCEPTION_RECEIVE,
            WRITE_EXCEPTION,
            FAILED_TRANSFER,
            PENDING_TIMEOUT,
            REDUNDANT_ADD,
            UNEXPECTED_DELETE,
            SERVE_EXCEPTION,
        ];
        for &label in &s.data.labels {
            assert!(!failure_events.contains(&label));
        }
    }

    #[test]
    fn session_labels_match_truth_templates() {
        let s = generate_sessions(50, 0.2, 21);
        for i in 0..s.data.len() {
            assert!(
                s.data.truth_templates[s.data.labels[i]].matches(&s.data.corpus.tokens(i)),
                "message {i}"
            );
        }
    }
}
