//! Regressions for the job-directory publish paths: `ShardResult` and
//! `DlqRecord` writes now pin the freshly created `out/` / `dlq/`
//! entries with a directory fsync before renaming results in, so
//! publishing must keep working into job directories of any depth —
//! including ones whose whole parent chain is created by the write.

use std::path::PathBuf;

use logparse_jobs::protocol::{DlqRecord, ShardResult};

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jobs-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn shard_result_publishes_into_a_fresh_deep_job_dir() {
    let root = temp("shard");
    let job_dir = root.join("jobs/run-7");
    let result = ShardResult {
        task: 3,
        start: 120,
        templates: Vec::new(),
        assignments: vec![None, None],
    };
    result.write(&job_dir).unwrap();
    let published = job_dir.join("out/task-3.json");
    let text = std::fs::read_to_string(&published).unwrap();
    assert!(text.contains("\"task\""), "{text}");
    // Re-publish over the existing tree: the sync path runs again.
    result.write(&job_dir).unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dlq_record_publishes_and_reloads_from_a_fresh_deep_job_dir() {
    let root = temp("dlq");
    let job_dir = root.join("jobs/run-9");
    let record = DlqRecord {
        task: 5,
        job_id: "job-42".into(),
        attempts: 4,
        failure: "worker crashed".into(),
    };
    record.write(&job_dir).unwrap();
    let loaded = DlqRecord::load(&job_dir, 5)
        .unwrap()
        .expect("record exists");
    assert_eq!(loaded, record);
    assert!(DlqRecord::load(&job_dir, 6).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&root);
}
