//! Durable checkpoints of parser state.
//!
//! A checkpoint captures what a restart needs besides the global
//! template map: each shard's streaming-parser state, as the blob
//! document [`StreamingParser::snapshot`] writes (free of per-message
//! members, so checkpoint size scales with the number of templates, not
//! the length of the stream), and the run's line count. The pipeline's
//! `--checkpoint` directory is a [`logparse_store::TemplateStore`]:
//! parser blobs and run metadata live in its checksummed blobs, which
//! is all a [`Checkpoint`] holds; the global map lives in the store's
//! sharded snapshot/delta-log chain and is replayed once, by the
//! resumed pipeline, when it opens the store for appending.
//!
//! [`Checkpoint::recover`] degrades instead of failing: a parser blob
//! that is corrupt, or decodes but does not restore, yields an empty
//! parser for that shard (its templates re-learn and re-unify by key),
//! a missing meta blob restarts window numbering but keeps every
//! recovered template.
//!
//! Window/scoring history is *not* checkpointed, and a restart is not
//! invisible to scoring: a resumed run's detector starts with an empty
//! history and trains on the first `warmup` windows it sees (8 by
//! default). On the `serve_file_churn` benchmark every one of the 52
//! windows after those is flagged, and flagged windows never join the
//! training set. ROADMAP.md's open item "The online detector after a
//! regime change" tracks persisting the unflagged history as one more
//! blob.
//!
//! [`StreamingParser::snapshot`]: logparse_parsers::StreamingParser::snapshot

use std::path::Path;

use logparse_obs::Json;
use logparse_parsers::StreamingParser;
use logparse_store::{read_blob, BlobRead, TemplateStore};

use crate::{IngestError, ParserChoice};

/// What a checkpoint store's blobs hold.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which streaming parser produced the shard blobs.
    pub parser: ParserChoice,
    /// Checkpoint generation (increments per write within a run).
    pub generation: u64,
    /// Lines routed when the checkpoint was taken; ingestion resumes
    /// sequence numbering (and therefore window numbering) from here.
    pub lines: u64,
    /// One parser blob document per shard, in shard order: what the
    /// shard's [`StreamingParser::snapshot`] wrote, and what
    /// [`ParserChoice::restore`] reads back.
    ///
    /// [`StreamingParser::snapshot`]: logparse_parsers::StreamingParser::snapshot
    pub shards: Vec<Json>,
}

impl Checkpoint {
    /// Reads the latest checkpoint out of a template-store directory.
    ///
    /// Returns `Ok(None)` when `dir` is not (yet) a store — a fresh
    /// `--checkpoint` directory on a first run. Otherwise parser
    /// snapshots come from the `parser-<i>` blobs and run metadata from
    /// the `meta` blob; the store's snapshots and delta logs are not
    /// read here. Damage degrades instead of failing:
    ///
    /// * a missing or corrupt `parser-<i>` blob, or one that decodes but
    ///   does not restore (a configuration out of range, a leaf naming a
    ///   group the blob does not hold), resumes shard `i` with an empty
    ///   parser (the resumed pipeline then drops that shard's
    ///   `(shard, local)` bindings) — the shard re-learns its templates
    ///   and re-unifies them by key onto their old global ids. Blobs that
    ///   do not decode are replaced here; the pipeline's one restore
    ///   of each blob replaces the rest;
    /// * a missing/corrupt `meta` blob restarts line/window numbering
    ///   at zero with `shards` empty parsers, keeping every template
    ///   the store recovered.
    ///
    /// `shards` is the shard count the resuming pipeline is configured
    /// with. A `meta` blob recording another count is refused before
    /// anything is sized by it — the pipeline could not resume from it.
    pub fn recover(
        dir: &Path,
        parser: ParserChoice,
        shards: usize,
    ) -> Result<Option<Self>, IngestError> {
        if !TemplateStore::is_store(dir) {
            return Ok(None);
        }
        let meta = match read_blob(dir, "meta")? {
            BlobRead::Ok(bytes) => String::from_utf8(bytes)
                .ok()
                .and_then(|text| Json::parse(&text).ok()),
            BlobRead::Missing | BlobRead::Corrupt => None,
        };
        let (parser, generation, lines, shard_count) = match &meta {
            Some(doc) => {
                let parser = doc
                    .get("parser")
                    .and_then(Json::as_str)
                    .and_then(|name| name.parse().ok())
                    .unwrap_or(parser);
                (
                    parser,
                    doc.get("generation").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    doc.get("lines").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    doc.get("shards").and_then(Json::as_usize).unwrap_or(shards),
                )
            }
            None => (parser, 0, 0, shards),
        };
        if shard_count != shards {
            return Err(IngestError::Config(format!(
                "checkpoint has {shard_count} shards, config asks for {shards}"
            )));
        }
        let mut blobs = Vec::with_capacity(shards);
        for shard in 0..shards {
            let blob = match read_blob(dir, &format!("parser-{shard}"))? {
                BlobRead::Ok(bytes) => String::from_utf8(bytes)
                    .ok()
                    .and_then(|text| Json::parse(&text).ok()),
                BlobRead::Missing | BlobRead::Corrupt => None,
            };
            blobs.push(blob.unwrap_or_else(|| parser.build().snapshot()));
        }
        Ok(Some(Checkpoint {
            parser,
            generation,
            lines,
            shards: blobs,
        }))
    }

    /// The shard parsers this checkpoint resumes, in shard order: each
    /// blob restored, or an empty parser where the blob does not restore
    /// (the degrade [`Checkpoint::recover`] documents).
    pub(crate) fn parsers(&self) -> Vec<Box<dyn StreamingParser + Send>> {
        let restore = |blob| {
            self.parser
                .restore(blob)
                .unwrap_or_else(|_| self.parser.build())
        };
        self.shards.iter().map(restore).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::open_store;
    use crate::{run_pipeline, IngestConfig, MemorySource};
    use logparse_core::MergeDelta;
    use logparse_obs::Journal;
    use logparse_store::write_blob;

    fn sample_checkpoint() -> Checkpoint {
        let mut drain = ParserChoice::Drain.build();
        for line in ["send pkt 1 ok", "send pkt 2 ok", "disk full on sda1"] {
            drain.observe(line);
        }
        Checkpoint {
            parser: ParserChoice::Drain,
            generation: 3,
            lines: 1234,
            shards: vec![drain.snapshot()],
        }
    }

    /// The global map `populated_store` logs next to the blobs.
    fn sample_map() -> Vec<MergeDelta> {
        let mut deltas = Vec::new();
        for (gid, key) in ["send pkt * ok", "disk full on sda1"].iter().enumerate() {
            deltas.push(MergeDelta::Insert {
                gid,
                key: key.to_string(),
            });
            deltas.push(MergeDelta::Assign {
                shard: 0,
                local: gid,
                gid,
            });
        }
        deltas
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ingest-cp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Builds a store holding `sample_map()` plus `sample_checkpoint()`'s
    /// parser/meta blobs — the layout `write_checkpoint` produces.
    fn populated_store(dir: &std::path::Path) -> Checkpoint {
        let cp = sample_checkpoint();
        let (mut store, _) =
            TemplateStore::open(dir, &logparse_store::StoreConfig::default()).unwrap();
        store.append(&sample_map()).unwrap();
        for (shard, snapshot) in cp.shards.iter().enumerate() {
            write_blob(
                dir,
                &format!("parser-{shard}"),
                snapshot.to_string().as_bytes(),
            )
            .unwrap();
        }
        let meta = Json::Obj(vec![
            ("version".into(), Json::usize(1)),
            ("parser".into(), Json::str(cp.parser.name())),
            ("generation".into(), Json::num(cp.generation as f64)),
            ("lines".into(), Json::num(cp.lines as f64)),
            ("shards".into(), Json::usize(cp.shards.len())),
        ]);
        write_blob(dir, "meta", meta.to_string().as_bytes()).unwrap();
        store.finish().unwrap();
        cp
    }

    /// Each shard's group count once `checkpoint` is restored.
    fn restored_groups(checkpoint: &Checkpoint) -> Vec<usize> {
        let parsers = checkpoint.parsers();
        parsers.iter().map(|parser| parser.group_count()).collect()
    }

    /// The map a pipeline resuming from `checkpoint` would start on.
    fn resumed_map(dir: &std::path::Path, checkpoint: &Checkpoint) -> logparse_core::TemplateMerge {
        let (store, map) = open_store(dir, Some(&restored_groups(checkpoint))).unwrap();
        store.finish().unwrap();
        map
    }

    #[test]
    fn recover_returns_none_for_a_fresh_directory() {
        let dir = store_dir("fresh");
        std::fs::create_dir_all(&dir).unwrap();
        let recovered = Checkpoint::recover(&dir, ParserChoice::Drain, 1).unwrap();
        assert_eq!(recovered, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_round_trips_a_store_checkpoint() {
        let dir = store_dir("roundtrip");
        let cp = populated_store(&dir);
        let recovered = Checkpoint::recover(&dir, ParserChoice::Drain, 1)
            .unwrap()
            .expect("store holds a checkpoint");
        assert_eq!(recovered, cp);
        let mut map = resumed_map(&dir, &recovered);
        assert_eq!((map.resolve(0, 0), map.resolve(0, 1)), (Some(0), Some(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_degrades_a_corrupt_parser_blob_to_an_empty_parser() {
        let dir = store_dir("corrupt-blob");
        populated_store(&dir);
        let blob = dir.join("parser-0.blob");
        let mut bytes = std::fs::read(&blob).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&blob, &bytes).unwrap();

        let recovered = Checkpoint::recover(&dir, ParserChoice::Drain, 1)
            .unwrap()
            .unwrap();
        // The shard restores empty and its bindings are pruned…
        assert_eq!(restored_groups(&recovered), [0]);
        let map = resumed_map(&dir, &recovered);
        assert_eq!(map.assignments().count(), 0);
        // …but every recovered template (and its id) is kept, so the
        // re-learning shard unifies back onto the old ids by key.
        assert_eq!(
            map.raw_templates(),
            ["send pkt * ok", "disk full on sda1"].map(String::from)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_without_meta_keeps_templates_but_restarts_numbering() {
        let dir = store_dir("no-meta");
        populated_store(&dir);
        std::fs::remove_file(dir.join("meta.blob")).unwrap();

        let recovered = Checkpoint::recover(&dir, ParserChoice::Drain, 2)
            .unwrap()
            .unwrap();
        assert_eq!(recovered.lines, 0);
        assert_eq!(recovered.generation, 0);
        assert_eq!(recovered.shards.len(), 2, "fallback shard count");
        // The recovered checkpoint is valid input for a resume, which
        // keeps every template the store holds.
        let map = resumed_map(&dir, &recovered);
        assert_eq!(map.canonical_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `doc` with its top-level field `key` replaced by `value`.
    fn with_field(doc: &Json, key: &str, value: &str) -> Json {
        let Json::Obj(mut fields) = doc.clone() else {
            panic!("a parser blob is an object");
        };
        fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = Json::parse(value).unwrap();
        Json::Obj(fields)
    }

    /// A CRC-valid parser blob that decodes but does not restore is as
    /// corrupt as one that does not decode: the shard starts empty, its
    /// bindings are pruned, every template is kept, and the resume runs.
    #[test]
    fn recover_degrades_a_blob_that_does_not_restore_to_an_empty_parser() {
        for (key, value, error) in [
            (
                "similarity",
                "1.5",
                "invalid configuration for `similarity`: 1.5 must lie in [0, 1]",
            ),
            (
                "leaves",
                r#"[[4,["send","pkt"],[33]]]"#,
                "invalid configuration for `snapshot`: leaf references group 33 of 2",
            ),
        ] {
            let dir = store_dir(&format!("unrestorable-{key}"));
            let cp = populated_store(&dir);
            let blob = with_field(&cp.shards[0], key, value);
            let refused = ParserChoice::Drain
                .restore(&blob)
                .err()
                .map(|e| e.to_string());
            assert_eq!(refused.as_deref(), Some(error));
            write_blob(&dir, "parser-0", blob.to_string().as_bytes()).unwrap();

            let recovered = Checkpoint::recover(&dir, ParserChoice::Drain, 1)
                .unwrap()
                .unwrap();
            assert_eq!(
                restored_groups(&recovered),
                [0],
                "{key}: shard starts empty"
            );
            assert_eq!(recovered.lines, cp.lines, "{key}: meta still read");
            let map = resumed_map(&dir, &recovered);
            assert_eq!(map.assignments().count(), 0, "{key}");
            assert_eq!(
                map.raw_templates(),
                ["send pkt * ok", "disk full on sda1"].map(String::from)
            );
            let config = IngestConfig {
                shards: 1,
                store_dir: Some(dir.clone()),
                ..IngestConfig::default()
            };
            let lines = ["send pkt 7 ok", "send pkt 8 ok"]
                .map(String::from)
                .to_vec();
            let resumed = run_pipeline(
                &mut MemorySource::new(lines),
                &config,
                Journal::disabled(),
                Some(&recovered),
            )
            .unwrap();
            // The empty shard re-learns the shape onto its old id.
            assert_eq!(resumed.shard_lines, [2]);
            assert!(
                resumed.templates.contains(&(0, "send pkt * ok".into())),
                "{key}: {:?}",
                resumed.templates
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Copies the frozen `store_v1` fixture (written by an earlier
    /// binary: two Drain shards) into `dir`.
    fn store_v1_copy(dir: &Path) -> std::path::PathBuf {
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/fixtures/store_v1");
        let mut pending = vec![(fixture.clone(), dir.to_path_buf())];
        while let Some((from, to)) = pending.pop() {
            std::fs::create_dir_all(&to).unwrap();
            for entry in std::fs::read_dir(&from).unwrap() {
                let entry = entry.unwrap();
                let target = to.join(entry.file_name());
                if entry.file_type().unwrap().is_dir() {
                    pending.push((entry.path(), target));
                } else {
                    std::fs::copy(entry.path(), target).unwrap();
                }
            }
        }
        fixture
    }

    /// The frozen store's parser blobs, restored and snapshotted again,
    /// are the same bytes: the blob format has not moved.
    #[test]
    fn store_v1_parser_blobs_restore_to_their_own_bytes() {
        let dir = store_dir("store-v1");
        let fixture = store_v1_copy(&dir);
        let recovered = Checkpoint::recover(&dir, ParserChoice::Drain, 2)
            .unwrap()
            .expect("store_v1 holds a checkpoint");
        assert_eq!(recovered.shards.len(), 2);
        for (shard, blob) in recovered.shards.iter().enumerate() {
            let BlobRead::Ok(frozen) = read_blob(&fixture, &format!("parser-{shard}")).unwrap()
            else {
                panic!("store_v1 parser-{shard} blob does not read");
            };
            let again = ParserChoice::Drain.restore(blob).unwrap().snapshot();
            assert_eq!(again.to_string().as_bytes(), frozen, "shard {shard}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_refuses_a_meta_shard_count_the_config_does_not_ask_for() {
        let dir = store_dir("shard-count");
        populated_store(&dir);
        // `1e300` is CRC-valid JSON that `as_usize` saturates to
        // `usize::MAX`; it must be refused, not used to size anything.
        for (recorded, read_as) in [("1e300", usize::MAX), ("3", 3)] {
            let meta = format!(
                "{{\"version\":1,\"parser\":\"drain\",\"generation\":3,\"lines\":1234,\"shards\":{recorded}}}"
            );
            write_blob(&dir, "meta", meta.as_bytes()).unwrap();
            match Checkpoint::recover(&dir, ParserChoice::Drain, 2) {
                Err(IngestError::Config(msg)) => assert_eq!(
                    msg,
                    format!("checkpoint has {read_as} shards, config asks for 2")
                ),
                other => panic!("shards {recorded}: expected a config error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
