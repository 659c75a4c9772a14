//! Durable checkpoints of parser state.
//!
//! A checkpoint captures what a restart needs besides the global
//! template map: each shard's streaming-parser state
//! ([`DrainTreeState`] / [`SpellStateSnapshot`] — deliberately free of
//! per-message members, so checkpoint size scales with the number of
//! templates, not the length of the stream) and the run's line count.
//! The pipeline's `--checkpoint` directory is a
//! [`logparse_store::TemplateStore`]: parser snapshots and run metadata
//! live in its checksummed blobs, which is all a [`Checkpoint`] holds;
//! the global map lives in the store's sharded snapshot/delta-log chain
//! and is replayed once, by the resumed pipeline, when it opens the
//! store for appending.
//!
//! [`Checkpoint::recover`] degrades instead of failing: a corrupt
//! parser blob yields an empty parser for that shard (its templates
//! re-learn and re-unify by key), a missing meta blob restarts window
//! numbering but keeps every recovered template.
//!
//! Window/scoring history is *not* checkpointed: scores are derived
//! state and the detector re-warms within a few windows after restart.

use std::path::Path;

use logparse_parsers::{DrainTreeState, SpellStateSnapshot, StreamingDrain, StreamingSpell};
use logparse_store::{read_blob, BlobRead, TemplateStore};

use crate::{IngestError, ParserChoice};
use logparse_obs::Json;

/// The exported state of one shard's streaming parser.
#[derive(Debug, Clone, PartialEq)]
pub enum ParserSnapshot {
    /// State of a [`logparse_parsers::StreamingDrain`].
    Drain(DrainTreeState),
    /// State of a [`logparse_parsers::StreamingSpell`].
    Spell(SpellStateSnapshot),
}

impl ParserSnapshot {
    /// Which parser this snapshot belongs to.
    pub fn choice(&self) -> ParserChoice {
        match self {
            ParserSnapshot::Drain(_) => ParserChoice::Drain,
            ParserSnapshot::Spell(_) => ParserChoice::Spell,
        }
    }

    /// Number of groups the snapshot contains.
    pub fn group_count(&self) -> usize {
        match self {
            ParserSnapshot::Drain(s) => s.groups.len(),
            ParserSnapshot::Spell(s) => s.skeletons.len(),
        }
    }

    /// Total messages the parser had observed.
    pub fn observed(&self) -> usize {
        match self {
            ParserSnapshot::Drain(s) => s.observed,
            ParserSnapshot::Spell(s) => s.observed,
        }
    }

    /// A parser whose snapshot has seen nothing — what a shard restores
    /// from when its stored snapshot blob is missing or corrupt.
    pub(crate) fn empty(parser: ParserChoice) -> Self {
        match parser {
            ParserChoice::Drain => ParserSnapshot::Drain(StreamingDrain::default().snapshot()),
            ParserChoice::Spell => ParserSnapshot::Spell(StreamingSpell::default().snapshot()),
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        match self {
            ParserSnapshot::Drain(s) => Json::Obj(vec![
                ("depth".into(), Json::usize(s.depth)),
                ("similarity".into(), Json::num(s.similarity)),
                ("max_children".into(), Json::usize(s.max_children)),
                ("observed".into(), Json::usize(s.observed)),
                (
                    "groups".into(),
                    Json::Arr(
                        s.groups
                            .iter()
                            .map(|slots| {
                                Json::Arr(
                                    slots
                                        .iter()
                                        .map(|slot| match slot {
                                            Some(t) => Json::str(t.clone()),
                                            None => Json::Null,
                                        })
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "leaves".into(),
                    Json::Arr(
                        s.leaves
                            .iter()
                            .map(|(len, path, gids)| {
                                Json::Arr(vec![
                                    Json::usize(*len),
                                    Json::Arr(path.iter().map(|t| Json::str(t.clone())).collect()),
                                    Json::Arr(gids.iter().map(|&g| Json::usize(g)).collect()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "paths".into(),
                    Json::Arr(
                        s.paths_per_length
                            .iter()
                            .map(|&(len, n)| Json::Arr(vec![Json::usize(len), Json::usize(n)]))
                            .collect(),
                    ),
                ),
            ]),
            ParserSnapshot::Spell(s) => Json::Obj(vec![
                ("tau".into(), Json::num(s.tau)),
                ("observed".into(), Json::usize(s.observed)),
                (
                    "skeletons".into(),
                    Json::Arr(
                        s.skeletons
                            .iter()
                            .map(|sk| Json::Arr(sk.iter().map(|t| Json::str(t.clone())).collect()))
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    pub(crate) fn from_json(parser: ParserChoice, json: &Json) -> Result<Self, IngestError> {
        let corrupt = |what: &str| IngestError::Checkpoint(format!("snapshot missing {what}"));
        match parser {
            ParserChoice::Drain => {
                let groups = json
                    .get("groups")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| corrupt("groups"))?
                    .iter()
                    .map(|slots| {
                        slots
                            .as_arr()
                            .ok_or_else(|| corrupt("group slots"))?
                            .iter()
                            .map(|slot| match slot {
                                Json::Null => Ok(None),
                                Json::Str(t) => Ok(Some(t.clone())),
                                _ => Err(corrupt("group token")),
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let leaves = json
                    .get("leaves")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| corrupt("leaves"))?
                    .iter()
                    .map(|leaf| {
                        let Some([len, path, gids]) = leaf.as_arr() else {
                            return Err(corrupt("leaf"));
                        };
                        let len = len.as_usize().ok_or_else(|| corrupt("leaf length"))?;
                        let path = path
                            .as_arr()
                            .ok_or_else(|| corrupt("leaf path"))?
                            .iter()
                            .map(|t| {
                                t.as_str()
                                    .map(str::to_owned)
                                    .ok_or_else(|| corrupt("leaf token"))
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        let gids = gids
                            .as_arr()
                            .ok_or_else(|| corrupt("leaf groups"))?
                            .iter()
                            .map(|g| g.as_usize().ok_or_else(|| corrupt("leaf group id")))
                            .collect::<Result<Vec<_>, _>>()?;
                        Ok((len, path, gids))
                    })
                    .collect::<Result<Vec<_>, IngestError>>()?;
                let paths_per_length = json
                    .get("paths")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| corrupt("paths"))?
                    .iter()
                    .map(|pair| {
                        let Some([len, count]) = pair.as_arr() else {
                            return Err(corrupt("path pair"));
                        };
                        Ok((
                            len.as_usize().ok_or_else(|| corrupt("path length"))?,
                            count.as_usize().ok_or_else(|| corrupt("path count"))?,
                        ))
                    })
                    .collect::<Result<Vec<_>, IngestError>>()?;
                Ok(ParserSnapshot::Drain(DrainTreeState {
                    depth: json
                        .get("depth")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| corrupt("depth"))?,
                    similarity: json
                        .get("similarity")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| corrupt("similarity"))?,
                    max_children: json
                        .get("max_children")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| corrupt("max_children"))?,
                    observed: json
                        .get("observed")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| corrupt("observed"))?,
                    groups,
                    leaves,
                    paths_per_length,
                }))
            }
            ParserChoice::Spell => {
                let skeletons = json
                    .get("skeletons")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| corrupt("skeletons"))?
                    .iter()
                    .map(|sk| {
                        sk.as_arr()
                            .ok_or_else(|| corrupt("skeleton"))?
                            .iter()
                            .map(|t| {
                                t.as_str()
                                    .map(str::to_owned)
                                    .ok_or_else(|| corrupt("skeleton token"))
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ParserSnapshot::Spell(SpellStateSnapshot {
                    tau: json
                        .get("tau")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| corrupt("tau"))?,
                    observed: json
                        .get("observed")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| corrupt("observed"))?,
                    skeletons,
                }))
            }
        }
    }
}

/// What a checkpoint store's blobs hold.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which streaming parser produced the shard snapshots.
    pub parser: ParserChoice,
    /// Checkpoint generation (increments per write within a run).
    pub generation: u64,
    /// Lines routed when the checkpoint was taken; ingestion resumes
    /// sequence numbering (and therefore window numbering) from here.
    pub lines: u64,
    /// One parser snapshot per shard, in shard order.
    pub shards: Vec<ParserSnapshot>,
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
    /// * a missing/corrupt `parser-<i>` blob restores shard `i` with an
    ///   empty parser (the resumed pipeline then drops that shard's
    ///   `(shard, local)` bindings) — the shard re-learns its templates
    ///   and re-unifies them by key onto their old global ids;
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
        let mut snapshots = Vec::with_capacity(shards);
        for shard in 0..shards {
            let snapshot = match read_blob(dir, &format!("parser-{shard}"))? {
                BlobRead::Ok(bytes) => String::from_utf8(bytes)
                    .ok()
                    .and_then(|text| Json::parse(&text).ok())
                    .and_then(|doc| ParserSnapshot::from_json(parser, &doc).ok()),
                BlobRead::Missing | BlobRead::Corrupt => None,
            };
            snapshots.push(snapshot.unwrap_or_else(|| ParserSnapshot::empty(parser)));
        }
        Ok(Some(Checkpoint {
            parser,
            generation,
            lines,
            shards: snapshots,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::open_store;
    use logparse_core::MergeDelta;
    use logparse_parsers::{StreamingDrain, StreamingParser, StreamingSpell};
    use logparse_store::write_blob;

    fn sample_checkpoint() -> Checkpoint {
        let mut drain = StreamingDrain::default();
        for line in ["send pkt 1 ok", "send pkt 2 ok", "disk full on sda1"] {
            drain.observe(line);
        }
        Checkpoint {
            parser: ParserChoice::Drain,
            generation: 3,
            lines: 1234,
            shards: vec![ParserSnapshot::Drain(drain.snapshot())],
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

    fn round_trip(snapshot: &ParserSnapshot) -> ParserSnapshot {
        let text = snapshot.to_json().to_string();
        // Deterministic: a second encode is byte-identical.
        assert_eq!(snapshot.to_json().to_string(), text);
        ParserSnapshot::from_json(snapshot.choice(), &Json::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn parser_snapshots_round_trip_through_the_blob_format() {
        let drain = sample_checkpoint().shards.remove(0);
        assert_eq!(round_trip(&drain), drain);
        let mut spell = StreamingSpell::default();
        for line in ["job 1 done", "job 2 done", "link up"] {
            spell.observe(line);
        }
        let spell = ParserSnapshot::Spell(spell.snapshot());
        assert_eq!(round_trip(&spell), spell);
        // A blob of the other parser's shape is refused, not misread.
        assert!(ParserSnapshot::from_json(ParserChoice::Drain, &spell.to_json()).is_err());
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
                snapshot.to_json().to_string().as_bytes(),
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

    /// The map a pipeline resuming from `checkpoint` would start on.
    fn resumed_map(dir: &std::path::Path, checkpoint: &Checkpoint) -> logparse_core::TemplateMerge {
        let (store, map) = open_store(dir, Some(checkpoint)).unwrap();
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
        assert_eq!(recovered.shards[0].group_count(), 0);
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
