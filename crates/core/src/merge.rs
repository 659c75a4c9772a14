//! Shard-merge of independently discovered templates into a stable
//! global event-id space.
//!
//! Both execution modes of the toolkit learn templates on independent
//! slices of the input — the streaming pipeline's sharded workers and
//! the batch [`parallel`](crate::parallel) driver's corpus chunks — so
//! the same event shape can receive different local ids on different
//! shards. [`TemplateMerge`] is the one shared reconciliation
//! implementation: a `(shard, local_id) → global_id` map in which
//! identical template keys unify to a single global id, backed by a
//! union-find so that ids stay **stable** once handed out.
//!
//! Two properties make the merge safe to reuse across both paths:
//!
//! * **Monotone ids** — a global id, once allocated, is never reused for
//!   a different event; later merges can only alias *more* local ids to
//!   it, or union it with another id (the smaller/older id stays
//!   canonical).
//! * **Refinement tolerance** — when a shard re-announces a local id
//!   with a *different* key (its template gained a wildcard as the group
//!   absorbed more variety), the global id keeps its identity and, if
//!   the refined key collides with another global id, the two are
//!   unioned rather than duplicated.
//!
//! Keys are opaque strings chosen by the caller: the ingest aggregator
//! uses rendered template text, the parallel driver uses an unambiguous
//! structural encoding (so a literal `*` token cannot collide with a
//! wildcard).
//!
//! ## Replay
//!
//! The same type is the restart image: [`TemplateMerge::apply`] replays
//! the [`MergeDelta`] stream a previous run emitted (the durable store
//! feeds it snapshots and delta logs) and merging then continues on the
//! result as if the process had never stopped. Replay is *total* — the
//! records come off a disk, so any ids are accepted: an id past the
//! table grows it with empty-key **tombstones**, which are never
//! indexed, counted or listed as templates. Every union, live or
//! replayed, points the larger root at the smaller, so `parent[i] <= i`
//! holds by construction and [`TemplateMerge::resolve_root`] terminates
//! on any input; no replayed record can build a cycle.

use std::collections::HashMap;

/// One mutation of a [`TemplateMerge`], as observed by
/// [`TemplateMerge::merge_shard_with`].
///
/// The variants mirror the merge's write set exactly — replaying a
/// delta stream against persisted state (the `logparse-store` crate)
/// reproduces the same `templates`/`assign` tables and the same
/// union-find *partition* (the raw `parent` array may differ by path
/// halving, which never changes any id's canonical root):
///
/// * `Insert` — a fresh global id was allocated for a new key.
/// * `Assign` — a `(shard, local)` pair was bound to a global id.
/// * `Refine` — the key stored at a canonical id was rewritten (the
///   shard's template gained a wildcard).
/// * `Union` — two canonical ids collided on one key; `loser`'s parent
///   was set to `winner` (always the smaller, older id).
///
/// Deltas are emitted in write order. Per global id, all writes to that
/// id's slot appear in emission order, which is what makes a sharded
/// log (one shard per id) replayable without cross-shard ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeDelta {
    /// A new global id and its initial key.
    Insert {
        /// The allocated global id (`== id_space` before the insert).
        gid: usize,
        /// The template key stored at the new id.
        key: String,
    },
    /// `(shard, local)` was bound to `gid` (recorded unresolved, exactly
    /// as the live `assign` table stores it).
    Assign {
        /// Parse shard that announced the local id.
        shard: usize,
        /// The shard-local template id.
        local: usize,
        /// The global id it was bound to.
        gid: usize,
    },
    /// The key at canonical id `gid` was rewritten to `key`.
    Refine {
        /// The canonical id whose slot was rewritten.
        gid: usize,
        /// The new key.
        key: String,
    },
    /// `parent[loser] = winner` — two canonical ids were unified.
    Union {
        /// The surviving (smaller, older) id.
        winner: usize,
        /// The id that became an alias.
        loser: usize,
    },
}

/// Stable `(shard, local) → global` template-id mapping with union-find
/// canonicalization. See the [module docs](self) for the merge
/// semantics.
#[derive(Debug, Default, Clone)]
pub struct TemplateMerge {
    templates: Vec<String>,
    parent: Vec<usize>,
    by_key: HashMap<String, usize>,
    assign: HashMap<(usize, usize), usize>,
    /// Lifetime count of union-find merges (refinement collisions) —
    /// the drift family's merge-conflict signal.
    unions: u64,
    /// Lifetime count of template refinements (a key gaining wildcards).
    refines: u64,
    /// Replay writes slots without touching `by_key` (records of one
    /// generation arrive in store-shard order, not emission order, so
    /// only the final table says which keys are canonical); the next
    /// merge rebuilds the index first.
    index_stale: bool,
}

/// Two merges are equal when they are the same map: the same key in
/// every slot, the same bindings and the same partition. Raw parent
/// pointers differ by path halving; the counters and the key index are
/// bookkeeping, not state.
impl PartialEq for TemplateMerge {
    fn eq(&self, other: &Self) -> bool {
        let root = |parent: &[usize], mut id: usize| {
            while parent[id] != id {
                id = parent[id];
            }
            id
        };
        self.templates == other.templates
            && self.assign == other.assign
            && (0..self.parent.len()).all(|id| root(&self.parent, id) == root(&other.parent, id))
    }
}

impl Eq for TemplateMerge {}

impl TemplateMerge {
    /// Creates an empty merge.
    pub fn new() -> Self {
        TemplateMerge::default()
    }

    /// Replays one recorded mutation: the write path a restart rebuilds
    /// the map through, for delta-log records and snapshot slots alike.
    /// Total — see the [module docs](self#replay). The union/refine
    /// counters do not move: they count this process's merges, not
    /// history.
    pub fn apply(&mut self, delta: &MergeDelta) {
        match delta {
            MergeDelta::Insert { gid, key } | MergeDelta::Refine { gid, key } => {
                self.grow_to(*gid);
                self.templates[*gid] = key.clone();
            }
            MergeDelta::Assign { shard, local, gid } => {
                self.grow_to(*gid);
                self.assign.insert((*shard, *local), *gid);
            }
            MergeDelta::Union { winner, loser } => {
                self.grow_to(*winner.max(loser));
                let a = self.resolve_root(*winner);
                let b = self.resolve_root(*loser);
                if a != b {
                    self.parent[a.max(b)] = a.min(b);
                }
            }
        }
        self.index_stale = true;
    }

    /// Grows the table so `gid` is a valid index. New slots are
    /// self-parented empty-key tombstones — inert unless a later record
    /// writes them.
    fn grow_to(&mut self, gid: usize) {
        while self.templates.len() <= gid {
            self.parent.push(self.templates.len());
            self.templates.push(String::new());
        }
    }

    /// Rebuilds the key index from the canonical roots, skipping
    /// tombstones. Two roots left holding one key (their union was lost
    /// with a quarantined store shard) index the older id.
    fn reindex(&mut self) {
        self.by_key.clear();
        for id in 0..self.templates.len() {
            if self.is_canonical(id) {
                self.by_key.entry(self.templates[id].clone()).or_insert(id);
            }
        }
        self.index_stale = false;
    }

    /// Drops every `(shard, local)` binding `keep` rejects. A restart
    /// prunes bindings to the local ids its restored parsers still
    /// have; a pruned group re-unifies by key when it is re-learned.
    pub fn retain_bindings(&mut self, mut keep: impl FnMut(usize, usize) -> bool) {
        self.assign.retain(|&(shard, local), _| keep(shard, local));
    }

    /// Canonicalizes a global id through the union-find (path halving).
    pub fn resolve_root(&mut self, mut id: usize) -> usize {
        while self.parent[id] != id {
            let grand = self.parent[self.parent[id]];
            self.parent[id] = grand;
            id = grand;
        }
        id
    }

    /// Folds a shard's current template key list into the merge: key
    /// `i` of `keys` is the template of the shard's local id `i`.
    ///
    /// Identical keys (within the shard or across shards) unify to one
    /// global id. A local id re-announced with a changed key keeps its
    /// global id; if the new key collides with another global id the two
    /// ids are unioned and the smaller (older) one stays canonical.
    pub fn merge_shard(&mut self, shard: usize, keys: &[String]) {
        self.merge_shard_with(shard, keys, |_| {});
    }

    /// [`TemplateMerge::merge_shard`] with every state mutation reported
    /// to `sink` as a [`MergeDelta`], in write order — the hook the
    /// durable template store appends its per-shard delta logs from.
    pub fn merge_shard_with<F>(&mut self, shard: usize, keys: &[String], mut sink: F)
    where
        F: FnMut(MergeDelta),
    {
        if self.index_stale {
            self.reindex();
        }
        for (local, key) in keys.iter().enumerate() {
            match self.assign.get(&(shard, local)).copied() {
                Some(assigned) => {
                    let root = self.resolve_root(assigned);
                    if self.templates[root] != *key {
                        // The template refined. Drop the stale key index
                        // entry, then unify with any existing id that
                        // already carries the new key.
                        if self.by_key.get(&self.templates[root]) == Some(&root) {
                            self.by_key.remove(&self.templates[root]);
                        }
                        match self.by_key.get(key).copied() {
                            Some(other) => {
                                let other = self.resolve_root(other);
                                if other != root {
                                    let (winner, loser) = if other < root {
                                        (other, root)
                                    } else {
                                        (root, other)
                                    };
                                    self.parent[loser] = winner;
                                    self.templates[winner] = key.clone();
                                    self.by_key.insert(key.clone(), winner);
                                    self.unions += 1;
                                    self.refines += 1;
                                    sink(MergeDelta::Union { winner, loser });
                                    sink(MergeDelta::Refine {
                                        gid: winner,
                                        key: key.clone(),
                                    });
                                }
                            }
                            None => {
                                self.templates[root] = key.clone();
                                self.by_key.insert(key.clone(), root);
                                self.refines += 1;
                                sink(MergeDelta::Refine {
                                    gid: root,
                                    key: key.clone(),
                                });
                            }
                        }
                    }
                }
                None => {
                    let global = match self.by_key.get(key).copied() {
                        Some(existing) => self.resolve_root(existing),
                        None => {
                            let id = self.templates.len();
                            self.templates.push(key.clone());
                            self.parent.push(id);
                            self.by_key.insert(key.clone(), id);
                            sink(MergeDelta::Insert {
                                gid: id,
                                key: key.clone(),
                            });
                            id
                        }
                    };
                    self.assign.insert((shard, local), global);
                    sink(MergeDelta::Assign {
                        shard,
                        local,
                        gid: global,
                    });
                }
            }
        }
    }

    /// Resolves a shard-local id to its canonical global id, or `None`
    /// when the pair was never merged.
    pub fn resolve(&mut self, shard: usize, local: usize) -> Option<usize> {
        let assigned = self.assign.get(&(shard, local)).copied()?;
        Some(self.resolve_root(assigned))
    }

    /// Number of global ids ever allocated (including aliased ones) —
    /// the column space for count matrices.
    pub fn id_space(&self) -> usize {
        self.templates.len()
    }

    /// Whether `id` is a canonical root holding a key (not an alias,
    /// not a tombstone).
    fn is_canonical(&self, id: usize) -> bool {
        self.parent[id] == id && !self.templates[id].is_empty()
    }

    /// Number of canonical (non-aliased, non-tombstone) global ids.
    pub fn canonical_count(&self) -> usize {
        (0..self.parent.len())
            .filter(|&id| self.is_canonical(id))
            .count()
    }

    /// Canonical `(global id, template key)` pairs, id-ascending.
    pub fn canonical_templates(&self) -> Vec<(usize, String)> {
        (0..self.templates.len())
            .filter(|&id| self.is_canonical(id))
            .map(|id| (id, self.templates[id].clone()))
            .collect()
    }

    /// Lifetime number of union-find merges: two diverged global ids
    /// refining onto the same key. A rising rate means shards keep
    /// re-learning (and re-colliding on) the same event shapes — the
    /// merge-conflict signal the drift telemetry watches.
    pub fn union_count(&self) -> u64 {
        self.unions
    }

    /// Lifetime number of template refinements (a key changing in
    /// place, with or without a collision).
    pub fn refine_count(&self) -> u64 {
        self.refines
    }

    /// The raw per-id key table (aliased ids keep their last key), for
    /// state export.
    pub fn raw_templates(&self) -> &[String] {
        &self.templates
    }

    /// The raw union-find parent table, for state export.
    pub fn raw_parents(&self) -> &[usize] {
        &self.parent
    }

    /// All `((shard, local), global)` assignments, in arbitrary order.
    /// Global ids are as assigned, not canonicalized; pass them through
    /// [`TemplateMerge::resolve_root`] when exporting.
    pub fn assignments(&self) -> impl Iterator<Item = ((usize, usize), usize)> + '_ {
        self.assign.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_keys_across_shards_share_a_global_id() {
        let mut m = TemplateMerge::new();
        m.merge_shard(0, &["send pkt * ok".into(), "disk full".into()]);
        m.merge_shard(1, &["disk full".into(), "send pkt * ok".into()]);
        assert_eq!(m.resolve(0, 0), m.resolve(1, 1));
        assert_eq!(m.resolve(0, 1), m.resolve(1, 0));
        assert_eq!(m.canonical_count(), 2);
    }

    #[test]
    fn merge_is_invariant_to_shard_order() {
        // Whatever order shards report in, messages that share a key end
        // up sharing a canonical id, and the canonical template *set* is
        // identical (ids themselves are allocation-order dependent).
        let shards: Vec<Vec<String>> = vec![
            vec!["a *".into(), "b".into()],
            vec!["c * d".into(), "a *".into()],
            vec!["b".into(), "c * d".into()],
        ];
        let mut forward = TemplateMerge::new();
        for (s, keys) in shards.iter().enumerate() {
            forward.merge_shard(s, keys);
        }
        let mut backward = TemplateMerge::new();
        for (s, keys) in shards.iter().enumerate().rev() {
            backward.merge_shard(s, keys);
        }
        let set = |m: &mut TemplateMerge| {
            let mut keys: Vec<String> = m
                .canonical_templates()
                .into_iter()
                .map(|(_, k)| k)
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(set(&mut forward), set(&mut backward));
        // Same-key pairs resolve to one id in both directions.
        for m in [&mut forward, &mut backward] {
            assert_eq!(m.resolve(0, 0), m.resolve(1, 1), "a *");
            assert_eq!(m.resolve(0, 1), m.resolve(2, 0), "b");
            assert_eq!(m.resolve(1, 0), m.resolve(2, 1), "c * d");
        }
    }

    #[test]
    fn ids_are_stable_across_incremental_merges() {
        let mut m = TemplateMerge::new();
        m.merge_shard(0, &["job 1 done".into()]);
        let g = m.resolve(0, 0).unwrap();
        // The shard refines its template over three more increments; the
        // global id never moves.
        for key in ["job * done", "job * done", "job * *"] {
            m.merge_shard(0, &[key.into()]);
            assert_eq!(m.resolve(0, 0), Some(g));
        }
        assert_eq!(m.canonical_templates(), vec![(g, "job * *".to_string())]);
    }

    #[test]
    fn refinement_collision_unions_and_keeps_older_id() {
        let mut m = TemplateMerge::new();
        m.merge_shard(0, &["send pkt * ok".into()]);
        m.merge_shard(1, &["send pkt 7 ok".into()]);
        let g0 = m.resolve(0, 0).unwrap();
        let g1 = m.resolve(1, 0).unwrap();
        assert_ne!(g0, g1);
        // Shard 1 refines to the same key: ids union, older id wins.
        m.merge_shard(1, &["send pkt * ok".into()]);
        assert_eq!(m.resolve(1, 0), Some(g0));
        assert_eq!(m.canonical_count(), 1);
        assert_eq!(m.id_space(), 2, "aliased id still occupies the space");
    }

    #[test]
    fn union_and_refine_counters_track_conflicts() {
        let mut m = TemplateMerge::new();
        assert_eq!((m.union_count(), m.refine_count()), (0, 0));
        m.merge_shard(0, &["send pkt * ok".into()]);
        m.merge_shard(1, &["send pkt 7 ok".into()]);
        assert_eq!((m.union_count(), m.refine_count()), (0, 0), "inserts only");
        // In-place refinement without a collision: refine, no union.
        m.merge_shard(1, &["send pkt 7 *".into()]);
        assert_eq!((m.union_count(), m.refine_count()), (0, 1));
        // Refinement collision with shard 0's key: union + refine.
        m.merge_shard(1, &["send pkt * ok".into()]);
        assert_eq!((m.union_count(), m.refine_count()), (1, 2));
        // Idempotent re-merge moves nothing.
        m.merge_shard(1, &["send pkt * ok".into()]);
        assert_eq!((m.union_count(), m.refine_count()), (1, 2));
    }

    #[test]
    fn identical_keys_from_many_shards_collapse_to_one() {
        let mut m = TemplateMerge::new();
        for shard in 0..8 {
            m.merge_shard(shard, &["open file *".into()]);
        }
        let g = m.resolve(0, 0).unwrap();
        for shard in 1..8 {
            assert_eq!(m.resolve(shard, 0), Some(g));
        }
        assert_eq!(m.canonical_count(), 1);
        assert_eq!(m.id_space(), 1);
    }

    #[test]
    fn resolve_unknown_pair_is_none() {
        let mut m = TemplateMerge::new();
        m.merge_shard(0, &["a".into()]);
        assert_eq!(m.resolve(0, 1), None);
        assert_eq!(m.resolve(3, 0), None);
    }

    fn replayed(deltas: &[MergeDelta]) -> TemplateMerge {
        let mut m = TemplateMerge::new();
        for delta in deltas {
            m.apply(delta);
        }
        m
    }

    /// The structural guarantees replay gives on *any* delta stream.
    fn assert_replay_is_safe(m: &mut TemplateMerge) {
        for (gid, &up) in m.raw_parents().iter().enumerate() {
            assert!(up <= gid, "parent[{gid}] = {up} points upward");
        }
        for gid in 0..m.id_space() {
            let root = m.resolve_root(gid); // terminates: parents descend
            assert_eq!(m.raw_parents()[root], root);
        }
        let canonical = m.canonical_templates();
        assert!(
            canonical.iter().all(|(_, key)| !key.is_empty()),
            "tombstones are never served"
        );
        assert_eq!(canonical.len(), m.canonical_count());
        let pairs: Vec<(usize, usize)> = m.assignments().map(|(pair, _)| pair).collect();
        for (shard, local) in pairs {
            assert!(m.resolve(shard, local).unwrap() < m.id_space());
        }
    }

    #[test]
    fn replaying_deltas_rebuilds_the_table() {
        let mut m = replayed(&[
            MergeDelta::Insert {
                gid: 0,
                key: "a <*>".into(),
            },
            MergeDelta::Assign {
                shard: 0,
                local: 0,
                gid: 0,
            },
            MergeDelta::Insert {
                gid: 1,
                key: "b <*>".into(),
            },
            MergeDelta::Assign {
                shard: 1,
                local: 0,
                gid: 1,
            },
            MergeDelta::Union {
                winner: 0,
                loser: 1,
            },
            MergeDelta::Refine {
                gid: 0,
                key: "ab <*>".into(),
            },
        ]);
        assert_eq!(m.id_space(), 2);
        assert_eq!(m.resolve_root(1), 0);
        assert_eq!(m.canonical_templates(), vec![(0, "ab <*>".to_string())]);
        assert_eq!(m.resolve(1, 0), Some(0));
        assert_eq!((m.union_count(), m.refine_count()), (0, 0), "history");
        // New shards unify against the rebuilt key index.
        m.merge_shard(7, &["ab <*>".into()]);
        assert_eq!(m.resolve(7, 0), Some(0));
        assert_eq!(m.id_space(), 2);
    }

    #[test]
    fn hostile_deltas_replay_without_panic_cycle_or_served_tombstone() {
        let union = |winner, loser| MergeDelta::Union { winner, loser };
        let cases: Vec<Vec<MergeDelta>> = vec![
            // Ids past an empty table, "winner" the larger one.
            vec![union(7, 3)],
            // A pair that, taken literally, is a two-cycle.
            vec![union(0, 1), union(1, 0)],
            vec![union(2, 2)],
            vec![MergeDelta::Assign {
                shard: 0,
                local: 5,
                gid: 12,
            }],
        ];
        for (case, deltas) in cases.iter().enumerate() {
            let mut m = replayed(deltas);
            assert_replay_is_safe(&mut m);
            assert_eq!(m.canonical_count(), 0, "case {case}: only tombstones");
            // Merging goes on: a fresh key gets a fresh id past the
            // tombstones, and a bound tombstone heals in place.
            let before = m.id_space();
            m.merge_shard(9, &["fresh key".into()]);
            assert_eq!(m.resolve(9, 0), Some(before), "case {case}");
            assert_replay_is_safe(&mut m);
        }
        let mut m = replayed(&cases[0]);
        assert_eq!(m.id_space(), 8);
        assert_eq!(m.resolve_root(7), 3, "the smaller id stays canonical");
        let mut m = replayed(&cases[3]);
        assert_eq!(m.id_space(), 13);
        // Shard 0 re-learns its groups: local 5 heals the tombstone it
        // was bound to instead of moving to a new id.
        m.merge_shard(
            0,
            &["f0", "f1", "f2", "f3", "f4", "relearned *"].map(String::from),
        );
        assert_eq!(m.resolve(0, 5), Some(12), "the binding kept its id");
        assert!(m
            .canonical_templates()
            .contains(&(12, "relearned *".to_string())));
    }

    /// Decodes a generated announcement: `keys[local]` drawn from a
    /// six-key alphabet, so re-announcing a local id under another key
    /// (a refinement) and two ids landing on one key (a collision, hence
    /// a union) are both common. Keys are never empty — the empty key is
    /// the tombstone.
    fn announcement(picks: &[usize]) -> Vec<String> {
        picks.iter().map(|k| format!("key {k} *")).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        #[test]
        fn restart_is_invisible(
            ops in prop::collection::vec(
                (0usize..3, prop::collection::vec(0usize..6, 1..5)),
                1..24,
            ),
            cut in 0usize..24,
            store_shards in 1usize..4,
        ) {
            let cut = cut.min(ops.len());
            let mut live = TemplateMerge::new();
            let mut stream: Vec<Vec<MergeDelta>> = Vec::new();
            for (shard, picks) in &ops {
                let mut deltas = Vec::new();
                live.merge_shard_with(*shard, &announcement(picks), |d| deltas.push(d));
                stream.push(deltas);
            }

            // Restart after `cut` announcements: replay what they
            // emitted, then keep merging. Every later announcement must
            // emit exactly what the uninterrupted run emitted.
            let before: Vec<MergeDelta> = stream[..cut].concat();
            let mut restarted = replayed(&before);
            for ((shard, picks), expected) in ops[cut..].iter().zip(&stream[cut..]) {
                let mut deltas = Vec::new();
                restarted.merge_shard_with(*shard, &announcement(picks), |d| deltas.push(d));
                prop_assert_eq!(&deltas, expected);
            }
            prop_assert_eq!(&restarted, &live);
            prop_assert_eq!(restarted.canonical_templates(), live.canonical_templates());

            // The store replays a generation shard by shard, not in
            // emission order: slot writes route by id (a union by its
            // winner), bindings by pair. Any such stable partition of
            // the whole stream rebuilds the same image.
            let all: Vec<MergeDelta> = stream.concat();
            let route = |delta: &MergeDelta| match delta {
                MergeDelta::Insert { gid, .. } | MergeDelta::Refine { gid, .. } => gid % store_shards,
                MergeDelta::Union { winner, .. } => winner % store_shards,
                MergeDelta::Assign { shard, local, .. } => (shard * 31 + local) % store_shards,
            };
            let mut sharded = TemplateMerge::new();
            for target in 0..store_shards {
                for delta in all.iter().filter(|d| route(d) == target) {
                    sharded.apply(delta);
                }
            }
            assert_replay_is_safe(&mut sharded);
            prop_assert_eq!(&sharded, &live);
            prop_assert_eq!(sharded.canonical_templates(), live.canonical_templates());
        }

        #[test]
        fn arbitrary_deltas_replay_safely(
            raw in prop::collection::vec((0u8..4, 0usize..16, 0usize..16, 0usize..6), 0..40),
        ) {
            let deltas: Vec<MergeDelta> = raw
                .iter()
                .map(|&(kind, a, b, k)| match kind {
                    0 => MergeDelta::Insert { gid: a, key: format!("key {k} *") },
                    1 => MergeDelta::Refine { gid: a, key: if k == 0 { String::new() } else { format!("key {k} *") } },
                    2 => MergeDelta::Assign { shard: a % 3, local: b, gid: k * 3 },
                    _ => MergeDelta::Union { winner: a, loser: b },
                })
                .collect();
            let mut m = replayed(&deltas);
            assert_replay_is_safe(&mut m);
            m.merge_shard(0, &announcement(&[0, 1, 2, 3]));
            m.merge_shard(1, &announcement(&[3, 2]));
            assert_replay_is_safe(&mut m);
        }
    }
}
