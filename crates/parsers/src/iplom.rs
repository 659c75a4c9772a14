//! IPLoM — Iterative Partitioning Log Mining (Makanju, Zincir-Heywood,
//! Milios; KDD 2009 / TKDE 2012).
//!
//! IPLoM partitions the corpus hierarchically using heuristics designed
//! around the structure of log messages, then emits one template per leaf
//! partition:
//!
//! 1. **Partition by event size** — messages with different token counts
//!    cannot share an event.
//! 2. **Partition by token position** — within a partition, split on the
//!    token values at the position with the fewest unique tokens (the
//!    position most likely to be constant per event).
//! 3. **Partition by search for bijection** — pick two heuristically
//!    chosen positions and split according to the mapping relation
//!    (1–1, 1–M, M–1, M–M) between their token values.
//! 4. **Template generation** — positionwise: unique token ⇒ literal,
//!    otherwise wildcard.
//!
//! The thresholds (`partition support`, `cluster goodness`, `lower/upper
//! bound`) follow the original paper; partitions that fall below the
//! partition-support threshold at any step are diverted to the outlier
//! set, matching the reference implementation.
//!
//! Every statistic the heuristics read is counted in tables indexed by
//! symbol id, with no hash set and no per-line rescan: a partition's
//! column cardinalities once, in one pass over its rows per 32 positions,
//! shared by step 2's choice of split and step 3's goodness and choice of
//! positions; step 3's per-value line and image counts in three passes and
//! a counting sort. Each step is linear in the tokens of its partitions,
//! so the parse is linear in the corpus.

use std::collections::HashMap;

use logparse_core::{Corpus, LogParser, Parse, ParseBuilder, ParseError, Symbol};

/// The IPLoM parser. Construct via [`Iplom::builder`].
///
/// Defaults follow the original paper's recommended operating point:
/// cluster-goodness threshold 0.35, lower bound 0.25, upper bound 0.9,
/// partition support threshold 0 (no pruning).
///
/// # Example
///
/// ```
/// use logparse_core::{Corpus, LogParser};
/// use logparse_parsers::Iplom;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let corpus = Corpus::from_lines([
///     "Verification succeeded for blk_1",
///     "Verification succeeded for blk_2",
///     "Deleting block blk_1 file /data/1",
///     "Deleting block blk_2 file /data/2",
/// ]);
/// let parse = Iplom::default().parse(&corpus)?;
/// assert_eq!(parse.event_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Iplom {
    partition_support: f64,
    cluster_goodness: f64,
    lower_bound: f64,
    upper_bound: f64,
}

impl Default for Iplom {
    fn default() -> Self {
        Iplom {
            partition_support: 0.0,
            cluster_goodness: 0.35,
            lower_bound: 0.25,
            upper_bound: 0.9,
        }
    }
}

impl Iplom {
    /// Starts building an IPLoM configuration.
    pub fn builder() -> IplomBuilder {
        IplomBuilder::default()
    }
}

/// Builder for [`Iplom`].
#[derive(Debug, Clone, Default)]
pub struct IplomBuilder {
    partition_support: Option<f64>,
    cluster_goodness: Option<f64>,
    lower_bound: Option<f64>,
    upper_bound: Option<f64>,
}

impl IplomBuilder {
    /// Partitions whose relative size drops below this fraction of the
    /// corpus are diverted to the outlier set (paper: *PST*; default 0).
    #[must_use]
    pub fn partition_support(mut self, threshold: f64) -> Self {
        self.partition_support = Some(threshold);
        self
    }

    /// A partition whose fraction of single-valued token positions exceeds
    /// this is considered "good" and skips step 3 (paper: *CGT*;
    /// default 0.35).
    #[must_use]
    pub fn cluster_goodness(mut self, threshold: f64) -> Self {
        self.cluster_goodness = Some(threshold);
        self
    }

    /// Lower bound of the 1–M/M–1 split decision (default 0.25).
    #[must_use]
    pub fn lower_bound(mut self, bound: f64) -> Self {
        self.lower_bound = Some(bound);
        self
    }

    /// Upper bound of the 1–M/M–1 split decision (default 0.9).
    #[must_use]
    pub fn upper_bound(mut self, bound: f64) -> Self {
        self.upper_bound = Some(bound);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> Iplom {
        let d = Iplom::default();
        Iplom {
            partition_support: self.partition_support.unwrap_or(d.partition_support),
            cluster_goodness: self.cluster_goodness.unwrap_or(d.cluster_goodness),
            lower_bound: self.lower_bound.unwrap_or(d.lower_bound),
            upper_bound: self.upper_bound.unwrap_or(d.upper_bound),
        }
    }
}

/// A partition is a set of message indices, all of equal token count after
/// step 1, in ascending order: every split keeps its input's order, so the
/// group a value first appears in is also the group with the smallest
/// first index.
type Partition = Vec<usize>;

/// Outcome of the step-3 rank-position decision for a 1–M relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitSide {
    /// Split on the many-valued position (its values are constants).
    Many,
    /// Split on the single-valued position.
    One,
    /// No stable mapping: divert to the leftover (M–M) partition.
    Leftover,
}

impl LogParser for Iplom {
    fn name(&self) -> &'static str {
        "IPLoM"
    }

    fn parse(&self, corpus: &Corpus) -> Result<Parse, ParseError> {
        for (name, value) in [
            ("partition_support", self.partition_support),
            ("cluster_goodness", self.cluster_goodness),
            ("lower_bound", self.lower_bound),
            ("upper_bound", self.upper_bound),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(ParseError::InvalidConfig {
                    parameter: name,
                    // lint:allow(hot-path-string-alloc): config-validation error path, four iterations per parse
                    reason: format!("{value} must lie in [0, 1]"),
                });
            }
        }
        if self.lower_bound >= self.upper_bound {
            return Err(ParseError::InvalidConfig {
                parameter: "lower_bound",
                reason: format!(
                    "lower bound {} must be below upper bound {}",
                    self.lower_bound, self.upper_bound
                ),
            });
        }

        let n = corpus.len();
        let mut builder = ParseBuilder::new(n);
        if n == 0 {
            return Ok(builder.build());
        }
        let min_partition = (self.partition_support * n as f64).ceil() as usize;

        let mut stats = Stats::new(corpus);
        let mut leaves: Vec<Partition> = Vec::new();
        for partition in partition_by_event_size(corpus) {
            if partition.len() < min_partition {
                continue; // outliers
            }
            for (p2, cards) in
                self.partition_by_token_position(&mut stats, partition, min_partition)
            {
                leaves.extend(self.partition_by_bijection(&mut stats, p2, cards, min_partition));
            }
        }
        leaves.sort_by_key(|p| p.first().copied());
        for leaf in leaves {
            builder.add_cluster(corpus, &leaf);
        }
        Ok(builder.build())
    }
}

/// Step 1: group message indices by token count. Zero-length messages are
/// dropped (they carry no content).
fn partition_by_event_size(corpus: &Corpus) -> Vec<Partition> {
    let mut partitions = Vec::new();
    let mut by_len: Vec<Option<usize>> = Vec::new();
    for (idx, tokens) in corpus.arena().iter().enumerate() {
        let len = tokens.len();
        if len == 0 {
            continue;
        }
        if len >= by_len.len() {
            by_len.resize(len + 1, None);
        }
        push_to_group(&mut partitions, &mut by_len[len], idx);
    }
    partitions
}

/// Fraction of token positions with exactly one unique value, given a
/// partition's per-position cardinalities.
fn goodness(cards: &[usize]) -> f64 {
    if cards.is_empty() {
        return 1.0;
    }
    let constant = cards.iter().filter(|&&card| card == 1).count();
    constant as f64 / cards.len() as f64
}

impl Iplom {
    /// Step 2: split each partition on the token position with the lowest
    /// cardinality, the position most likely to hold per-event constant
    /// text (ties break towards the leftmost position). When the lowest
    /// cardinality is 1 the partition already has a constant column and
    /// the split would be a no-op, so it passes through unchanged and
    /// step 3 takes over — the original algorithm's behaviour, and what
    /// keeps low-cardinality *parameter* columns (thread ids, replica
    /// numbers) from shattering an event.
    ///
    /// A partition that passes through carries the cardinalities counted
    /// here into step 3; the groups of a split carry none (step 3 counts
    /// theirs only if it needs them).
    fn partition_by_token_position(
        &self,
        stats: &mut Stats,
        partition: Partition,
        min_partition: usize,
    ) -> Vec<(Partition, Option<Vec<usize>>)> {
        if partition.len() <= 1 || stats.width(&partition) == 0 {
            return vec![(partition, None)];
        }
        let cards = stats.cardinalities(&partition);
        match cards
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(p, card)| (card, p))
        {
            Some((split_pos, min_card)) if min_card > 1 => stats
                .split(&partition, split_pos)
                .into_iter()
                .filter(|g| g.len() >= min_partition.max(1))
                .map(|g| (g, None))
                .collect(),
            _ => vec![(partition, Some(cards))],
        }
    }

    /// Step 3: partition by search for mapping (bijection). `cards` are
    /// the partition's cardinalities when step 2 already counted them.
    fn partition_by_bijection(
        &self,
        stats: &mut Stats,
        partition: Partition,
        cards: Option<Vec<usize>>,
        min_partition: usize,
    ) -> Vec<Partition> {
        if partition.len() <= 1 || stats.width(&partition) < 2 {
            return vec![partition];
        }
        let cards = cards.unwrap_or_else(|| stats.cardinalities(&partition));
        if goodness(&cards) > self.cluster_goodness {
            return vec![partition];
        }
        let Some((p1, p2)) = determine_p1_p2(&cards) else {
            return vec![partition];
        };
        stats
            .split_by_relation(&partition, p1, p2, |many, lines| {
                self.rank_position(many, lines)
            })
            .into_iter()
            .filter(|g| g.len() >= min_partition.max(1))
            .collect()
    }

    /// The paper's `Get_Rank_Position` heuristic: given the cardinality of
    /// the "many" side of a 1–M relation and the number of lines
    /// participating in it, decide how to split.
    ///
    /// * `distance = cardinality / lines <= lower_bound` — few distinct
    ///   values over many lines: the many side looks like per-event
    ///   constants, split on it ([`SplitSide::Many`]);
    /// * `distance >= upper_bound` — nearly every line carries a distinct
    ///   value: the many side is a free variable with no stable mapping,
    ///   so the relation joins the leftover (M–M) partition
    ///   ([`SplitSide::Leftover`]);
    /// * otherwise — split on the one side ([`SplitSide::One`]).
    fn rank_position(&self, many_cardinality: usize, relation_lines: usize) -> SplitSide {
        if relation_lines == 0 {
            return SplitSide::One;
        }
        let distance = many_cardinality as f64 / relation_lines as f64;
        if distance <= self.lower_bound {
            SplitSide::Many
        } else if distance >= self.upper_bound {
            SplitSide::Leftover
        } else {
            SplitSide::One
        }
    }
}

/// The paper's `DetermineP1P2` over a partition's per-position
/// cardinalities: among positions with cardinality > 1, find the
/// cardinality value shared by the most positions and return the first
/// two positions having it. `None` when fewer than two positions qualify
/// (step 3 is then skipped).
fn determine_p1_p2(cards: &[usize]) -> Option<(usize, usize)> {
    if cards.len() == 2 {
        return Some((0, 1));
    }
    let variable: Vec<usize> = (0..cards.len()).filter(|&p| cards[p] > 1).collect();
    if variable.len() < 2 {
        return None;
    }
    let mut freq: HashMap<usize, usize> = HashMap::new();
    for &p in &variable {
        *freq.entry(cards[p]).or_insert(0) += 1;
    }
    // Highest frequency wins; ties broken towards the smaller cardinality
    // (more likely to be an event-discriminating position).
    let best_card = *freq
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(card, _)| card)?;
    let mut chosen = variable.iter().filter(|&&p| cards[p] == best_card);
    let p1 = *chosen.next()?;
    let p2 = chosen.next().copied().or_else(|| {
        // Only one position with the modal cardinality: pair it with the
        // next variable position.
        variable.iter().find(|&&p| p != p1).copied()
    })?;
    Some((p1, p2))
}

/// One `u32` of scratch per symbol, indexed by symbol id, forgotten in
/// O(1): a slot stamped with an earlier generation reads as zero. The
/// table is zero-allocated, so a corpus's vocabulary costs memory only
/// where its ids are met.
struct SymbolSlots {
    /// Per symbol id: `[generation that last wrote it, value]`.
    slots: Vec<[u32; 2]>,
    generation: u32,
}

impl SymbolSlots {
    fn new(symbols: usize) -> Self {
        SymbolSlots {
            slots: vec![[0, 0]; symbols],
            generation: 0,
        }
    }

    /// Zeroes every slot. Once in 2³² generations the stamps are reset
    /// for real.
    fn clear(&mut self) {
        if self.generation == u32::MAX {
            self.slots.fill([0, 0]);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// The symbol's value, and whether this generation had not met the
    /// symbol before (the value is then 0).
    fn slot(&mut self, symbol: Symbol) -> (&mut u32, bool) {
        let id = symbol.id() as usize;
        if id >= self.slots.len() {
            self.slots.resize(id + 1, [0, 0]);
        }
        let [stamp, value] = &mut self.slots[id];
        let fresh = *stamp != self.generation;
        if fresh {
            *stamp = self.generation;
            *value = 0;
        }
        (value, fresh)
    }
}

/// Numbers the distinct symbols met since the last
/// [`clear`](Numbering::clear) 0, 1, 2, … in order of first sight.
struct Numbering {
    slots: SymbolSlots,
    count: usize,
}

impl Numbering {
    fn new(symbols: usize) -> Self {
        Numbering {
            slots: SymbolSlots::new(symbols),
            count: 0,
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.count = 0;
    }

    /// The symbol's number, and whether it was assigned just now. Numbers
    /// stay below the lines of one partition, so they fit a `u32`: a
    /// partition of 2³² lines would need 32 GiB for its index vector alone.
    fn number(&mut self, symbol: Symbol) -> (usize, bool) {
        let (number, fresh) = self.slots.slot(symbol);
        if fresh {
            *number = self.count as u32;
            self.count += 1;
        }
        (*number as usize, fresh)
    }
}

/// Step 3's counters for one distinct value at p1 or at p2.
#[derive(Debug, Clone, Copy, Default)]
struct Value {
    /// Lines carrying the value.
    lines: usize,
    /// Distinct values it meets at the other position: its image count.
    images: usize,
    /// Scratch: a p1 value's cursor into the bucket; a p2 value's one plus
    /// the number of the p1 value it was last met with.
    mark: usize,
    /// The output group keyed by this value, once one exists.
    group: Option<usize>,
}

/// Appends `line` to the group `slot` names, opening the group on first
/// use; groups therefore come out in order of their first line.
fn push_to_group(groups: &mut Vec<Partition>, slot: &mut Option<usize>, line: usize) {
    let g = *slot.get_or_insert_with(|| {
        groups.push(Vec::new());
        groups.len() - 1
    });
    groups[g].push(line);
}

/// Numbers `symbol` and counts one more line for its value.
fn count_line(numbering: &mut Numbering, values: &mut Vec<Value>, symbol: Symbol) {
    let (k, fresh) = numbering.number(symbol);
    if fresh {
        values.push(Value::default());
    }
    values[k].lines += 1;
}

/// Where IPLoM's heuristics get their statistics: two [`Numbering`]s,
/// allocated once per parse and sized to the corpus's token table. `p1`
/// numbers step 2's groups and step 3's first position, and its slots
/// hold the position masks while cardinalities are counted; `p2` numbers
/// step 3's second position.
struct Stats<'c> {
    corpus: &'c Corpus,
    p1: Numbering,
    p2: Numbering,
}

impl<'c> Stats<'c> {
    fn new(corpus: &'c Corpus) -> Self {
        let symbols = corpus.interner().len();
        Stats {
            corpus,
            p1: Numbering::new(symbols),
            p2: Numbering::new(symbols),
        }
    }

    /// Tokens per message in the partition (0 when it is empty).
    fn width(&self, partition: &[usize]) -> usize {
        partition
            .first()
            .map_or(0, |&i| self.corpus.symbols(i).len())
    }

    /// The number of distinct tokens at each position of the partition,
    /// in one pass over its rows per 32 positions: a symbol's slot holds
    /// the positions of the current block it has been met at.
    fn cardinalities(&mut self, partition: &[usize]) -> Vec<usize> {
        let width = self.width(partition);
        let seen = &mut self.p1.slots;
        let mut cards = vec![0; width];
        for block in (0..width).step_by(32) {
            let positions = block..width.min(block + 32);
            seen.clear();
            for &i in partition {
                let row = &self.corpus.symbols(i)[positions.clone()];
                for (bit, &symbol) in row.iter().enumerate() {
                    let mask = seen.slot(symbol).0;
                    if *mask & 1 << bit == 0 {
                        *mask |= 1 << bit;
                        cards[block + bit] += 1;
                    }
                }
            }
        }
        cards
    }

    /// Step 2's split: one group per token value at `position`.
    fn split(&mut self, partition: &[usize], position: usize) -> Vec<Partition> {
        self.p1.clear();
        let mut groups: Vec<Partition> = Vec::new();
        for &i in partition {
            let (g, fresh) = self.p1.number(self.corpus.symbols(i)[position]);
            if fresh {
                groups.push(Vec::new());
            }
            groups[g].push(i);
        }
        groups
    }

    /// Step 3's statistics: every value's lines and images at `p1` (the
    /// first vector, indexed by the `p1` numbering) and at `p2`, counted
    /// without a set. One pass numbers the values and counts their lines,
    /// a counting sort buckets the p2 values by p1 value, and in one walk
    /// over the buckets a pair is new exactly when its p2 value was last
    /// met under another p1 value.
    fn relate(&mut self, partition: &[usize], p1: usize, p2: usize) -> (Vec<Value>, Vec<Value>) {
        let corpus = self.corpus;
        let (n1, n2) = (&mut self.p1, &mut self.p2);
        n1.clear();
        n2.clear();
        let mut ones: Vec<Value> = Vec::new();
        let mut twos: Vec<Value> = Vec::new();
        for &i in partition {
            let row = corpus.symbols(i);
            count_line(n1, &mut ones, row[p1]);
            count_line(n2, &mut twos, row[p2]);
        }

        let mut start = 0;
        for a in &mut ones {
            a.mark = start;
            start += a.lines;
        }
        let mut bucket = vec![0; partition.len()];
        for &i in partition {
            let row = corpus.symbols(i);
            let a = &mut ones[n1.number(row[p1]).0];
            bucket[a.mark] = n2.number(row[p2]).0;
            a.mark += 1;
        }
        let mut start = 0;
        for (ka, a) in ones.iter_mut().enumerate() {
            for &kb in &bucket[start..start + a.lines] {
                let b = &mut twos[kb];
                if b.mark != ka + 1 {
                    b.mark = ka + 1;
                    b.images += 1;
                    a.images += 1;
                }
            }
            start += a.lines;
        }
        (ones, twos)
    }

    /// Step 3's split: group each line by the relation its pair of values
    /// at `p1` and `p2` is in (1–1, 1–M, M–1, M–M), `rank` deciding the
    /// side of a 1–M relation from its many side's cardinality and the
    /// lines of its one side.
    fn split_by_relation(
        &mut self,
        partition: &[usize],
        p1: usize,
        p2: usize,
        rank: impl Fn(usize, usize) -> SplitSide,
    ) -> Vec<Partition> {
        let (mut ones, mut twos) = self.relate(partition, p1, p2);
        let (corpus, n1, n2) = (self.corpus, &mut self.p1, &mut self.p2);
        let mut groups = Vec::new();
        let mut many_to_many = None;
        for &i in partition {
            let row = corpus.symbols(i);
            let (ka, kb) = (n1.number(row[p1]).0, n2.number(row[p2]).0);
            let (a, b) = (ones[ka], twos[kb]);
            let slot = match (a.images, b.images) {
                (1, 1) => &mut ones[ka].group, // 1–1 relation
                // 1–M seen from p1: decide which side is the constant.
                (m, 1) if m > 1 => match rank(m, a.lines) {
                    SplitSide::Many => &mut twos[kb].group,
                    SplitSide::One => &mut ones[ka].group,
                    SplitSide::Leftover => &mut many_to_many,
                },
                // M–1 seen from p1 (i.e. 1–M seen from p2).
                (1, m) if m > 1 => match rank(m, b.lines) {
                    SplitSide::Many => &mut ones[ka].group,
                    SplitSide::One => &mut twos[kb].group,
                    SplitSide::Leftover => &mut many_to_many,
                },
                _ => &mut many_to_many,
            };
            push_to_group(&mut groups, slot, i);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(lines: &[&str]) -> Corpus {
        Corpus::from_lines(lines)
    }

    /// The parent's statistics, kept as the oracle: cardinality through a
    /// `HashSet` per position, counted afresh by every heuristic that
    /// reads it, forward/backward image maps, and a rescan of the
    /// partition for each line of a 1–M relation. The decisions
    /// (`goodness`, `determine_p1_p2`, `rank_position`) are shared.
    mod reference {
        use super::super::*;
        use std::collections::HashSet;

        pub(super) fn reference_parse(iplom: &Iplom, corpus: &Corpus) -> Parse {
            let n = corpus.len();
            let mut builder = ParseBuilder::new(n);
            if n == 0 {
                return builder.build();
            }
            let min_partition = (iplom.partition_support * n as f64).ceil() as usize;
            let mut leaves: Vec<Partition> = Vec::new();
            for partition in partition_by_event_size(corpus) {
                if partition.len() < min_partition {
                    continue;
                }
                for p2 in partition_by_token_position(corpus, partition, min_partition) {
                    leaves.extend(partition_by_bijection(iplom, corpus, p2, min_partition));
                }
            }
            leaves.sort_by_key(|p| p.first().copied());
            for leaf in leaves {
                builder.add_cluster(corpus, &leaf);
            }
            builder.build()
        }

        fn partition_by_event_size(corpus: &Corpus) -> Vec<Partition> {
            let mut by_len: HashMap<usize, Partition> = HashMap::new();
            for (idx, tokens) in corpus.arena().iter().enumerate() {
                if !tokens.is_empty() {
                    by_len.entry(tokens.len()).or_default().push(idx);
                }
            }
            let mut partitions: Vec<Partition> = by_len.into_values().collect();
            partitions.sort_by_key(|p| p.first().copied());
            partitions
        }

        fn cardinality(corpus: &Corpus, partition: &[usize], position: usize) -> usize {
            partition
                .iter()
                .map(|&i| corpus.symbols(i)[position])
                .collect::<HashSet<_>>()
                .len()
        }

        fn cardinalities(corpus: &Corpus, partition: &[usize], len: usize) -> Vec<usize> {
            (0..len)
                .map(|p| cardinality(corpus, partition, p))
                .collect()
        }

        fn partition_by_token_position(
            corpus: &Corpus,
            partition: Partition,
            min_partition: usize,
        ) -> Vec<Partition> {
            let Some(&first) = partition.first() else {
                return vec![partition];
            };
            let len = corpus.symbols(first).len();
            if partition.len() <= 1 || len == 0 {
                return vec![partition];
            }
            let Some((split_pos, min_card)) = (0..len)
                .map(|p| (p, cardinality(corpus, &partition, p)))
                .min_by_key(|&(p, card)| (card, p))
            else {
                return vec![partition];
            };
            if min_card <= 1 {
                return vec![partition];
            }
            let mut groups: HashMap<Symbol, Partition> = HashMap::new();
            for &i in &partition {
                groups
                    .entry(corpus.symbols(i)[split_pos])
                    .or_default()
                    .push(i);
            }
            let mut out: Vec<Partition> = groups
                .into_values()
                .filter(|g| g.len() >= min_partition.max(1))
                .collect();
            out.sort_by_key(|p| p.first().copied());
            out
        }

        fn partition_by_bijection(
            iplom: &Iplom,
            corpus: &Corpus,
            partition: Partition,
            min_partition: usize,
        ) -> Vec<Partition> {
            let Some(&first) = partition.first() else {
                return vec![partition];
            };
            let len = corpus.symbols(first).len();
            if partition.len() <= 1 || len < 2 {
                return vec![partition];
            }
            if goodness(&cardinalities(corpus, &partition, len)) > iplom.cluster_goodness {
                return vec![partition];
            }
            let Some((p1, p2)) = determine_p1_p2(&cardinalities(corpus, &partition, len)) else {
                return vec![partition];
            };

            let mut forward: HashMap<Symbol, HashSet<Symbol>> = HashMap::new();
            let mut backward: HashMap<Symbol, HashSet<Symbol>> = HashMap::new();
            for &i in &partition {
                let a = corpus.symbols(i)[p1];
                let b = corpus.symbols(i)[p2];
                forward.entry(a).or_default().insert(b);
                backward.entry(b).or_default().insert(a);
            }

            #[derive(Clone, Copy, PartialEq, Eq, Hash)]
            enum Key {
                ByP1(Symbol),
                ByP2(Symbol),
                ManyToMany,
            }

            let mut groups: HashMap<Key, Partition> = HashMap::new();
            for &i in &partition {
                let a = corpus.symbols(i)[p1];
                let b = corpus.symbols(i)[p2];
                let a_images = &forward[&a];
                let b_images = &backward[&b];
                let key = match (a_images.len(), b_images.len()) {
                    (1, 1) => Key::ByP1(a),
                    (m, 1) if m > 1 => {
                        let lines = count_lines_with_p1(corpus, &partition, p1, a);
                        match iplom.rank_position(a_images.len(), lines) {
                            SplitSide::Many => Key::ByP2(b),
                            SplitSide::One => Key::ByP1(a),
                            SplitSide::Leftover => Key::ManyToMany,
                        }
                    }
                    (1, m) if m > 1 => {
                        let lines = count_lines_with_p2(corpus, &partition, p2, b);
                        match iplom.rank_position(b_images.len(), lines) {
                            SplitSide::Many => Key::ByP1(a),
                            SplitSide::One => Key::ByP2(b),
                            SplitSide::Leftover => Key::ManyToMany,
                        }
                    }
                    _ => Key::ManyToMany,
                };
                groups.entry(key).or_default().push(i);
            }
            let mut out: Vec<Partition> = groups
                .into_values()
                .filter(|g| g.len() >= min_partition.max(1))
                .collect();
            out.sort_by_key(|p| p.first().copied());
            out
        }

        fn count_lines_with_p1(
            corpus: &Corpus,
            partition: &[usize],
            p1: usize,
            value: Symbol,
        ) -> usize {
            partition
                .iter()
                .filter(|&&i| corpus.symbols(i)[p1] == value)
                .count()
        }

        fn count_lines_with_p2(
            corpus: &Corpus,
            partition: &[usize],
            p2: usize,
            value: Symbol,
        ) -> usize {
            partition
                .iter()
                .filter(|&&i| corpus.symbols(i)[p2] == value)
                .count()
        }
    }

    use reference::reference_parse;

    fn templates(parse: &Parse) -> Vec<String> {
        parse.templates().iter().map(|t| t.to_string()).collect()
    }

    /// Parses with the defaults, holds the result to the oracle, and
    /// returns its templates in event order.
    fn default_templates(lines: &[&str]) -> Vec<String> {
        let c = corpus(lines);
        let parse = Iplom::default().parse(&c).unwrap();
        assert_eq!(parse, reference_parse(&Iplom::default(), &c));
        templates(&parse)
    }

    #[test]
    fn different_lengths_never_share_an_event() {
        let c = corpus(&["a b", "a b", "a b c", "a b c"]);
        let parse = Iplom::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
        assert_ne!(parse.assignments()[0], parse.assignments()[2]);
    }

    #[test]
    fn token_position_split_fires_when_no_constant_column_exists() {
        // No position is constant, so step 2 splits on the lowest
        // cardinality position (the verb).
        let c = corpus(&[
            "open alpha",
            "open beta",
            "open gamma",
            "close delta",
            "close epsilon",
            "close zeta",
        ]);
        let parse = Iplom::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
        let t: Vec<String> = parse.templates().iter().map(|t| t.to_string()).collect();
        assert!(t.contains(&"open *".to_string()), "{t:?}");
        assert!(t.contains(&"close *".to_string()), "{t:?}");
    }

    #[test]
    fn token_position_split_passes_through_with_constant_column() {
        // "file" is constant, so step 2 passes the partition through
        // unchanged (the original algorithm's no-op split), and step 3's
        // M-M relation keeps it together: low-cardinality parameter
        // columns must not shatter an event.
        let c = corpus(&[
            "open file alpha",
            "open file beta",
            "close file alpha",
            "close file beta",
        ]);
        let parse = Iplom::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "* file *");
    }

    #[test]
    fn hdfs_style_messages_partition_cleanly() {
        let c = corpus(&[
            "Receiving block blk_1 src: /10.0.0.1:5000 dest: /10.0.0.1:50010",
            "Receiving block blk_2 src: /10.0.0.2:5000 dest: /10.0.0.2:50010",
            "PacketResponder 1 for block blk_1 terminating",
            "PacketResponder 0 for block blk_2 terminating",
            "Verification succeeded for blk_1",
            "Verification succeeded for blk_2",
        ]);
        let parse = Iplom::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 3);
        assert_eq!(parse.outlier_count(), 0);
    }

    #[test]
    fn partition_support_diverts_small_partitions_to_outliers() {
        let c = corpus(&["a b", "a b", "a b", "a b", "long tail message here"]);
        let parse = Iplom::builder()
            .partition_support(0.3)
            .build()
            .parse(&c)
            .unwrap();
        assert_eq!(parse.outlier_count(), 1);
        assert_eq!(parse.event_count(), 1);
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let c = corpus(&["a"]);
        let cases = [
            (Iplom::builder().partition_support(1.5), "partition_support"),
            (
                Iplom::builder().partition_support(-0.1),
                "partition_support",
            ),
            (Iplom::builder().cluster_goodness(1.5), "cluster_goodness"),
            (Iplom::builder().lower_bound(-0.5), "lower_bound"),
            (Iplom::builder().upper_bound(1.01), "upper_bound"),
            (
                Iplom::builder().lower_bound(0.95).upper_bound(0.9),
                "lower_bound",
            ),
            (
                Iplom::builder().lower_bound(0.5).upper_bound(0.5),
                "lower_bound",
            ),
        ];
        for (builder, expected) in cases {
            match builder.build().parse(&c) {
                Err(ParseError::InvalidConfig { parameter, .. }) => {
                    assert_eq!(parameter, expected);
                }
                other => panic!("expected {expected} to be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_corpus_is_fine() {
        let parse = Iplom::default().parse(&corpus(&[])).unwrap();
        assert!(parse.is_empty());
    }

    #[test]
    fn single_message_gets_its_own_event() {
        let c = corpus(&["only one message"]);
        let parse = Iplom::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 1);
        assert_eq!(parse.templates()[0].to_string(), "only one message");
    }

    #[test]
    fn bijection_step_splits_correlated_positions() {
        // Step 2 is a no-op ("T" is constant); goodness is 1/5 <= 0.35 so
        // step 3 runs. Positions 1 and 2 have the modal cardinality (2)
        // and are in a 1-1 relation (e1<->c1, e2<->c2) that defines the
        // events; positions 3 and 4 are free parameters.
        let c = corpus(&[
            "T e1 c1 pa qa",
            "T e1 c1 pb qb",
            "T e2 c2 pc qc",
            "T e2 c2 pd qd",
        ]);
        let parse = Iplom::default().parse(&c).unwrap();
        assert_eq!(parse.event_count(), 2);
        let templates: Vec<String> = parse.templates().iter().map(|t| t.to_string()).collect();
        assert!(
            templates.contains(&"T e1 c1 * *".to_string()),
            "{templates:?}"
        );
        assert!(
            templates.contains(&"T e2 c2 * *".to_string()),
            "{templates:?}"
        );
    }

    // The six corpora below hold step 3 to each `rank_position` outcome on
    // each side of a 1–M relation, at the defaults (lower bound 0.25,
    // upper bound 0.9). Every line is `T <p1> <p2>`: "T" is constant, so
    // step 2 passes the partition through and goodness is 1/3 <= 0.35;
    // position 1 never has more distinct values than position 2, so it is
    // p1. The u-lines are an M–M relation (u meets v and v2, v meets u and
    // u2): whatever joins the leftover group shares their `T * *`. The
    // distances need the relation's *lines*, not its distinct values: x
    // below has 2 images over 8 lines (0.25), 2 over 4 (0.5), 4 over 4
    // (1.0).
    const MANY_TO_MANY: [&str; 3] = ["T u v", "T u v2", "T u2 v"];

    fn with_many_to_many<'a>(lines: &[&'a str]) -> Vec<&'a str> {
        lines.iter().copied().chain(MANY_TO_MANY).collect()
    }

    #[test]
    fn one_to_many_from_p1_with_constant_many_side_splits_on_it() {
        // x meets y1 and y2 over 8 lines: distance 0.25, Many.
        let lines = with_many_to_many(&[
            "T x y1", "T x y2", "T x y1", "T x y2", "T x y1", "T x y2", "T x y1", "T x y2",
            "T w z", "T w z",
        ]);
        assert_eq!(
            default_templates(&lines),
            ["T x y1", "T x y2", "T w z", "T * *"]
        );
    }

    #[test]
    fn one_to_many_from_p1_in_between_splits_on_the_one_side() {
        // x meets y1 and y2 over 4 lines: distance 0.5, One.
        let lines = with_many_to_many(&["T x y1", "T x y2", "T x y1", "T x y2", "T w z", "T w z"]);
        assert_eq!(default_templates(&lines), ["T x *", "T w z", "T * *"]);
    }

    #[test]
    fn one_to_many_from_p1_with_free_many_side_is_leftover() {
        // x meets y1..y4 over 4 lines: distance 1.0, Leftover.
        let lines = with_many_to_many(&["T x y1", "T x y2", "T x y3", "T x y4", "T w z", "T w z"]);
        assert_eq!(default_templates(&lines), ["T * *", "T w z"]);
    }

    // The M–1 side: b0 at p2 meets several p1 values, each only with b0.
    // The x-lines (x meets y1..y4 over 8 lines: distance 0.5, One) keep
    // position 2's cardinality at or above position 1's.
    const X_ONE: [&str; 8] = [
        "T x y1", "T x y2", "T x y3", "T x y4", "T x y1", "T x y2", "T x y3", "T x y4",
    ];

    fn with_x_one<'a>(lines: &[&'a str]) -> Vec<&'a str> {
        with_many_to_many(&lines.iter().copied().chain(X_ONE).collect::<Vec<_>>())
    }

    #[test]
    fn one_to_many_from_p2_with_constant_many_side_splits_on_it() {
        // b0 meets a1 and a2 over 8 lines: distance 0.25, Many.
        let lines = with_x_one(&[
            "T a1 b0", "T a2 b0", "T a1 b0", "T a2 b0", "T a1 b0", "T a2 b0", "T a1 b0", "T a2 b0",
        ]);
        assert_eq!(
            default_templates(&lines),
            ["T a1 b0", "T a2 b0", "T x *", "T * *"]
        );
    }

    #[test]
    fn one_to_many_from_p2_in_between_splits_on_the_one_side() {
        // b0 meets a1 and a2 over 4 lines: distance 0.5, One.
        let lines = with_x_one(&["T a1 b0", "T a2 b0", "T a1 b0", "T a2 b0"]);
        assert_eq!(default_templates(&lines), ["T * b0", "T x *", "T * *"]);
    }

    #[test]
    fn one_to_many_from_p2_with_free_many_side_is_leftover() {
        // b0 meets a1..a4 over 4 lines: distance 1.0, Leftover.
        let lines = with_x_one(&["T a1 b0", "T a2 b0", "T a3 b0", "T a4 b0"]);
        assert_eq!(default_templates(&lines), ["T * *", "T x *"]);
    }

    #[test]
    fn determine_p1_p2_takes_the_modal_cardinality() {
        // Cardinality 5 is held by two positions, 3 and 2 by one each.
        assert_eq!(determine_p1_p2(&[1, 3, 5, 5, 2]), Some((2, 3)));
        // A smaller cardinality held by fewer positions loses.
        assert_eq!(determine_p1_p2(&[2, 9, 9, 9, 1]), Some((1, 2)));
    }

    #[test]
    fn determine_p1_p2_breaks_ties_towards_the_smaller_cardinality() {
        assert_eq!(determine_p1_p2(&[1, 4, 4, 2, 2]), Some((3, 4)));
        assert_eq!(determine_p1_p2(&[7, 3, 7, 3, 1]), Some((1, 3)));
    }

    #[test]
    fn determine_p1_p2_pairs_a_lone_modal_position_with_another_variable_one() {
        // Every variable cardinality occurs once: the smallest (3, at
        // position 2) wins and pairs with the first other variable
        // position, which may lie before it.
        assert_eq!(determine_p1_p2(&[1, 6, 3, 1, 9]), Some((2, 1)));
        assert_eq!(determine_p1_p2(&[2, 7, 1]), Some((0, 1)));
    }

    #[test]
    fn determine_p1_p2_needs_two_variable_positions() {
        assert_eq!(determine_p1_p2(&[1, 5, 1]), None);
        assert_eq!(determine_p1_p2(&[1, 1, 1, 1]), None);
        assert_eq!(determine_p1_p2(&[]), None);
    }

    #[test]
    fn determine_p1_p2_short_circuits_at_length_two() {
        assert_eq!(determine_p1_p2(&[1, 1]), Some((0, 1)));
        assert_eq!(determine_p1_p2(&[9, 1]), Some((0, 1)));
    }

    #[test]
    fn goodness_is_the_constant_fraction() {
        assert_eq!(goodness(&[1, 4, 1, 2]), 0.5);
        assert_eq!(goodness(&[]), 1.0);
    }

    #[test]
    fn numbering_forgets_by_generation_and_survives_wraparound() {
        let mut numbering = Numbering::new(4);
        numbering.clear();
        let (s, t) = (Symbol::from_id(1), Symbol::from_id(3));
        assert_eq!(numbering.number(s), (0, true));
        assert_eq!(numbering.number(t), (1, true));
        assert_eq!(numbering.number(s), (0, false));
        numbering.clear();
        assert_eq!(numbering.number(t), (0, true));
        // Ids past the sized table grow it.
        assert_eq!(numbering.number(Symbol::from_id(9)), (1, true));
        // A stamp left at u32::MAX must not read as current once the
        // generation wraps to 1.
        numbering.slots.generation = u32::MAX - 1;
        numbering.clear();
        numbering.number(s);
        numbering.clear();
        assert_eq!(numbering.slots.generation, 1);
        assert_eq!(numbering.number(s), (0, true));
    }

    #[test]
    fn cardinalities_count_every_block_of_32_positions() {
        // 70 positions: three blocks, the last one partial. Position p
        // takes p % 5 + 1 distinct values, and one token recurs at every
        // position, so a symbol's mask carries many bits.
        let lines: Vec<String> = (0..12)
            .map(|line| {
                (0..70)
                    .map(|p| match line % (p % 5 + 1) {
                        0 => "same".to_string(),
                        v => format!("v{v}"),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        let c = Corpus::from_lines(&lines);
        let partition: Vec<usize> = (0..lines.len()).collect();
        let expected: Vec<usize> = (0..70).map(|p| p % 5 + 1).collect();
        assert_eq!(Stats::new(&c).cardinalities(&partition), expected);
        let parse = Iplom::default().parse(&c).unwrap();
        assert_eq!(parse, reference_parse(&Iplom::default(), &c));
    }

    #[test]
    fn rank_position_decides_split_side_by_distance() {
        let p = Iplom::default();
        // 2 distinct values over 40 lines: constants, split on them.
        assert_eq!(p.rank_position(2, 40), SplitSide::Many);
        // 38 distinct values over 40 lines: free variable, leftover.
        assert_eq!(p.rank_position(38, 40), SplitSide::Leftover);
        // In between: split on the one side.
        assert_eq!(p.rank_position(20, 40), SplitSide::One);
        assert_eq!(p.rank_position(3, 0), SplitSide::One);
    }

    #[test]
    fn deterministic_across_runs() {
        let c = corpus(&[
            "a x 1", "a x 2", "a y 1", "b x 1", "b y 2", "b y 3", "c z 9",
        ]);
        let p = Iplom::default();
        assert_eq!(p.parse(&c).unwrap(), p.parse(&c).unwrap());
    }

    #[test]
    fn zero_length_messages_are_outliers() {
        let c = corpus(&["", "a b", "a b"]);
        // Corpus::from_lines keeps the empty line as an empty token vec.
        let parse = Iplom::default().parse(&c).unwrap();
        assert_eq!(parse.assignments()[0], None);
    }

    /// A corpus from `seed`: 2–4 message lengths, 1–3 templates per
    /// length, each with two variable columns whose values are drawn to
    /// relate 1–1, 1–M, M–1 or M–M. Values come from small shared pools,
    /// so templates of one length also meet each other's values, and the
    /// first token is sometimes shared so step 2 either passes a
    /// partition through or splits it.
    fn relation_corpus(seed: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lengths: Vec<usize> = (2..=7).collect();
        let mut lines = Vec::new();
        for _ in 0..rng.gen_range(2..=4) {
            let len = lengths.remove(rng.gen_range(0..lengths.len()));
            let shared_head = rng.gen_bool(0.5);
            for template in 0..rng.gen_range(1..=3) {
                let c1 = rng.gen_range(0..len);
                let c2 = (c1 + rng.gen_range(1..len)) % len;
                let relation = rng.gen_range(0..4);
                let fan = rng.gen_range(1..=4);
                for _ in 0..rng.gen_range(1..=24) {
                    let one = rng.gen_range(0..3);
                    let many = rng.gen_range(0..fan);
                    let (v1, v2) = match relation {
                        0 => (format!("a{one}"), format!("b{one}")),
                        1 => (format!("a{one}"), format!("b{one}_{many}")),
                        2 => (format!("a{one}_{many}"), format!("b{one}")),
                        _ => (
                            format!("a{}", rng.gen_range(0..4)),
                            format!("b{}", rng.gen_range(0..4)),
                        ),
                    };
                    let tokens: Vec<String> = (0..len)
                        .map(|p| {
                            if p == c1 {
                                v1.clone()
                            } else if p == c2 {
                                v2.clone()
                            } else if p == 0 && shared_head {
                                "head".to_string()
                            } else {
                                format!("t{template}_{p}")
                            }
                        })
                        .collect();
                    lines.push(tokens.join(" "));
                }
            }
        }
        // Interleave the templates as a log would.
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.gen_range(0..=i));
        }
        lines
    }

    proptest! {
        #[test]
        fn parse_matches_the_reference(
            seed in 0u64..u64::MAX,
            lower in 0.0f64..0.6,
            gap in 0.05f64..0.6,
            cluster_goodness in 0.0f64..0.8,
            support in 0.0f64..0.15,
        ) {
            let lines = relation_corpus(seed);
            let c = Corpus::from_lines(&lines);
            let iplom = Iplom::builder()
                .lower_bound(lower)
                .upper_bound((lower + gap).min(1.0))
                .cluster_goodness(cluster_goodness)
                .partition_support(support)
                .build();
            let parse = iplom.parse(&c).unwrap();
            let expected = reference_parse(&iplom, &c);
            prop_assert_eq!(parse.assignments(), expected.assignments());
            prop_assert_eq!(templates(&parse), templates(&expected));
        }
    }
}
