//! The generators are the benchmark's fixed point: same seed, same bytes,
//! on every machine and in every later PR — and each corpus keeps the
//! shape its workloads depend on.

use std::collections::HashSet;

use logmine_benchmark::gen::{self, Corpus};

const PINNED_LINES: usize = 10_000;
const SEED: u64 = 42;

fn tokens(corpus: &Corpus) -> impl Iterator<Item = &[u8]> {
    corpus
        .bytes
        .split(|b| b.is_ascii_whitespace())
        .filter(|t| !t.is_empty())
}

#[test]
fn same_seed_gives_identical_bytes() {
    // FNV-1a of the first 10 000 lines. A change here re-bases every
    // number measured before it: say so in the PR that makes it.
    for (name, pinned) in [
        ("steady", 0x6441_aa1c_eebb_d70d_u64),
        ("hdfs", 0xf80b_9bce_e027_2cd6),
        ("churn", 0x55ec_d079_7f02_0fa4),
    ] {
        let corpus = gen::by_name(name, PINNED_LINES, SEED).unwrap();
        assert_eq!(corpus.lines(), PINNED_LINES, "{name}");
        assert_eq!(
            corpus.bytes.iter().filter(|&&b| b == b'\n').count(),
            PINNED_LINES,
            "{name}: one newline per line"
        );
        assert_eq!(
            gen::fnv1a(&corpus.bytes),
            pinned,
            "{name}: got {:#018x}",
            gen::fnv1a(&corpus.bytes)
        );
        let again = gen::by_name(name, PINNED_LINES, SEED).unwrap();
        assert_eq!(corpus.bytes, again.bytes, "{name}");
        assert_eq!(corpus.truth, again.truth, "{name}");
    }
}

#[test]
fn a_longer_corpus_extends_a_shorter_one() {
    // `steady` and `hdfs` draw line by line, so a prefix of the lines is a
    // prefix of the bytes; `churn` stretches its births over the length.
    for name in ["steady", "hdfs"] {
        let short = gen::by_name(name, 1_000, SEED).unwrap();
        let long = gen::by_name(name, 3_000, SEED).unwrap();
        assert_eq!(long.prefix_len(1_000), short.bytes.len(), "{name}");
        assert_eq!(&long.bytes[..short.bytes.len()], &short.bytes[..], "{name}");
    }
}

#[test]
fn another_seed_gives_other_bytes() {
    for name in ["steady", "hdfs", "churn"] {
        let a = gen::by_name(name, 2_000, 1).unwrap();
        let b = gen::by_name(name, 2_000, 2).unwrap();
        assert_ne!(a.bytes, b.bytes, "{name}");
    }
    assert!(gen::by_name("nope", 10, 1).is_none());
}

#[test]
fn steady_has_a_small_vocabulary_and_hits_every_template() {
    let corpus = gen::steady(PINNED_LINES, SEED);
    let vocabulary: HashSet<&[u8]> = tokens(&corpus).collect();
    assert!(
        vocabulary.len() < 1_000,
        "{} distinct tokens",
        vocabulary.len()
    );
    let hit: HashSet<u32> = corpus.truth.iter().copied().collect();
    assert_eq!(hit.len(), 32);
    assert_eq!(corpus.templates, 32);
    for line in corpus
        .bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
    {
        let n = line.split(|&b| b == b' ').count();
        assert!(
            (5..=14).contains(&n),
            "{n} tokens in {:?}",
            String::from_utf8_lossy(line)
        );
    }
}

#[test]
fn hdfs_vocabulary_grows_with_every_line() {
    let corpus = gen::hdfs(PINNED_LINES, SEED);
    let vocabulary: HashSet<&[u8]> = tokens(&corpus).collect();
    let per_line = vocabulary.len() as f64 / PINNED_LINES as f64;
    assert!(per_line >= 1.5, "{per_line} new tokens per line");
    assert_eq!(corpus.templates, 30);
    // Every line names its block, and the session index says which.
    assert_eq!(corpus.session.len(), PINNED_LINES);
    assert!(corpus
        .session
        .iter()
        .all(|&s| (s as usize) < corpus.sessions));
    let text = String::from_utf8(corpus.bytes.clone()).unwrap();
    let mut block_of_session = vec![None; corpus.sessions];
    for (line, &session) in text.lines().zip(&corpus.session) {
        let block = line
            .split(' ')
            .find(|t| t.starts_with("blk_"))
            .unwrap_or_else(|| panic!("no block id in {line:?}"));
        assert_eq!(
            *block_of_session[session as usize].get_or_insert(block),
            block
        );
    }
}

#[test]
fn churn_births_reach_every_decile() {
    // The workload's own size: a template's share grows from zero with its
    // age, so how many of the youngest have been drawn depends on the length.
    let lines = 120_000;
    let corpus = gen::churn(lines, SEED);
    assert_eq!(corpus.templates, gen::CHURN_TEMPLATES);
    assert_eq!(gen::CHURN_TEMPLATES, 300);
    let mut born = vec![false; gen::CHURN_TEMPLATES];
    let mut births_per_decile = [0usize; 10];
    for (i, &t) in corpus.truth.iter().enumerate() {
        if !std::mem::replace(&mut born[t as usize], true) {
            births_per_decile[i * 10 / lines] += 1;
        }
    }
    assert!(
        births_per_decile.iter().all(|&b| b >= 20),
        "births per decile: {births_per_decile:?}"
    );
    // A few late templates may not have been drawn yet; most must have.
    assert!(
        births_per_decile.iter().sum::<usize>() >= 280,
        "births per decile: {births_per_decile:?}"
    );
    // One high-cardinality token per line.
    let ids: HashSet<&[u8]> = tokens(&corpus).filter(|t| t.starts_with(b"id=")).collect();
    assert!(
        ids.len() as f64 > 0.99 * lines as f64,
        "{} distinct ids",
        ids.len()
    );
}
