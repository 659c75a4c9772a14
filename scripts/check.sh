#!/bin/bash
# The local gate: everything CI would hold a change to.
#   scripts/check.sh           full run
#   scripts/check.sh --quick   reduced property-test cases (PROPTEST_CASES=8)
#   scripts/check.sh --deep    full run + Miri / ThreadSanitizer passes
#                              (needs a nightly toolchain; skipped with a
#                              notice when none is installed)
set -euo pipefail
cd "$(dirname "$0")/.."

DEEP=0
QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  # The vendored proptest shim caps every suite's case count at this
  # value (it never raises a configured count), so the property tests —
  # including the parallel differential suite — still run end to end,
  # just on fewer corpora.
  export PROPTEST_CASES=8
  QUICK=1
  echo "=== quick mode: PROPTEST_CASES=$PROPTEST_CASES ==="
elif [[ "${1:-}" == "--deep" ]]; then
  DEEP=1
fi

echo "=== cargo fmt --check ==="
cargo fmt --all --check

echo "=== cargo clippy (warnings denied) ==="
cargo clippy --workspace --all-targets -- -D warnings

# Every rustdoc warning — a broken or private intra-doc link, an
# ambiguous one — fails here, private items included.
echo "=== cargo doc (rustdoc warnings denied) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

echo "=== logparse-lint (project invariants, warnings denied) ==="
cargo run -q -p logparse-lint -- --workspace --deny warnings --stats

# One run of every suite. What the named ones pin, so a failure below is
# read against the right contract:
#   tests/parallel_equivalence       sequential vs parallel parse
#   core simd block_scan_matches_scalar_reference(_over_many_blocks),
#   block_edges_match_the_scalar_reference
#                                    the 64-byte block scan against the byte-
#                                    at-a-time `scan_scalar` oracle: drawn
#                                    corpora up to ~1.2 KB, and every block-
#                                    edge case (token boundary, CRLF across
#                                    the edge, high byte, bare `\n`, a token
#                                    over three blocks, an unterminated last
#                                    line ending on the edge) at each offset
#                                    56..=72 and 120..=136; the loader and
#                                    the framer split with it
#   core intern::tests               the token table against a HashMap over
#                                    vocabularies built to collide, an overlay
#                                    against a deep clone, a new token's mean
#                                    walk as a count
#   tests/loader_differential        zero-copy loader vs the BufRead reference
#                                    (ASCII lines past 64 KiB included, which
#                                    the build splits without spans);
#                                    job cuts (no cut splits a line, a
#                                    byte-range build is the slice of the whole)
#   core io byte_writer_equals_the_writeln_loop, obs json
#   write_number_equals_display_on_finite_values,
#   integer_text_parses_like_the_f64_parser,
#   string_decoding_equals_the_char_at_a_time_decoder
#                                    the coordinator's serial path against the
#                                    code it replaced: the structured log
#                                    against the `writeln!` loop, the JSON
#                                    number rule against `Display` and
#                                    `str::parse::<f64>`, string decoding
#                                    against the char-at-a-time decoder (and
#                                    core loader indexed_cuts_equal_the_two_
#                                    pass_cuts: one-pass cuts past the index
#                                    stride against the two-pass walk)
#   cli loader_v1_goldens_hold_…     parent-frozen loader_v1 outputs
#   core framer_lines_do_not_…, cli serve_entry_points_agree_…
#                                    the stream line contract: file, stdin,
#                                    tail and TCP agree on hostile bytes; the
#                                    framer's block pop gives the lines and
#                                    damage counts of the per-line reference
#                                    however the bytes were cut into reads
#   core framer_spans_are_the_char_split_where_present,
#   line_spans_are_the_framers, parsers spans_observe_like_the_line_…
#                                    the framer's token spans, where a line
#                                    has them, are its `split_whitespace`
#                                    tokens, and are missing exactly from
#                                    high-byte, repaired and ≥ 64 KiB lines
#                                    (VT, FF, CR, CRLF, U+00A0, U+0085,
#                                    `\xff`, any chunking); Drain and Spell
#                                    fed the spans give `observe(line)`'s ids,
#                                    templates and snapshot on hdfs and
#                                    hostile streams
#   ingest dense_windows_count_like_a_hash_map,
#   the_kept_canonical_count_…, the_running_cardinality_maximum_…
#                                    the aggregator's dense window counts and
#                                    per-batch resolution against the per-line
#                                    hash map they replaced (unions between
#                                    batches); the kept canonical count and the
#                                    worker's running cardinality maximum
#                                    against full scans after every batch
#   obs word_fold_sees_every_byte_and_every_length
#                                    the fold's two-load tail loses no byte
#                                    at any length 0..=24, and trailing zero
#                                    bytes fold apart
#   ingest block_routing_equals_the_line_split
#                                    routing from the block scan's events is
#                                    the old `split_ascii_whitespace` routing
#                                    (VT, FF, CR, U+00A0, U+0085, invalid
#                                    bytes); per-shard parser state, and so
#                                    every checkpoint, follows routing
#   cli jobs_chaos (jobs_v1, events_v1)
#                                    what the PR 17 binary wrote for a crashed-
#                                    and-retried job, a poisoned one and a
#                                    `serve` run, rewritten byte for byte
#                                    (the journal's `spe`/`threshold` within
#                                    1e-9 relative: the eigensolver changed
#                                    since); a worker SIGKILL retried to
#                                    `parse`'s bytes (with cli
#                                    jobs_differential)
#   ingest e2e checkpoint_restore_…, cli kill_restart, cli store_compact_…
#                                    a resumed serve equals an uninterrupted
#                                    one; `store verify` after a CLI resume
#                                    and after `store compact`
#   ingest store_v1_parser_blobs_restore_to_their_own_bytes,
#   recover_degrades_a_blob_that_does_not_restore_…,
#   e2e spell_checkpoint_restore_…
#                                    the frozen store_v1 parser blobs restore
#                                    and snapshot again to their own bytes
#                                    (the blob format has not moved); a
#                                    CRC-valid blob that decodes but does not
#                                    restore (`similarity` 1.5, a leaf naming
#                                    a missing group) resumes with that shard
#                                    empty; Spell at 2 shards, like Drain,
#                                    resumes to the uninterrupted run's state
#   tests/preprocess_differential    mask-before-intern vs symbol-level apply
#                                    vs goldens
#   core intern the_arena_reads_as_the_csr_arena,
#   the_parallel_build_reads_as_the_csr_arena, repeated_rows_store_…,
#   distinct_rows_are_each_stored_once, a_default_arena_is_a_new_one
#                                    the arena that stores each distinct row
#                                    once against the CSR arena it replaced,
#                                    kept as the oracle: rows, iteration,
#                                    counts and equality over empty rows,
#                                    rows sharing a table set and tag (prefix
#                                    pairs among them), more distinct rows
#                                    than slots and 70 000-token rows, built
#                                    by `push_row` or `push_symbol` +
#                                    `finish_row`, sliced, selected, grown
#                                    after slicing, merged from remapped
#                                    chunks, and built by the loader at
#                                    1..=8 threads; 50 000 rows of 171
#                                    ten-token templates store ≤ 1 % of
#                                    their tokens, distinct rows once;
#                                    `default()` is `new()`
#   parsers iplom parse_matches_the_reference
#                                    IPLoM's `u32` partitions against the
#                                    `usize`, per-position-`HashSet` oracle
#   core parser an_assignment_is_four_bytes, event_id_…, intern
#   row_offsets_stop_short_of_u32_max
#                                    the per-line sizes `parse_steady`'s peak
#                                    follows (4-byte `Option<EventId>`),
#                                    `EventId::new`'s index round trip and
#                                    named panic at `u32::MAX`, the arena's
#                                    `u32` offset check at its boundary
#   parsers streaming_drain_matches_batch_drain,
#   streaming_spell_matches_batch_spell
#                                    batch Drain/Spell assign from the ids the
#                                    streaming parser returns: equal id for id,
#                                    over 20 000 `hdfs` lines, so the streaming
#                                    table compacts at its default budget
#   parsers compaction_is_invisible, core intern
#   a_compaction_keeps_only_what_is_kept_in_the_order_kept
#                                    compaction ≡ no compaction: Drain (two
#                                    `max_children`) and Spell compacting a few
#                                    tokens past their budget give the ids,
#                                    templates and snapshot bytes of a parser
#                                    that never compacts, on `hdfs` lines, fresh
#                                    ids, fresh digit-free heads, a literal `*`
#                                    and hostile bytes
#   parsers the_vocabulary_follows_the_templates_not_the_stream
#                                    the vocabulary bound: after 100 000 lines
#                                    with a fresh token each, a streaming
#                                    table holds ≤ 2 × retained + 4 096 tokens
#   ingest e2e …_across_compactions  resume across compactions: Drain and Spell
#                                    at 2 shards, ≥ 3 compactions per shard
#                                    before the checkpoint and after it, resumed
#                                    state equal to the uninterrupted run's
#   cli serve_listen_outlives_running_out_of_file_descriptors
#                                    fd exhaustion: under `ulimit -n 20`, 40
#                                    clients of `serve --listen` are all served
#                                    and it exits 0, not 1 on EMFILE
#   cli a_full_output_device_fails_parse_and_jobs_run
#                                    `parse` and `jobs run` exit non-zero,
#                                    naming the error, when `--events-out` or
#                                    `--structured-out` is /dev/full, and
#                                    `serve` when its `--events-out` journal
#                                    is (skipped with a message where
#                                    /dev/full does not exist)
#   core loader read_builds_equal_the_in_memory_build,
#   windowed_ranges_and_cuts_equal_the_one_window_ones,
#   cuts_of_the_jobs_v1_corpus_are_the_mapped_walks,
#   tests/loader_differential a_corpus_outlives_its_input_file
#                                    a corpus build read from a file through
#                                    a buffer of 1..=300 bytes — sequential,
#                                    1-8 threads each reading its own range,
#                                    masked, stdin, a jobs worker's range
#                                    build, the cut walk — equals the build
#                                    of the same bytes in memory: vocabulary
#                                    order, rows, line numbers, masked
#                                    counts, cuts (the jobs_v1 corpus's as
#                                    the mapped walk gave them), or the same
#                                    first error; a corpus keeps no text, so
#                                    truncating and overwriting its file
#                                    leaves its rows and parses alone
#   core loader kept_line_walks_and_builds_hand_over_the_line_
#   readers_rows, tests/fused_parse_differential, cli parse_drain_
#   streams_to_the_corpus_paths_bytes, refused_input_fails_parse_and_
#   leaves_the_outputs_alone
#                                    `parse --parser drain -j 1` (and -j 0)
#                                    builds no corpus: the kept-line walk
#                                    and the corpus build, one line scan,
#                                    both hand over the lines, tokens and
#                                    masked counts of the non-blank
#                                    `BufRead::lines` + `Corpus::from_lines`
#                                    + `Preprocessor::apply` reference
#                                    (read buffers and reads of 1..=300
#                                    bytes), and walk + StreamingDrain
#                                    write the corpus path's events and
#                                    structured bytes on hostile soup (VT,
#                                    FF, CR, CRLF, U+00A0, U+0085, `\xff`,
#                                    65 530–70 000-byte lines), steady and
#                                    hdfs, masked or not, file or stdin;
#                                    refused input fails both paths alike
#                                    and creates or truncates no output
#   core loader range_walks_hand_over_the_range_builds_rows,
#   tests/fused_parse_differential a_streamed_chunk_…, jobs protocol
#   worker_parses_its_chunk_…, worker_refuses_a_corpus_…,
#   the_result_writer_writes_the_json_trees_bytes
#                                    a `jobs` worker's Drain chunk builds
#                                    no corpus: the range walk hands over
#                                    the range build's rows at a job's cuts
#                                    (blank runs at a cut, CRLF, `\xff`,
#                                    65 530–70 000-byte lines, no final
#                                    newline), from a file and from a
#                                    reader it reads no further than the
#                                    range, and refuses a misaligned or
#                                    out-of-file range with the build's
#                                    error; walk + StreamingDrain write
#                                    Drain's bytes for the chunk corpus;
#                                    workers for Drain (streamed) and IPLoM
#                                    (chunk corpus), on lines the two group
#                                    apart, publish their slice's parse and
#                                    refuse a corpus that is not the
#                                    manifest's alike; the direct
#                                    result writer writes the `Json` tree's
#                                    bytes
#   store disk_usage_reaches_reports_and_gauges,
#   store_metrics_pre_register_every_family
#                                    read their gauges from a private
#                                    `Registry`: every parallel test's store
#                                    sets the global one's per-shard gauges
#   linalg dual_matches_primal       dual vs primal PCA
#   linalg symmetric_eigen_matches_jacobi_on_count_grams
#                                    Householder + QL vs the cyclic Jacobi
#                                    oracle on count-history Gram matrices:
#                                    eigenvalues, residual, orthogonality,
#                                    leading eigenspaces
#   eval paper_pins                  every pinned experiment's report against
#                                    results/quick byte for byte, one assertion
#                                    per finding; a mismatch leaves what the
#                                    run printed in target/paper_pins/, and
#                                    ./run_experiments.sh regenerates
echo "=== cargo test ==="
cargo test --workspace -q

# The benchmark harness links the crates by pinned signature (its
# README); checked here so a break fails locally, not in the benchmark
# run (it writes only the git-ignored benchmark/target/).
echo "=== benchmark harness builds against the pinned API ==="
cargo check -q --offline --locked --manifest-path benchmark/Cargo.toml

# The pairs script runs no benchmark here: its syntax, and a reprint
# (`--pairs 0`) of a made-up two-workload run directory, whose table must
# hold a row per workload and end-to-end metric and pass.
echo "=== scripts/pairs.sh (syntax, two-workload reprint) ==="
bash -n scripts/pairs.sh
PAIRS_DIR="$(mktemp -d)"
jq -c '.end_to_end | map({key: .name, value: {value: 1}}) | from_entries as $metrics
  | ["parse_hdfs_masked", "jobs_hdfs"][] as $w | range(1; 3) as $p | ("base", "head") as $s
  | {workload: $w, side: $s, pair: $p, result: {correct: true, metrics: $metrics}}' \
  BENCHMARK.json > "$PAIRS_DIR/runs.jsonl"
# GIT_DIR names no repository: a reprint must not need one (a tree
# exported without `.git` runs this script too).
PAIRS_OUT="$(GIT_DIR="$PAIRS_DIR/no-repository" scripts/pairs.sh HEAD \
  --workload parse_hdfs_masked,jobs_hdfs --pairs 0 --work "$PAIRS_DIR")"
rm -rf "$PAIRS_DIR"
METRICS="$(jq '.end_to_end | length' BENCHMARK.json)"
for w in parse_hdfs_masked jobs_hdfs; do
  if [[ "$(grep -c "^$w " <<<"$PAIRS_OUT")" != "$METRICS" ]]; then
    echo "pairs.sh --pairs 0 did not reprint $METRICS rows for $w:"
    echo "$PAIRS_OUT"
    exit 1
  fi
done

if [[ "$QUICK" == "0" ]]; then
  # The pins again at paper scale against results/ (about six minutes).
  echo "=== paper pins at paper scale (results/) ==="
  cargo test -q -p logparse-eval --test paper_pins -- --ignored
fi

if [[ "$QUICK" == "1" ]]; then
  # Alert-rule smoke: the default rule set replayed over the canned
  # drifting history must parse cleanly and fire the churn alert.
  echo "=== logmine alerts check (default rules vs canned drift fixture) ==="
  ALERTS_OUT="$(cargo run -q --release -p logparse-cli --bin logmine -- \
    alerts check --fixture examples/drift.history)"
  if ! grep -q "FIRING template-churn-high" <<<"$ALERTS_OUT"; then
    echo "expected template-churn-high to fire on examples/drift.history:"
    echo "$ALERTS_OUT"
    exit 1
  fi
fi

if [[ "$DEEP" == "1" ]]; then
  # Deep passes use dynamic analysis where the lint layer above is only
  # heuristic: Miri checks the merge/parallel core for UB and leaks,
  # TSan races the obs concurrency suite. Both need nightly; a box
  # without one still gets the full static gate above.
  if rustup toolchain list 2>/dev/null | grep -q nightly; then
    if rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'miri.*(installed)'; then
      echo "=== miri (logparse-core merge/parallel tests) ==="
      cargo +nightly miri test -p logparse-core merge parallel
    else
      echo "=== miri: nightly present but miri component not installed; skipping ==="
      echo "    (install with: rustup component add miri --toolchain nightly)"
    fi
    if rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src.*(installed)'; then
      echo "=== thread sanitizer (logparse-obs concurrency suite) ==="
      RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -p logparse-obs -q \
        --target "$(rustc -vV | sed -n 's/^host: //p')" -Z build-std
    else
      echo "=== tsan: nightly present but rust-src not installed; skipping ==="
      echo "    (install with: rustup component add rust-src --toolchain nightly)"
    fi
  else
    echo "=== deep checks skipped: no nightly toolchain installed ==="
    echo "    (install with: rustup toolchain install nightly)"
  fi
fi

echo "all checks passed"
