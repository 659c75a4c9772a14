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

echo "=== logparse-lint (project invariants, warnings denied) ==="
cargo run -q -p logparse-lint -- --workspace --deny warnings --stats

# One run of every suite. What the named ones pin, so a failure below is
# read against the right contract:
#   tests/parallel_equivalence       sequential vs parallel parse
#   core intern::tests               the token table against a HashMap over
#                                    vocabularies built to collide, an overlay
#                                    against a deep clone, a new token's mean
#                                    walk as a count
#   tests/loader_differential        zero-copy loader vs the BufRead reference;
#                                    job cuts (no cut splits a line, a
#                                    byte-range build is the slice of the whole)
#   cli loader_v1_goldens_hold_…     parent-frozen loader_v1 outputs
#   core framer_lines_do_not_…, cli serve_entry_points_agree_…
#                                    the stream line contract: file, stdin,
#                                    tail and TCP agree on hostile bytes; the
#                                    framer's block pop gives the lines and
#                                    damage counts of the per-line reference
#                                    however the bytes were cut into reads
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
#   tests/preprocess_differential    mask-before-intern vs symbol-level apply
#                                    vs goldens
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
