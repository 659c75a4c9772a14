#!/usr/bin/env bash
# Builds what the benchmark needs, then runs it and checks the outputs.
#
#   benchmark/run.sh [--quick] [--traced] [--workload NAME|all] [--seed N]
#                    [--seconds S] [--trace 0|1]
#
# With no arguments: every workload, end-to-end pass, seed 1. `--quick`
# (line counts ÷ 10, one-second passes) finishes in under 30 s once built.
# Exits non-zero when a build fails or any output is wrong.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

# Cargo rebuilds only what is stale; on an up-to-date tree both calls are
# no-ops. With CARGO_TARGET_DIR set, both workspaces build into it.
started=$(date +%s.%N)
cargo build --release --offline -p logparse-cli
cargo build --release --offline --manifest-path benchmark/Cargo.toml
finished=$(date +%s.%N)
export BENCH_BUILD_S=$(awk -v a="$started" -v b="$finished" 'BEGIN { printf "%.3f", b - a }')

if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    logmine="$CARGO_TARGET_DIR/release/logmine"
    e2e="$CARGO_TARGET_DIR/release/e2e"
else
    logmine="target/release/logmine"
    e2e="benchmark/target/release/e2e"
fi

seed=()
[[ " $* " == *" --seed "* ]] || seed=(--seed 1)

# The harness and everything it spawns run on one CPU. The sandbox's two
# vCPUs deliver between one and two cores' worth from minute to minute, and
# a multi-threaded run measured across both swings 1.7x with that; on one
# CPU it does not. See "Noise" in README.md.
pin=()
if command -v taskset >/dev/null && taskset -c 0 true 2>/dev/null; then
    pin=(taskset -c 0)
fi
exec "${pin[@]}" "$e2e" run --root "$ROOT" --logmine "$logmine" "${seed[@]}" "$@"
