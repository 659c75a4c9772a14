#!/bin/bash
# Regenerates results/: the stdout of every experiment `experiments list`
# names, at paper scale in results/<name>.txt and at --quick scale in
# results/quick/<name>.txt. crates/eval/tests/paper_pins.rs holds the
# pinned ones to these files byte for byte, so review `git diff results/`
# before committing a run. About 12 minutes; stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline -p logparse-eval --bin experiments
run=target/release/experiments

mkdir -p results/quick
trap 'rm -f results/*.txt.tmp results/quick/*.txt.tmp' EXIT
for name in $("$run" list); do
  # A table lands under its name only when the runner exited 0.
  "$run" "$name" >"results/$name.txt.tmp"
  mv "results/$name.txt.tmp" "results/$name.txt"
  "$run" "$name" --quick >"results/quick/$name.txt.tmp"
  mv "results/quick/$name.txt.tmp" "results/quick/$name.txt"
done
