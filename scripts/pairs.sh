#!/usr/bin/env bash
# Alternating pairs of benchmark runs: REV against the working tree.
#
#   scripts/pairs.sh REV [--workload W[,W...]|all] [--pairs N] [--seed S]
#                        [--quick] [--work DIR]
#
# REV is exported (`git archive`) into DIR/base, and each side is built by
# cargo into its own target directory (DIR/target-base, DIR/target-head)
# and run from there: a binary is never copied, since `peak_rss_mb` counts
# the binary's file-backed pages and a copied file reads higher than the
# same code linked in place. Each pair runs `benchmark/run.sh` once per
# side and workload, REV first on odd pairs and the working tree first on
# even ones. `--workload` takes one name, a comma list, or `all`.
# Defaults: every workload of BENCHMARK.json, 10 pairs, seed 1, DIR a
# fresh temporary directory (pass one to reuse its builds). `--pairs 0
# --work DIR` builds and runs nothing and reprints the table of DIR's runs.
#
# Prints, per workload and end-to-end metric, each side's median
# [q1 – q3], the ratio (working tree / REV) and the pairs the working tree
# won. Exits 1 when a working-tree median is worse than REV's past the
# metric's BENCHMARK.json bound or a run reported a wrong output, 2 on a
# usage or build error. Every run's result line is kept in DIR/runs.jsonl,
# its stderr in DIR/runs.log, the table in DIR/table.txt.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() {
    sed -n '2,23s/^# \{0,1\}//p' "${BASH_SOURCE[0]}" >&2
    exit 2
}

rev=""
workload=all
pairs=10
seed=1
quick=()
work=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload="${2:?}"; shift 2 ;;
        --pairs) pairs="${2:?}"; shift 2 ;;
        --seed) seed="${2:?}"; shift 2 ;;
        --quick) quick=(--quick); shift ;;
        --work) work="${2:?}"; shift 2 ;;
        -h|--help) usage ;;
        -*) echo "pairs.sh: unknown option $1" >&2; usage ;;
        *) [[ -z "$rev" ]] || usage; rev="$1"; shift ;;
    esac
done
[[ -n "$rev" && "$pairs" =~ ^[0-9]+$ ]] || usage
[[ "$pairs" != 0 || -n "$work" ]] || usage
commit=$(git -C "$ROOT" rev-parse --verify --quiet "$rev^{commit}") || {
    echo "pairs.sh: $rev names no commit" >&2
    exit 2
}
mapfile -t known < <(jq -r '.workloads[].name' "$ROOT/BENCHMARK.json")
if [[ "$workload" == all ]]; then
    workloads=("${known[@]}")
else
    IFS=, read -r -a workloads <<<"$workload"
    for name in "${workloads[@]}"; do
        [[ " ${known[*]} " == *" $name "* ]] || {
            echo "pairs.sh: no workload $name in BENCHMARK.json" >&2
            exit 2
        }
    done
fi
[[ -n "$work" ]] || work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
mkdir -p "$work"
work=$(cd "$work" && pwd)

# The REV side: exported once per commit, so a reused DIR keeps its build.
if ((pairs > 0)) && [[ "$(cat "$work/base.commit" 2>/dev/null)" != "$commit" ]]; then
    rm -rf "$work/base"
    mkdir -p "$work/base"
    git -C "$ROOT" archive "$commit" | tar -x -C "$work/base"
    echo "$commit" > "$work/base.commit"
fi

declare -A tree=([base]="$work/base" [head]="$ROOT")
runs="$work/runs.jsonl"
((pairs > 0)) || [[ -s "$runs" ]] || { echo "pairs.sh: no runs in $work" >&2; exit 2; }
((pairs == 0)) || for side in base head; do
    echo "=== building $side (${tree[$side]}) ===" >&2
    (
        cd "${tree[$side]}"
        export CARGO_TARGET_DIR="$work/target-$side"
        cargo build -q --release --offline -p logparse-cli
        cargo build -q --release --offline --manifest-path benchmark/Cargo.toml
    ) || { echo "pairs.sh: building $side failed" >&2; exit 2; }
done

((pairs == 0)) || { : > "$runs"; : > "$work/runs.log"; }
for ((pair = 1; pair <= pairs; pair++)); do
    order=(base head)
    ((pair % 2 == 1)) || order=(head base)
    for name in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            echo "=== pair $pair/$pairs: $name, $side ===" >&2
            line=$(CARGO_TARGET_DIR="$work/target-$side" \
                bash "${tree[$side]}/benchmark/run.sh" --workload "$name" \
                --seed "$seed" "${quick[@]}" 2>>"$work/runs.log" | tail -n 1) || true
            jq -c --arg w "$name" --arg s "$side" --argjson p "$pair" \
                '{workload: $w, side: $s, pair: $p, result: .}' <<<"$line" >>"$runs" || {
                echo "pairs.sh: $side gave no result line for $name" >&2
                exit 1
            }
        done
    done
done

rows=$(jq -cn --slurpfile spec "$ROOT/BENCHMARK.json" --slurpfile runs "$runs" '
  # Quantile $p of a sorted array, linear between ranks.
  def q($p): ((length - 1) * $p) as $i | ($i | floor) as $lo | ($i | ceil) as $hi
    | .[$lo] + (.[$hi] - .[$lo]) * ($i - $lo);
  def r($n): (. * pow(10; $n) | round) / pow(10; $n);
  def show: if fabs >= 1e6 then "\(. / 1e6 | r(3)) M" elif fabs >= 1e4 then "\(. / 1e3 | r(1)) k"
    elif fabs >= 1 then "\(r(3))" else "\(r(4))" end;
  def summary: sort | "\(q(0.5) | show) [\(q(0.25) | show) – \(q(0.75) | show)]";
  ($runs | map(.workload) | unique) as $seen
  | $spec[0].workloads[].name | select(IN($seen[])) as $w
  | $spec[0].end_to_end[] as $m
  | [$runs[] | select(.workload == $w)] as $rs
  | ([$rs[] | select(.side == "base")] | sort_by(.pair) | map(.result.metrics[$m.name].value)) as $b
  | ([$rs[] | select(.side == "head")] | sort_by(.pair) | map(.result.metrics[$m.name].value)) as $h
  | ([$b, $h] | map(length) | min) as $n
  | ($b | sort | q(0.5)) as $bm | ($h | sort | q(0.5)) as $hm
  | (if $m.better == "higher" then 1 else -1 end) as $up
  | (if $bm == 0 then null else $hm / $bm end) as $ratio
  | (if $ratio == null then ($hm - $bm) * $up < 0
     else ($ratio - 1) * $up < -$m.bound end) as $worse
  | [$w, $m.name, ($b | summary), ($h | summary),
     (if $ratio == null then "n/a" else "\($ratio | r(3))x" end),
     "\([range(0; $n) | select(($h[.] - $b[.]) * $up > 0)] | length)/\($n)",
     "\($m.bound)", (if $worse then "WORSE" else "ok" end)]
')
wrong=$(jq -s 'map(select(.result.correct != true)) | length' "$runs")
worse=$(jq -s 'map(select(.[7] == "WORSE")) | length' <<<"$rows")
{
    echo "REV $rev ($commit) against the working tree: seed $seed, $(jq -s 'map(.pair) | max' "$runs") pair(s)"
    jq -rs '[["workload", "metric", "REV median [q1 – q3]", "tree median [q1 – q3]",
              "ratio", "wins", "bound", "verdict"]] + .
        | (transpose | map(map(length) | max)) as $width
        | .[] | [to_entries[] | .value + " " * ($width[.key] - (.value | length))]
        | join("  ")' <<<"$rows"
    echo "metrics worse past their bound: $worse; runs with a wrong output: $wrong"
    echo "runs: $runs"
} | tee "$work/table.txt"
[[ "$worse" == 0 && "$wrong" == 0 ]] || exit 1
