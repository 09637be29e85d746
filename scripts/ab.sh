#!/usr/bin/env bash
# Same-machine A/B of the repository benchmark: this checkout against a
# base revision, in alternating order.
#
#   scripts/ab.sh [--workload W] [--seed S] [--seconds N] [--pairs P]
#                 [--base REV]
#
# The base side is the merge-base of HEAD and REV (default HEAD, i.e. the
# uncommitted change against its parent; pass --base main for a committed
# branch). It is extracted with `git archive` into
# .bench_build/ab/<commit>/ and kept there, so a later A/B against the same
# base only rebuilds incrementally. A plain extracted tree rather than a
# git worktree leaves no registration behind in .git when a run is killed.
#
# Each side runs `python3 perf/run.py --workload W --seed S --seconds N`
# from its own tree (building into its own .bench_build). One untimed
# warm-up pair builds both binaries, then P measured pairs alternate which
# side goes first. For every end-to-end metric in BENCHMARK.json the
# summary prints each side's median and quartiles, the change/base ratio
# of the medians, and how many pairs each side won; ties count for
# neither. Timings only mean anything against each other on one machine.
set -euo pipefail

workload=serve_warm
seed=1
seconds=10
pairs=10
base=HEAD

usage() {
  sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload=${2:?}; shift 2 ;;
    --seed) seed=${2:?}; shift 2 ;;
    --seconds) seconds=${2:?}; shift 2 ;;
    --pairs) pairs=${2:?}; shift 2 ;;
    --base) base=${2:?}; shift 2 ;;
    -h|--help) usage ;;
    *) echo "ab.sh: unknown argument: $1" >&2; usage ;;
  esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: --pairs must be >= 1" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
cd "$root"
base_commit=$(git merge-base HEAD "$base")
base_dir="$root/.bench_build/ab/$base_commit"
if [[ ! -f "$base_dir/.extracted" ]]; then
  rm -rf "$base_dir"
  mkdir -p "$base_dir"
  git archive "$base_commit" | tar -x -C "$base_dir"
  touch "$base_dir/.extracted"
fi

results="$root/.bench_build/ab/results-$workload-$seed.jsonl"
: > "$results"

# Runs one side; appends {"side", "pair", "result"} to the results file.
run_side() {
  local side=$1 pair=$2 tree=$3 line
  echo "ab.sh: pair $pair: $side" >&2
  line=$(cd "$tree" && python3 perf/run.py --workload "$workload" \
           --seed "$seed" --seconds "$seconds" 2>/dev/null | tail -n 1) || true
  printf '{"side": "%s", "pair": %d, "result": %s}\n' "$side" "$pair" \
    "${line:-null}" >> "$results"
}

for pair in $(seq 0 "$pairs"); do  # pair 0 is the untimed warm-up
  if (( pair % 2 == 0 )); then
    run_side base "$pair" "$base_dir"
    run_side change "$pair" "$root"
  else
    run_side change "$pair" "$root"
    run_side base "$pair" "$base_dir"
  fi
done

python3 - "$results" "$root/BENCHMARK.json" "$base_commit" <<'EOF'
import json
import statistics
import sys

results_path, benchmark_path, base_commit = sys.argv[1:4]
metrics = json.load(open(benchmark_path))["end_to_end"]
runs = {"base": {}, "change": {}}
failed = {"base": 0, "change": 0}
for line in open(results_path):
    record = json.loads(line)
    if record["pair"] == 0:
        continue  # warm-up
    result = record["result"]
    if not result or not result.get("correct") or result.get("failed"):
        failed[record["side"]] += 1
        continue
    runs[record["side"]][record["pair"]] = result["metrics"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def cell(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


pairs = sorted(set(runs["base"]) & set(runs["change"]))
print(f"A/B against {base_commit[:12]}: {len(pairs)} complete pairs; "
      f"failed or incorrect runs: base {failed['base']}, "
      f"change {failed['change']}")
if not pairs:
    sys.exit(1)
print(f"{'metric':<22}{'better':>7}  {'base median [q1, q3]':>32}  "
      f"{'change median [q1, q3]':>32}  {'ratio':>6}  {'won b/c':>7}")
for metric in metrics:
    name, better = metric["name"], metric["better"]
    base = [runs["base"][p][name]["value"] for p in pairs]
    change = [runs["change"][p][name]["value"] for p in pairs]
    bq, cq = quartiles(base), quartiles(change)
    sign = 1 if better == "higher" else -1
    change_won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    base_won = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    ratio = cq[1] / bq[1] if bq[1] else float("nan")
    print(f"{name:<22}{better:>7}  {cell(bq):>32}  {cell(cq):>32}  "
          f"{ratio:>6.3f}  {base_won:>3}/{change_won:<3}")
EOF
