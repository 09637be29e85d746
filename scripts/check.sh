#!/usr/bin/env bash
# One-shot correctness gate: runs every enforcement layer the repo has.
#
#   scripts/check.sh            # full matrix (four builds; slow but total)
#   scripts/check.sh --quick    # Werror build + tests + lint only
#
# Stages (each is a fresh build tree under build-check/):
#   1. werror  — RelWithDebInfo + RETRI_WERROR=ON, full build, full ctest
#   2. lint    — retri_lint over the tree with an empty baseline
#   3. graph   — retri_lint --graph check: include-graph layering + cycle
#                rules over src/ (also part of --quick)
#   4. tidy    — RETRI_TIDY=ON build (curated .clang-tidy, warnings fatal);
#                SKIPPED with a notice when clang-tidy is not installed
#   5. asan    — RETRI_SANITIZE=address build + full ctest
#   6. chaos   — short randomized fault-injection soak (retri_chaos) under
#                the asan build, plus `ctest -L chaos`; also runnable alone
#                via `scripts/check.sh --chaos`
#   7. obs     — observability gate under the werror build: `ctest -L obs`
#                (metrics/span/export suites + retri_trace CLI smoke) plus
#                a --jobs 1 vs --jobs 8 retri_trace artifact diff (the
#                Perfetto JSON must be byte-identical)
#   8. selector — selector-zoo gate under the werror build: `ctest -L
#                selector` (policy statistics, permutation injectivity, the
#                SelectorSpec differential, the attacker model) plus a short
#                attacker soak: `retri_bench --sweep selectors` at --jobs 1
#                vs --jobs 8 must emit byte-identical artifacts
#   9. serve   — sweep-serving gate under the werror build: `ctest -L serve`
#                (cache/codec/wire/server suites) plus scripts/serve_smoke.sh
#                (daemon on a temp socket; same sweep submitted twice; the
#                second run must be 100% cache hits with --out artifacts
#                byte-identical to a local retri_bench run)
#  10. serve-fault — crash-safety gate under the asan build: `ctest -L
#                serve_fault` (the crash-point/fault soak suite) plus a
#                `retri_chaos --serve-faults` run whose --jobs 1 vs
#                --jobs 4 audit artifacts must be byte-identical; also
#                runnable alone via `scripts/check.sh --serve-faults`
#  11. tsan    — RETRI_SANITIZE=thread build + `ctest -L runner` (the
#                concurrency suite; TSan on the single-threaded sim buys
#                nothing but runtime)
#  12. perf    — opt-in via `scripts/check.sh --perf`: runs the
#                repository benchmark's self-test, `python3
#                perf/selftest.py` (every workload's metric set and units,
#                the result-digest gate, seed handling, refusal outside a
#                full checkout). perf/ is the one performance harness; see
#                perf/README.md. Also runnable standalone.
#
# Exits nonzero on the first failing stage and always prints the per-stage
# summary. Parallelism: JOBS env var, default nproc.

set -u
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
QUICK=0
CHAOS_ONLY=0
PERF=0
SERVE_FAULTS_ONLY=0
[[ "${1:-}" == "--quick" ]] && QUICK=1
[[ "${1:-}" == "--chaos" ]] && CHAOS_ONLY=1
[[ "${1:-}" == "--perf" ]] && PERF=1
[[ "${1:-}" == "--serve-faults" ]] && SERVE_FAULTS_ONLY=1

declare -a STAGE_NAMES=() STAGE_RESULTS=()
FAILED=0

note() { printf '\n==== %s ====\n' "$*"; }

summary() {
  printf '\n==== check.sh summary ====\n'
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-10s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
  done
}

# record NAME RESULT
record() { STAGE_NAMES+=("$1"); STAGE_RESULTS+=("$2"); }

# run_stage NAME CMD... — runs CMD, records PASS/FAIL, exits on failure.
run_stage() {
  local name="$1"; shift
  note "stage: $name"
  if "$@"; then
    record "$name" PASS
  else
    record "$name" "FAIL (exit $?)"
    FAILED=1
    summary
    exit 1
  fi
}

build_dir() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null && cmake --build "$dir" -j "$JOBS"
}

# --- chaos soak (shared by the asan stage and --chaos) ----------------------
# Runs the seeded fault-injection soak against a sanitized build: every
# trial's conservation invariants must hold and the --jobs 1 vs --jobs 8
# artifacts must be byte-identical (deterministic sharding).
chaos_soak() {
  local build="$1"
  build_dir "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRETRI_SANITIZE=address &&
  "$build/tools/chaos/retri_chaos" --seeds 25 --seconds 3 --jobs 1 \
    --out "$build/chaos-j1.json" &&
  "$build/tools/chaos/retri_chaos" --seeds 25 --seconds 3 --jobs 8 \
    --out "$build/chaos-j8.json" &&
  cmp "$build/chaos-j1.json" "$build/chaos-j8.json" &&
  ctest --test-dir "$build" --output-on-failure -L chaos -j "$JOBS"
}

if [[ "$CHAOS_ONLY" == 1 ]]; then
  chaos_only_stage() { chaos_soak build-check/asan; }
  run_stage chaos chaos_only_stage
  summary
  exit "$FAILED"
fi

# --- serve-fault soak (shared by the serve-fault stage and --serve-faults) --
# Crash points in the atomic store path plus injected I/O faults under a
# real Server, against the ASan build so the SIGKILL-shaped unwinding is
# also leak/UAF-clean. The audit fingerprint is a pure function of the
# seed, so the --jobs 1 and --jobs 4 artifacts must be byte-identical.
serve_fault_soak() {
  local build="$1"
  build_dir "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRETRI_SANITIZE=address &&
  ctest --test-dir "$build" --output-on-failure -L serve_fault -j "$JOBS" &&
  rm -rf "$build/serve-fault-j1" "$build/serve-fault-j4" &&
  "$build/tools/chaos/retri_chaos" --serve-faults --rounds 12 --seed 5 \
    --jobs 1 --dir "$build/serve-fault-j1" \
    --out "$build/serve-fault-j1.json" &&
  "$build/tools/chaos/retri_chaos" --serve-faults --rounds 12 --seed 5 \
    --jobs 4 --dir "$build/serve-fault-j4" \
    --out "$build/serve-fault-j4.json" &&
  cmp "$build/serve-fault-j1.json" "$build/serve-fault-j4.json"
}

if [[ "$SERVE_FAULTS_ONLY" == 1 ]]; then
  serve_faults_only_stage() { serve_fault_soak build-check/asan; }
  run_stage serve-fault serve_faults_only_stage
  summary
  exit "$FAILED"
fi

# --- repository benchmark self-test (opt-in: --perf) ------------------------
# perf/ builds ../src on its own (into .bench_build/) and measures the real
# sweeps end to end and each data-path layer from outside. Its self-test
# fails on any missing metric, a digest mismatch that goes unreported, or a
# seed that does not change the inputs; timings themselves are compared
# A/B on one machine with `python3 perf/run.py`, never against a committed
# number. Exact allocation budgets are tier-1 tests (retri_alloc_tests).
if [[ "$PERF" == 1 ]]; then
  perf_stage() { python3 perf/selftest.py; }
  run_stage perf perf_stage
  summary
  exit "$FAILED"
fi

# --- 1. Werror build + full test suite -------------------------------------
werror_stage() {
  build_dir build-check/werror -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRETRI_WERROR=ON &&
  ctest --test-dir build-check/werror --output-on-failure -j "$JOBS"
}
run_stage werror werror_stage

# --- 2. invariant linter ----------------------------------------------------
lint_stage() { ./build-check/werror/tools/lint/retri_lint --root . ; }
run_stage lint lint_stage

# --- 3. include-graph layering ----------------------------------------------
# Same binary, graph engine only: the declared layer order and the no-cycle
# invariant over src/ modules. Cheap enough to live in --quick.
graph_stage() {
  ./build-check/werror/tools/lint/retri_lint --root . --graph check
}
run_stage graph graph_stage

if [[ "$QUICK" == 1 ]]; then
  summary
  exit "$FAILED"
fi

# --- 4. clang-tidy (gated on availability) ----------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  tidy_stage() {
    build_dir build-check/tidy -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DRETRI_TIDY=ON
  }
  run_stage tidy tidy_stage
else
  note "stage: tidy — clang-tidy not installed, skipping"
  record tidy SKIP
fi

# --- 5. AddressSanitizer build + full test suite ----------------------------
asan_stage() {
  build_dir build-check/asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRETRI_SANITIZE=address &&
  ctest --test-dir build-check/asan --output-on-failure -j "$JOBS"
}
run_stage asan asan_stage

# --- 6. chaos soak under the asan build -------------------------------------
chaos_stage() { chaos_soak build-check/asan; }
run_stage chaos chaos_stage

# --- 7. observability gate ---------------------------------------------------
# ctest -L obs already ran inside the full werror/asan suites; this stage
# re-selects it explicitly and then checks the retri_trace determinism
# contract: --jobs only shards the batch, so the Perfetto artifact must be
# byte-identical across worker counts.
obs_stage() {
  ctest --test-dir build-check/werror --output-on-failure -L obs -j "$JOBS" &&
  ./build-check/werror/tools/trace/retri_trace --senders 4 --seconds 2 \
    --trials 4 --jobs 1 --trial 1 --out build-check/werror/trace-j1.json &&
  ./build-check/werror/tools/trace/retri_trace --senders 4 --seconds 2 \
    --trials 4 --jobs 8 --trial 1 --out build-check/werror/trace-j8.json &&
  cmp build-check/werror/trace-j1.json build-check/werror/trace-j8.json
}
run_stage obs obs_stage

# --- 8. selector-zoo gate -----------------------------------------------------
# ctest -L selector covers the policy properties and the attacker model;
# the soak then drives the full selector x attacker sweep through
# retri_bench twice — sweep sharding must not leak into the artifact, so
# the --jobs 1 and --jobs 8 bytes must match exactly.
selector_stage() {
  ctest --test-dir build-check/werror --output-on-failure -L selector \
    -j "$JOBS" &&
  ./build-check/werror/bench/retri_bench --sweep selectors --trials 1 \
    --seconds 1 --jobs 1 --out build-check/werror/selectors-j1.json &&
  ./build-check/werror/bench/retri_bench --sweep selectors --trials 1 \
    --seconds 1 --jobs 8 --out build-check/werror/selectors-j8.json &&
  cmp build-check/werror/selectors-j1.json \
    build-check/werror/selectors-j8.json
}
run_stage selector selector_stage

# --- 9. sweep-serving gate ---------------------------------------------------
# Unit suites for the cache/codec/wire/server layers, then the end-to-end
# contract: a daemon on a temp socket must serve a repeated sweep entirely
# from cache, byte-identical to a local retri_bench run.
serve_stage() {
  ctest --test-dir build-check/werror --output-on-failure -L serve \
    -j "$JOBS" &&
  scripts/serve_smoke.sh build-check/werror
}
run_stage serve serve_stage

# --- 10. serve-fault crash-safety gate ---------------------------------------
# The asan tree already exists from stage 5; this re-selects the serve_fault
# suite and runs the CLI soak's jobs-invariance diff on top of it.
serve_fault_stage() { serve_fault_soak build-check/asan; }
run_stage serve-fault serve_fault_stage

# --- 11. ThreadSanitizer build + runner concurrency suite --------------------
tsan_stage() {
  build_dir build-check/tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRETRI_SANITIZE=thread &&
  ctest --test-dir build-check/tsan --output-on-failure -L runner -j "$JOBS"
}
run_stage tsan tsan_stage

summary
exit "$FAILED"
