#!/usr/bin/env python3
"""Self-tests of the repository benchmark (perf/run.py).

    python3 perf/selftest.py [--builds]

Run from the root of a checkout. Checks that:
  - a tiny run of each workload prints every end-to-end metric, and a
    traced run every per-layer metric, each with the unit BENCHMARK.json
    gives, and reports no failure;
  - an injected digest mismatch is reported as a failure (exit 1,
    "correct": false);
  - the seed changes the inputs (the result digest) but not the metric set;
  - in a directory holding only BENCHMARK.json and perf/, the command exits
    non-zero without printing a result;
  - with --builds: a Debug build and a RETRI_OBS_NO_METRICS build are
    refused (exit 3, no result).
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
FAILURES = []


def run(args, cwd=ROOT, env=None):
    result = subprocess.run(
        [sys.executable, "perf/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=900, env=env)
    lines = result.stdout.strip().splitlines()
    parsed = None
    if lines:
        try:
            parsed = json.loads(lines[-1])
        except json.JSONDecodeError:
            parsed = None
    return result, parsed


def check(condition, what):
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        FAILURES.append(what)


def expect_metrics(label, result, parsed, table):
    check(result.returncode == 0 and parsed is not None and parsed["correct"]
          and parsed["failed"] == 0 and parsed["attempted"] >= 1,
          f"{label}: exit 0, correct, no failed op")
    if parsed is None:
        return
    want = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in parsed["metrics"].items()}
    check(got == want, f"{label}: prints exactly the {len(want)} metrics "
          "with their units")
    printed = all(f"{name} " in result.stdout for name in want)
    check(printed, f"{label}: each metric also printed by name")


def main():
    builds = "--builds" in sys.argv[1:]

    for workload in WORKLOADS:
        result, parsed = run(["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", "0"])
        expect_metrics(f"{workload} end-to-end", result, parsed,
                       BENCH["end_to_end"])
        result, parsed = run(["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", "1"])
        expect_metrics(f"{workload} traced", result, parsed,
                       BENCH["per_layer"])

    result, parsed = run(["--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--inject-mismatch"])
    check(result.returncode == 1 and parsed is not None
          and not parsed["correct"] and parsed["failed"] > 0
          and "FAILED" in result.stderr,
          "injected digest mismatch is reported as a failure")

    digests, sets = [], []
    for seed in ("1", "2"):
        result, parsed = run(["--workload", WORKLOADS[0], "--seed", seed,
                              "--seconds", "1"])
        digests.append(next((line.split()[2] for line in
                             result.stdout.splitlines()
                             if line.startswith("result digest ")), None))
        sets.append(sorted(parsed["metrics"]) if parsed else None)
    check(all(digests) and digests[0] != digests[1],
          "another seed changes the inputs (result digest)")
    check(sets[0] is not None and sets[0] == sets[1],
          "another seed leaves the metric set unchanged")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    result, parsed = run(["--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1"], cwd=bare)
    check(result.returncode != 0 and parsed is None,
          "bare benchmark directory exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    if builds:
        for args in ("-DCMAKE_BUILD_TYPE=Debug",
                     "-DCMAKE_CXX_FLAGS=-DRETRI_OBS_NO_METRICS"):
            env = dict(os.environ, RETRI_PERF_CMAKE_ARGS=args)
            result, parsed = run(["--workload", WORKLOADS[0], "--seed", "1",
                                  "--seconds", "1"], env=env)
            check(result.returncode == 3 and parsed is None,
                  f"build with {args} is refused")

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
