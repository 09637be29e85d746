#!/usr/bin/env python3
"""The repository benchmark: build retri_perf from source, run one workload.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perf/ (the program's src/ libraries plus the benchmark binary) into
.bench_build/perf; later runs rebuild incrementally. The binary's standard
output passes through unchanged, so its last line is the JSON result:
    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

Every run also prints its result digest ("result digest <hex>"), which is
how a new seed is recorded in perf/expected.json. RETRI_PERF_CMAKE_ARGS
adds configure arguments and selects a separate build directory (the
self-test builds Debug and metrics-off variants this way, which the binary
must refuse to measure).

Exit codes: 0 correct, 1 a failed op or a timeout, 2 bad arguments or
nothing to build (e.g. a directory holding only the benchmark), 3 the
binary refused the build.
"""
import argparse
import hashlib
import os
import shlex
import shutil
import subprocess
import sys

WORKLOADS = ("selectors_parallel", "serve_warm")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perf/run.py: {message}", file=sys.stderr, flush=True)


def source_id(root):
    """git commit when the checkout is a repository, else a tree hash."""
    try:
        top, commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if os.path.samefile(top, root):
            return f"git:{commit}"
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for sub in ("src", "bench", "perf"):
        for base, dirs, files in sorted(os.walk(os.path.join(root, sub))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return f"tree:{digest.hexdigest()[:16]}"


def build(root, extra_args):
    perf_dir = os.path.join(root, "perf")
    suffix = hashlib.sha256(" ".join(extra_args).encode()).hexdigest()[:8]
    build_dir = os.path.join(root, ".bench_build",
                             "perf" if not extra_args else f"perf-{suffix}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", perf_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *extra_args])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "retri_perf"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed: {shlex.join(step)}")
            return None
    return os.path.join(build_dir, "retri_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="self-test: corrupt the recorded digest")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no program sources under {root}/src; nothing to measure")
        return 2
    expected = os.path.join(root, "perf", "expected.json")
    if not os.path.isfile(expected):
        log("perf/expected.json (the expected-digest record) is missing")
        return 2

    extra = shlex.split(os.environ.get("RETRI_PERF_CMAKE_ARGS", ""))
    binary = build(root, extra)
    if binary is None:
        return 2

    bench_dir = os.path.join(root, ".bench_build")
    work_dir = os.path.join(bench_dir, "work", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(bench_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--expected", expected, "--work-dir", work_dir,
        "--trace-out",
        os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"),
        "--source", source_id(root),
    ]
    if args.inject_mismatch:
        command.append("--inject-mismatch")
    sys.stdout.flush()
    try:
        with subprocess.Popen(command) as process:
            try:
                return process.wait(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                log(f"timed out after {RUN_TIMEOUT_S} s")
                return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
