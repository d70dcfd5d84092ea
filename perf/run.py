#!/usr/bin/env python3
"""Runs one workload of the engine benchmark and prints its result line.

    python3 perf/run.py --workload tpch-1t --seed 1 --seconds 10 --trace 0
    python3 perf/run.py --self-test

Run from the repository root. The first call builds the engine and the
benchmark program from source (perf/CMakeLists.txt) under the build
directory: $CARGO_TARGET_DIR if set, else .bench_build. The baseline row
engine's answers for a seed are computed once, outside any timed region,
and kept there for later runs with the same seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
and --trace 1 the per-layer ones, as BENCHMARK.json lists them; a traced
run also leaves spans.json, profiles.json and result.json (with the
machine and config block) under <build>/perf-out/<workload>-seed<N>/.
Everything else goes to standard error. See perf/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
RUN_TIMEOUT_S = 170
# Every workload the program runs. BENCHMARK.json gates a subset of them;
# README.md says why tpch-1t is not gated.
WORKLOADS = ("tpch-1t", "tpch-4t", "lakehouse-mixed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perf"


def build(targets):
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(PERF_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)
    return out


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perf"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def oracle_file(binary, seed):
    path = build_dir() / "oracle" / f"sf0.1-seed{seed}.txt"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        log(f"computing the baseline oracle for seed {seed}")
        subprocess.run([str(binary), "--make-oracle", str(tmp), "--seed",
                        str(seed)], check=True, timeout=RUN_TIMEOUT_S)
        os.replace(tmp, path)
    return path


def check_result(line, expected_metrics):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    names = list(result["metrics"])
    if names != expected_metrics:
        raise ValueError(f"metrics {names} != BENCHMARK.json {expected_metrics}")
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perf_harness_test"])
        return subprocess.run([str(out / "perf_harness_test")]).returncode

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {list(WORKLOADS)}")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    binary = build(["perf_bench"]) / "perf_bench"
    oracle = oracle_file(binary, args.seed)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--oracle", str(oracle), "--commit", source_revision()]
    if args.trace:
        out_dir = build_dir() / "perf-out" / f"{args.workload}-seed{args.seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--out", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return proc.returncode or 1
    try:
        check_result(lines[-1], expected)
    except ValueError as e:
        log(f"malformed result line: {e}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"benchmark failed: {e}")
        sys.exit(1)
