#!/usr/bin/env python3
"""Build pamibench from source and run one workload.

    python3 pamibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark and the library sources it
links are built with CMake into .bench_build/ (or $CARGO_TARGET_DIR) on
first use; later runs rebuild only what changed. Build output goes to
stderr. The benchmark's stdout is passed through; its last line is the
result object, checked here against BENCHMARK.json's metric names. The
exit code is the benchmark's (nonzero on a failed build, a wrong result,
a failed self-check or a watchdog stop).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pamibench")


def build():
    """Configure and build the benchmark (incrementally); returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "pamibench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("pamibench: build failed: " + " ".join(cmd))
    return os.path.join(out, "pamibench")


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_hash():
    """sha256 over the library and benchmark sources (the checkout may not be a git tree)."""
    h = hashlib.sha256()
    for top in ("src", "pamibench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".h", ".cpp", ".txt", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with the result line's shape (empty when it is well formed)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are %s" % sorted(res)]
    if not res["metrics"]:
        return []  # the watchdog's failing result
    want = expected_metrics(trace)
    if want is None:
        return []
    problems = []
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    for name, unit in want.items():
        if got.get(name) != unit:
            problems.append("metric %s: want unit %s, got %s" % (name, unit, got.get(name)))
    for name in sorted(set(got) - set(want)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-hash", source_hash()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(build_dir(), "spans-%s.bin" % args.workload)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("pamibench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = r.stdout.splitlines()
    if not lines:
        sys.exit("pamibench: no output (exit %d)" % r.returncode)
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("pamibench: malformed result line: " + "; ".join(problems))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
