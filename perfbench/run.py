#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test        # build and run the benchmark's tests

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library from
src/) into .bench_build/perfbench; later calls only check that the build is
up to date. The benchmark binary prints its metric lines and, last, one JSON
object; this script checks that object against BENCHMARK.json before passing
it on, and exits nonzero when the build, the run or a check fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    if not (ROOT / "src" / "net" / "runtime.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                      *targets])
        for cmd in steps:
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stdout[-8000:])
                fail(f"build step failed: {' '.join(cmd)}")
    return out


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        p = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                            "--short=12", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return p.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(res)}"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()

    if a.test:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([str(out / "perfbench_tests")], cwd=ROOT).returncode)
    if not a.workload:
        fail("--workload is required")

    out = build(["perfbench"])
    cmd = [str(out / "perfbench"), "--workload", a.workload, "--seed",
           str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--git-rev", git_rev()]
    if a.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{a.workload}-seed{a.seed}.tsv")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = p.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    problem = check_result(lines[-1], a.trace)
    if problem:
        print(lines[-1], file=sys.stderr)
        fail(f"{problem} (exit code {p.returncode})", 4)
    print(lines[-1], flush=True)
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
