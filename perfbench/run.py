#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the otged library from src/ plus the
benchmark program, Release) into the directory named by CARGO_TARGET_DIR,
default `.bench_build`, then runs one workload. Build output goes to
standard error; the program's last line of standard output is the result
JSON. Traced runs also write their spans to
<build dir>/spans/<workload>-seed<N>.jsonl.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("range-powerlaw", "molecule-100k-churn", "pairwise-ged",
             "pairwise-gep")
RUN_TIMEOUT_S = 170


def source_rev():
    """Git revision when available, plus a digest of the sources built."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    rev = "src-" + h.hexdigest()[:12]
    if not (ROOT / ".git").exists():
        return rev
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0 and git.stdout.strip():
            rev = git.stdout.strip()[:12] + "/" + rev
    except (OSError, subprocess.TimeoutExpired):
        pass
    return rev


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if proc.returncode:
            return False
    return (build_dir / "perfbench").is_file()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "search" / "query_engine.hpp").is_file():
        print("perfbench: otged sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    # Compiler temporaries stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not build(build_dir, env):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--rev", source_rev()]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
