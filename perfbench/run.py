#!/usr/bin/env python3
"""Builds the pdr library and the benchmark program from source, then runs one
workload and relays its output.

    python3 perfbench/run.py --workload fr_cold --seed 7 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; spans, provenance and the exact-count record
go next to it. The last line of stdout is the result JSON; build output and
diagnostics go to stderr. See perfbench/README.md for the workloads.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fr_cold", "fr_monitor", "approx_stream")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def git_state():
    """(sha, dirty) when the root is a git checkout, else ("none", "unknown")."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=20)
    try:
        top = git("rev-parse", "--show-toplevel")
        # A checkout nested in some other repository is not a git checkout.
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "none", "unknown"
        sha = git("rev-parse", "HEAD")
        if sha.returncode != 0:
            return "none", "unknown"
        status = git("status", "--porcelain")
        dirty = "1" if status.stdout.strip() else "0"
        return sha.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return "none", "unknown"


def build(build_dir):
    """Configures (once) and builds pdr_perfbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/CMakeLists.txt under", ROOT)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pdr_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "pdr_perfbench")
    return binary if os.path.isfile(binary) else None


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_root = os.path.join(ROOT, target)
    binary = build(os.path.join(out_root, "perfbench"))
    if binary is None:
        return 1

    sha, dirty = git_state()
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(out_root, "perfbench-out"),
           "--build-id", file_digest(binary),
           "--git-sha", sha,
           "--git-dirty", dirty]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log("perfbench: pdr_perfbench exited with", proc.returncode)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
