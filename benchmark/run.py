#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 benchmark/run.py --workload <train-cl4srec|eval-catalog|serve-open> \
        --seed N --seconds S --trace <0|1>

Run it from the root of a checkout. The crate in this directory is built in
release mode into $CARGO_TARGET_DIR (default: benchmark/target). Its output
is passed through: a context line (fingerprint, checks, facts about the
run), then, last, the result line {"correct", "attempted", "failed",
"metrics"}. A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "seqrec-repobench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Directories that hold build output or results, never sources.
SKIP_DIRS = {".git", "target", ".bench_build", "results", "runs", "__pycache__"}


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))


def build():
    """Builds the benchmark crate; returns the binary's path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir(),
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", BINARY)


def source_digest():
    """A digest of every source file of the checkout (build output excluded)."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "shims", "benchmark"]:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run(binary, args, digest=None):
    """Runs the built benchmark with `args`; returns (exit code, stdout lines)."""
    cmd = [binary, *args, "--commit", commit(), "--source-digest", digest or source_digest()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def main():
    binary = build()
    if binary is None:
        return 1
    code, lines = run(binary, sys.argv[1:])
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
