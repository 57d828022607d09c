#!/usr/bin/env python3
"""Exact-count self-check: runs each workload's traced run twice with the
same seed and compares the counts it reports. It also prints each run's layer
coverage and tracing overhead.

    python3 benchmark/exact_counts.py [--seed 7] [--workloads ...]

A count listed in EXACT must repeat bit for bit; the script exits 1 if one
does not. The others are printed as well, marked "not exact", so that no
later change cites them as counts.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNTS = [
    "tensor.gemm_flops_per_op",
    "tensor.gemm_calls_per_op",
    "tensor.tape_nodes_per_op",
    "proc.minflt_per_op",
    "serve.cache_hits",
    "serve.cache_misses",
]

# The counts that repeat exactly across same-seed runs, per workload. The
# others are timing-dependent: serve-open gemm calls, tape nodes and faults
# per request depend on how many requests the server's batch window happened
# to coalesce (the rows, and so the flops, do not).
EXACT = {
    "train-cl4srec": COUNTS,
    "eval-catalog": COUNTS,
    "serve-open": ["tensor.gemm_flops_per_op", "serve.cache_hits", "serve.cache_misses"],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", default=",".join(EXACT))
    a = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        seconds = a.seconds or json.load(f)["run_seconds"]

    binary = run.build()
    if binary is None:
        return 1
    digest = run.source_digest()
    broken = []
    for w in a.workloads.split(","):
        results = []
        for _ in range(2):
            args = ["--workload", w, "--seed", str(a.seed), "--seconds", str(seconds), "--trace", "1"]
            code, lines = run.run(binary, args, digest)
            if code != 0 or not lines:
                print(f"{w}: run failed with exit {code}")
                return 1
            results.append(json.loads(lines[-1])["metrics"])
        for name in COUNTS:
            x, y = (r[name]["value"] for r in results)
            exact = x == y
            expected = name in EXACT.get(w, [])
            verdict = "exact" if exact else "not exact"
            if expected and not exact:
                verdict += "  <-- listed as exact"
                broken.append(f"{w} {name}")
            print(f"{w:15} {name:26} {x!r:>24} {y!r:>24}  {verdict}")
        for name in ["bench.coverage_pct", "bench.trace_overhead_pct"]:
            x, y = (r[name]["value"] for r in results)
            print(f"{w:15} {name:26} {x:>24.2f} {y:>24.2f}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
