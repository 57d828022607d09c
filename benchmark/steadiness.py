#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly, each time with another
seed, and prints for every end-to-end metric its median, quartiles, min/max
and spread, (q3 - q1) / median, against the bound in BENCHMARK.json.

    python3 benchmark/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads train-cl4srec,eval-catalog,serve-open] [--seconds S]

Runs of different workloads are interleaved, so slow drift on the host
spreads over all of them. Quartiles are Python's
statistics.quantiles(values, n=4). A metric whose spread exceeds its bound
is flagged OVER, setup_s included; one above a third of its bound is
flagged "noisy". Raw result lines are appended to
benchmark/results/steadiness.jsonl. Exits 1 when a run is incorrect, an op
failed, or a spread is over its bound.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = ap.parse_args()
    workloads = a.workloads.split(",")

    binary = run.build()
    if binary is None:
        return 1
    digest = run.source_digest()
    os.makedirs(os.path.join(run.HERE, "results"), exist_ok=True)
    log = open(os.path.join(run.HERE, "results", "steadiness.jsonl"), "a")
    values = {w: {} for w in workloads}
    bad = []
    for i in range(a.runs):
        seed = a.first_seed + i
        for w in workloads:
            args = ["--workload", w, "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"]
            code, lines = run.run(binary, args, digest)
            if code != 0 or not lines:
                bad.append(f"{w} seed {seed}: exit {code}")
                continue
            result = json.loads(lines[-1])
            log.write(json.dumps({"workload": w, "seed": seed, "lines": lines}) + "\n")
            log.flush()
            if not result["correct"] or result["failed"]:
                bad.append(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"# {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    over = []
    print(f"\n{'workload':15} {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for m in spec["end_to_end"]:
            vs = values[w].get(m["name"], [])
            if len(vs) < 2:
                print(f"{w:15} {m['name']:18} (fewer than two values)")
                continue
            q1, med, q3, s = spread(vs)
            flag = ""
            if s > m["bound"]:
                flag = "OVER"
                over.append(f"{w} {m['name']}")
            elif s > m["bound"] / 3:
                flag = "noisy"
            print(f"{w:15} {m['name']:18} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vs):12.6g} "
                  f"{max(vs):12.6g} {s:8.4f} {m['bound']:6.3f} {flag}")
    for b in bad:
        print("FAILED RUN:", b)
    for o in over:
        print("SPREAD OVER BOUND:", o)
    return 1 if bad or over else 0


if __name__ == "__main__":
    sys.exit(main())
