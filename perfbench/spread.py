#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload serve-open --seeds 1-10 [--seconds 30] [--trace 0]

Runs perfbench/run.sh once per seed from the repository root and prints, for
every metric, the median, the quartiles and their distance as a share of the
median (the spread), next to a third of the metric's bound in BENCHMARK.json.
Each run's result line and its note and problem lines are appended to
.bench_build/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(f".bench_build/spread-{a.workload}.jsonl", "a")
    values, bad = {}, 0
    for seed in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(a.trace)]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
            bad += 1
            continue
        res = json.loads(lines[-1])
        notes = [l for l in lines if l.startswith(("note", "problem"))]
        log.write(json.dumps({"seed": seed, "result": res, "notes": notes}) + "\n")
        log.flush()
        if not res["correct"] or res["failed"]:
            bad += 1
            print(f"seed {seed}: incorrect run", *[l for l in lines if l.startswith("problem")], sep="\n  ")
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
    for k, vs in sorted(values.items()):
        if len(vs) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        sp = (q3 - q1) / abs(med) if med else float("inf")
        b = bounds.get(k)
        print(f"{k:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.4f} {b / 3 if b else float('nan'):8.4f}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
