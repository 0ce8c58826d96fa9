#!/usr/bin/env python3
"""Measures a baseline: every workload over several seeds (untraced), plus
one traced run per workload, and writes medians and quartile spreads.

    python3 perfbench/baseline.py [--seeds 1,2,...,10] [--seconds 20]
                                  [--workloads a,b] [--out perfbench/baseline.json]

Run from the root of a checkout. The spread of a metric is
(Q3 - Q1) / median over its per-seed values, with the quartiles that
Python's statistics.quantiles(values, n=4) gives.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stdout.write(p.stdout)
        sys.exit(f"{workload} seed {seed} exited with {p.returncode}")
    result = json.loads(p.stdout.rstrip("\n").split("\n")[-1])
    with open(os.path.join(".bench_out", workload + ".result.json")) as f:
        return result, json.load(f)


def summary(values):
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    doc = {"host": {"machine": platform.machine(), "nproc": os.cpu_count()},
           "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in workloads:
        e2e, named = {}, {}
        for seed in seeds:
            result, full = run(w, seed, seconds, 0)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: outputs did not match")
            for k, v in result["metrics"].items():
                e2e.setdefault(k, []).append(v["value"])
            for m in full["workload_metrics"]:
                named.setdefault(m["name"], []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        result, _ = run(w, seeds[0], seconds, 1)
        doc["workloads"][w] = {
            "end_to_end": {k: summary(v) for k, v in e2e.items()},
            "workload_metrics": {k: summary(v) for k, v in named.items()},
            "per_layer_traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
        for k, s in doc["workloads"][w]["end_to_end"].items():
            print(f"  {k:14s} median {s['median']:.5g}  spread {s.get('spread', 0):.3f}"
                  f"  bound {bounds[k]}", flush=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
