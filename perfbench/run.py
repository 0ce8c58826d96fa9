#!/usr/bin/env python3
"""Benchmark entry point: builds the harness from the checkout's sources,
runs one workload and prints its result object as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traces and
layer tables go to .bench_out/. The metrics, their units and the workloads
come from BENCHMARK.json; the workload parameters are constants of the
harness sources (perfbench/src).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (configure,
                    ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    exe = build(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--out={out_dir}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        measured = {k: v["value"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode} and no result")

    # Every end-to-end metric must be measured; a per-layer metric of a
    # module the workload does not exercise reads 0.
    if args.trace:
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            sys.stdout.write(proc.stdout)
            fail(f"{args.workload} did not measure {missing}")
    result["metrics"] = {m["name"]: {"value": measured.get(m["name"], 0),
                                     "unit": m["unit"]} for m in declared}

    # The simulated cycle counts of a traced run repeat exactly, so a
    # difference from the baseline is a change of the program, not of the
    # host: say so.
    try:
        with open(os.path.join(HERE, "baseline.json")) as f:
            base = json.load(f)["workloads"][args.workload]["per_layer"]
    except (OSError, ValueError, KeyError):
        base = {}
    for name in ("sim.cycles_gemm", "sim.cycles_winograd"):
        if base.get(name) and name in measured and measured[name] != base[name]:
            print(f"perfbench: {name} is {measured[name]:.0f}, "
                  f"{base[name]:.0f} in baseline.json", file=sys.stderr)

    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
