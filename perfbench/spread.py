#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread (IQR / median, as statistics.quantiles(n=4)
gives the quartiles), next to the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload serve_cold --seeds 1-10
    python3 perfbench/spread.py --workload sweep --seeds 1-5 --out runs.jsonl

A spread under a third of the bound is the stability target; setup_s is
exempt from the spread check. Exits non-zero if a run fails or reports
"correct": false.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, help="defaults to run_seconds")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", help="append each result line to this JSONL file")
    ap.add_argument("--log", help="append every run's full standard output to this file")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        if args.log:
            with open(args.log, "a") as f:
                f.write(f"== seed {seed}\n{run.stdout}")
        result = json.loads(lines[-1])
        digests = [l for l in lines if l.startswith("digest ")]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {' '.join(d.split()[-1] for d in digests)}")
        ok &= result["correct"]
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"seed": seed, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<28} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        target = bounds.get(name)
        flag = ""
        if target is not None and name != "setup_s" and spread > target / 3:
            flag = "  <-- above target"
        print(f"{name:<28} {med:>12.6g} {spread:>8.4f} "
              f"{(target / 3 if target else float('nan')):>8.4f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
