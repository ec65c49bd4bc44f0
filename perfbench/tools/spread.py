#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs the benchmark once per seed, then prints each
metric's median and its quartile spread (Q3 - Q1, from
statistics.quantiles(values, n=4), as a share of the median) next to
the metric's bound in BENCHMARK.json.

    python3 perfbench/tools/spread.py --seeds 1-10 [--trace 0] \
        [--workloads home_steady,fleet_sweep] [--json out.json]

With --repeat N every seed runs N times, and the run fails unless the
deterministic figures (virtual-time latencies, byte and count metrics,
attempted, failed) are identical across a seed's runs.

Run from the repository root. Pass --bin to time a prebuilt binary
instead of going through cargo, and --seconds to override the run
length.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--workloads")
    ap.add_argument("--bin")
    ap.add_argument("--json")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    base = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or str(bench["run_seconds"])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    virtual = {"deliver_p50_ms", "deliver_p99_ms"}

    def fixed(doc):
        """The figures that must not drift between runs of one seed."""
        keep = {m: v["value"] for m, v in doc["metrics"].items()
                if m in virtual or units.get(m) in ("B", "count")}
        return keep, doc["attempted"], doc["failed"]

    results = {}
    ok = True
    for w in names:
        runs = []
        for s in seeds(args.seeds):
            first = None
            for _ in range(args.repeat):
                cmd = base + ["--workload", w, "--seed", str(s),
                              "--seconds", seconds, "--trace", args.trace]
                out = subprocess.run(cmd, capture_output=True, text=True)
                last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
                try:
                    doc = json.loads(last)
                except json.JSONDecodeError:
                    print(f"{w} seed {s}: no result (exit {out.returncode})\n{out.stderr}")
                    ok = False
                    continue
                if out.returncode != 0 or not doc["correct"]:
                    ok = False
                if first is None:
                    first = fixed(doc)
                    runs.append(doc)
                elif fixed(doc) != first:
                    print(f"{w} seed {s}: deterministic figures drifted between runs")
                    ok = False
                print(f"{w} seed {s}: correct={doc['correct']} failed={doc['failed']}/{doc['attempted']}",
                      file=sys.stderr)
        results[w] = runs
        if len(runs) < 2:
            continue
        print(f"\n{w} ({len(runs)} runs)")
        for m in runs[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(m)
            flag = ""
            if bound is not None and m != "setup_s":
                flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"  {m:36} median {med:14.6g}  spread {spread:7.4f}  bound {bound}  {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
