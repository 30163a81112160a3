#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds per workload and
print, for each end-to-end metric, the interquartile spread of its
values as a share of their median, next to the metric's bound, as the
markdown tables of STEADINESS.md.  Progress goes to standard error.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...]

Run from the repository root.  Seeds are 1..runs (offset by --first-seed).
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values, units, results = {}, {}, []
        seeds = range(args.first_seed, args.first_seed + args.runs)
        for seed in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}",
                      file=sys.stderr)
                ok = False
                continue
            res = json.loads(last)
            results.append(res)
            if not res["correct"]:
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            values_line = " ".join(f"{n}={m['value']:.6g}" for n, m in res["metrics"].items())
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {values_line}", file=sys.stderr, flush=True)
        print(f"### {w}\n\n{len(results)} runs, seeds {seeds.start}–{seeds.stop - 1}, "
              f"all correct: {all(r['correct'] for r in results)}, failed ops: "
              f"{sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)}.\n")
        print("| metric | median | spread (IQR / median) | bound | spread / bound |")
        print("|---|---|---|---|---|")
        for name, bound in bounds.items():
            vs = values.get(name, [])
            if len(vs) < 2:
                print(f"| `{name}` | — | — | {bound} | — |")
                continue
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            print(f"| `{name}` | {med:.6g} {units[name]} | {spread:.4f} | {bound} | "
                  f"{spread / bound:.2f} |")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
