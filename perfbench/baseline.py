"""Run every workload on several seeds and print the baseline tables.

    python3 perfbench/baseline.py --seeds 1-10 [--trace-seeds 1-2]

Each run is a separate `run.py` process, one after another, with the
`run_seconds` of BENCHMARK.json.  Prints, per workload, each end-to-end
metric's median and quartile spread (the distance between the first and
third quartile, as a share of the median) and, from the traced runs, the
median of every per-layer metric next to the tracing overhead: traced
`op_s` minus untraced `op_s`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--trace-seeds", type=seed_range, default=None)
    args = parser.parse_args(argv)

    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds or [])):
            for seed in seeds:
                res = run(workload, seed, bench["run_seconds"], trace)
                results.setdefault(workload, {}).setdefault(
                    trace, []).append(res)
                print(f"# {workload} seed={seed} trace={trace} "
                      f"correct={res['correct']} attempted={res['attempted']}"
                      f" failed={res['failed']}" + "".join(
                          f" {name}={m['value']:.4g}"
                          for name, m in res["metrics"].items()
                          if not trace), file=sys.stderr)

    print("| workload | metric | median | spread | runs | ops failed |")
    print("|---|---|---|---|---|---|")
    for workload, by_trace in results.items():
        runs = by_trace.get(0, [])
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(values) >= 2:
                print(f"| {workload} | {m['name']} ({m['unit']}) | "
                      f"{statistics.median(values):.4g} | "
                      f"{spread(values):.3f} | {len(values)} | "
                      f"{failed}/{attempted} |")
    traced = {w: t[1] for w, t in results.items() if t.get(1)}
    if not traced:
        return 0
    names = list(traced)
    print()
    print("| per-layer metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in bench["per_layer"]:
        cells = [statistics.median(r["metrics"][m["name"]]["value"]
                                   for r in traced[w]) for w in names]
        print(f"| {m['name']} | {m['unit']} | "
              + " | ".join(f"{c:.4g}" for c in cells) + " |")
    overhead = []
    for w in names:
        plain = statistics.median(r["metrics"]["op_s"]["value"]
                                  for r in results[w][0])
        traced_op = statistics.median(r["metrics"]["trace.op_s"]["value"]
                                      for r in traced[w])
        overhead.append(f"{traced_op - plain:+.3g}")
    print("| tracing overhead: traced op_s - untraced op_s | s | "
          + " | ".join(overhead) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
