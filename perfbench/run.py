"""beamload benchmark: one workload, one process, operations back to back.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout; the package is imported from `src/`
there, so nothing needs installing.  The operations form a closed loop
with one client: the next starts when the previous one has finished and
been checked.  A run makes a fixed number of operations, as many as fill
`--seconds` at the workload's nominal operation time (at least one), so
that the same seed always runs the same inputs, however fast the code.

The last line of standard output is the result: `--trace 0` gives the
end-to-end metrics (`setup_s`, `op_s`, `peak_rss_mb`), `--trace 1` the
per-layer metrics from wrappers around each module's functions.  Lines
before it record the environment and every operation's time and check.
See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# The operations work on 128-DOF matrices, too small for a second BLAS
# thread to help: with two, the second one only spins (process CPU time is
# twice the wall time) and every operation waits on two shared cores.
BLAS_THREADS = 1
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60


def per_layer_units():
    """Unit of each per-layer metric, as BENCHMARK.json records it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, for `setup_s`
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS threads at `BLAS_THREADS`, and at the cores this process
    may use, before numpy is imported (when OpenBLAS reads the variables)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def environment(nproc):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc,
            "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def setup_probe(workload, seed):
    """Set the workload up in this fresh process and print the monotonic
    clock, which the parent compares with the moment it started us."""
    workdir = os.path.join(RUNS, f"probe-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload.setup(seed, workdir)
        print(repr(time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args):
    """Seconds from starting a fresh process to its set-up being done."""
    start = time.monotonic()
    probe = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(probe.stdout.strip().splitlines()[-1]) - start


def run_ops(workload, seconds, tracer, setup=None):
    """Closed loop of checked operations; returns per-operation records
    and the set-up samples.  `setup`, if given, is measured SETUP_REPEATS
    times, spread over the gaps before, between and after the operations:
    the machine's speed drifts, and so the set-up samples cover the same
    stretch of time as the operations do."""
    from tracer import layer_metrics
    from workloads import Outcome
    n_ops = max(1, round(seconds / workload.nominal_op_s))
    gaps = n_ops + 1
    per_gap = [SETUP_REPEATS // gaps + (k < SETUP_REPEATS % gaps) if setup
               else 0 for k in range(gaps)]
    records, setup_samples = [], []
    for i in range(n_ops):
        setup_samples += [setup() for _ in range(per_gap[i])]
        inp = workload.make_input(i)
        start = time.perf_counter()
        error = None
        try:
            if tracer is None:
                result = workload.run(inp)
            else:
                result = tracer.run_op(workload.run, inp)
        except Exception:  # the program failed; count it, keep measuring
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        record = {"op": i, "seconds": elapsed}
        if tracer is not None:
            record["layers"] = layer_metrics(tracer)
            record["spans"] = tracer.spans
        if error is None:
            try:
                outcome = workload.check(inp, result)
            except Exception:  # outputs missing or unreadable after success
                print(traceback.format_exc(), file=sys.stderr)
                outcome = Outcome(False, wrong=True,
                                  detail="outputs could not be checked")
        else:
            print(error, file=sys.stderr)
            outcome = Outcome(False, detail=error.strip().splitlines()[-1])
        record.update(passed=outcome.passed, wrong=outcome.wrong,
                      detail=outcome.detail)
        records.append(record)
    setup_samples += [setup() for _ in range(per_gap[n_ops])]
    return records, setup_samples


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beamload", "__init__.py")):
        print(f"benchmark: no beamload sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(WORKLOADS[args.workload](), args.seed)
        return 0

    workdir = os.path.join(RUNS, f"{args.workload}-s{args.seed}"
                                 f"-t{args.trace}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir)
    from tracer import Tracer
    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        records, setup_samples = run_ops(
            workload, args.seconds, tracer,
            None if args.trace else lambda: measure_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    times = [r["seconds"] for r in records]
    failed = sum(not r["passed"] for r in records)
    print(json.dumps({"env": environment(nproc)}))
    for r in records:
        print(json.dumps({k: r[k] for k in ("op", "seconds", "passed",
                                             "wrong", "detail")}))
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in records)
                  for name in records[0]["layers"]}
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
        # spans stay in memory until the run is over
        with open(os.path.join(workdir, "spans.jsonl"), "w") as fh:
            for r in records:
                for span in r["spans"]:
                    fh.write(json.dumps([r["op"]] + span) + "\n")
    else:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_samples_s": setup_samples}))
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "op_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"samples": len(times), "failed_ops": [
        r["op"] for r in records if not r["passed"]]}))
    print(json.dumps({"correct": not any(r["wrong"] for r in records),
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
