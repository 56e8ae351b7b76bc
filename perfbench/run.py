"""ldpopt benchmark: one workload, one closed-loop single-process run.

    python3 perfbench/run.py --workload sweep-k12 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from its
`src/` and nowhere else. Inputs are drawn from --seed. Every operation's
output is checked against computations made here (see checks.py). With
--trace 0 the run prints the end-to-end metrics. With --trace 1 it runs
every round twice, once with per-layer spans, and prints the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object with the result.
"""

import os

# One BLAS thread, set before numpy loads: every workload is a single-process
# closed loop, and BLAS threads would compete with it for the same cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A p90 needs ten samples beyond it: a run goes on past --seconds, in whole
# rounds, until it has this many successful operations.
MIN_OPS = 100
# setup_s is the median of this many imports plus input generations.
SETUP_REPEATS = 5


class Tally:
    """What one pass over the operations did."""

    def __init__(self):
        self.attempted = 0
        self.latencies_ms: list[float] = []
        self.op_seconds = 0.0
        self.failures: Counter = Counter()
        self.problems: list[str] = []

    def record(self, op, seconds: float, error: Exception | None, problems: list[str]):
        self.attempted += 1
        self.op_seconds += seconds
        if error is not None:
            self.failures[(op.fault or "unexpected", type(error).__name__)] += 1
            if op.fault is None:
                self.problems.append(f"{op.label}: {type(error).__name__}: {error}")
        elif problems:
            self.problems += [f"{op.label}: {p}" for p in problems]
        else:
            self.latencies_ms.append(seconds * 1e3)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_ops(ops, tally: Tally) -> None:
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.record(op, time.perf_counter() - start, exc, [])
            continue
        took = time.perf_counter() - start
        tally.record(op, took, None, op.check(out))


def run_for(pool, seconds: float, tracer: tracing.Tracer | None = None):
    """Whole rounds until `seconds` have passed and, for the end-to-end
    metrics, MIN_OPS operations succeeded.

    With a tracer, each round runs once untraced and once traced, each
    first in turn, so that drift in the machine's speed falls on both alike.
    Returns the untraced and the traced tallies.
    """
    untraced, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        ops = pool[n % len(pool)]
        if tracer is None or n % 2 == 0:
            run_ops(ops, untraced)
        if tracer is not None:
            with tracer:
                run_ops(ops, traced)
            if n % 2 == 1:
                run_ops(ops, untraced)
        n += 1
        if time.perf_counter() >= deadline and \
                (tracer is not None or len(untraced.latencies_ms) >= MIN_OPS):
            return untraced, traced


def import_ldpopt():
    """Import ldpopt afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "ldpopt" or m.startswith("ldpopt.")]:
        del sys.modules[name]
    ldpopt = importlib.import_module("ldpopt")
    if not Path(ldpopt.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ldpopt was imported from {ldpopt.__file__}, not from {SRC}")
    return ldpopt


def set_up(build, seed: int, workdir: str, linprog):
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ldpopt = import_ldpopt()
        pool = build(ldpopt, seed, workdir, linprog)
        times.append(time.perf_counter() - start)
    return statistics.median(times), pool


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def report_counts(name: str, tally: Tally) -> None:
    print(f"workload {name}: attempted {tally.attempted}, "
          f"succeeded {len(tally.latencies_ms)}, failed {tally.failed}")
    for (fault, cls), n in sorted(tally.failures.items()):
        print(f"  failed {n} x {cls} ({fault})")
    for p in tally.problems[:20]:
        print(f"  CHECK FAILED {p}")


def end_to_end(setup_s: float, tally: Tally) -> dict:
    p50, p90 = np.percentile(tally.latencies_ms, [50, 90])
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(tally.latencies_ms) / tally.op_seconds, "1/s"),
        "op_ms_p50": metric(p50, "ms"),
        "op_ms_p90": metric(p90, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: tracing.Tracer, traced: Tally, untraced: Tally) -> dict:
    out = {}
    for name in tracing.NAMES:
        out[f"{name}.calls"] = metric(tracer.calls[name], "count")
        out[f"{name}.self_ms"] = metric(tracer.self_s[name] * 1e3, "ms")
    p50, p90 = np.percentile(tracer.solve_ms, [50, 90])
    out["optsolve.solve.ms_p50"] = metric(p50, "ms")
    out["optsolve.solve.ms_p90"] = metric(p90, "ms")
    out["optsolve.solve.columns"] = metric(tracer.columns, "count")
    out["trace.overhead_pct"] = metric(
        100.0 * (traced.op_seconds / untraced.op_seconds - 1.0), "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ldpopt" / "__init__.py").is_file():
        print(f"error: no ldpopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    linprog = None
    if args.workload in workloads.USES_HIGHS:
        linprog = checks.import_linprog()
        print(f"scipy importable: {linprog is not None} "
              f"(HiGHS cross-check at eps <= {checks.HIGHS_MAX_EPS:g})")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s, pool = set_up(workloads.WORKLOADS[args.workload], args.seed, workdir, linprog)
        tracer = tracing.Tracer() if args.trace else None
        tally, traced = run_for(pool, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_counts(args.workload, tally)
    if args.trace:
        metrics = per_layer(tracer, traced, tally)
        print(f"the same {traced.attempted} operations took {traced.op_seconds:.3f} s "
              f"traced and {tally.op_seconds:.3f} s untraced")
    else:
        metrics = end_to_end(setup_s, tally)
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    correct = not tally.problems and not traced.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
