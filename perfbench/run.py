"""relcover benchmark: one workload per run, one closed-loop caller.

    python3 perfbench/run.py --workload eval-shared --seed 1 --seconds 30 --trace 0

Draws the workload's systems from the seed, writes them as instance files
under perfbench/work/, computes an exact reference for each with the
benchmark's own code, then calls relcover's public functions on the files in
a closed loop (each evaluation starts when the previous one returned) for
--seconds.  Every result is checked against its reference.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same loop with a
span around every public call, alternating with untraced evaluations of the
same instance to measure the tracing overhead, then probes further calls and
prints the per-layer metrics.  The last line of stdout is one JSON object;
the lines before it and a result file under perfbench/work/results/ give
the same figures with the environment and the workload's draw.

relcover is imported from src/ next to this directory; without it the run
exits with a nonzero status before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import NoTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
# Set-up is timed this many times before the loop and as many after it, so
# that its median spans the run rather than one moment of a noisy machine.
SETUP_REPEATS = 4

# A fresh interpreter importing relcover and loading and validating every
# instance file of the workload: what a command-line call pays up front.
SETUP_CODE = """
import sys, pathlib
sys.path.insert(0, sys.argv[1])
import relcover
for path in sorted(pathlib.Path(sys.argv[2]).glob("*.json")):
    if not relcover.validate_system(relcover.load_system(path)).ok:
        sys.exit(f"{path}: invalid")
"""


def import_relcover() -> None:
    if not (SRC / "relcover" / "__init__.py").is_file():
        sys.exit(f"error: no relcover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relcover

    if Path(relcover.__file__).resolve().parent != SRC / "relcover":
        sys.exit(f"error: relcover was imported from {relcover.__file__}, not {SRC}")


def environment() -> dict:
    import networkx
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cpu": cpu,
    }


def setup_seconds(directory: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(directory)], check=True, timeout=120
        )
        times.append(time.perf_counter() - start)
    return times


class Checker:
    """Runs evaluations and keeps count of attempts, failures and errors."""

    def __init__(self, tolerance: float) -> None:
        self.tolerance = tolerance
        self.attempted = 0
        self.failures: list[str] = []
        self.abs_err_max = 0.0

    def run(self, evaluate, inst, tracer, exact: bool = False) -> float:
        """Wall time of one evaluation, the check included.  With `exact` the
        error against the exact reference is taken after the clock stops."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            checks = evaluate(inst, tracer)
            error = max((abs(got - inst.refs[name][1]) for got, name in checks), default=0.0)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failures.append(f"{inst.path.name}: {traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start
        if error > self.tolerance:
            self.failures.append(f"{inst.path.name}: off by {error:.3g}")
        if exact:
            for got, name in checks:
                exact_error = abs(Fraction(got) - inst.refs[name][0])
                self.abs_err_max = max(self.abs_err_max, float(exact_error))
        return elapsed


def untraced(instances, seconds: float, checker: Checker) -> tuple[list[float], float]:
    import workloads

    tracer = NoTracer()
    times: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        times.append(checker.run(workloads.evaluate_system, instances[len(times) % len(instances)], tracer))
    return times, time.perf_counter() - start


def traced(workload, instances, references, seconds: float, checker: Checker, tracer: Tracer) -> dict:
    """Pairs of one untraced and one traced evaluation of the same instance
    for `seconds`, then the probes."""
    import workloads

    def traced_evaluate(inst, spans):
        return spans.call("eval", workloads.evaluate_system, inst, spans)

    plain: list[float] = []
    spanned: list[float] = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        inst = instances[i % len(instances)]
        tracer.eval_id = i
        # Alternate which of the pair goes first: the second finds warm caches.
        if i % 2:
            spanned.append(checker.run(traced_evaluate, inst, tracer, exact=True))
        plain.append(checker.run(workloads.evaluate_system, inst, NoTracer()))
        if not i % 2:
            spanned.append(checker.run(traced_evaluate, inst, tracer, exact=True))
        i += 1
    for inst in instances[: workload.probes]:
        tracer.eval_id = i
        checker.run(workloads.probe, inst, tracer, exact=True)
        i += 1
    tracer.eval_id = -1
    for inst in references:
        checker.run(workloads.reference_probe, inst, tracer)
    metrics = layer_metrics(tracer, checker)
    metrics["trace.overhead_frac"] = (statistics.median(spanned) / statistics.median(plain) - 1, "ratio")
    return metrics


def layer_metrics(tracer: Tracer, checker: Checker) -> dict:
    """Per-layer figures.  A layer the workload's own calls never reach is
    measured on the door fixtures of the reference probe instead."""
    self_times = tracer.self_times()

    def pick(pairs: list[tuple[int, float]]) -> list[float]:
        """Values keyed by an id; ids below 0 come from the reference probe."""
        own = [v for key, v in pairs if key >= 0]
        return own or [v for key, v in pairs if key < 0]

    def seconds(span: str) -> float:
        return statistics.median(pick(self_times.get(span, [])))

    def counts(name: str) -> list[float]:
        return pick([(i, c[name]) for i, c in tracer.counters.items() if name in c])

    def total(name: str, per: str) -> tuple[float, float]:
        both = [c for i, c in tracer.counters.items() if i >= 0 and name in c and per in c]
        return sum(c[name] for c in both), sum(c[per] for c in both)

    distinct, terms = total("distinct_products", "terms_nominal")
    nonzero, probed_terms = total("nonzero_coefficients", "terms_nominal")
    return {
        "system.load_s": (seconds("system.load_system"), "s"),
        "system.validate_s": (seconds("system.validate_system"), "s"),
        "combinatorics.terms_nominal": (statistics.mean(counts("terms_nominal")), "count"),
        "evaluate.simplified_s": (seconds("evaluate.reliability_simplified"), "s"),
        "evaluate.classical_s": (seconds("evaluate.reliability_classical"), "s"),
        "evaluate.distinct_products": (statistics.mean(counts("distinct_products")), "count"),
        "evaluate.product_cache_hit_ratio": (1 - distinct / terms, "ratio"),
        "evaluate.nonzero_coefficients": (statistics.mean(counts("nonzero_coefficients")), "count"),
        "evaluate.useful_term_ratio": (nonzero / probed_terms, "ratio"),
        "evaluate.term_stream_s": (seconds("evaluate.term_stream"), "s"),
        "evaluate.aggregate_s": (seconds("evaluate.aggregate_terms"), "s"),
        "evaluate.cancellation_ratio": (statistics.median(counts("cancellation_ratio")), "ratio"),
        "evaluate.abs_err_max": (checker.abs_err_max, "1"),
        "bounds.pairwise_sums_s": (seconds("bounds.bound_summary"), "s"),
        "bounds.exact_union_s": (seconds("bounds.exact_union_probability"), "s"),
        "network.minimal_paths_s": (seconds("network.minimal_paths"), "s"),
        "network.minimal_sets": (statistics.mean(counts("minimal_sets")), "count"),
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_relcover()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    missing = [n for n in workloads.DOOR_FIXTURES if not (workloads.FIXTURES / n).is_file()]
    if missing:
        sys.exit(f"error: door fixtures missing under {workloads.FIXTURES}: {missing}")
    workload = workloads.WORKLOADS[args.workload]

    draw = workload.draw(random.Random(f"{workload.name}:{args.seed}"), f"{workload.name}-seed{args.seed}")
    base = WORK / workload.name
    instances = workloads.prepare(draw.systems, base / "instances")
    references = workloads.prepare(workloads.door_fixtures(), base / "reference", first_id=-2)

    checker = Checker(workloads.TOLERANCE)
    extra = {}
    samples = {}
    if args.trace:
        tracer = Tracer()
        metrics = traced(workload, instances, references, args.seconds, checker, tracer)
        trace_file = WORK / "traces" / f"{workload.name}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"spans": tracer.dump(), "counters": tracer.counters}))
    else:
        setup = setup_seconds(base / "instances")
        times, elapsed = untraced(instances, args.seconds, checker)
        setup += setup_seconds(base / "instances")
        metrics = {
            "eval_s": (statistics.median(times), "s"),
            "evals_per_s": (len(times) / elapsed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        samples = {"setup_s": setup, "eval_s_quartiles": [min(times), *quartiles(times), max(times)]}
        # A tail percentile only where at least ten samples lie beyond it.
        if len(times) >= 1000:
            extra["eval_s.p99"] = (statistics.quantiles(times, n=100)[98], "s")
    extra["failed_frac"] = (len(checker.failures) / checker.attempted, "1")

    for message in checker.failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    report = {name: {"value": v, "unit": u} for name, (v, u) in {**metrics, **extra}.items()}
    for name, entry in report.items():
        print(f"{workload.name:<20} {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{workload.name:<20} {'attempted':<34} {checker.attempted:>14d}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "draw": workloads.describe(draw),
        "attempted": checker.attempted,
        "metrics": report,
        "samples": samples,
        "failures": checker.failures,
    }
    result_file = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps(record, indent=2) + "\n")
    print(
        json.dumps(
            {
                "correct": not checker.failures,
                "attempted": checker.attempted,
                "failed": len(checker.failures),
                "metrics": {name: report[name] for name in metrics},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
