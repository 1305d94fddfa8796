"""Set-up, the measured loop and result assembly for one workload run.

Imported by run.py after it has fixed the thread environment, so NumPy and
binauralkit load here under those settings.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import platform
import resource
import shutil
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter, process_time

import numpy as np
import scipy

import binauralkit.cli
import tracer as tracing
from workloads import WORKLOADS

SETUP_REPEATS = 5
CONSISTENCY_TOLERANCE = 0.05
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
OVERHEAD_UNIT = "ratio"


@dataclass
class Iteration:
    call_walls: list
    cpu: float
    attempted: int
    failed: int
    problems: list
    layers: dict = field(default_factory=dict)
    consistency: float = None

    @property
    def wall(self):
        return sum(self.call_walls)


def call_cli(argv):
    """One in-process CLI call, its output discarded. Returns (exit code,
    wall seconds, CPU seconds). The name is looked up at call time so a
    traced run goes through the wrapper."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cpu0 = process_time()
        t0 = perf_counter()
        code = binauralkit.cli.main(argv)
        t1 = perf_counter()
        cpu1 = process_time()
    return code, t1 - t0, cpu1 - cpu0


def set_up(cls, work_root, seed, smoke):
    """Generate the inputs and warm up on a tiny copy of the workload,
    SETUP_REPEATS times; keep the last set and report the median time."""
    times = []
    for k in range(SETUP_REPEATS):
        root = os.path.join(work_root, f"setup{k}")
        t0 = perf_counter()
        os.makedirs(os.path.join(root, "warm"))
        workload = cls(root, seed, smoke)
        warm = cls(os.path.join(root, "warm"), seed, True)
        for argv in warm.iteration():
            call_cli(argv)
        times.append(perf_counter() - t0)
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(root)
    return workload, median(times)


def measure(workload, budget, tracer=None):
    """Repeat the workload's calls until another iteration would overrun
    the budget (at least one iteration). With a tracer, iterations alternate
    untraced and traced, so a drift in machine speed hits both alike.

    A single-threaded workload moves to the next CPU every second iteration:
    each CPU's speed drifts on its own on a shared host, and spreading the
    iterations keeps one slow CPU from setting the median."""
    cpus = sorted(os.sched_getaffinity(0))
    single = int(os.environ["SV2A_THREADS"]) == 1
    iterations = []
    start = perf_counter()
    try:
        while True:
            if single:
                os.sched_setaffinity(0, {cpus[len(iterations) // 2 % len(cpus)]})
            it = _iteration(workload, tracer if len(iterations) % 2 else None)
            iterations.append(it)
            over = perf_counter() - start + it.wall > budget
            if over and (tracer is None or len(iterations) % 2 == 0):  # end on a traced one
                return iterations
    finally:
        os.sched_setaffinity(0, cpus)


def _iteration(workload, tracer):
    """One iteration of the workload's calls, traced when a tracer is given."""
    gc.collect()
    codes, walls, cpu = [], [], 0.0
    if tracer is not None:
        tracer.install()
    try:
        for argv in workload.iteration():
            code, wall, cpu_s = call_cli(argv)
            codes.append(code)
            walls.append(wall)
            cpu += cpu_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    it = Iteration(walls, cpu, *workload.check_iteration(codes))
    if tracer is not None:
        spans, counters = tracer.drain()
        it.layers, it.consistency = tracing.summarize(spans, counters, it.wall)
    return it


def _spread(values, unit):
    return f"median of {len(values)}, min {min(values):.4g} {unit}, max {max(values):.4g} {unit}"


def _throughput_lines(name, workload, iterations):
    """Workload-specific throughput figures: work done over the wall time of
    the calls that did it, median over iterations."""
    lines = []
    for key, unit, amount, call in workload.throughput:
        per_it = [amount / (it.wall if call is None else it.call_walls[call]) for it in iterations]
        lines.append(f"{name} {key} {median(per_it):.4f} {unit} ({_spread(per_it, unit)})")
    return lines


def run(args, work_root):
    cls = WORKLOADS[args.workload]
    os.makedirs(work_root)
    workload, setup_s = set_up(cls, work_root, args.seed, args.smoke)

    tracer = tracing.Tracer() if args.trace else None
    iterations = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = perf_counter()
    wrong, problems = workload.check_outputs()
    check_s = perf_counter() - t0
    problems += [p for it in iterations for p in it.problems]
    attempted = sum(it.attempted for it in iterations)
    failed = wrong + sum(it.failed for it in iterations)

    report = []
    name = args.workload
    if args.trace:
        metrics, lines, trace_problems = _per_layer(iterations[0::2], iterations[1::2], tracer)
        problems += trace_problems
        report += [f"{name} {line}" for line in lines]
    else:
        walls = [it.wall for it in iterations]
        cpus = [it.cpu for it in iterations]
        values = {"wall_s": median(walls), "cpu_s": median(cpus), "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        report.append(f"{name} wall_s {values['wall_s']:.4f} s ({_spread(walls, 's')})")
        report.append(f"{name} cpu_s {values['cpu_s']:.4f} s ({_spread(cpus, 's')})")
        report.append(f"{name} peak_rss_mb {peak_rss_mb:.1f} MB")
        report.append(f"{name} setup_s {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups)")
        report += _throughput_lines(name, workload, iterations)
    report.append(f"{name} failed_frac {failed / attempted:.4g} ({failed} of {attempted} operations)")
    report.append(f"{name} output checks {'passed' if not problems else 'FAILED'} ({check_s:.2f} s, outside the timed loop)")
    report += [f"{name} problem: {p}" for p in problems[:20]]

    meta = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "iterations": len(iterations),
        "iteration_walls_s": [round(it.wall, 4) for it in iterations],
        "work_per_iteration": {k: v for k, _, v, _ in workload.throughput},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report, meta


def _per_layer(plain, traced, tracer):
    """Median per-layer metrics over the traced iterations, the tracing
    overhead against the untraced ones, and the consistency checks."""
    problems = []
    keys = list(tracing.METRIC_UNITS)
    metrics = {}
    for key in keys:
        value = median([it.layers[key] for it in traced])
        metrics[key] = {"value": value, "unit": tracing.METRIC_UNITS[key]}
    calls = [tuple(it.layers[k] for k in keys if k.endswith(".calls")) for it in traced]
    if len(set(calls)) != 1:
        problems.append("wrapped-function call counts differ between iterations of the same inputs")
    for it in traced:
        if abs(it.consistency - 1.0) > CONSISTENCY_TOLERANCE:
            problems.append(f"span self times add up to {it.consistency:.3f} of the traced wall time")
    overhead = median([it.wall for it in traced]) / median([it.wall for it in plain]) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": OVERHEAD_UNIT}
    consistency = median([it.consistency for it in traced])

    lines = [
        f"trace.overhead_frac {overhead:+.4f} (traced vs untraced median wall, {len(traced)} vs {len(plain)} iterations)",
        f"trace.self_sum_frac {consistency:.4f} (span self times less pool overlap, over traced wall)",
    ]
    if tracer.missing:
        lines.append("targets not found (reported as 0): " + ", ".join(tracer.missing))
    active = [k for k in keys if k.endswith(".self_s") and metrics[k[: -len("self_s")] + "calls"]["value"] > 0]
    for key in sorted(active, key=lambda k: -metrics[k]["value"]):
        base = key[: -len(".self_s")]
        lines.append(
            f"{base}: calls {metrics[base + '.calls']['value']:.0f}, "
            f"busy {metrics[base + '.busy_s']['value']:.4f} s, self {metrics[key]['value']:.4f} s"
        )
    for key in keys:
        if not key.endswith((".calls", ".busy_s", ".self_s")):
            lines.append(f"{key} {metrics[key]['value']:.6g} {metrics[key]['unit']}")
    return metrics, lines, problems
