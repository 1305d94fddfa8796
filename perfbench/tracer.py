"""Per-layer tracing of binauralkit from outside the package.

`Tracer.install()` replaces each target function with a timing wrapper at
every place its name is bound inside the package (the defining module, the
modules that imported it, the package namespace), and `uninstall()` puts
the originals back. A wrapper records one span per call: id, parent id,
name, start and end. Parents come from a per-thread stack; the pipeline's
thread pool is swapped for one that hands the submitting span to its
workers, so spans in pool threads nest under the call that fanned them out.
Direct children of a pool call also record their thread's CPU time, which
is what `parallelism` counts: a worker waiting for the interpreter lock is
busy by the clock but not by the CPU.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

PACKAGE = "binauralkit"

TARGETS = {
    "audio": ("read_wav", "write_wav", "fft_convolve", "stft", "frame_rms"),
    "ambisonic": (
        "encode_mono",
        "decode_matrix",
        "project_to_speakers",
        "Trajectory.direction_at",
        "load_trajectory_csv",
    ),
    "hrir": ("lookup",),
    "render": ("render_trajectory", "direction_from_features"),
    "metrics": ("spatial_report", "iacc", "ild", "itd", "isd", "ipd"),
    "heatmap": ("load_heatmap_sequence", "extract_features"),
    "flow": (
        "train",
        "cfm_loss",
        "backward",
        "AdamState.update",
        "VelocityFieldNet.forward",
        "sample_euler",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "pipeline": (
        "load_manifest",
        "preprocess",
        "silence_fraction",
        "clip_trajectory",
        "batch_render",
        "batch_metrics",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TARGETS.items() for name in names)
POOL_SPANS = ("pipeline.batch_render", "pipeline.batch_metrics")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _fft_points(args, kwargs):
    """FFT size the convolution of these inputs needs: the next power of two
    at or above the full linear-convolution length."""
    signal = _arg(args, kwargs, 0, "signal")
    kernel = _arg(args, kwargs, 1, "kernel")
    n_out = len(getattr(signal, "samples", signal)) + len(kernel) - 1
    return 1 << (max(n_out, 1) - 1).bit_length()


# counter name -> (span it belongs to, function of the call's arguments)
COUNTERS = {
    "audio.fft_convolve.fft_points": ("audio.fft_convolve", _fft_points),
    "audio.read_wav.bytes": ("audio.read_wav", _file_size),
    "audio.write_wav.bytes": ("audio.write_wav", _file_size),
    "heatmap.load_heatmap_sequence.bytes": ("heatmap.load_heatmap_sequence", _file_size),
}

METRIC_UNITS = {}
for _span in SPAN_NAMES:
    METRIC_UNITS[f"{_span}.calls"] = "count"
    METRIC_UNITS[f"{_span}.busy_s"] = "s"
    METRIC_UNITS[f"{_span}.self_s"] = "s"
for _counter in COUNTERS:
    METRIC_UNITS[_counter] = "count" if _counter.endswith("fft_points") else "B"
for _pool in POOL_SPANS:
    METRIC_UNITS[f"{_pool}.parallelism"] = "ratio"


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)
        self.spans = []  # (id, parent id or None, name, start, end, CPU s or None)
        self._pool_ids = set()
        self.counters = defaultdict(int)
        self.missing = []

    # ------------------------------------------------------------- recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter=None):
        tracer = self
        pool = name in POOL_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            if pool:
                tracer._pool_ids.add(span_id)
            cpu = thread_time() if parent in tracer._pool_ids else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if cpu is not None:
                    cpu = thread_time() - cpu
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, cpu))
            if counter is not None:
                counter_name, count = counter
                try:
                    value = count(args, kwargs)
                except (TypeError, KeyError, OSError):
                    value = 0  # the call no longer has the shape counted here
                with tracer._lock:
                    tracer.counters[counter_name] += value
            return result

        return traced

    def _executor(self, base):
        tracer = self

        class SpanPropagatingExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run():
                    worker_stack = tracer._stack()
                    worker_stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        worker_stack.pop()

                return super().submit(run)

        return SpanPropagatingExecutor

    def drain(self):
        """Spans and counters recorded since the last drain."""
        with self._lock:
            spans, self.spans = self.spans, []
            counters, self.counters = dict(self.counters), defaultdict(int)
            self._pool_ids = set()
        return spans, counters

    # ------------------------------------------------------------- patching

    def install(self):
        self.missing = []
        found = {}
        for module_name in TARGETS:
            try:
                found[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                found[module_name] = None
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        counters_by_span = {span: (name, fn) for name, (span, fn) in COUNTERS.items()}
        for module_name, names in TARGETS.items():
            module = found[module_name]
            for name in names:
                span = f"{module_name}.{name}"
                owner, attr = module, name
                if "." in name:
                    class_name, attr = name.split(".")
                    owner = getattr(module, class_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(span)
                    continue
                wrapped = self._wrap(span, original, counters_by_span.get(span))
                owners = [owner] if owner is not module else modules
                for target in owners:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            self._patches.append((target, key, value))
                            setattr(target, key, wrapped)
        pool = concurrent.futures.ThreadPoolExecutor
        propagating = self._executor(pool)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is pool:
                    self._patches.append((module, key, value))
                    setattr(module, key, propagating)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans, counters, wall_s):
    """Per-layer metrics of one traced iteration, plus the consistency sum.

    self_s of a span is its duration minus the part of it that its child
    spans cover; busy_s is the full duration. With pool workers, children
    can overlap one another, so the self times add up to the wall time plus
    that overlap. parallelism is the CPU time of a pool call's children over
    the pool call's wall time.
    """
    children = defaultdict(list)
    for span_id, parent, name, start, end, cpu in spans:
        children[parent].append((start, end, cpu))
    metrics = {key: 0.0 for key in METRIC_UNITS}
    pool_cpu = defaultdict(float)
    self_total = overlap = 0.0
    for span_id, parent, name, start, end, cpu in spans:
        kids = children.get(span_id, ())
        covered = _covered([(s, e) for s, e, _ in kids], start, end)
        child_busy = sum(min(e, end) - max(s, start) for s, e, _ in kids)
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.busy_s"] += end - start
        metrics[f"{name}.self_s"] += (end - start) - covered
        self_total += (end - start) - covered
        overlap += child_busy - covered
        if name in POOL_SPANS:
            pool_cpu[name] += sum(c for _, _, c in kids)
    for name in POOL_SPANS:
        wall = metrics[f"{name}.busy_s"]
        metrics[f"{name}.parallelism"] = pool_cpu[name] / wall if wall > 0 else 0.0
    metrics.update(counters)
    consistency = (self_total - overlap) / wall_s if wall_s > 0 else 0.0
    return metrics, consistency
