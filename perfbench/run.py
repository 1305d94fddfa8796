"""binauralkit benchmark: drives the CLI in-process over seeded inputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload render_long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run generates its inputs from the seed, warms up, then repeats the
workload's CLI calls until the time budget is spent and reports medians over
those iterations. `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced iterations with iterations that have every layer
wrapped, and reports the per-layer metrics and the tracing overhead. Outputs are checked
after the timed interval; a failed check makes the run exit non-zero. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("render_long", "metrics_many", "cfm_toy")
POOL_WORKERS = {"render_long": 1, "metrics_many": 2, "cfm_toy": 1}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="time budget of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def configure_environment(workload):
    """Pool workers and BLAS threads, fixed before NumPy loads. Workers x
    BLAS threads never exceeds the usable CPUs."""
    cpus = len(os.sched_getaffinity(0))
    os.environ["SV2A_THREADS"] = str(max(1, min(POOL_WORKERS[workload], cpus)))
    for var in BLAS_VARS:
        os.environ[var] = "1"


def git_commit(root):
    """HEAD commit from the .git directory, or "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_line_count():
    package = os.path.join(SRC, "binauralkit")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------- one workload

def run_workload(args):
    if not os.path.isdir(os.path.join(SRC, "binauralkit")):
        print(f"error: no binauralkit sources under {SRC}", file=sys.stderr)
        return 2
    configure_environment(args.workload)
    sys.path.insert(0, SRC)
    import harness  # loads NumPy, so only after the environment is set

    work_root = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    try:
        result, report, meta = harness.run(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    meta.update(
        git_commit=git_commit(ROOT),
        src_lines=src_line_count(),
        sv2a_threads=int(os.environ["SV2A_THREADS"]),
        blas_threads=int(os.environ["OPENBLAS_NUM_THREADS"]),
    )
    for line in report:
        print(line)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------- all workloads

def run_all(args):
    """Each workload in its own process (peak memory is per process);
    untraced, and traced as well when --trace 1."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            argv = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name}: no result (exit code {proc.returncode})")
                combined["correct"] = False
                status = 1
                continue
            status = status or proc.returncode
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
