"""The three workloads: inputs, the CLI calls one timed iteration makes, and
the checks on what those calls produced.

A workload object is built once per run over a generated input directory.
`iteration()` lists the argv of each timed `binauralkit` call;
`check_iteration()` and `check_outputs()` run outside the timed interval;
`check_outputs()` compares the last iteration's outputs with references and
returns (operations whose output is wrong, problems).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.io import wavfile

import inputs
import reference


class RenderLong:
    """preprocess then render (float-32) over long moving-source clips."""

    name = "render_long"

    def __init__(self, root, seed, smoke):
        self.root = root
        self.seed = seed
        self.plan = inputs.make_render_inputs(
            root, seed, inputs.RENDER_SMOKE if smoke else inputs.RENDER_FULL
        )
        self.kept_manifest = os.path.join(root, "kept.json")
        self.report = os.path.join(root, "preprocess.json")
        self.out_dir = os.path.join(root, "rendered")

    @property
    def throughput(self):
        """(metric, unit, work per iteration, index of the call that does it
        or None for all calls)."""
        return [
            ("audio_s_per_s", "s/s", self.plan.audio_seconds, None),
            ("clips_per_s", "1/s", len(self.plan.kept), None),
        ]

    def iteration(self):
        return [
            [
                "preprocess",
                "--manifest", self.plan.manifest,
                "--out", self.kept_manifest,
                "--report", self.report,
                "--min-seconds", str(self.plan.min_seconds),
            ],
            ["render", "--manifest", self.kept_manifest, "--out", self.out_dir, "--encoding", "float32"],
        ]

    def check_iteration(self, codes):
        """(operations attempted, failed, problems): one operation per
        manifest entry in preprocess and one per kept clip in render."""
        problems = [f"exit code {c} from {argv[0]}" for argv, c in zip(self.iteration(), codes) if c != 0]
        with open(self.report) as fh:
            report = json.load(fh)
        with open(self.kept_manifest) as fh:
            kept = {item["id"] for item in json.load(fh)}
        failed = 0
        for clip_id in self.plan.kept:
            if clip_id not in kept:
                failed += 1
                problems.append(f"{clip_id}: expected kept, preprocess dropped it ({report['reasons'].get(clip_id)})")
        for clip_id, outcome in self.plan.rejected.items():
            reason = report["reasons"].get(clip_id)
            if clip_id in kept or reason is None:
                failed += 1
                problems.append(f"{clip_id}: expected {outcome}, it was kept")
        counts = {k: report[k] for k in ("rejected_short", "rejected_silent", "rejected_unreadable")}
        for outcome in counts:
            want = sum(1 for o in self.plan.rejected.values() if o == outcome)
            if counts[outcome] != want:
                failed += 1
                problems.append(f"preprocess {outcome} = {counts[outcome]}, planned {want}")
        for clip_id in self.plan.kept:
            if not os.path.exists(os.path.join(self.out_dir, f"{clip_id}_binaural.wav")):
                failed += 1
                problems.append(f"{clip_id}: no rendered output")
        attempted = len(self.plan.kept) + len(self.plan.rejected) + len(self.plan.kept)  # preprocess, render
        return attempted, failed, problems

    def check_outputs(self):
        """Length, finiteness and a reference segment for every rendered clip."""
        rng = np.random.default_rng([self.seed, 11])
        failed, problems = 0, []
        for clip_id, entry in self.plan.kept.items():
            rate, stored = wavfile.read(os.path.join(self.root, entry["audio"]))
            mono = stored.astype(np.float64) / 32768.0
            if "trajectory" in entry:
                az, el = reference.block_directions_from_csv(
                    os.path.join(self.root, entry["trajectory"]), len(mono), rate
                )
            else:
                az, el = reference.block_directions_from_hmap(
                    os.path.join(self.root, entry["heatmap"]), len(mono), rate
                )
            n_blocks = len(az)
            block = int(rng.integers(1, max(2, n_blocks - 4)))
            start = max(0, block * reference.BLOCK - 512)
            found = reference.check_render(
                os.path.join(self.out_dir, f"{clip_id}_binaural.wav"), mono, az, el, start, 4096, rate
            )
            failed += bool(found)
            problems += found
        return failed, problems


class MetricsMany:
    """metrics over a directory of short PCM-16 stereo clips, two workers."""

    name = "metrics_many"

    def __init__(self, root, seed, smoke):
        self.root = root
        self.seed = seed
        self.plan = inputs.make_metrics_inputs(
            root, seed, inputs.METRICS_SMOKE if smoke else inputs.METRICS_FULL
        )
        self.json_out = os.path.join(root, "metrics.json")
        self.csv_out = os.path.join(root, "aggregate.csv")

    @property
    def throughput(self):
        return [
            ("audio_s_per_s", "s/s", self.plan.audio_seconds, None),
            ("clips_per_s", "1/s", len(self.plan.stereo), None),
        ]

    def iteration(self):
        return [["metrics", self.plan.directory, "--json", self.json_out, "--csv", self.csv_out]]

    def _load(self):
        with open(self.json_out) as fh:
            return json.load(fh)

    def check_iteration(self, codes):
        """One operation per input file: a report for each stereo clip, a
        failure for each planted mono file."""
        problems = [f"metrics exit code {c}" for c in codes if c != 0]
        result = self._load()
        failed = 0
        for clip_id in self.plan.stereo:
            values = result["clips"].get(clip_id)
            if values is None or not all(math.isfinite(v) for v in values.values()):
                failed += 1
                problems.append(f"{clip_id}: missing or non-finite report {values}")
        for clip_id in self.plan.failures:
            if clip_id not in result["failures"]:
                failed += 1
                problems.append(f"{clip_id}: planted failure was not reported")
        unexpected = set(result["failures"]) - set(self.plan.failures)
        failed += len(unexpected)
        problems += [f"{c}: unexpected failure {result['failures'][c]}" for c in sorted(unexpected)]
        return len(self.plan.stereo) + len(self.plan.failures), failed, problems

    def check_outputs(self):
        """Reference metrics on a sampled gated clip and a sampled plain one;
        the aggregate CSV against the per-clip means."""
        result = self._load()
        rng = np.random.default_rng([self.seed, 12])
        plain = sorted(set(self.plan.stereo) - set(self.plan.gated))
        failed, problems = 0, []
        for clip_id in (rng.choice(self.plan.gated), rng.choice(plain)):
            left, right = self.plan.stereo[clip_id]
            found = reference.check_metrics(
                clip_id, result["clips"][clip_id], left, right, inputs.SAMPLE_RATE
            )
            failed += bool(found)
            problems += found
        aggregate = []
        with open(self.csv_out, newline="") as fh:
            for row in csv.DictReader(fh):
                values = [clip[row["metric"]] for clip in result["clips"].values()]
                mean = float(np.mean(values))
                if int(row["count"]) != len(values) or abs(float(row["mean"]) - mean) > 1e-9 * max(abs(mean), 1e-12):
                    aggregate.append(f"aggregate {row['metric']}: {row['mean']} over {row['count']}, per-clip mean {mean} over {len(values)}")
        return failed + bool(aggregate), problems + aggregate


class CfmToy:
    """cfm-train then cfm-sample at CLI defaults; only the flow layer runs."""

    name = "cfm_toy"
    target = 3.0  # the CLI's default constant target

    def __init__(self, root, seed, smoke):
        self.root = root
        self.seed = seed % 2**31
        self.sizes = inputs.FLOW_SMOKE if smoke else inputs.FLOW_FULL
        self.checkpoint = os.path.join(root, "model.ckpt")
        self.trace = os.path.join(root, "loss.csv")
        self.draws = os.path.join(root, "draws.csv")

    @property
    def throughput(self):
        return [
            ("train_steps_per_s", "1/s", self.sizes.steps, 0),
            ("sample_draws_per_s", "1/s", self.sizes.draws, 1),
        ]

    def iteration(self):
        seed = ["--seed", str(self.seed)]
        return [
            ["cfm-train", "--checkpoint", self.checkpoint, "--trace", self.trace, *seed, *self.sizes.train_args],
            ["cfm-sample", "--checkpoint", self.checkpoint, "--out", self.draws, *seed, *self.sizes.sample_args],
        ]

    def _column(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return np.array([float(r[1]) for r in rows])

    def check_iteration(self, codes):
        """One operation per training step and per draw; a step or draw
        fails when its value is missing or non-finite."""
        problems = [f"exit code {c} from {argv[0]}" for argv, c in zip(self.iteration(), codes) if c != 0]
        losses, draws = self._column(self.trace), self._column(self.draws)
        failed = (
            max(0, self.sizes.steps - len(losses)) + int(np.sum(~np.isfinite(losses)))
            + max(0, self.sizes.draws - len(draws)) + int(np.sum(~np.isfinite(draws)))
        )
        if failed:
            problems.append(f"{failed} missing or non-finite losses/draws")
        return self.sizes.steps + self.sizes.draws, failed, problems

    def check_outputs(self):
        losses, draws = self._column(self.trace), self._column(self.draws)
        problems = []
        if not np.all(np.isfinite(losses)):
            problems.append("non-finite training loss")
        mean = float(np.mean(draws))
        if abs(mean - self.target) > 0.3:
            problems.append(f"sample mean {mean:.4f} is not within 0.3 of the target {self.target}")
        return bool(problems), problems


WORKLOADS = {w.name: w for w in (RenderLong, MetricsMany, CfmToy)}
