"""Seeded input generators for the benchmark workloads.

Every generator takes a seed, writes files into a directory and returns a
plan: the paths the program will see plus the outcome each planted input
must have. Durations and counts are fixed; only the content depends on the
seed, so every seed asks the program for the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

SAMPLE_RATE = 16000
TRAJECTORY_RATE = 50.0  # breakpoints per second in the trajectory CSVs
HMAP_FRAME_RATE = 31.25  # the program's default heatmap frame rate
HMAP_SHAPE = (16, 24)


@dataclass(frozen=True)
class RenderSizes:
    long_seconds: tuple  # kept clips driven by a trajectory CSV
    heatmap_seconds: float  # kept clip driven by a heatmap
    short_seconds: float  # below min_seconds: rejected_short
    silent_seconds: float  # mostly digital silence: rejected_silent
    min_seconds: float


@dataclass(frozen=True)
class MetricsSizes:
    clip_seconds: tuple  # cycled over the stereo clips
    n_clips: int


@dataclass(frozen=True)
class FlowSizes:
    train_args: tuple  # extra cfm-train arguments (empty: CLI defaults)
    sample_args: tuple  # extra cfm-sample arguments (empty: CLI defaults)
    steps: int  # training steps those arguments imply
    draws: int  # draws those arguments imply


RENDER_FULL = RenderSizes((12.0, 30.0, 100.0), 15.0, 4.0, 12.0, 10.0)
RENDER_SMOKE = RenderSizes((1.5, 2.5), 1.2, 0.4, 1.5, 1.0)
METRICS_FULL = MetricsSizes((2.0, 3.0, 4.0), 60)
METRICS_SMOKE = MetricsSizes((0.5, 0.75), 6)
FLOW_FULL = FlowSizes((), (), 2000, 1000)
FLOW_SMOKE = FlowSizes(("--steps", "400", "--lr", "0.01"), ("--draws", "40", "--steps", "8"), 400, 40)


def write_pcm16(path, samples):
    """Write float samples in [-1, 1) as PCM-16 and return the exact values
    the file holds (int16 / 32768)."""
    ints = np.clip(np.rint(np.asarray(samples) * 32768.0), -32768, 32767).astype(np.int16)
    wavfile.write(path, SAMPLE_RATE, ints)
    return ints.astype(np.float64) / 32768.0


def _noise(rng, n, level=0.25):
    """Band-limited noise with a slow amplitude envelope, so frames differ."""
    t = np.arange(n) / SAMPLE_RATE
    envelope = 0.6 + 0.4 * np.sin(2.0 * math.pi * rng.uniform(0.1, 0.5) * t + rng.uniform(0, 6.3))
    x = rng.standard_normal(n + 2)
    x = (x[:-2] + x[1:-1] + x[2:]) / 3.0  # gentle low-pass
    return np.clip(level * envelope * x, -0.99, 0.99)


# ---------------------------------------------------------------- render_long

@dataclass
class RenderPlan:
    manifest: str
    kept: dict = field(default_factory=dict)  # id -> {"audio", "trajectory"|"heatmap"}
    rejected: dict = field(default_factory=dict)  # id -> expected preprocess outcome
    min_seconds: float = 10.0

    @property
    def audio_seconds(self):
        return sum(item["seconds"] for item in self.kept.values())


def _write_trajectory(path, rng, seconds):
    n = int(math.ceil(seconds * TRAJECTORY_RATE)) + 1
    times = np.arange(n) / TRAJECTORY_RATE
    azimuth = rng.uniform(-180.0, 180.0) + np.cumsum(rng.normal(0.0, 4.0, n))
    elevation = np.clip(np.cumsum(rng.normal(0.0, 1.5, n)), -40.0, 40.0)
    with open(path, "w") as fh:
        fh.write("time_s,azimuth_deg,elevation_deg\n")
        for row in zip(times, azimuth, elevation):
            fh.write("%.6f,%.6f,%.6f\n" % row)


def _write_heatmap(path, rng, seconds):
    """HMAP v1 text: a Gaussian blob sweeping across the frame, with a few
    all-zero frames (the program maps those to the neutral position)."""
    h, w = HMAP_SHAPE
    t_frames = int(math.ceil(seconds * HMAP_FRAME_RATE))
    ys, xs = np.mgrid[1 : h + 1, 1 : w + 1]
    phase = rng.uniform(0.0, 2.0 * math.pi)
    zero_frames = set(rng.choice(t_frames, size=max(1, t_frames // 50), replace=False).tolist())
    with open(path, "w") as fh:
        fh.write(f"hmap 1 {t_frames} {h} {w}\n")
        for k in range(t_frames):
            if k in zero_frames:
                frame = np.zeros((h, w))
            else:
                cx = 1 + (w - 1) * (0.5 + 0.45 * math.sin(phase + 2.0 * math.pi * k / (3.0 * HMAP_FRAME_RATE)))
                cy = 1 + (h - 1) * rng.uniform(0.3, 0.7)
                frame = np.exp(-((xs - cx) ** 2 / 8.0 + (ys - cy) ** 2 / 5.0))
                frame += 0.01 * rng.random((h, w))
            for row in frame:
                fh.write(" ".join("%.5g" % v for v in row) + "\n")


def make_render_inputs(root, seed, sizes=RENDER_FULL):
    """Mono clips, trajectories, one heatmap and three planted rejects, plus
    the manifest that lists them all."""
    rng = np.random.default_rng([seed, 1])
    plan = RenderPlan(os.path.join(root, "clips.json"), min_seconds=sizes.min_seconds)
    entries = []

    def clip(clip_id, seconds, samples=None):
        n = int(round(seconds * SAMPLE_RATE))
        samples = _noise(rng, n) if samples is None else samples
        write_pcm16(os.path.join(root, f"{clip_id}.wav"), samples)
        return {"id": clip_id, "audio": f"{clip_id}.wav"}

    for i, seconds in enumerate(sizes.long_seconds):
        entry = clip(f"long_{i}", seconds)
        entry["trajectory"] = f"long_{i}.csv"
        _write_trajectory(os.path.join(root, entry["trajectory"]), rng, seconds)
        entries.append(entry)
        plan.kept[entry["id"]] = dict(entry, seconds=seconds)

    entry = clip("hmap_0", sizes.heatmap_seconds)
    entry["heatmap"] = "hmap_0.hmap"
    _write_heatmap(os.path.join(root, entry["heatmap"]), rng, sizes.heatmap_seconds)
    entries.append(entry)
    plan.kept["hmap_0"] = dict(entry, seconds=sizes.heatmap_seconds)

    entry = clip("short_0", sizes.short_seconds)
    entry["trajectory"] = "short_0.csv"
    _write_trajectory(os.path.join(root, entry["trajectory"]), rng, sizes.short_seconds)
    entries.append(entry)
    plan.rejected["short_0"] = "rejected_short"

    n = int(round(sizes.silent_seconds * SAMPLE_RATE))
    silent = np.zeros(n)
    silent[: n // 12] = _noise(rng, n // 12)  # 1/12 of the clip sounds: ~92% silent
    entry = clip("silent_0", sizes.silent_seconds, silent)
    entry["trajectory"] = "long_0.csv"
    entries.append(entry)
    plan.rejected["silent_0"] = "rejected_silent"

    # A WAV cut inside its header is unreadable under any reader.
    path = os.path.join(root, "broken_0.wav")
    write_pcm16(path, _noise(rng, SAMPLE_RATE * 12))
    with open(path, "r+b") as fh:
        fh.truncate(30)
    entries.append({"id": "broken_0", "audio": "broken_0.wav", "trajectory": "long_0.csv"})
    plan.rejected["broken_0"] = "rejected_unreadable"

    order = rng.permutation(len(entries))
    with open(plan.manifest, "w") as fh:
        json.dump([entries[i] for i in order], fh, indent=1)
    return plan


# --------------------------------------------------------------- metrics_many

@dataclass
class MetricsPlan:
    directory: str
    stereo: dict = field(default_factory=dict)  # id -> (left, right) as stored
    gated: list = field(default_factory=list)  # ids with a stretch of digital silence
    failures: tuple = ()  # ids that must be reported as failures

    @property
    def audio_seconds(self):
        return sum(len(left) for left, _ in self.stereo.values()) / SAMPLE_RATE


def make_metrics_inputs(root, seed, sizes=METRICS_FULL):
    """Short PCM-16 stereo clips with a per-clip delay and level difference;
    every fourth clip has a stretch of digital silence for the gate to drop.
    One mono file is planted as the expected failure."""
    rng = np.random.default_rng([seed, 2])
    directory = os.path.join(root, "stereo")
    os.makedirs(directory)
    plan = MetricsPlan(directory)
    for i in range(sizes.n_clips):
        n = int(round(sizes.clip_seconds[i % len(sizes.clip_seconds)] * SAMPLE_RATE))
        delay = int(rng.integers(-10, 11))
        gain = 10.0 ** (rng.uniform(-8.0, 8.0) / 20.0)
        source = _noise(rng, n + 20)
        left = source[10 : 10 + n]
        right = np.clip(gain * source[10 + delay : 10 + delay + n] + 0.02 * rng.standard_normal(n), -0.99, 0.99)
        clip_id = f"clip_{i:03d}"
        if i % 4 == 1:
            lo = int(rng.integers(n // 8, n // 2))
            hi = lo + n // 4
            left[lo:hi] = 0.0
            right[lo:hi] = 0.0
            plan.gated.append(clip_id)
        stereo = np.stack([left, right], axis=1)
        stored = write_pcm16(os.path.join(directory, f"{clip_id}.wav"), stereo)
        plan.stereo[clip_id] = (stored[:, 0], stored[:, 1])
    write_pcm16(os.path.join(directory, "mono_000.wav"), _noise(rng, SAMPLE_RATE))
    plan.failures = ("mono_000",)
    return plan
