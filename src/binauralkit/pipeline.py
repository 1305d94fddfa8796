"""Batch dataset construction and validation: manifest ingestion, duration
and silence filters, batch rendering and batch metric reports."""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .audio import BinauralBuffer, atomic_write, frame_rms, read_json, read_wav, write_wav
from .heatmap import extract_features, load_heatmap_sequence
from .metrics import spatial_report
from .render import RenderConfig, direction_from_features, render_trajectory
from .ambisonic import load_trajectory_csv

THREADS_ENV_VAR = "SV2A_THREADS"

log = logging.getLogger(__name__)

_METRIC_FIELDS = ("iacc", "ild_db", "itd_ms", "isd", "ipd_rad")

# Silence analysis frames (25 ms / 10 ms at 16 kHz) and the informational
# quality-flag limits.
SILENCE_FRAME = 400
SILENCE_HOP = 160
CLIPPING_FRACTION_MAX = 0.01
DC_OFFSET_MAX = 0.02


def worker_count():
    """Worker cap from the environment (default 1; output is order-stable
    regardless). An unparsable value logs a warning and counts as 1."""
    value = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        return max(1, int(value))
    except ValueError:
        log.warning("ignoring unparsable %s=%r; using 1 worker", THREADS_ENV_VAR, value)
        return 1


def _map_ordered(fn, items):
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class ClipEntry:
    id: str
    audio: str
    heatmap: str = None
    trajectory: str = None
    caption: str = None


@dataclass(frozen=True)
class ClipManifest:
    entries: tuple
    base_dir: str = "."

    def __post_init__(self):
        entries = tuple(self.entries)
        seen = set()
        for e in entries:
            if e.id in seen:
                raise ValueError(f"manifest id {e.id!r} is repeated")
            seen.add(e.id)
        object.__setattr__(self, "entries", entries)

    def __len__(self):
        return len(self.entries)

    def resolve(self, relative_path):
        return os.path.join(self.base_dir, relative_path)


def load_manifest(path):
    """Read a JSON-array manifest; relative paths resolve against its
    directory. Each id must be a string usable as a plain file name, since
    outputs are named after it. A malformed manifest raises ValueError
    naming the file and the entry index or repeated id."""
    items = read_json(path)
    if not isinstance(items, list):
        raise ValueError(f"{path}: manifest must be a JSON array")
    entries = []
    for i, item in enumerate(items):
        if not (isinstance(item, dict) and "id" in item and isinstance(item.get("audio"), str)):
            raise ValueError(f"{path}: entry {i} needs an 'id' and a string 'audio'")
        for key in ("heatmap", "trajectory", "caption"):
            if item.get(key) is not None and not isinstance(item[key], str):
                raise ValueError(f"{path}: entry {i}: '{key}' must be a string")
        clip_id = item["id"]
        if not (isinstance(clip_id, str) and clip_id not in ("", ".", "..")
                and "/" not in clip_id and os.sep not in clip_id):
            raise ValueError(f"{path}: entry {i}: 'id' must be a plain file name, got {clip_id!r}")
        entries.append(
            ClipEntry(
                id=clip_id,
                audio=item["audio"],
                heatmap=item.get("heatmap"),
                trajectory=item.get("trajectory"),
                caption=item.get("caption"),
            )
        )
    try:
        return ClipManifest(tuple(entries), os.path.dirname(os.path.abspath(path)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_manifest(path, manifest):
    items = []
    for e in manifest.entries:
        item = {"id": e.id, "audio": e.audio}
        for key in ("heatmap", "trajectory", "caption"):
            if getattr(e, key) is not None:
                item[key] = getattr(e, key)
        items.append(item)
    with atomic_write(path) as fh:
        json.dump(items, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class PreprocessConfig:
    min_seconds: float = 10.0
    silence_threshold_dbfs: float = -50.0
    max_silence_fraction: float = 0.8


@dataclass
class PreprocessReport:
    kept: int = 0
    rejected_short: int = 0
    rejected_silent: int = 0
    rejected_unreadable: int = 0
    reasons: dict = field(default_factory=dict)
    quality_flags: dict = field(default_factory=dict)

    @property
    def total(self):
        return self.kept + self.rejected_short + self.rejected_silent + self.rejected_unreadable

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def silence_fraction(audio, threshold_dbfs=-50.0):
    """Fraction of frames whose RMS falls below the dBFS threshold."""
    rms = frame_rms(audio, SILENCE_FRAME, SILENCE_HOP)
    if len(rms) == 0:
        raise ValueError("audio shorter than one analysis frame")
    threshold = 10.0 ** (threshold_dbfs / 20.0)
    return float(np.mean(rms < threshold))


def quality_flags(audio):
    """Clipping-rate and DC-offset sanity flags (informational, never a
    rejection)."""
    flags = []
    clipped = float(np.mean(np.abs(audio.samples) >= 1.0 - 1e-6))
    if clipped > CLIPPING_FRACTION_MAX:
        flags.append(f"clipping fraction {clipped:.4f}")
    dc = float(np.mean(audio.samples)) if len(audio) else 0.0
    if abs(dc) > DC_OFFSET_MAX:
        flags.append(f"dc offset {dc:.4f}")
    return flags


def _as_mono(loaded):
    if isinstance(loaded, BinauralBuffer):
        raise ValueError("expected mono audio, got 2 channels")
    return loaded


def preprocess(manifest, cfg=None):
    """Apply the duration and silence filters to every manifest entry.

    Per-clip failures never abort the batch: unreadable audio lands in
    rejected_unreadable. Returns (filtered manifest, report); the report
    counts always reconcile with the input size.
    """
    cfg = cfg or PreprocessConfig()
    report = PreprocessReport()

    def evaluate(entry):
        path = manifest.resolve(entry.audio)
        try:
            audio = _as_mono(read_wav(path))
            if audio.duration < cfg.min_seconds:
                return ("rejected_short", f"duration {audio.duration:.2f}s < {cfg.min_seconds}s", [])
            fraction = silence_fraction(audio, cfg.silence_threshold_dbfs)
            if fraction > cfg.max_silence_fraction:
                return ("rejected_silent", f"silence fraction {fraction:.3f}", [])
            return ("kept", None, quality_flags(audio))
        except Exception as exc:
            return ("rejected_unreadable", str(exc), [])

    results = _map_ordered(evaluate, list(manifest.entries))
    kept_entries = []
    for entry, (outcome, reason, flags) in zip(manifest.entries, results):
        if outcome == "kept":
            report.kept += 1
            kept_entries.append(entry)
            if flags:
                report.quality_flags[entry.id] = flags
        else:
            setattr(report, outcome, getattr(report, outcome) + 1)
            report.reasons[entry.id] = reason
    return ClipManifest(tuple(kept_entries), manifest.base_dir), report


def clip_trajectory(manifest, entry, fov=math.pi / 2):
    """Trajectory for one clip: its CSV if present, otherwise derived from
    its heatmap features."""
    if entry.trajectory is not None:
        return load_trajectory_csv(manifest.resolve(entry.trajectory))
    if entry.heatmap is not None:
        seq = load_heatmap_sequence(manifest.resolve(entry.heatmap))
        return direction_from_features(extract_features(seq), fov)
    raise ValueError(f"clip {entry.id} has neither a trajectory nor a heatmap")


def batch_render(manifest, render_cfg=None, out_dir=".", fov=math.pi / 2, encoding="float32"):
    """Render every clip to `<id>_binaural.wav`; per-clip failures are
    logged and the batch continues."""
    render_cfg = render_cfg or RenderConfig()
    os.makedirs(out_dir, exist_ok=True)
    probe = os.path.join(out_dir, ".write_probe")
    try:
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory {out_dir} is not writable: {exc}") from exc

    def render_one(entry):
        try:
            mono = _as_mono(read_wav(manifest.resolve(entry.audio)))
            trajectory = clip_trajectory(manifest, entry, fov)
            rendered = render_trajectory(mono, trajectory, render_cfg)
            out_path = os.path.join(out_dir, f"{entry.id}_binaural.wav")
            write_wav(out_path, rendered, encoding)
            return {"id": entry.id, "status": "ok", "output": out_path}
        except Exception as exc:
            return {"id": entry.id, "status": "failed", "error": str(exc)}

    return _map_ordered(render_one, list(manifest.entries))


def _stereo_inputs(source):
    """(clip id, path) pairs: a manifest's entries, or the WAVs of a
    directory named by their stems. Two files with one stem (a.wav and
    a.WAV) raise ValueError, as a repeated manifest id does."""
    if isinstance(source, ClipManifest):
        return [(e.id, source.resolve(e.audio)) for e in source.entries]
    names = {}
    for name in sorted(f for f in os.listdir(source) if f.lower().endswith(".wav")):
        clip_id = os.path.splitext(name)[0]
        if clip_id in names:
            raise ValueError(
                f"{source}: {names[clip_id]} and {name} both give clip id {clip_id!r}"
            )
        names[clip_id] = name
    return [(clip_id, os.path.join(source, name)) for clip_id, name in names.items()]


def batch_metrics(source):
    """Spatial metric report per stereo clip plus the dataset aggregate.

    `source` is a directory of WAVs or a ClipManifest. Returns
    (per_clip, aggregate, failures) where aggregate maps metric name to
    (mean, count).
    """
    inputs = _stereo_inputs(source)
    if not inputs:
        raise ValueError("no stereo inputs")

    def measure(item):
        clip_id, path = item
        try:
            loaded = read_wav(path)
            if not isinstance(loaded, BinauralBuffer):
                raise ValueError("not a stereo file")
            return clip_id, spatial_report(loaded), None
        except Exception as exc:
            return clip_id, None, str(exc)

    results = _map_ordered(measure, inputs)
    per_clip = {}
    failures = {}
    for clip_id, report, error in results:
        if report is not None:
            per_clip[clip_id] = report
        else:
            failures[clip_id] = error
    if not per_clip:
        raise ValueError("no stereo inputs produced a metric report")
    aggregate = {}
    for name in _METRIC_FIELDS:
        values = [getattr(r, name) for r in per_clip.values()]
        aggregate[name] = (float(np.mean(values)), len(values))
    return per_clip, aggregate, failures


def write_metrics_json(path, per_clip, failures):
    payload = {
        "clips": {clip_id: asdict(report) for clip_id, report in per_clip.items()},
        "failures": failures,
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_aggregate_csv(path, aggregate):
    with atomic_write(path, newline="") as fh:
        fh.write("metric,mean,count\n")
        for name in _METRIC_FIELDS:
            mean, count = aggregate[name]
            fh.write(f"{name},{mean:.12g},{count}\n")


def validate_manifest(manifest):
    """Resolve every referenced path; returns a list of problem strings."""
    problems = []
    for entry in manifest.entries:
        for key in ("audio", "heatmap", "trajectory"):
            rel = getattr(entry, key)
            if rel is not None and not os.path.exists(manifest.resolve(rel)):
                problems.append(f"{entry.id}: missing {key} file {rel}")
    return problems
