"""Batch dataset construction and validation: manifest ingestion, duration
and silence filters, batch rendering and batch metric reports."""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .audio import atomic_write, frame_rms, read_json, read_wav, write_wav
from .heatmap import extract_features, load_heatmap_sequence
from .metrics import SpatialMetricsReport, spatial_report
from .render import DEFAULT_FIELD_OF_VIEW, RenderConfig, direction_from_features, render_trajectory
from .ambisonic import load_trajectory_csv

THREADS_ENV_VAR = "SV2A_THREADS"

log = logging.getLogger(__name__)

_METRIC_FIELDS = tuple(f.name for f in fields(SpatialMetricsReport) if f.name != "frames_used")

# The manifest keys a ClipEntry may leave out, and the keys that name files.
_OPTIONAL_KEYS = ("heatmap", "trajectory", "caption")
_PATH_KEYS = ("audio", "heatmap", "trajectory")

# Silence analysis frames (25 ms / 10 ms at 16 kHz) and the informational
# quality-flag limits. A sample counts as clipped at PCM-16's positive full
# scale, which reads back as 32767/32768, or beyond.
SILENCE_FRAME = 400
SILENCE_HOP = 160
CLIPPING_LEVEL = 32767 / 32768
CLIPPING_FRACTION_MAX = 0.01
DC_OFFSET_MAX = 0.02

PREPROCESS_STATUSES = ("kept", "rejected_short", "rejected_silent", "rejected_unreadable")

NO_DIRECTION_SOURCE = "has neither a trajectory nor a heatmap"


def worker_count():
    """Worker cap from the environment (default 1; output is order-stable
    regardless). A value that is not a positive integer warns and counts as 1."""
    value = os.environ.get(THREADS_ENV_VAR, "1")
    if value.isdecimal() and int(value) > 0:
        return int(value)
    log.warning("ignoring %s=%r, not a positive integer; using 1 worker", THREADS_ENV_VAR, value)
    return 1


@dataclass(frozen=True)
class ClipResult:
    """What a batch stage did with one clip. `value` is what the clip
    produced: the kept ClipEntry, the output path or the SpatialMetricsReport."""

    id: str
    status: str
    reason: str = None
    flags: tuple = ()
    value: object = None


# One pool per process, kept across batch calls: fresh threads could land on
# malloc arenas that hold less of the memory the last call freed, and fault
# it in again. A new worker count, or a new ThreadPoolExecutor class in this
# module, replaces it.
_pool = (None, 0, None)  # (ThreadPoolExecutor class, workers, pool)
_pool_lock = threading.Lock()


def _each_clip(step, items, failed="failed"):
    """`step(id, item)` for each (id, item) pair, in order, on up to
    worker_count() threads; an exception gives ClipResult(id, failed, str(exc))."""

    def run(pair):
        clip_id, item = pair
        try:
            return step(clip_id, item)
        except Exception as exc:
            return ClipResult(clip_id, failed, str(exc))

    global _pool
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [run(pair) for pair in items]
    with _pool_lock:  # no call replaces the pool while another submits to it
        if _pool[:2] != (ThreadPoolExecutor, workers):
            if _pool[2] is not None:
                _pool[2].shutdown()
            _pool = (ThreadPoolExecutor, workers, ThreadPoolExecutor(max_workers=workers))
        results = _pool[2].map(run, items)
    return list(results)


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
        for key in _OPTIONAL_KEYS:
            if item.get(key) is not None and not isinstance(item[key], str):
                raise ValueError(f"{path}: entry {i}: '{key}' must be a string")
        clip_id = item["id"]
        if not (isinstance(clip_id, str) and clip_id not in ("", ".", "..")
                and "/" not in clip_id and os.sep not in clip_id):
            raise ValueError(f"{path}: entry {i}: 'id' must be a plain file name, got {clip_id!r}")
        entries.append(
            ClipEntry(clip_id, item["audio"], **{key: item.get(key) for key in _OPTIONAL_KEYS})
        )
    try:
        return ClipManifest(tuple(entries), os.path.dirname(os.path.abspath(path)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_manifest(path, manifest):
    """Write the manifest as load_manifest reads it: each relative path is
    rewritten relative to the directory of `path`, so it names the same file
    from there; an absolute path is kept."""
    out_dir = os.path.dirname(os.path.abspath(path))
    items = []
    for e in manifest.entries:
        item = {key: getattr(e, key) for key in ("id", "audio", *_OPTIONAL_KEYS)
                if getattr(e, key) is not None}
        for key in _PATH_KEYS:
            if key in item and not os.path.isabs(item[key]):
                item[key] = os.path.relpath(manifest.resolve(item[key]), out_dir)
        items.append(item)
    with atomic_write(path) as fh:
        json.dump(items, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class PreprocessConfig:
    min_seconds: float = 10.0
    silence_threshold_dbfs: float = -50.0
    max_silence_fraction: float = 0.8


def silence_fraction(audio, threshold_dbfs=PreprocessConfig.silence_threshold_dbfs):
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
    x = audio.samples
    # An exact count divided once: equal to the mean of the boolean mask bit
    # for bit, without its float sum.
    clipped = np.count_nonzero(np.abs(x) >= CLIPPING_LEVEL) / x.size if x.size else 0.0
    if clipped > CLIPPING_FRACTION_MAX:
        flags.append(f"clipping fraction {clipped:.4f}")
    dc = float(np.mean(audio.samples)) if len(audio) else 0.0
    if abs(dc) > DC_OFFSET_MAX:
        flags.append(f"dc offset {dc:.4f}")
    return flags


def entry_problems(manifest, entry):
    """Why `entry` cannot be rendered, from its fields and the file system:
    no direction source, then each path that is not a regular file."""
    paths = {key: getattr(entry, key) for key in _PATH_KEYS}
    problems = [NO_DIRECTION_SOURCE] if entry.trajectory is None and entry.heatmap is None else []
    return problems + [f"no {key} file at {rel!r}" for key, rel in paths.items()
                       if rel is not None and not os.path.isfile(manifest.resolve(rel))]


def preprocess(manifest, cfg=None):
    """Apply the duration and silence filters to every manifest entry.
    Returns (kept manifest, one ClipResult per entry), each with one of
    PREPROCESS_STATUSES. An entry with entry_problems is rejected_unreadable,
    the first being its reason, before its audio is read; audio shorter than
    one silence frame is rejected_short."""
    cfg = cfg or PreprocessConfig()

    def evaluate(clip_id, entry):
        if problems := entry_problems(manifest, entry):
            return ClipResult(clip_id, "rejected_unreadable", problems[0])
        audio = read_wav(manifest.resolve(entry.audio))
        if audio.samples.ndim == 2:
            raise ValueError("expected mono audio, got 2 channels")
        if audio.duration < cfg.min_seconds:
            return ClipResult(clip_id, "rejected_short",
                              f"duration {audio.duration:.2f}s < {cfg.min_seconds}s")
        if len(audio) < SILENCE_FRAME:
            return ClipResult(clip_id, "rejected_short",
                              f"shorter than one {SILENCE_FRAME}-sample silence frame")
        fraction = silence_fraction(audio, cfg.silence_threshold_dbfs)
        if fraction > cfg.max_silence_fraction:
            return ClipResult(clip_id, "rejected_silent", f"silence fraction {fraction:.3f}")
        return ClipResult(clip_id, "kept", flags=tuple(quality_flags(audio)), value=entry)

    results = _each_clip(evaluate, [(e.id, e) for e in manifest.entries], "rejected_unreadable")
    kept = tuple(r.value for r in results if r.status == "kept")
    return ClipManifest(kept, manifest.base_dir), results


def preprocess_report(results):
    """The preprocess report: a count per status, the reason of each
    rejected clip and the flags of each kept clip that has any."""
    report = {status: sum(r.status == status for r in results) for status in PREPROCESS_STATUSES}
    report["reasons"] = {r.id: r.reason for r in results if r.status != "kept"}
    report["quality_flags"] = {r.id: list(r.flags) for r in results if r.flags}
    return report


def clip_trajectory(manifest, entry, fov=DEFAULT_FIELD_OF_VIEW):
    """Trajectory for one clip: its CSV if present, otherwise derived from
    its heatmap features."""
    if entry.trajectory is not None:
        return load_trajectory_csv(manifest.resolve(entry.trajectory))
    if entry.heatmap is not None:
        values = load_heatmap_sequence(manifest.resolve(entry.heatmap))
        return direction_from_features(extract_features(values), fov)
    raise ValueError(f"clip {entry.id} {NO_DIRECTION_SOURCE}")


def batch_render(
    manifest, render_cfg=None, out_dir=".", fov=DEFAULT_FIELD_OF_VIEW, encoding="float32"
):
    """Render every clip to `<id>_binaural.wav`. Returns one ClipResult per
    entry: "ok" with the output path as its value, or "failed"."""
    render_cfg = render_cfg or RenderConfig()
    os.makedirs(out_dir, exist_ok=True)
    try:
        tempfile.TemporaryFile(dir=out_dir).close()
    except OSError as exc:
        raise OSError(f"output directory {out_dir} is not writable: {exc}") from exc

    def render_one(clip_id, entry):
        mono = read_wav(manifest.resolve(entry.audio))
        trajectory = clip_trajectory(manifest, entry, fov)
        rendered = render_trajectory(mono, trajectory, render_cfg)
        out_path = os.path.join(out_dir, f"{clip_id}_binaural.wav")
        write_wav(out_path, rendered, encoding)
        return ClipResult(clip_id, "ok", value=out_path)

    return _each_clip(render_one, [(e.id, e) for e in manifest.entries])


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
    """One ClipResult per stereo clip of `source`, a directory of WAVs or a
    ClipManifest, with its SpatialMetricsReport as the value of an "ok"
    clip. Raises ValueError when `source` holds no clip."""
    inputs = _stereo_inputs(source)
    if not inputs:
        raise ValueError("no stereo inputs")

    def measure(clip_id, path):
        loaded = read_wav(path)
        if loaded.samples.ndim != 2:
            raise ValueError("not a stereo file")
        return ClipResult(clip_id, "ok", value=spatial_report(loaded))

    return _each_clip(measure, inputs)


def aggregate_metrics(results):
    """Metric name -> (mean, count) over the clips that have a report."""
    reports = [r.value for r in results if r.status == "ok"]
    return {name: (float(np.mean([getattr(r, name) for r in reports])), len(reports))
            for name in _METRIC_FIELDS}


def write_metrics_json(path, results):
    payload = {
        "clips": {r.id: asdict(r.value) for r in results if r.status == "ok"},
        "failures": {r.id: r.reason for r in results if r.status == "failed"},
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
    """Every entry's entry_problems, each prefixed with the entry's id."""
    return [f"{e.id}: {p}" for e in manifest.entries for p in entry_problems(manifest, e)]
