"""Visual spatial features from sound-localization heatmaps.

Five per-frame features are extracted from each H x W non-negative map:
horizontal position (column centroid / width), active-area fraction,
spatial variance, left-right energy bias and the horizontal/vertical
spread ratio. Pixel coordinates are 1-based throughout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .audio import atomic_write

NEUTRAL_FEATURES = (0.5, 0.0, 0.0, 0.0, 0.0)
FEATURE_NAMES = ("s_h", "s_area", "s_var", "s_lr", "s_shape")


class HeatmapFormatError(ValueError):
    """Malformed HMAP file."""


@dataclass(frozen=True)
class Heatmap:
    """One H x W non-negative map."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("heatmap must be 2-D")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("heatmap values must be finite and non-negative")
        object.__setattr__(self, "values", values)

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class HeatmapSequence:
    """T heatmaps of identical shape at a fixed frame rate."""

    frames: tuple
    frame_rate: float = 31.25

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("sequence must contain at least one frame")
        shape = frames[0].values.shape
        if any(f.values.shape != shape for f in frames):
            raise ValueError("all frames must share one shape")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        object.__setattr__(self, "frames", frames)

    def __len__(self):
        return len(self.frames)


@dataclass(frozen=True)
class SpatialFeatureSequence:
    """T x 5 per-frame feature vectors (s_h, s_area, s_var, s_lr, s_shape)."""

    features: np.ndarray
    frame_rate: float = 31.25

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != 5:
            raise ValueError("features must be T x 5")
        object.__setattr__(self, "features", features)

    def __len__(self):
        return len(self.features)


@dataclass(frozen=True)
class FeatureConfig:
    mask_threshold_rel: float = 0.5
    shape_epsilon: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.mask_threshold_rel <= 1.0):
            raise ValueError("mask_threshold_rel must be in (0, 1]")


def load_heatmap_sequence(path, frame_rate=31.25):
    """Parse an HMAP v1 text file: header `hmap 1 T H W`, then T blocks of
    H rows with W floats each; only blank lines may follow them."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise HeatmapFormatError(f"{path}:1: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "hmap" or header[1] != "1":
        raise HeatmapFormatError(f"{path}:1: expected header 'hmap 1 <T> <H> <W>'")
    try:
        t, h, w = (int(v) for v in header[2:])
    except ValueError:
        raise HeatmapFormatError(f"{path}:1: non-integer dimensions") from None
    if t < 1 or h < 1 or w < 1:
        raise HeatmapFormatError(f"{path}:1: dimensions must be positive")
    if len(lines) - 1 < t * h:
        raise HeatmapFormatError(f"{path}: expected {t * h} data rows, found {len(lines) - 1}")
    for line_no, line in enumerate(lines[1 + t * h :], start=2 + t * h):
        if line.strip():
            raise HeatmapFormatError(f"{path}:{line_no}: data beyond the {t * h} declared rows")
    frames = []
    line_no = 1
    for _ in range(t):
        rows = []
        for _ in range(h):
            line_no += 1
            fields = lines[line_no - 1].split()
            if len(fields) != w:
                raise HeatmapFormatError(
                    f"{path}:{line_no}: expected {w} values, found {len(fields)}"
                )
            try:
                row = [float(v) for v in fields]
            except ValueError:
                raise HeatmapFormatError(f"{path}:{line_no}: non-numeric value") from None
            if not all(0.0 <= v < math.inf for v in row):
                problem = "negative" if any(v < 0 for v in row) else "non-finite"
                raise HeatmapFormatError(f"{path}:{line_no}: {problem} heatmap value")
            rows.append(row)
        frames.append(Heatmap(np.array(rows)))
    return HeatmapSequence(tuple(frames), frame_rate)


def save_heatmap_sequence(path, seq):
    """Write HMAP v1 with 9 significant decimal digits."""
    first = seq.frames[0]
    with atomic_write(path) as fh:
        fh.write(f"hmap 1 {len(seq)} {first.height} {first.width}\n")
        for frame in seq.frames:
            for row in frame.values:
                fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def centroid(h):
    """Mass centroid (cx, cy) in 1-based pixel coordinates."""
    m = h.values
    total = float(m.sum())
    if total <= 0.0:
        raise ValueError("centroid of an all-zero heatmap is undefined")
    xs = np.arange(1, h.width + 1)
    ys = np.arange(1, h.height + 1)
    cx = float(np.dot(m.sum(axis=0), xs)) / total
    cy = float(np.dot(m.sum(axis=1), ys)) / total
    return cx, cy


def horizontal_position(h):
    """S_h = cx / W, in (0, 1]."""
    cx, _ = centroid(h)
    return cx / h.width


def area_fraction(h, cfg=None):
    """Fraction of pixels at or above mask_threshold_rel * max; 0 for an
    all-zero map."""
    cfg = cfg or FeatureConfig()
    peak = float(h.values.max())
    if peak <= 0.0:
        return 0.0
    mask = h.values >= cfg.mask_threshold_rel * peak
    return float(mask.sum()) / (h.height * h.width)


def spatial_variance(h):
    """Marginal variances (var_x, var_y) and their sum.

    var_x uses the column marginal M(x) = sum_y M(x, y); var_y analogous.
    """
    m = h.values
    total = float(m.sum())
    if total <= 0.0:
        raise ValueError("variance of an all-zero heatmap is undefined")
    cx, cy = centroid(h)
    xs = np.arange(1, h.width + 1)
    ys = np.arange(1, h.height + 1)
    var_x = float(np.dot(m.sum(axis=0), (xs - cx) ** 2)) / total
    var_y = float(np.dot(m.sum(axis=1), (ys - cy) ** 2)) / total
    return var_x, var_y, var_x + var_y


def lr_energy_bias(h):
    """(right-half mass - left-half mass) / total mass, in [-1, 1].

    For odd widths the middle column contributes half to each side, which
    preserves mirror antisymmetry.
    """
    m = h.values
    total = float(m.sum())
    if total <= 0.0:
        raise ValueError("energy bias of an all-zero heatmap is undefined")
    cols = m.sum(axis=0)
    half = h.width // 2
    left = float(cols[:half].sum())
    right = float(cols[h.width - half :].sum())
    if h.width % 2 == 1:
        mid = float(cols[half])
        left += 0.5 * mid
        right += 0.5 * mid
    return (right - left) / total


def shape_ratio(h, cfg=None):
    """S_shape = var_x / (var_y + shape_epsilon)."""
    cfg = cfg or FeatureConfig()
    var_x, var_y, _ = spatial_variance(h)
    return var_x / (var_y + cfg.shape_epsilon)


def frame_features(h, cfg=None):
    """The five features of one frame; all-zero frames get the neutral
    vector (0.5, 0, 0, 0, 0)."""
    cfg = cfg or FeatureConfig()
    if float(h.values.sum()) <= 0.0:
        return np.array(NEUTRAL_FEATURES)
    var_x, var_y, s_var = spatial_variance(h)
    return np.array(
        [
            horizontal_position(h),
            area_fraction(h, cfg),
            s_var,
            lr_energy_bias(h),
            var_x / (var_y + cfg.shape_epsilon),
        ]
    )


def extract_features(seq, cfg=None):
    """Per-frame feature vectors for a whole sequence."""
    cfg = cfg or FeatureConfig()
    rows = np.stack([frame_features(f, cfg) for f in seq.frames])
    return SpatialFeatureSequence(rows, seq.frame_rate)


def save_features_csv(path, features):
    """Write `frame,s_h,s_area,s_var,s_lr,s_shape` rows."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame",) + FEATURE_NAMES)
        for i, row in enumerate(features.features):
            writer.writerow([i] + [f"{v:.12g}" for v in row])
