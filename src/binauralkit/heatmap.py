"""Visual spatial features from sound-localization heatmaps.

Five per-frame features are extracted from each H x W non-negative map:
horizontal position (column centroid / width), active-area fraction,
spatial variance, left-right energy bias and the horizontal/vertical
spread ratio. Pixel coordinates are 1-based throughout.

A HeatmapSequence holds its frames as one T x H x W array: the HMAP loader
reads all data rows with one np.loadtxt call, and extract_features, the one
implementation of the features, computes every frame at once from the row
and column marginals of the stack.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .audio import atomic_write, read_text

NEUTRAL_FEATURES = (0.5, 0.0, 0.0, 0.0, 0.0)
FEATURE_NAMES = ("s_h", "s_area", "s_var", "s_lr", "s_shape")
MASK_THRESHOLD_REL = 0.5
SHAPE_EPSILON = 1e-8


class HeatmapFormatError(ValueError):
    """Malformed HMAP file."""


def _check_frame_rate(frame_rate):
    if not (math.isfinite(frame_rate) and frame_rate > 0):
        raise ValueError("frame_rate must be finite and positive")


@dataclass(frozen=True)
class HeatmapSequence:
    """T heatmaps of identical shape at a fixed frame rate, held as one
    T x H x W array of finite, non-negative values."""

    values: np.ndarray
    frame_rate: float = 31.25

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3 or values.size == 0:
            raise ValueError("sequence must be a non-empty T x H x W array")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("heatmap values must be finite and non-negative")
        _check_frame_rate(self.frame_rate)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class SpatialFeatureSequence:
    """T x 5 per-frame feature vectors (s_h, s_area, s_var, s_lr, s_shape)."""

    features: np.ndarray
    frame_rate: float = 31.25

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != 5:
            raise ValueError("features must be T x 5")
        _check_frame_rate(self.frame_rate)
        object.__setattr__(self, "features", features)

    def __len__(self):
        return len(self.features)


def load_heatmap_sequence(path, frame_rate=31.25):
    """Parse an HMAP v1 text file: header `hmap 1 T H W`, then T blocks of
    H rows with W floats each; only blank lines may follow them.

    The T*H data rows are read with one np.loadtxt call and checked as one
    array. When that fails, the rows are read one by one, which raises at
    the first bad line.
    """
    lines = read_text(path).splitlines()
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
    rows = lines[1 : 1 + t * h]
    values = None
    # np.loadtxt skips blank lines, so a blank data row shows as a short
    # table; it warns when no row holds data, so a blank first row skips it.
    if rows[0].strip():
        try:
            values = np.loadtxt(rows, comments=None, ndmin=2)
        except ValueError:
            pass
    valid = values is not None and values.shape == (t * h, w)
    if not (valid and np.all(np.isfinite(values) & (values >= 0))):
        values = _read_rows(path, rows, w)
    return HeatmapSequence(values.reshape(t, h, w), frame_rate)


def _read_rows(path, rows, w):
    """The data rows read one by one (line 2 onward), raising at the first
    bad line."""
    values = []
    for line_no, line in enumerate(rows, start=2):
        fields = line.split()
        if len(fields) != w:
            raise HeatmapFormatError(f"{path}:{line_no}: expected {w} values, found {len(fields)}")
        try:
            row = [float(v) for v in fields]
        except ValueError:
            raise HeatmapFormatError(f"{path}:{line_no}: non-numeric value") from None
        if not all(0.0 <= v < math.inf for v in row):
            problem = "negative" if any(v < 0 for v in row) else "non-finite"
            raise HeatmapFormatError(f"{path}:{line_no}: {problem} heatmap value")
        values.append(row)
    return np.array(values)


def save_heatmap_sequence(path, seq):
    """Write HMAP v1 with 9 significant decimal digits."""
    t, h, w = seq.values.shape
    with atomic_write(path) as fh:
        fh.write(f"hmap 1 {t} {h} {w}\n")
        for row in seq.values.reshape(t * h, w):
            fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def extract_features(seq):
    """The five features of every frame, from the row and column marginals
    M(x), M(y) of the T x H x W stack (1-based pixel coordinates): s_h = cx/W;
    s_area, the fraction of pixels >= MASK_THRESHOLD_REL * max; s_var =
    var_x + var_y, the variances of M(x) and M(y); s_lr = (right-half mass -
    left-half mass) / total, the middle column of an odd width counting half
    to each side; s_shape = var_x / (var_y + SHAPE_EPSILON). All-zero frames
    get the neutral vector (0.5, 0, 0, 0, 0)."""
    m = seq.values
    t, h, w = m.shape
    total = m.reshape(t, -1).sum(axis=1)
    live = total > 0.0
    denom = np.where(live, total, 1.0)
    cols = m.sum(axis=1)  # T x W
    rows = m.sum(axis=2)  # T x H
    xs = np.arange(1, w + 1)
    ys = np.arange(1, h + 1)
    cx = (cols @ xs) / denom
    cy = (rows @ ys) / denom
    var_x = np.einsum("tw,tw->t", cols, (xs - cx[:, None]) ** 2) / denom
    var_y = np.einsum("th,th->t", rows, (ys - cy[:, None]) ** 2) / denom
    peak = m.reshape(t, -1).max(axis=1)
    area = np.count_nonzero(m >= (MASK_THRESHOLD_REL * peak)[:, None, None], axis=(1, 2))
    half = w // 2
    left = cols[:, :half].sum(axis=1)
    right = cols[:, w - half :].sum(axis=1)
    if w % 2 == 1:
        left = left + 0.5 * cols[:, half]
        right = right + 0.5 * cols[:, half]
    features = np.stack(
        [
            cx / w,
            area / (h * w),
            var_x + var_y,
            (right - left) / denom,
            var_x / (var_y + SHAPE_EPSILON),
        ],
        axis=1,
    )
    features[~live] = NEUTRAL_FEATURES
    return SpatialFeatureSequence(features, seq.frame_rate)


def save_features_csv(path, features):
    """Write `frame,s_h,s_area,s_var,s_lr,s_shape` rows."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame",) + FEATURE_NAMES)
        for i, row in enumerate(features.features):
            writer.writerow([i] + [f"{v:.12g}" for v in row])
