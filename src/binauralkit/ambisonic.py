"""Real spherical-harmonic encoding, virtual loudspeaker layouts and the
pseudo-inverse projection of SH signals onto per-speaker feeds.

Conventions: real SH, ACN channel ordering, SN3D normalization. Azimuth is
measured counterclockwise from front (positive = listener's left), elevation
up from the horizontal plane.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, atomic_write

RIDGE = 1e-12
SINGULARITY_TOL = 1e-10
DEFAULT_BLOCK_SIZE = 1024
DEFAULT_CROSSFADE = 256


class LayoutError(ValueError):
    """Degenerate speaker layout (duplicate or near-duplicate directions)."""


def wrap_azimuth(azimuth):
    """Wrap an angle into [-pi, pi)."""
    return (azimuth + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class Direction:
    """Azimuth/elevation pair in radians."""

    azimuth: float
    elevation: float = 0.0

    def __post_init__(self):
        if not (-math.pi / 2 - 1e-12 <= self.elevation <= math.pi / 2 + 1e-12):
            raise ValueError("elevation outside [-pi/2, pi/2]")
        object.__setattr__(self, "azimuth", float(wrap_azimuth(self.azimuth)))
        object.__setattr__(self, "elevation", float(self.elevation))

    def unit_vector(self):
        """Cartesian unit vector: x front, y left, z up."""
        ce = math.cos(self.elevation)
        return np.array(
            [
                ce * math.cos(self.azimuth),
                ce * math.sin(self.azimuth),
                math.sin(self.elevation),
            ]
        )


def angular_distance(a, b):
    """Great-circle angle between two directions, in [0, pi]."""
    return math.acos(float(np.clip(np.dot(a.unit_vector(), b.unit_vector()), -1.0, 1.0)))


def sh_encode(direction, order):
    """Real SH basis values for a direction (ACN order, SN3D), orders 0-2.

    Order-1 channels are (W, Y, Z, X) = (1, sin az cos el, sin el, cos az cos el).
    """
    if order not in (0, 1, 2):
        raise ValueError(f"unsupported SH order {order} (0, 1 or 2)")
    az, el = direction.azimuth, direction.elevation
    ce, se = math.cos(el), math.sin(el)
    out = np.empty((order + 1) ** 2)
    out[0] = 1.0
    if order >= 1:
        out[1] = math.sin(az) * ce
        out[2] = se
        out[3] = math.cos(az) * ce
    if order >= 2:
        r3_2 = math.sqrt(3.0) / 2.0
        out[4] = r3_2 * math.sin(2.0 * az) * ce * ce
        out[5] = r3_2 * math.sin(az) * math.sin(2.0 * el)
        out[6] = 0.5 * (3.0 * se * se - 1.0)
        out[7] = r3_2 * math.cos(az) * math.sin(2.0 * el)
        out[8] = r3_2 * math.cos(2.0 * az) * ce * ce
    return out


@dataclass(frozen=True)
class ShSignal:
    """Time series of SH coefficient vectors: frames is T x (order+1)^2."""

    order: int
    frames: np.ndarray
    sample_rate: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != (self.order + 1) ** 2:
            raise ValueError("frames must be T x (order+1)^2")
        object.__setattr__(self, "frames", frames)

    def __len__(self):
        return len(self.frames)


@dataclass(frozen=True)
class SpeakerLayout:
    """A set of pairwise-distinct virtual loudspeaker directions."""

    directions: tuple

    def __post_init__(self):
        dirs = tuple(self.directions)
        if len(dirs) < 1:
            raise ValueError("layout needs at least one direction")
        seen = set()
        for d in dirs:
            key = (d.azimuth, d.elevation)
            if key in seen:
                raise LayoutError(f"duplicate layout direction {key}")
            seen.add(key)
        object.__setattr__(self, "directions", dirs)

    def __len__(self):
        return len(self.directions)


def ring_layout(m):
    """M equally spaced horizontal directions at azimuths 2*pi*k/M."""
    if m < 2:
        raise ValueError("ring layout needs M >= 2")
    return SpeakerLayout(tuple(Direction(2.0 * math.pi * k / m) for k in range(m)))


@dataclass(frozen=True)
class DecodeMatrix:
    """Encoding matrix D (row m = sh_encode of speaker m) and the projection
    operator P = D (D^T D + ridge I)^-1 that maps SH vectors to speaker feeds.

    SH channels that no layout direction excites (column norm ~ 0) are dropped
    from the normal equations and receive zero projection weight.
    """

    order: int
    d: np.ndarray
    projection: np.ndarray


def decode_matrix(layout, order):
    """Build the speaker projection for a layout via ridge-regularized normal
    equations. Raises LayoutError when D^T D (restricted to excited channels)
    is singular beyond tolerance."""
    d = np.stack([sh_encode(di, order) for di in layout.directions])
    col_norms = np.linalg.norm(d, axis=0)
    active = col_norms > 1e-9 * max(1.0, col_norms.max())
    da = d[:, active]
    g = da.T @ da
    eig = np.linalg.eigvalsh(g)
    if eig[0] <= SINGULARITY_TOL * eig[-1]:
        raise LayoutError("degenerate layout: D^T D singular beyond tolerance")
    p_active = da @ np.linalg.inv(g + RIDGE * np.eye(g.shape[0]))
    projection = np.zeros_like(d)
    projection[:, active] = p_active
    return DecodeMatrix(order, d, projection)


def project_to_speakers(sh, dm):
    """Apply the stored projection per sample, yielding M per-speaker buffers."""
    if dm.d.shape[1] != (sh.order + 1) ** 2:
        raise ValueError("SH order mismatch between signal and decode matrix")
    feeds = sh.frames @ dm.projection.T  # T x M
    return [AudioBuffer(feeds[:, m], sh.sample_rate) for m in range(feeds.shape[1])]


def _per_sample_sh_weights(n, directions, order, block_size, crossfade):
    """Per-sample SH gain vectors for block-wise constant directions with a
    linear crossfade over the first `crossfade` samples of each new block."""
    k = (order + 1) ** 2
    ys = [sh_encode(d, order) for d in directions]
    weights = np.empty((n, k))
    n_blocks = len(ys)
    for b in range(n_blocks):
        lo = b * block_size
        hi = min(n, lo + block_size)
        if lo >= n:
            break
        weights[lo:hi] = ys[b]
        if b > 0 and crossfade > 0:
            xf_hi = min(hi, lo + crossfade)
            alpha = (np.arange(xf_hi - lo) + 1.0) / crossfade
            weights[lo:xf_hi] = (1.0 - alpha[:, None]) * ys[b - 1] + alpha[:, None] * ys[b]
    return weights


def encode_mono(
    signal,
    trajectory,
    order=1,
    block_size=DEFAULT_BLOCK_SIZE,
    crossfade=DEFAULT_CROSSFADE,
):
    """Encode a mono signal into an SH signal along a per-block trajectory.

    `trajectory` is a single Direction (constant) or a sequence of Directions,
    one per `block_size`-sample block, covering the whole signal. Directions
    change block-wise with a linear crossfade at block boundaries.
    """
    if isinstance(trajectory, Direction):
        directions = [trajectory]
    else:
        directions = list(trajectory)
    if not directions:
        raise ValueError("empty trajectory")
    n = len(signal)
    n_blocks = max(1, -(-n // block_size))
    if len(directions) == 1:
        directions = directions * n_blocks
    if len(directions) < n_blocks:
        raise ValueError(
            f"trajectory covers {len(directions)} blocks, signal needs {n_blocks}"
        )
    weights = _per_sample_sh_weights(n, directions[:n_blocks], order, block_size, crossfade)
    weights *= signal.samples[:, None]
    return ShSignal(order, weights, signal.sample_rate)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant direction of time: (time_s, Direction) breakpoints."""

    points: tuple
    _times: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(sorted(self.points, key=lambda p: p[0]))
        if not pts:
            raise ValueError("empty trajectory")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_times", tuple(p[0] for p in pts))

    def direction_at(self, t):
        """Direction in force at time t: the last breakpoint (in sorted order)
        with time <= t, within 1e-12 s."""
        if t < self._times[0] - 1e-12:
            raise ValueError(f"trajectory gap: no direction at t={t}")
        i = bisect.bisect_right(self._times, t + 1e-12)
        return self.points[max(i, 1) - 1][1]

    @staticmethod
    def constant(direction):
        return Trajectory(((0.0, direction),))


def load_trajectory_csv(path):
    """Read a `time_s,azimuth_deg,elevation_deg` CSV into a Trajectory; a
    missing, non-numeric or non-finite value raises ValueError naming the
    file and line."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = ("time_s", "azimuth_deg", "elevation_deg")
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected header time_s,azimuth_deg,elevation_deg")
        for row in reader:
            try:
                time_s, az_deg, el_deg = (float(row[key]) for key in required)
            except (TypeError, ValueError):
                raise ValueError(f"{path}:{reader.line_num}: non-numeric value") from None
            if not all(math.isfinite(v) for v in (time_s, az_deg, el_deg)):
                raise ValueError(f"{path}:{reader.line_num}: non-finite value")
            points.append((time_s, Direction(math.radians(az_deg), math.radians(el_deg))))
    return Trajectory(tuple(points))


def save_trajectory_csv(path, trajectory):
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "azimuth_deg", "elevation_deg"])
        for time_s, direction in trajectory.points:
            writer.writerow(
                [
                    f"{time_s:.9g}",
                    f"{math.degrees(direction.azimuth):.9g}",
                    f"{math.degrees(direction.elevation):.9g}",
                ]
            )
