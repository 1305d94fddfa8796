"""Real spherical-harmonic encoding, virtual loudspeaker layouts, the
pseudo-inverse projection of SH signals onto per-speaker feeds, and
piecewise-constant source trajectories.

Conventions: real SH, ACN channel ordering, SN3D normalization. Azimuth is
measured counterclockwise from front (positive = listener's left), elevation
up from the horizontal plane.

A direction is an azimuth and an elevation in radians, and many directions
are two arrays: a finite azimuth, wrapped into [-pi, pi), and an elevation
within [-pi/2, pi/2] (up to ELEVATION_SLACK), the rule _directions checks.
sh_basis evaluates the SH channels for whole arrays of directions. A
SpeakerLayout is horizontal and holds its directions as one azimuth array,
and a Trajectory its breakpoints as time, azimuth and elevation arrays (the
CSV loader reads them with one np.loadtxt call); index_at finds the
breakpoint in force at many times with one search.
SH signals and speaker feeds are plain N x K and N x M arrays. EncodedRows
is the mono signal encoded along per-block gains, a row source whose rows
are built on demand a slice at a time; encode_mono builds all of it.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .audio import read_text

RIDGE = 1e-12
SINGULARITY_TOL = 1e-10
DEFAULT_BLOCK_SIZE = 1024
DEFAULT_CROSSFADE = 256
ELEVATION_SLACK = 1e-12
ELEVATION_LIMIT = math.pi / 2 + ELEVATION_SLACK
DUPLICATE_SEPARATION = 1e-9  # radians; two layout directions closer are one


class LayoutError(ValueError):
    """Degenerate speaker layout (duplicate or near-duplicate directions)."""


def wrap_azimuth(azimuth):
    """Wrap an angle into [-pi, pi)."""
    return (azimuth + math.pi) % (2.0 * math.pi) - math.pi


def _directions(azimuth, elevation):
    """Azimuths and elevations in radians as float64 arrays, the azimuths
    wrapped into [-pi, pi). A non-finite azimuth or an elevation outside
    [-pi/2, pi/2] (by more than ELEVATION_SLACK) raises ValueError."""
    azimuth = np.asarray(azimuth, dtype=np.float64)
    elevation = np.asarray(elevation, dtype=np.float64)
    if not np.all(np.isfinite(azimuth)):
        raise ValueError("azimuth must be finite")
    if not np.all(np.abs(elevation) <= ELEVATION_LIMIT):
        raise ValueError("elevation outside [-pi/2, pi/2]")
    return wrap_azimuth(azimuth), elevation


def sh_basis(azimuth, elevation, order):
    """Real SH basis values (ACN order, SN3D), orders 0 and 1, for arrays of
    azimuths and elevations in radians: shape (..., (order+1)^2).

    Order-1 channels are (W, Y, Z, X) = (1, sin az cos el, sin el, cos az cos el).
    """
    if order not in (0, 1):
        raise ValueError(f"unsupported SH order {order} (0 or 1)")
    az = np.asarray(azimuth, dtype=np.float64)
    el = np.broadcast_to(np.asarray(elevation, dtype=np.float64), az.shape)
    channels = [np.ones_like(az)]
    if order == 1:
        ce = np.cos(el)
        channels += [np.sin(az) * ce, np.sin(el), np.cos(az) * ce]
    return np.stack(channels, axis=-1)


class SpeakerLayout:
    """Pairwise-distinct horizontal virtual loudspeaker directions: an
    `azimuth` array in radians, wrapped into [-pi, pi). Two sorted neighbours,
    or the last and the first one turn on, less than DUPLICATE_SEPARATION
    apart are duplicates and raise LayoutError: so are two at -pi and pi."""

    def __init__(self, azimuth):
        azimuth = _directions(azimuth, 0.0)[0]
        if azimuth.ndim != 1 or len(azimuth) < 1:
            raise ValueError("azimuth must be a non-empty 1-D array")
        ordered = np.sort(azimuth)
        gaps = np.diff(ordered, append=ordered[0] + 2.0 * math.pi)
        k = int(np.argmin(gaps))
        if gaps[k] < DUPLICATE_SEPARATION:
            raise LayoutError(f"duplicate layout direction {ordered[(k + 1) % len(ordered)]}: "
                              f"within {DUPLICATE_SEPARATION} rad of {ordered[k]}")
        self.azimuth = azimuth

    def __len__(self):
        return len(self.azimuth)


def ring_layout(m):
    """M equally spaced horizontal directions at azimuths 2*pi*k/M."""
    if m < 2:
        raise ValueError("ring layout needs M >= 2")
    return SpeakerLayout(2.0 * math.pi * np.arange(m) / m)


def decode_matrix(layout, order):
    """The M x K projection P = D (D^T D + ridge I)^-1 that maps SH vectors
    to speaker feeds, where row m of D is sh_basis at speaker m, elevation 0.
    SH channels that no layout direction excites (column norm ~ 0, as Z) are
    dropped from the normal equations and receive zero projection weight.
    Raises LayoutError when D^T D (restricted to excited channels) is
    singular beyond tolerance."""
    d = sh_basis(layout.azimuth, 0.0, order)
    col_norms = np.linalg.norm(d, axis=0)
    active = col_norms > 1e-9 * max(1.0, col_norms.max())
    da = d[:, active]
    g = da.T @ da
    eig = np.linalg.eigvalsh(g)
    if eig[0] <= SINGULARITY_TOL * eig[-1]:
        raise LayoutError("degenerate layout: D^T D singular beyond tolerance")
    projection = np.zeros_like(d)
    projection[:, active] = da @ np.linalg.inv(g + RIDGE * np.eye(g.shape[0]))
    return projection


def project_to_speakers(sh, projection):
    """The N x M speaker feeds of the N x K SH rows `sh` through the M x K
    projection: sh @ projection.T."""
    if projection.shape[1] != np.shape(sh)[1]:
        raise ValueError("SH order mismatch between signal and decode matrix")
    return sh @ projection.T


class EncodedRows:
    """A mono signal weighted by K per-block gains: an N x K row source whose
    rows are built on demand, so the N x K array is never held whole.
    `self[lo:hi]` builds rows lo..hi-1, as an N x K array would give them.
    With SH gains the rows are the SH encoding (encode_mono, and the row
    source of the render's FFT path); the render's tap sum passes one gain
    per nonzero tap of its ear filter bank.

    Block b of DEFAULT_BLOCK_SIZE samples takes the gain row `gains[b]`; the
    first DEFAULT_CROSSFADE samples of every block after the first ramp
    linearly from the previous block's gains.
    """

    def __init__(self, samples, gains):
        self.samples = samples
        self.gains = gains
        self.shape = (len(samples), gains.shape[1])

    def __getitem__(self, rows):
        lo, hi, step = rows.indices(self.shape[0])
        if step != 1:
            raise ValueError("EncodedRows takes a slice of consecutive rows")
        # Built channel-major (K x rows), so every fill runs along a long
        # contiguous axis; returned as its N x K transpose.
        size, fade = DEFAULT_BLOCK_SIZE, DEFAULT_CROSSFADE
        first, last = lo // size, -(-hi // size)  # the blocks that rows lo..hi-1 touch
        gains = self.gains.T[:, :, None]  # K x blocks x 1
        weights = np.empty((self.shape[1], last - first, size))
        weights[:] = gains[:, first:last]
        ramped = max(first, 1)  # block 0 has no previous block to fade from
        if last > ramped:
            alpha = (np.arange(fade) + 1.0) / fade
            weights[:, ramped - first :, :fade] = (
                (1.0 - alpha) * gains[:, ramped - 1 : last - 1] + alpha * gains[:, ramped:last]
            )
        weights = weights.reshape(self.shape[1], -1)[:, lo - first * size : hi - first * size]
        weights *= self.samples[lo:hi]
        return weights.T


def encode_mono(samples, azimuth, elevation, order=1):
    """The N x (order+1)^2 SH rows of the N mono samples encoded along a
    per-block trajectory: EncodedRows(samples, gains)[0:N].

    `azimuth` and `elevation` give one direction (constant) or one per
    DEFAULT_BLOCK_SIZE-sample block, covering the whole signal. Directions
    change block-wise with a DEFAULT_CROSSFADE-sample linear crossfade at
    block boundaries.
    """
    gains = sh_basis(*_directions(azimuth, elevation), order).reshape(-1, (order + 1) ** 2)
    if len(gains) == 0:
        raise ValueError("empty trajectory")
    n = len(samples)
    n_blocks = max(1, -(-n // DEFAULT_BLOCK_SIZE))
    if len(gains) == 1:
        gains = np.repeat(gains, n_blocks, axis=0)
    if len(gains) < n_blocks:
        raise ValueError(f"trajectory covers {len(gains)} blocks, signal needs {n_blocks}")
    return EncodedRows(samples, gains[:n_blocks])[0:n]


class Trajectory:
    """Piecewise-constant direction of time, held as breakpoint arrays sorted
    by time (stable): `times` in seconds, `azimuth` (wrapped into [-pi, pi))
    and `elevation` in radians. Times must be finite, and the directions
    keep the rule of _directions."""

    def __init__(self, times, azimuth, elevation):
        times = np.asarray(times, dtype=np.float64)
        azimuth, elevation = _directions(azimuth, elevation)
        if times.ndim != 1 or azimuth.shape != times.shape or elevation.shape != times.shape:
            raise ValueError("times, azimuth and elevation must be 1-D arrays of one length")
        if len(times) == 0:
            raise ValueError("empty trajectory")
        if not np.all(np.isfinite(times)):
            raise ValueError("trajectory times must be finite")
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.azimuth = azimuth[order]
        self.elevation = elevation[order]

    def index_at(self, t):
        """Index of the breakpoint in force at time(s) t: the last one (in
        sorted order) with time <= t, within 1e-12 s. A time before the first
        breakpoint is a gap and raises ValueError."""
        first = float(np.min(t))
        if first < self.times[0] - 1e-12:
            raise ValueError(f"trajectory gap: no direction at t={first}")
        i = np.searchsorted(self.times, np.asarray(t) + 1e-12, side="right")
        return np.maximum(i, 1) - 1

    def direction_at(self, t):
        """(azimuth, elevation) in force at time t (see index_at)."""
        i = int(self.index_at(t))
        return float(self.azimuth[i]), float(self.elevation[i])


TRAJECTORY_COLUMNS = ("time_s", "azimuth_deg", "elevation_deg")


def load_trajectory_csv(path):
    """Read a `time_s,azimuth_deg,elevation_deg` CSV into a Trajectory; a
    missing, non-numeric or non-finite value, or an elevation outside
    [-90, 90] degrees, raises ValueError naming the file and line.

    The rows are read with one np.loadtxt call. A file it cannot take, or
    one holding a bad value, goes through the row-by-row reader instead,
    which raises at the first bad line.
    """
    text = read_text(path)
    fh = io.StringIO(text, newline="")
    header = next(csv.reader(fh), None)
    body = fh.read()
    if header is None or not set(TRAJECTORY_COLUMNS).issubset(header):
        raise ValueError(f"{path}: expected header time_s,azimuth_deg,elevation_deg")
    # As in csv.DictReader, the last of repeated column names wins.
    cols = [len(header) - 1 - header[::-1].index(name) for name in TRAJECTORY_COLUMNS]
    table = None
    # Without quote characters a CSV row is its line split at the commas.
    if '"' not in body and body.strip("\r\n"):
        try:
            table = np.loadtxt(
                io.StringIO(body), delimiter=",", comments=None, usecols=cols, ndmin=2
            )
        except ValueError:
            pass
    if table is None or not np.all(np.isfinite(table)) or not _elevation_ok(table[:, 2]):
        table = _read_trajectory_rows(path, text)
    if len(table) == 0:
        raise ValueError(f"{path}: empty trajectory")
    return Trajectory(table[:, 0], np.radians(table[:, 1]), np.radians(table[:, 2]))


def _elevation_ok(degrees):
    """Whether elevations in degrees pass the direction rule once in radians."""
    return bool(np.all(np.abs(np.radians(degrees)) <= ELEVATION_LIMIT))


def _read_trajectory_rows(path, text):
    """The T x 3 table of the trajectory CSV `text` (read from `path`) read
    row by row with csv.DictReader, raising at the first bad line."""
    rows = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    for row in reader:
        try:
            values = [float(row[key]) for key in TRAJECTORY_COLUMNS]
        except (TypeError, ValueError):
            raise ValueError(f"{path}:{reader.line_num}: non-numeric value") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}:{reader.line_num}: non-finite value")
        if not _elevation_ok(values[2]):
            raise ValueError(f"{path}:{reader.line_num}: elevation outside [-90, 90] degrees")
        rows.append(values)
    return np.array(rows).reshape(-1, 3)

