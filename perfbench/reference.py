"""Benchmark-side references for the program's outputs.

Written from the documented definitions in vectorised NumPy, sharing no
code with the package under test. Tolerances are those of the package's own
test suite: 1e-9 relative for metric values, 1e-6 absolute for rendered
samples (the output is float-32).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.io import wavfile

# Rendering constants the CLI uses by default.
BLOCK = 1024
CROSSFADE = 256
SPEAKERS = 8
HEAD_RADIUS = 0.0875
SPEED_OF_SOUND = 343.0
CONTRA_DB = 6.0
FIELD_OF_VIEW = math.radians(90.0)

# Metric constants (MetricConfig defaults).
FRAME, HOP = 400, 160
STFT_FRAME, STFT_HOP = 512, 160
MAX_LAG_MS = 1.0
GATE_DB = -60.0
EPS = 1e-10

METRIC_RTOL = 1e-9
RENDER_ATOL = 1e-6


def _sh1(azimuth, elevation):
    """Order-1 real SH (ACN, SN3D): columns W, Y, Z, X."""
    ce = np.cos(elevation)
    return np.stack(
        [np.ones_like(azimuth), np.sin(azimuth) * ce, np.sin(elevation), np.cos(azimuth) * ce],
        axis=-1,
    )


def _ring():
    return 2.0 * math.pi * np.arange(SPEAKERS) / SPEAKERS


def _ear_filters(sample_rate):
    """Per-speaker (delay, gain) for each ear under the spherical-head model:
    Woodworth far-ear delay, cosine-law broadband shadow."""
    az = _ring()
    lateral = np.arcsin(np.clip(np.sin(az), -1.0, 1.0))
    theta = np.abs(lateral)
    extra = np.rint(HEAD_RADIUS / SPEED_OF_SOUND * (theta + np.sin(theta)) * sample_rate).astype(int)
    left_near = lateral >= 0
    delays = np.stack([np.where(left_near, 0, extra), np.where(left_near, extra, 0)])
    cos_to_ear = np.stack([np.sin(az), -np.sin(az)])
    gains = 10.0 ** (-CONTRA_DB * (1.0 - cos_to_ear) / 2.0 / 20.0)
    return delays, gains


def block_directions_from_csv(csv_path, n_samples, sample_rate):
    """(azimuth, elevation) in radians at every block start."""
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    return _sample_breakpoints(
        table[:, 0], np.radians(table[:, 1]), np.radians(table[:, 2]), n_samples, sample_rate
    )


def block_directions_from_hmap(hmap_path, n_samples, sample_rate, frame_rate=31.25):
    """Azimuth (0.5 - s_h) * fov per heatmap frame, s_h the 1-based column
    centroid over the width; all-zero frames sit straight ahead."""
    with open(hmap_path) as fh:
        _, _, t, h, w = fh.readline().split()
        values = np.loadtxt(fh, ndmin=2).reshape(int(t), int(h), int(w))
    cols = values.sum(axis=1)
    total = cols.sum(axis=1)
    centroid = cols @ np.arange(1, int(w) + 1) / np.where(total > 0, total, 1.0)
    s_h = np.where(total > 0, centroid / int(w), 0.5)
    times = np.arange(int(t)) / frame_rate
    return _sample_breakpoints(
        times, (0.5 - s_h) * FIELD_OF_VIEW, np.zeros(int(t)), n_samples, sample_rate
    )


def _sample_breakpoints(times, azimuth, elevation, n_samples, sample_rate):
    n_blocks = max(1, -(-n_samples // BLOCK))
    starts = np.arange(n_blocks) * BLOCK / sample_rate
    idx = np.searchsorted(times, starts + 1e-12, side="right") - 1
    if np.any(idx < 0):
        raise ValueError("trajectory starts after the clip")
    return azimuth[idx], elevation[idx]


def render_segment(mono, azimuth, elevation, start, stop, sample_rate):
    """Binaural output samples [start, stop) for a mono signal moving through
    per-block directions: crossfaded SH encode, ring pseudo-inverse decode,
    single-tap ear filters."""
    delays, gains = _ear_filters(sample_rate)
    lo = max(0, start - int(delays.max()))
    n = np.arange(lo, stop)
    block = n // BLOCK
    pos = n - block * BLOCK
    current = _sh1(azimuth[block], elevation[block])
    previous = _sh1(azimuth[np.maximum(block - 1, 0)], elevation[np.maximum(block - 1, 0)])
    alpha = ((pos + 1.0) / CROSSFADE)[:, None]
    fading = ((block > 0) & (pos < CROSSFADE))[:, None]
    weights = np.where(fading, (1.0 - alpha) * previous + alpha * current, current)
    ring = _ring()
    projection = np.linalg.pinv(_sh1(ring, np.zeros(SPEAKERS))).T  # M x 4
    feeds = (weights * mono[lo:stop, None]) @ projection.T  # samples x M
    out = np.zeros((stop - start, 2))
    for ear in range(2):
        for m in range(SPEAKERS):
            d = delays[ear, m]
            src = np.arange(start, stop) - d
            valid = src >= lo
            out[valid, ear] += gains[ear, m] * feeds[src[valid] - lo, m]
    return out


def check_render(path, mono, azimuth, elevation, segment_start, segment_len, sample_rate):
    """Problems with one rendered file, as strings (empty when it is right)."""
    rate, data = wavfile.read(path)
    problems = []
    if rate != sample_rate or data.ndim != 2 or data.shape[1] != 2:
        return [f"{path}: expected {sample_rate} Hz stereo, got {rate} Hz shape {data.shape}"]
    if len(data) != len(mono):
        problems.append(f"{path}: {len(data)} samples, input has {len(mono)}")
    if not np.all(np.isfinite(data)):
        problems.append(f"{path}: non-finite samples")
    if problems:
        return problems
    stop = min(len(mono), segment_start + segment_len)
    want = render_segment(mono, azimuth, elevation, segment_start, stop, sample_rate)
    err = float(np.max(np.abs(data[segment_start:stop].astype(np.float64) - want)))
    if err > RENDER_ATOL:
        problems.append(f"{path}: samples [{segment_start}, {stop}) differ from the reference by {err:.3g}")
    return problems


# -------------------------------------------------------------------- metrics

def _frames(x, size, hop):
    count = 0 if len(x) < size else 1 + (len(x) - size) // hop
    return x[np.arange(size)[None, :] + hop * np.arange(count)[:, None]]


def _voiced(fl, fr):
    power = np.maximum(np.mean(fl**2, axis=1), np.mean(fr**2, axis=1))
    return 20.0 * np.log10(np.sqrt(power) + 1e-300) >= GATE_DB


def _lags(max_lag):
    """0, -1, 1, -2, 2, ...: argmax ties resolve toward the smaller |lag|."""
    return np.array([0] + [s * k for k in range(1, max_lag + 1) for s in (-1, 1)])


def _lagged(fl, fr, lag):
    """Row-wise sum_n fl[n] fr[n + lag] over the overlap."""
    if lag >= 0:
        return np.sum(fl[..., : fl.shape[-1] - lag] * fr[..., lag:], axis=-1)
    return np.sum(fl[..., -lag:] * fr[..., : fr.shape[-1] + lag], axis=-1)


def reference_metrics(left, right, sample_rate):
    max_lag = int(round(MAX_LAG_MS * 1e-3 * sample_rate))
    lags = _lags(max_lag)
    norm = math.sqrt(float(np.sum(left**2)) * float(np.sum(right**2)))
    iacc = min(1.0, max(abs(float(_lagged(left, right, k))) / norm for k in lags))

    fl, fr = _frames(left, FRAME, HOP), _frames(right, FRAME, HOP)
    keep = _voiced(fl, fr)
    frames_used = int(keep.sum())
    fl, fr = fl[keep], fr[keep]
    el = np.sum(fl**2, axis=1) + EPS
    er = np.sum(fr**2, axis=1) + EPS
    ild = float(np.mean(np.abs(10.0 * np.log10(el / er))))
    corr = np.abs(np.stack([_lagged(fl, fr, k) for k in lags]))
    itd = float(np.mean(np.abs(lags[np.argmax(corr, axis=0)]))) / sample_rate * 1e3

    sl, sr = _frames(left, STFT_FRAME, STFT_HOP), _frames(right, STFT_FRAME, STFT_HOP)
    keep = _voiced(sl, sr)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(STFT_FRAME) / STFT_FRAME)
    spec_l = np.fft.rfft(sl[keep] * window, axis=1)
    spec_r = np.fft.rfft(sr[keep] * window, axis=1)
    isd = float(np.mean(np.abs(np.log10(np.abs(spec_l) + EPS) - np.log10(np.abs(spec_r) + EPS))))
    phase = np.angle(spec_l) - np.angle(spec_r)
    wrapped = np.abs(np.angle(np.exp(1j * phase)))
    weights = np.abs(spec_l) * np.abs(spec_r)
    ipd = float(np.sum(weights * wrapped) / np.sum(weights))
    return {
        "iacc": iacc,
        "ild_db": ild,
        "itd_ms": itd,
        "isd": isd,
        "ipd_rad": ipd,
        "frames_used": frames_used,
    }


def check_metrics(clip_id, got, left, right, sample_rate):
    want = reference_metrics(left, right, sample_rate)
    problems = []
    for key, value in want.items():
        have = got.get(key)
        if have is None or abs(have - value) > METRIC_RTOL * max(abs(have), abs(value), 1e-12):
            problems.append(f"{clip_id}: {key} = {have}, reference {value}")
    return problems
