"""Binaural spatialization metrics: IACC, ILD, ITD, ISD and IPD.

All definitions are fixed here, framing and gating included, as module
constants (the aggregation rules, lag window, gating and units are this
module's contract): larger ILD/ITD/ISD/IPD means a more spatialized signal,
IACC near 1 means spatially undifferentiated.

IACC reads the whole signal, the others only voiced frames: those whose louder
channel reaches `SILENCE_GATE_DB`, as `_gate` alone decides. ILD and ITD use
`FRAME_SIZE`/`HOP` frames, ISD and IPD Hann `STFT_FRAME`/`STFT_HOP` frames.
`spatial_report` frames each channel once per (size, hop): the gate takes its
frame energies from chunk sums of x^2 (`audio.frame_energy`) and ILD reuses
them; the frames themselves are strided views, of which only the voiced rows
are copied, for the ITD lag search and, windowed, for the one transform ISD
and IPD share.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import frame_energy, frames, hann

FRAME_SIZE = 400  # 25 ms at 16 kHz
HOP = 160  # 10 ms
MAX_LAG_MS = 1.0
SILENCE_GATE_DB = -60.0
STFT_FRAME = 512
STFT_HOP = 160
EPSILON = 1e-10


def max_lag_samples(sample_rate):
    """The +-MAX_LAG_MS lag search window in samples at sample_rate."""
    lag = int(round(MAX_LAG_MS * 1e-3 * sample_rate))
    if lag < 1:
        raise ValueError("max_lag must be at least one sample")
    return lag


@dataclass(frozen=True)
class SpatialMetricsReport:
    iacc: float
    ild_db: float
    itd_ms: float
    isd: float
    ipd_rad: float
    frames_used: int

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


def _overlap(left, right, lag):
    """Views along the last axis pairing left[n] with right[n + lag]."""
    n = left.shape[-1]
    if lag >= 0:
        return left[..., : n - lag], right[..., lag:]
    return left[..., -lag:], right[..., : n + lag]


def _lag_order(max_lag):
    """Lags ordered by increasing |lag| so argmax ties resolve toward 0."""
    return [0] + [sign * k for k in range(1, max_lag + 1) for sign in (-1, 1)]


def _gate(b, size, hop):
    """Mask of the (size, hop) frames whose louder channel reaches the
    silence gate, with both channels' frame energies; raises when no frame
    is voiced."""
    el, er = (frame_energy(ch.samples, size, hop) for ch in (b.left, b.right))
    rms = np.sqrt(np.maximum(el, er) / size)
    mask = 20.0 * np.log10(rms + 1e-300) >= SILENCE_GATE_DB
    if not mask.any():
        raise ValueError("all frames below the silence gate")
    return mask, el, er


def _voiced(b, size, hop):
    """Mask of the voiced (size, hop) frames (see _gate)."""
    return _gate(b, size, hop)[0]


def _voiced_rows(b, size, hop, mask):
    """Copies of the voiced (size, hop) frames of both channels."""
    return tuple(frames(ch.samples, size, hop)[mask] for ch in (b.left, b.right))


def _voiced_spectra(b):
    """Hann-windowed spectra of the voiced STFT frames of both channels; only
    voiced frames are windowed and transformed."""
    size, hop = STFT_FRAME, STFT_HOP
    if len(b) < size:
        raise ValueError("signal shorter than one frame")
    mask = _voiced(b, size, hop)
    window = hann(size)
    spectra = []
    for rows in _voiced_rows(b, size, hop, mask):
        rows *= window
        spectra.append(np.fft.rfft(rows, axis=1))
    return spectra


def _itd_max_lag(sample_rate):
    max_lag = max_lag_samples(sample_rate)
    if FRAME_SIZE < 2 * max_lag:
        raise ValueError("frames too short for the lag search window")
    return max_lag


def _dot(a, b):
    # einsum, not np.dot: a BLAS dot may run threads of its own, which then
    # contend with the worker pool's.
    return float(np.einsum("i,i->", a, b))


def iacc(b):
    """Peak |normalized cross-correlation| over lags within +-max_lag,
    computed on the full signal."""
    max_lag = max_lag_samples(b.sample_rate)
    left, right = b.left.samples, b.right.samples
    if len(left) <= max_lag:
        raise ValueError("signal shorter than the lag search window")
    norm = math.sqrt(_dot(left, left) * _dot(right, right))
    if norm == 0.0:
        raise ValueError("both channels are all-zero")
    peak = max(abs(_dot(*_overlap(left, right, lag))) for lag in _lag_order(max_lag))
    return min(peak / norm, 1.0)


def _ild(el, er):
    return float(np.mean(np.abs(10.0 * np.log10((el + EPSILON) / (er + EPSILON)))))


def ild(b):
    """Mean |10 log10(E_left / E_right)| in dB over non-gated frames."""
    mask, el, er = _gate(b, FRAME_SIZE, HOP)
    return _ild(el[mask], er[mask])


def _itd(max_lag, sample_rate, fl, fr):
    # Row l of corr holds every frame's lagged dot at lag l - max_lag; the
    # zero padding only adds exact zeros, so exact ties stay exact.
    padded = np.pad(fr, ((0, 0), (max_lag, max_lag)))
    corr = np.einsum("in,iln->li", fl, sliding_window_view(padded, fl.shape[1], axis=1))
    order = np.array(_lag_order(max_lag))
    lags = np.abs(order)[np.argmax(np.abs(corr[order + max_lag]), axis=0)]
    return float(np.mean(lags)) / sample_rate * 1e3


def itd(b):
    """Mean |per-frame cross-correlation peak lag| in ms over non-gated
    frames; ties between equal peaks break toward the smaller |lag|."""
    max_lag = _itd_max_lag(b.sample_rate)
    mask = _voiced(b, FRAME_SIZE, HOP)
    return _itd(max_lag, b.sample_rate, *_voiced_rows(b, FRAME_SIZE, HOP, mask))


def _isd(al, ar):
    return float(np.mean(np.abs(np.log10((al + EPSILON) / (ar + EPSILON)))))


def isd(b):
    """Mean over time-frequency bins of |log10(|L|+eps) - log10(|R|+eps)|
    (non-gated frames only)."""
    return _isd(*(np.abs(s) for s in _voiced_spectra(b)))


def _ipd(sl, sr, weights):
    # The angle of L * conj(R) is the phase difference already wrapped to
    # [-pi, pi]; weights holds |L| * |R|.
    total = float(np.sum(weights))
    if total == 0.0:
        raise ValueError("all spectral weights are zero")
    return float(np.sum(weights * np.abs(np.angle(sl * np.conj(sr)))) / total)


def ipd(b):
    """Magnitude-weighted mean |interaural phase difference| in [0, pi]
    (non-gated frames, weights |L|*|R|, phase wrapped to (-pi, pi])."""
    sl, sr = _voiced_spectra(b)
    return _ipd(sl, sr, np.abs(sl) * np.abs(sr))


def spatial_report(b):
    """Compute all five metrics on one binaural buffer."""
    coherence = iacc(b)
    mask, el, er = _gate(b, FRAME_SIZE, HOP)
    level = _ild(el[mask], er[mask])
    max_lag = _itd_max_lag(b.sample_rate)
    delay = _itd(max_lag, b.sample_rate, *_voiced_rows(b, FRAME_SIZE, HOP, mask))
    sl, sr = _voiced_spectra(b)
    al, ar = np.abs(sl), np.abs(sr)
    spread, phase = _isd(al, ar), _ipd(sl, sr, al * ar)
    return SpatialMetricsReport(coherence, level, delay, spread, phase, int(mask.sum()))
