"""Binaural spatialization metrics: IACC, ILD, ITD, ISD and IPD.

All definitions are fixed here (the aggregation rules, lag window, gating and
units are this module's contract): larger ILD/ITD/ISD/IPD means a more
spatialized signal, IACC near 1 means spatially undifferentiated.

IACC reads the whole signal, the others only voiced frames: those whose louder
channel reaches `silence_gate_db`, as `_voiced` alone decides. ILD and ITD use
`frame_size`/`hop` frames, ISD and IPD Hann STFT frames; `spatial_report`
builds the voiced frames and the voiced spectra once and shares them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .audio import frame_rms, frames, stft


@dataclass(frozen=True)
class MetricConfig:
    frame_size: int = 400  # 25 ms at 16 kHz
    hop: int = 160  # 10 ms
    max_lag_ms: float = 1.0
    silence_gate_db: float = -60.0
    stft_frame: int = 512
    stft_hop: int = 160
    epsilon: float = 1e-10

    def max_lag_samples(self, sample_rate):
        lag = int(round(self.max_lag_ms * 1e-3 * sample_rate))
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


def _voiced(b, size, hop, cfg):
    """Mask of the (size, hop) frames whose louder channel reaches the
    silence gate; raises when no frame does."""
    rms = np.maximum(frame_rms(b.left, size, hop), frame_rms(b.right, size, hop))
    mask = 20.0 * np.log10(rms + 1e-300) >= cfg.silence_gate_db
    if not mask.any():
        raise ValueError("all frames below the silence gate")
    return mask


def _voiced_frames(b, cfg):
    mask = _voiced(b, cfg.frame_size, cfg.hop, cfg)
    return tuple(frames(ch.samples, cfg.frame_size, cfg.hop)[mask] for ch in (b.left, b.right))


def _voiced_spectra(b, cfg):
    specs = [stft(ch, cfg.stft_frame, cfg.stft_hop, "hann").frames for ch in (b.left, b.right)]
    mask = _voiced(b, cfg.stft_frame, cfg.stft_hop, cfg)
    return specs[0][mask], specs[1][mask]


def _itd_max_lag(sample_rate, cfg):
    max_lag = cfg.max_lag_samples(sample_rate)
    if cfg.frame_size < 2 * max_lag:
        raise ValueError("frames too short for the lag search window")
    return max_lag


def iacc(b, cfg=None):
    """Peak |normalized cross-correlation| over lags within +-max_lag,
    computed on the full signal."""
    cfg = cfg or MetricConfig()
    max_lag = cfg.max_lag_samples(b.sample_rate)
    left, right = b.left.samples, b.right.samples
    if len(left) <= max_lag:
        raise ValueError("signal shorter than the lag search window")
    norm = math.sqrt(float(np.dot(left, left)) * float(np.dot(right, right)))
    if norm == 0.0:
        raise ValueError("both channels are all-zero")
    peak = max(abs(float(np.dot(*_overlap(left, right, lag)))) for lag in _lag_order(max_lag))
    return min(peak / norm, 1.0)


def _ild(fl, fr, cfg):
    el, er = (np.sum(f**2, axis=1) + cfg.epsilon for f in (fl, fr))
    return float(np.mean(np.abs(10.0 * np.log10(el / er))))


def ild(b, cfg=None):
    """Mean |10 log10(E_left / E_right)| in dB over non-gated frames."""
    cfg = cfg or MetricConfig()
    return _ild(*_voiced_frames(b, cfg), cfg)


def _itd(max_lag, sample_rate, fl, fr):
    order = _lag_order(max_lag)
    corr = np.stack([np.einsum("ij,ij->i", *_overlap(fl, fr, lag)) for lag in order])
    lags = np.abs(np.array(order))[np.argmax(np.abs(corr), axis=0)]
    return float(np.mean(lags)) / sample_rate * 1e3


def itd(b, cfg=None):
    """Mean |per-frame cross-correlation peak lag| in ms over non-gated
    frames; ties between equal peaks break toward the smaller |lag|."""
    cfg = cfg or MetricConfig()
    return _itd(_itd_max_lag(b.sample_rate, cfg), b.sample_rate, *_voiced_frames(b, cfg))


def _isd(sl, sr, cfg):
    diff = np.abs(np.log10(np.abs(sl) + cfg.epsilon) - np.log10(np.abs(sr) + cfg.epsilon))
    return float(np.mean(diff))


def isd(b, cfg=None):
    """Mean over time-frequency bins of |log10(|L|+eps) - log10(|R|+eps)|
    (non-gated frames only)."""
    cfg = cfg or MetricConfig()
    return _isd(*_voiced_spectra(b, cfg), cfg)


def _ipd(sl, sr):
    wrapped = np.abs(np.pi - np.mod(np.pi - (np.angle(sl) - np.angle(sr)), 2.0 * np.pi))
    weights = np.abs(sl) * np.abs(sr)
    total = float(np.sum(weights))
    if total == 0.0:
        raise ValueError("all spectral weights are zero")
    return float(np.sum(weights * wrapped) / total)


def ipd(b, cfg=None):
    """Magnitude-weighted mean |interaural phase difference| in [0, pi]
    (non-gated frames, weights |L|*|R|, phase wrapped to (-pi, pi])."""
    cfg = cfg or MetricConfig()
    return _ipd(*_voiced_spectra(b, cfg))


def spatial_report(b, cfg=None):
    """Compute all five metrics on one binaural buffer."""
    cfg = cfg or MetricConfig()
    coherence = iacc(b, cfg)
    fl, fr = _voiced_frames(b, cfg)
    level, delay = _ild(fl, fr, cfg), _itd(_itd_max_lag(b.sample_rate, cfg), b.sample_rate, fl, fr)
    sl, sr = _voiced_spectra(b, cfg)
    return SpatialMetricsReport(coherence, level, delay, _isd(sl, sr, cfg), _ipd(sl, sr), len(fl))
