"""Binaural spatialization metrics: IACC, ILD, ITD, ISD and IPD.

All definitions are fixed here (the aggregation rules, lag window, gating and
units are this module's contract): larger ILD/ITD/ISD/IPD means a more
spatialized signal, IACC near 1 means spatially undifferentiated.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .audio import num_frames, stft


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


def _lagged_dot(left, right, lag):
    """sum_n left[n] * right[n + lag] over the valid overlap."""
    if lag >= 0:
        return float(np.dot(left[: len(left) - lag], right[lag:]))
    return float(np.dot(left[-lag:], right[: len(right) + lag]))


def _lag_order(max_lag):
    """Lags ordered by increasing |lag| so argmax ties resolve toward 0."""
    order = [0]
    for k in range(1, max_lag + 1):
        order.extend([-k, k])
    return order


def _frame_slices(n, cfg):
    t = num_frames(n, cfg.frame_size, cfg.hop)
    return [slice(k * cfg.hop, k * cfg.hop + cfg.frame_size) for k in range(t)]


def _gated(frame_l, frame_r, cfg):
    rms = math.sqrt(max(np.mean(frame_l**2), np.mean(frame_r**2)))
    return 20.0 * math.log10(rms + 1e-300) < cfg.silence_gate_db


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
    best = 0.0
    for lag in _lag_order(max_lag):
        best = max(best, abs(_lagged_dot(left, right, lag)) / norm)
    return min(best, 1.0)


def ild(b, cfg=None):
    """Mean |10 log10(E_left / E_right)| in dB over non-gated frames."""
    cfg = cfg or MetricConfig()
    left, right = b.left.samples, b.right.samples
    values = []
    for sl in _frame_slices(len(left), cfg):
        fl, fr = left[sl], right[sl]
        if _gated(fl, fr, cfg):
            continue
        el = float(np.sum(fl**2)) + cfg.epsilon
        er = float(np.sum(fr**2)) + cfg.epsilon
        values.append(abs(10.0 * math.log10(el / er)))
    if not values:
        raise ValueError("all frames below the silence gate")
    return float(np.mean(values))


def itd(b, cfg=None):
    """Mean |per-frame cross-correlation peak lag| in ms over non-gated
    frames; ties between equal peaks break toward the smaller |lag|."""
    cfg = cfg or MetricConfig()
    max_lag = cfg.max_lag_samples(b.sample_rate)
    if cfg.frame_size < 2 * max_lag:
        raise ValueError("frames too short for the lag search window")
    left, right = b.left.samples, b.right.samples
    lags = []
    for sl in _frame_slices(len(left), cfg):
        fl, fr = left[sl], right[sl]
        if _gated(fl, fr, cfg):
            continue
        best_lag, best_val = 0, -1.0
        for lag in _lag_order(max_lag):
            val = abs(_lagged_dot(fl, fr, lag))
            if val > best_val:
                best_val, best_lag = val, lag
        lags.append(abs(best_lag))
    if not lags:
        raise ValueError("all frames below the silence gate")
    return float(np.mean(lags)) / b.sample_rate * 1e3


def _stft_pair(b, cfg):
    specs = [
        stft(ch, cfg.stft_frame, cfg.stft_hop, "hann") for ch in (b.left, b.right)
    ]
    keep = []
    for k in range(specs[0].frames.shape[0]):
        sl = slice(k * cfg.stft_hop, k * cfg.stft_hop + cfg.stft_frame)
        if not _gated(b.left.samples[sl], b.right.samples[sl], cfg):
            keep.append(k)
    if not keep:
        raise ValueError("all frames below the silence gate")
    return specs[0].frames[keep], specs[1].frames[keep]


def isd(b, cfg=None):
    """Mean over time-frequency bins of |log10(|L|+eps) - log10(|R|+eps)|
    (non-gated frames only)."""
    cfg = cfg or MetricConfig()
    sl_, sr_ = _stft_pair(b, cfg)
    diff = np.abs(
        np.log10(np.abs(sl_) + cfg.epsilon) - np.log10(np.abs(sr_) + cfg.epsilon)
    )
    return float(np.mean(diff))


def ipd(b, cfg=None):
    """Magnitude-weighted mean |interaural phase difference| in [0, pi]
    (non-gated frames, weights |L|*|R|, phase wrapped to (-pi, pi])."""
    cfg = cfg or MetricConfig()
    sl_, sr_ = _stft_pair(b, cfg)
    phase = np.angle(sl_) - np.angle(sr_)
    wrapped = np.abs(np.pi - np.mod(np.pi - phase, 2.0 * np.pi))
    weights = np.abs(sl_) * np.abs(sr_)
    total = float(np.sum(weights))
    if total == 0.0:
        raise ValueError("all spectral weights are zero")
    return float(np.sum(weights * wrapped) / total)


def _voiced_frame_count(b, cfg):
    count = 0
    for sl in _frame_slices(len(b.left), cfg):
        if not _gated(b.left.samples[sl], b.right.samples[sl], cfg):
            count += 1
    return count


def spatial_report(b, cfg=None):
    """Compute all five metrics on one binaural buffer."""
    cfg = cfg or MetricConfig()
    return SpatialMetricsReport(
        iacc=iacc(b, cfg),
        ild_db=ild(b, cfg),
        itd_ms=itd(b, cfg),
        isd=isd(b, cfg),
        ipd_rad=ipd(b, cfg),
        frames_used=_voiced_frame_count(b, cfg),
    )
