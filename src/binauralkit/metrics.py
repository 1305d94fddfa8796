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
them; the frames themselves are strided views of the contiguous channels.
When every frame is voiced the views are used as they are, else only the
voiced rows are copied: for the ITD lag search and, windowed into one array
of both channels, for the one transform ISD and IPD share. Each lag search
is one `np.vecdot` over a read-only rows x lags x samples view of a
zero-padded copy of the right channel: ITD's rows are the voiced frames,
IACC's the whole signal cut into `IACC_BLOCK`-sample blocks, whose partial
dots it then sums. On PCM-16 input of up to 2^21 samples per channel every
lagged sum is exact, so no summation order can change a bit of a metric.
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
IACC_BLOCK = 2048  # samples per row of IACC's lag search; at most 10,000 (see iacc)


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
    """The voiced (size, hop) frames of both channels: the read-only frame
    views themselves when every frame is voiced, else copies of the voiced
    rows."""
    views = [frames(ch.samples, size, hop) for ch in (b.left, b.right)]
    return views if mask.all() else [rows[mask] for rows in views]


_WINDOW = hann(STFT_FRAME)


def _voiced_spectra(b):
    """Hann-windowed spectra of the voiced STFT frames of both channels, one
    2 x T x (STFT_FRAME/2 + 1) array; only voiced frames are windowed and
    transformed, both channels in one call."""
    size, hop = STFT_FRAME, STFT_HOP
    if len(b) < size:
        raise ValueError("signal shorter than one frame")
    mask = _voiced(b, size, hop)
    windowed = np.empty((2, int(mask.sum()), size))
    for out, rows in zip(windowed, _voiced_rows(b, size, hop, mask)):
        np.multiply(rows, _WINDOW, out=out)
    return np.fft.rfft(windowed, axis=-1)


def _itd_max_lag(sample_rate):
    max_lag = max_lag_samples(sample_rate)
    if FRAME_SIZE < 2 * max_lag:
        raise ValueError("frames too short for the lag search window")
    return max_lag


def _lagged_rows(rows, max_lag):
    """Read-only view of a zero-padded copy of the stacked frames `rows`
    whose entry [i, l, n] is rows[i, n + l - max_lag], 0 outside the row:
    one vecdot with the other channel's frames gives every lagged dot, and
    the padding adds only exact zeros to each sum."""
    n = rows.shape[-1]
    padded = np.zeros(rows.shape[:-1] + (n + 2 * max_lag,))
    padded[..., max_lag : max_lag + n] = rows
    return sliding_window_view(padded, n, axis=-1)


def _lagged_blocks(x, max_lag):
    """Read-only k x (2 max_lag + 1) x IACC_BLOCK view of a zero-padded copy
    of the signal `x` whose entry [j, l, m] is x[j B + m + l - max_lag], with
    B = IACC_BLOCK and 0 outside x: its vecdot with the other channel cut
    into zero-padded blocks, summed over j, gives the whole-signal lagged
    dots."""
    k = -(-len(x) // IACC_BLOCK)
    padded = np.zeros(k * IACC_BLOCK + 2 * max_lag)
    padded[max_lag : max_lag + len(x)] = x
    spans = sliding_window_view(padded, IACC_BLOCK + 2 * max_lag)[::IACC_BLOCK]
    return sliding_window_view(spans, IACC_BLOCK, axis=-1)


def iacc(b):
    """Peak |normalized cross-correlation| over lags within +-max_lag,
    computed on the full signal."""
    max_lag = max_lag_samples(b.sample_rate)
    left, right = b.left.samples, b.right.samples
    if len(left) <= max_lag:
        raise ValueError("signal shorter than the lag search window")
    # A BLAS call may run threads of its own, which then contend with the
    # worker pool's. OpenBLAS runs a dot of at most 10,000 samples on one
    # thread, so the lag search's vecdot takes rows of IACC_BLOCK samples,
    # and the whole-signal energies stay einsum.
    el, er = np.einsum("n,n->", left, left), np.einsum("n,n->", right, right)
    norm = math.sqrt(el * er)
    if norm == 0.0:
        silent = [name for name, e in (("left", el), ("right", er)) if e == 0.0]
        raise ValueError(f"{silent[0]} channel is all-zero" if len(silent) == 1
                         else "both channels are all-zero")
    lagged = _lagged_blocks(right, max_lag)
    blocks = np.zeros((len(lagged), IACC_BLOCK))
    blocks.reshape(-1)[: len(left)] = left
    corr = np.add.reduce(np.vecdot(lagged, blocks[:, None, :]), axis=0)
    return min(float(np.max(np.abs(corr))) / norm, 1.0)


def _ild(el, er):
    return float(np.mean(np.abs(10.0 * np.log10((el + EPSILON) / (er + EPSILON)))))


def ild(b):
    """Mean |10 log10(E_left / E_right)| in dB over non-gated frames."""
    mask, el, er = _gate(b, FRAME_SIZE, HOP)
    return _ild(el[mask], er[mask])


def _itd(max_lag, sample_rate, fl, fr):
    # Column l of corr holds every frame's lagged dot at lag l - max_lag;
    # ties stay exact where the lagged sums are exact.
    corr = np.vecdot(_lagged_rows(fr, max_lag), fl[:, None, :])
    order = np.array(_lag_order(max_lag))
    lags = np.abs(order)[np.argmax(np.abs(corr[:, order + max_lag]), axis=1)]
    return float(np.mean(lags)) / sample_rate * 1e3


def itd(b):
    """Mean |per-frame cross-correlation peak lag| in ms over non-gated
    frames; ties between equal peaks break toward the smaller |lag|."""
    max_lag = _itd_max_lag(b.sample_rate)
    mask = _voiced(b, FRAME_SIZE, HOP)
    return _itd(max_lag, b.sample_rate, *_voiced_rows(b, FRAME_SIZE, HOP, mask))


def _isd(magnitudes):
    """ISD of the 2 x T x F magnitudes, computed in their buffer."""
    magnitudes += EPSILON
    ratio = np.divide(*magnitudes, out=magnitudes[0])
    return float(np.mean(np.abs(np.log10(ratio, out=ratio), out=ratio)))


def isd(b):
    """Mean over time-frequency bins of |log10(|L|+eps) - log10(|R|+eps)|
    (non-gated frames only)."""
    return _isd(np.abs(_voiced_spectra(b)))


def _ipd(spectra, weights):
    """IPD of the 2 x T x F spectra: conj(R) * L overwrites their right
    half, its angle takes one new array, and weights, which holds
    |L| * |R|, is overwritten."""
    # The angle of conj(R) * L is the phase difference already wrapped to
    # [-pi, pi]. The operand order is fixed: a complex product rounds
    # differently with its operands swapped. The angle goes to a contiguous
    # array: NumPy's arctan2 into a strided one rounds differently.
    total = float(np.sum(weights))
    if total == 0.0:
        raise ValueError("all spectral weights are zero")
    sl, sr = spectra
    phase = np.angle(np.multiply(np.conjugate(sr, out=sr), sl, out=sr))
    weights *= np.abs(phase, out=phase)
    return float(np.sum(weights)) / total


def ipd(b):
    """Magnitude-weighted mean |interaural phase difference| in [0, pi]
    (non-gated frames, weights |L|*|R|, phase wrapped to (-pi, pi])."""
    spectra = _voiced_spectra(b)
    return _ipd(spectra, np.multiply(*np.abs(spectra)))


def spatial_report(b):
    """Compute all five metrics on one binaural buffer."""
    coherence = iacc(b)
    mask, el, er = _gate(b, FRAME_SIZE, HOP)
    level = _ild(el[mask], er[mask])
    max_lag = _itd_max_lag(b.sample_rate)
    delay = _itd(max_lag, b.sample_rate, *_voiced_rows(b, FRAME_SIZE, HOP, mask))
    spectra = _voiced_spectra(b)
    magnitudes = np.abs(spectra)
    weights = np.multiply(*magnitudes)
    spread, phase = _isd(magnitudes), _ipd(spectra, weights)
    return SpatialMetricsReport(coherence, level, delay, spread, phase, int(mask.sum()))
