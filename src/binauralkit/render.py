"""Mono-to-binaural rendering through an SH-domain ear filter bank.

The source is encoded into spherical-harmonic (SH) channels along its
trajectory. Projecting onto M virtual loudspeakers and convolving each feed
with that speaker's HRIR pair is linear, so the two steps fold into one
filter bank with a filter per ear e and SH channel k,
bank[e, k] = sum_m P[m, k] h_e,m, where P is the speaker projection and h_e,m
is row e of speaker m's 2 x L HRIR (hrir.lookup): the virtual-loudspeaker /
SH-domain equivalence of Noisternig et al., VECIMS 2003.

The source direction is constant over each block of DEFAULT_BLOCK_SIZE
samples, with a DEFAULT_CROSSFADE-sample linear crossfade into the next:
one search over the trajectory's breakpoint arrays finds every block's
direction, and one vectorised SH evaluation gives its gains. The crossfaded
SH weights w_k are linear in the gains, so ear e's output,
sum_d sum_k bank[e, k, d] w_k[n - d] x[n - d], takes one pass per nonzero
tap (e, d): the signal weighted by the crossfaded gains @ bank[e, :, d]
(ambisonic.EncodedRows), added in d samples late. This is exact for any
bank, and costs one pass per nonzero tap: 6 on the head model's 8-speaker
ring at 16 kHz, 34 on a 64-speaker ring at 48 kHz. A bank with more taps
than a block FFT convolution of the SH signal costs in passes
(FFT_COST_IN_PASSES) takes that convolution (audio.fft_convolve) instead,
as the 64-speaker ring at 48 kHz does at SH order 1. Both paths slice one
kind of row source, EncodedRows, a chunk at a time: the FFT path its SH
rows, the tap sum its per-tap weights. So a render never holds the N x K
encoded signal, and it is as long as its mono input.

render_trajectory is the one entry point; a fixed direction is the
one-breakpoint trajectory Trajectory([0.0], [azimuth], [elevation]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, BinauralBuffer, fft_convolve
from .ambisonic import (
    DEFAULT_BLOCK_SIZE,
    EncodedRows,
    Trajectory,
    decode_matrix,
    ring_layout,
    sh_basis,
)
from .heatmap import FEATURE_NAMES, FRAME_RATE
from .hrir import lookup

DEFAULT_FIELD_OF_VIEW = math.pi / 2
DEFAULT_SPEAKERS = 8  # virtual loudspeakers on the default horizontal ring
# Samples per pass of the tap sum: 8 blocks keep a pass's weights in cache.
CHUNK = 8 * DEFAULT_BLOCK_SIZE
# A block FFT convolution of K SH channels costs about as much as
# FFT_COST_IN_PASSES * (K + 1) passes of the tap sum (measured at SH orders
# 0-2, 16 and 48 kHz, on 2 cores of an x86-64 server).
FFT_COST_IN_PASSES = 5


@dataclass(frozen=True)
class RenderConfig:
    """Rendering hyperparameters: SH order, speaker layout and peak
    normalisation. Every speaker's HRIR comes from the spherical-head
    model at the input sample rate. Output is always trimmed to the input
    length so rendered files stay aligned with their mono sources.
    """

    order: int = 1
    layout: object = field(default_factory=lambda: ring_layout(DEFAULT_SPEAKERS))
    normalize_output: bool = False

    def __post_init__(self):
        if len(self.layout) < 2:
            raise ValueError("layout needs at least 2 speakers")


def _ear_bank(hrirs, projection):
    """2 x K x L filters from the M x 2 x L HRIRs and the M x K projection:
    bank[e, k] = sum_m projection[m, k] * hrirs[m, e]."""
    return np.einsum("mk,mel->ekl", projection, hrirs)


def _ear_signals(samples, gains, bank):
    """The 2 x N ear signals of a mono signal whose per-block SH gains are
    `gains`, through the 2 x K x L ear bank: a tap sum for a sparse bank, a
    block FFT convolution of the SH signal for a dense one."""
    n = len(samples)
    ears, taps = np.nonzero(np.any(bank != 0.0, axis=1))
    if len(ears) > FFT_COST_IN_PASSES * (bank.shape[1] + 1):
        return fft_convolve(EncodedRows(samples, gains), bank)[:, :n]
    # One pass per nonzero tap (ears[p], taps[p]): the signal weighted by
    # the crossfaded gains @ bank[ear, :, tap], added in tap samples late.
    weights = EncodedRows(samples, gains @ bank[ears, :, taps].T)
    # Room for the longest delay past the end; the tail is dropped below.
    out = np.zeros((2, n + bank.shape[2]))
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        for row, ear, tap in zip(weights[lo:hi].T, ears, taps):
            out[ear, lo + tap : hi + tap] += row
    return out[:, :n]


def render_trajectory(mono, trajectory, cfg=None):
    """Render a mono buffer along a time-varying trajectory, sampled at the
    block starts with one search."""
    if len(mono) == 0:
        raise ValueError("cannot render an empty signal")
    cfg = cfg or RenderConfig()
    rate = mono.sample_rate
    starts = np.arange(-(-len(mono) // DEFAULT_BLOCK_SIZE)) * DEFAULT_BLOCK_SIZE / rate
    i = trajectory.index_at(starts)
    hrirs = lookup(cfg.layout.azimuth, cfg.layout.elevation, rate)
    projection = decode_matrix(cfg.layout, cfg.order)
    gains = sh_basis(trajectory.azimuth[i], trajectory.elevation[i], cfg.order)
    left, right = _ear_signals(mono.samples, gains, _ear_bank(hrirs, projection))
    if cfg.normalize_output:
        peak = max(np.max(np.abs(left)), np.max(np.abs(right)))
        if peak > 1.0:
            left = left / peak
            right = right / peak
    return BinauralBuffer(AudioBuffer(left, rate), AudioBuffer(right, rate))


def direction_from_features(features, field_of_view=DEFAULT_FIELD_OF_VIEW):
    """Map the horizontal positions (s_h in [0,1], column 0) of the T x 5
    per-frame features to an azimuth trajectory with a breakpoint every
    1/FRAME_RATE s: azimuth = (0.5 - s_h) * field_of_view, elevation 0.

    s_h = 0.5 is straight ahead; s_h = 0 (left edge of the frame) maps to
    +fov/2 under the left-positive azimuth convention.
    """
    rows = np.asarray(features, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(FEATURE_NAMES):
        raise ValueError("features must be T x 5")
    if len(rows) == 0:
        raise ValueError("empty feature sequence")
    times = np.arange(len(rows)) / FRAME_RATE
    return Trajectory(times, (0.5 - rows[:, 0]) * field_of_view, np.zeros(len(rows)))
