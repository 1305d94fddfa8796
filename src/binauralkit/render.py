"""Mono-to-binaural rendering through an SH-domain ear filter bank.

The source is encoded into spherical-harmonic (SH) channels along its
trajectory. Projecting onto M virtual loudspeakers and convolving each feed
with that speaker's HRIR pair is linear, so the two steps fold into one
filter bank with a filter per ear e and SH channel k,
bank[e, k] = sum_m P[m, k] h_e,m, where P is the speaker projection and h
holds the speaker HRIRs zero-padded to the longest. Each clip is then one
multichannel convolution of the SH signal with that bank, the same sum as
the speaker-by-speaker render in fewer transforms (the virtual-loudspeaker /
SH-domain equivalence of Noisternig et al., VECIMS 2003).

The source direction is constant over each block of `block_size` samples:
one search over the trajectory's breakpoint arrays finds every block's
direction, and one vectorised SH evaluation gives its gains. The SH signal
itself, crossfades included, is built one overlap-add group at a time
inside the convolution (ambisonic.EncodedRows), so a render holds the 2 x N
output but never the N x K encoded signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, BinauralBuffer, fft_convolve
from .ambisonic import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CROSSFADE,
    EncodedRows,
    Trajectory,
    decode_matrix,
    ring_layout,
    sh_basis,
)
from .hrir import HeadModelConfig, HrirSet, lookup

DEFAULT_FIELD_OF_VIEW = math.pi / 2


@dataclass(frozen=True)
class RenderConfig:
    """Rendering hyperparameters.

    hrir_source is the analytic head model or a measured set at the input
    sample rate. Output is trimmed to the input length by default so rendered
    files stay aligned with their mono sources.
    """

    order: int = 1
    layout: object = field(default_factory=lambda: ring_layout(8))
    hrir_source: HeadModelConfig | HrirSet = field(default_factory=HeadModelConfig)
    block_size: int = DEFAULT_BLOCK_SIZE
    crossfade: int = DEFAULT_CROSSFADE
    normalize_output: bool = False
    trim_to_input: bool = True

    def __post_init__(self):
        if len(self.layout) < 2:
            raise ValueError("layout needs at least 2 speakers")
        if not (0 <= self.crossfade < self.block_size):
            raise ValueError("crossfade must be in [0, block_size)")


def _ear_bank(pairs, projection):
    """2 x K x L filters: bank[e, k] = sum_m projection[m, k] * h_e,m."""
    taps = max(max(len(p.left), len(p.right)) for p in pairs)
    hrirs = np.zeros((2, len(pairs), taps))
    for m, pair in enumerate(pairs):
        hrirs[0, m, : len(pair.left)] = pair.left
        hrirs[1, m, : len(pair.right)] = pair.right
    return np.einsum("mk,eml->ekl", projection, hrirs)


def _render_blockwise(mono, azimuth, elevation, cfg):
    """Render along per-block directions (radians), one entry per block."""
    if len(mono) == 0:
        raise ValueError("cannot render an empty signal")
    pairs = [lookup(cfg.hrir_source, d, mono.sample_rate) for d in cfg.layout.directions]
    dm = decode_matrix(cfg.layout, cfg.order)
    gains = sh_basis(azimuth, elevation, cfg.order)
    sh = EncodedRows(mono.samples, gains, cfg.block_size, cfg.crossfade)
    left, right = fft_convolve(sh, _ear_bank(pairs, dm.projection))

    if cfg.trim_to_input:
        left, right = left[: len(mono)], right[: len(mono)]
    if cfg.normalize_output:
        peak = max(np.max(np.abs(left)), np.max(np.abs(right)))
        if peak > 1.0:
            left = left / peak
            right = right / peak
    rate = mono.sample_rate
    return BinauralBuffer(AudioBuffer(left, rate), AudioBuffer(right, rate))


def _n_blocks(mono, cfg):
    return max(1, -(-len(mono) // cfg.block_size))


def render_static(mono, direction, cfg=None):
    """Render a mono buffer at a fixed direction."""
    cfg = cfg or RenderConfig()
    n_blocks = _n_blocks(mono, cfg)
    return _render_blockwise(
        mono, np.full(n_blocks, direction.azimuth), np.full(n_blocks, direction.elevation), cfg
    )


def render_trajectory(mono, trajectory, cfg=None):
    """Render a mono buffer along a time-varying trajectory.

    The trajectory is sampled at block starts, all blocks with one search;
    a constant trajectory reproduces render_static bit-for-bit.
    """
    cfg = cfg or RenderConfig()
    starts = np.arange(_n_blocks(mono, cfg)) * cfg.block_size / mono.sample_rate
    i = trajectory.index_at(starts)
    return _render_blockwise(mono, trajectory.azimuth[i], trajectory.elevation[i], cfg)


def direction_from_features(features, field_of_view=DEFAULT_FIELD_OF_VIEW):
    """Map per-frame horizontal positions (s_h in [0,1]) to an azimuth
    trajectory: azimuth = (0.5 - s_h) * field_of_view, elevation 0.

    s_h = 0.5 is straight ahead; s_h = 0 (left edge of the frame) maps to
    +fov/2 under the left-positive azimuth convention.
    """
    rows = features.features
    if len(rows) == 0:
        raise ValueError("empty feature sequence")
    times = np.arange(len(rows)) / features.frame_rate
    return Trajectory.from_arrays(times, (0.5 - rows[:, 0]) * field_of_view, np.zeros(len(rows)))
