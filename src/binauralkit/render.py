"""Mono-to-binaural rendering: SH encode, project onto virtual loudspeakers,
convolve each feed with that direction's HRIR pair and sum the two ears."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, BinauralBuffer, fft_convolve
from .ambisonic import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CROSSFADE,
    Trajectory,
    decode_matrix,
    encode_mono,
    project_to_speakers,
    ring_layout,
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


def _render_blockwise(mono, per_block_directions, cfg):
    if len(mono) == 0:
        raise ValueError("cannot render an empty signal")
    pairs = [lookup(cfg.hrir_source, d, mono.sample_rate) for d in cfg.layout.directions]
    dm = decode_matrix(cfg.layout, cfg.order)
    sh = encode_mono(mono, per_block_directions, cfg.order, cfg.block_size, cfg.crossfade)
    feeds = project_to_speakers(sh, dm)

    max_ir = max(max(len(p.left), len(p.right)) for p in pairs)
    n_out = len(mono) + max_ir - 1
    left = np.zeros(n_out)
    right = np.zeros(n_out)
    for pair, feed in zip(pairs, feeds):
        yl = fft_convolve(feed, pair.left).samples
        yr = fft_convolve(feed, pair.right).samples
        left[: len(yl)] += yl
        right[: len(yr)] += yr

    if cfg.trim_to_input:
        left, right = left[: len(mono)], right[: len(mono)]
    if cfg.normalize_output:
        peak = max(np.max(np.abs(left)), np.max(np.abs(right)))
        if peak > 1.0:
            left = left / peak
            right = right / peak
    rate = mono.sample_rate
    return BinauralBuffer(AudioBuffer(left, rate), AudioBuffer(right, rate))


def render_static(mono, direction, cfg=None):
    """Render a mono buffer at a fixed direction."""
    cfg = cfg or RenderConfig()
    n_blocks = max(1, -(-len(mono) // cfg.block_size))
    return _render_blockwise(mono, [direction] * n_blocks, cfg)


def render_trajectory(mono, trajectory, cfg=None):
    """Render a mono buffer along a time-varying trajectory.

    The trajectory is sampled at block starts; a constant trajectory
    reproduces render_static bit-for-bit.
    """
    cfg = cfg or RenderConfig()
    n_blocks = max(1, -(-len(mono) // cfg.block_size))
    directions = [
        trajectory.direction_at(b * cfg.block_size / mono.sample_rate)
        for b in range(n_blocks)
    ]
    return _render_blockwise(mono, directions, cfg)


def direction_from_features(features, field_of_view=DEFAULT_FIELD_OF_VIEW):
    """Map per-frame horizontal positions (s_h in [0,1]) to an azimuth
    trajectory: azimuth = (0.5 - s_h) * field_of_view, elevation 0.

    s_h = 0.5 is straight ahead; s_h = 0 (left edge of the frame) maps to
    +fov/2 under the left-positive azimuth convention.
    """
    from .ambisonic import Direction

    if len(features.features) == 0:
        raise ValueError("empty feature sequence")
    points = []
    for i, row in enumerate(features.features):
        azimuth = (0.5 - float(row[0])) * field_of_view
        points.append((i / features.frame_rate, Direction(azimuth)))
    return Trajectory(tuple(points))
