import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binauralkit.audio import AudioBuffer, next_pow2
from binauralkit.ambisonic import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_CROSSFADE,
    Direction,
    SpeakerLayout,
    Trajectory,
    decode_matrix,
    encode_mono,
    ring_layout,
)
from binauralkit.heatmap import SpatialFeatureSequence
from binauralkit.hrir import HrirPair, HrirSet, lookup, woodworth_delay
from binauralkit.render import (
    RenderConfig,
    direction_from_features,
    render_static,
    render_trajectory,
)
from conftest import breakpoints, noise_buffer
from oracles import oracle_direction_at, oracle_speaker_render

FS = 16000


def aligned_layout(azimuth):
    """Square first-order horizontal system with a speaker at the source:
    projecting the source's SH vector then lands entirely on that speaker."""
    return SpeakerLayout(
        tuple(Direction(azimuth + 2.0 * math.pi * k / 3.0) for k in range(3))
    )


def cross_corr_peak_lag(left, right, max_lag=30):
    best_lag, best = 0, -1.0
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            val = abs(np.dot(left[: len(left) - lag], right[lag:]))
        else:
            val = abs(np.dot(left[-lag:], right[: len(right) + lag]))
        if val > best:
            best, best_lag = val, lag
    return best_lag


class TestRenderStatic:
    def test_silence_in_silence_out(self):
        out = render_static(AudioBuffer(np.zeros(4000), FS), Direction(0.3))
        assert np.all(out.left.samples == 0.0)
        assert np.all(out.right.samples == 0.0)

    def test_front_center_symmetric(self, rng):
        mono = noise_buffer(rng, 8000)
        out = render_static(mono, Direction(0.0))
        np.testing.assert_allclose(out.left.samples, out.right.samples, atol=1e-6)

    def test_hard_left_cross_correlation_lag(self, rng):
        mono = noise_buffer(rng, 16000)
        cfg = RenderConfig(layout=aligned_layout(math.pi / 2))
        out = render_static(mono, Direction(math.pi / 2), cfg)
        lag = cross_corr_peak_lag(out.left.samples, out.right.samples)
        assert abs(lag - 10) <= 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            render_static(AudioBuffer(np.zeros(0), FS), Direction(0.0))

    def test_output_length_trimmed(self, rng):
        mono = noise_buffer(rng, 5000)
        out = render_static(mono, Direction(0.5))
        assert len(out) == 5000

    def test_linearity(self, rng):
        mono = noise_buffer(rng, 4000)
        scaled = AudioBuffer(0.37 * mono.samples, FS)
        a = render_static(mono, Direction(0.8))
        b = render_static(scaled, Direction(0.8))
        np.testing.assert_allclose(b.left.samples, 0.37 * a.left.samples, atol=1e-9)
        np.testing.assert_allclose(b.right.samples, 0.37 * a.right.samples, atol=1e-9)

    def test_azimuth_mirror_swaps_channels(self, rng):
        mono = noise_buffer(rng, 4000)
        for az in (0.4, 1.1, -0.9):
            a = render_static(mono, Direction(az))
            b = render_static(mono, Direction(-az))
            np.testing.assert_allclose(a.left.samples, b.right.samples, atol=1e-9)
            np.testing.assert_allclose(a.right.samples, b.left.samples, atol=1e-9)

    def test_energy_bound(self, rng):
        mono = noise_buffer(rng, 4000)
        cfg = RenderConfig()
        from binauralkit.ambisonic import decode_matrix, sh_basis
        from binauralkit.hrir import analytic_hrir

        dm = decode_matrix(cfg.layout, cfg.order)
        for az in (0.0, 0.7, -1.3):
            out = render_static(mono, Direction(az), cfg)
            gains = dm.projection @ sh_basis(az, 0.0, 1)
            max_ir_energy = max(
                max(np.sum(analytic_hrir(d, FS).left ** 2),
                    np.sum(analytic_hrir(d, FS).right ** 2))
                for d in cfg.layout.directions
            )
            # loose coherent-sum bound: (sum |g|)^2 over speakers
            bound = (np.sum(np.abs(gains))) ** 2 * max_ir_energy * np.sum(mono.samples**2)
            assert np.sum(out.left.samples**2) <= bound + 1e-9
            assert np.sum(out.right.samples**2) <= bound + 1e-9

    def test_itd_ild_ground_truth(self, rng):
        from binauralkit.metrics import ild, itd

        mono = noise_buffer(rng, 32000)
        for deg in (0, 30, -30, 60, -60, 90, -90):
            az = math.radians(deg)
            cfg = RenderConfig(layout=aligned_layout(az))
            out = render_static(mono, Direction(az), cfg)
            expected_delay = round(
                woodworth_delay(abs(math.asin(math.sin(az)))) * FS
            )
            measured_samples = itd(out) * FS / 1e3
            assert abs(measured_samples - expected_delay) <= 1.0
            if abs(deg) == 90:
                assert ild(out) == pytest.approx(6.0206, abs=0.5)

    def test_rate_mismatch_rejected(self, rng):
        from binauralkit.hrir import HrirPair, HrirSet

        mono = noise_buffer(rng, 4000, sample_rate=48000)
        measured = HrirSet(16000, {Direction(0.0): HrirPair([1.0], [1.0], 16000)})
        cfg = RenderConfig(hrir_source=measured)
        with pytest.raises(ValueError, match="sample rate"):
            render_static(mono, Direction(0.0), cfg)


class TestRenderTrajectory:
    def test_constant_trajectory_matches_static(self, rng):
        mono = noise_buffer(rng, 6000)
        traj = Trajectory([0.0], [0.6], [0.0])
        a = render_trajectory(mono, traj)
        b = render_static(mono, Direction(0.6))
        np.testing.assert_array_equal(a.left.samples, b.left.samples)
        np.testing.assert_array_equal(a.right.samples, b.right.samples)

    def test_sweep_flips_ild_sign(self, rng):
        mono = noise_buffer(rng, 32000)
        traj = Trajectory(*breakpoints(
            (i * 0.1, Direction(math.pi / 2 - i * (math.pi / 19))) for i in range(20)
        ))
        out = render_trajectory(mono, traj)
        frame = 1600

        def signed_ild(k):
            sl = slice(k * frame, (k + 1) * frame)
            el = np.sum(out.left.samples[sl] ** 2) + 1e-12
            er = np.sum(out.right.samples[sl] ** 2) + 1e-12
            return 10.0 * np.log10(el / er)

        assert signed_ild(0) > 1.0  # source on the left: left channel louder
        assert signed_ild(19) < -1.0  # source on the right

    def test_trajectory_gap_rejected(self, rng):
        mono = noise_buffer(rng, 4000)
        traj = Trajectory([1.0], [0.0], [0.0])
        with pytest.raises(ValueError):
            render_trajectory(mono, traj)

    def test_jump_bounded_by_crossfade_convexity(self, rng):
        mono = noise_buffer(rng, 8192)
        cfg = RenderConfig(normalize_output=False)
        jump = Trajectory([0.0, 0.2], [0.0, math.pi / 2], [0.0, 0.0])
        out = render_trajectory(mono, jump, cfg)
        seg_a = render_static(mono, Direction(0.0), cfg)
        seg_b = render_static(mono, Direction(math.pi / 2), cfg)
        bound = (
            np.max(np.abs(seg_a.left.samples)) + np.max(np.abs(seg_b.left.samples))
        )
        assert np.max(np.abs(out.left.samples)) <= bound + 1e-9


def sphere_layout():
    """Two staggered rings of six at +-34 degrees plus both poles: enough
    spread for a non-singular second-order projection."""
    rings = [
        Direction(2.0 * math.pi * k / 6 + (math.pi / 6 if el < 0 else 0.0), el)
        for el in (-0.6, 0.6)
        for k in range(6)
    ]
    return SpeakerLayout(tuple(rings + [Direction(0.0, math.pi / 2), Direction(0.0, -math.pi / 2)]))


def measured_set(layout, rng, left_taps=40, right_taps=57):
    """Random measured HRIRs at every layout direction, the two ears of
    different lengths."""
    entries = {
        d: HrirPair(rng.standard_normal(left_taps), rng.standard_normal(right_taps), FS)
        for d in layout.directions
    }
    return HrirSet(FS, entries)


def ola_hop(taps):
    """Samples per overlap-add block of an L-tap bank in fft_convolve."""
    return next_pow2(16 * taps) - taps + 1


def oracle_render(mono, directions, cfg):
    """The speaker-loop reference for one clip with per-block directions."""
    sh = encode_mono(mono, directions, cfg.order, DEFAULT_BLOCK_SIZE, DEFAULT_CROSSFADE)
    projection = decode_matrix(cfg.layout, cfg.order).projection
    pairs = [lookup(cfg.hrir_source, d, mono.sample_rate) for d in cfg.layout.directions]
    left, right = oracle_speaker_render(sh.frames, projection, [(p.left, p.right) for p in pairs])
    return left[: len(mono)], right[: len(mono)]


def render_cases():
    """(id, config, signal lengths) covering SH orders 0-2, both HRIR
    sources, a signal shorter than one FFT block and exact block multiples."""
    rng = np.random.default_rng(7)
    ring, sphere = ring_layout(8), sphere_layout()
    analytic_hop, measured_hop = ola_hop(64), ola_hop(57)
    cases = [
        ("order0", RenderConfig(order=0), (500, 3 * analytic_hop)),
        ("order1", RenderConfig(order=1), (500, 3 * analytic_hop, 5000)),
        ("order2", RenderConfig(order=2, layout=sphere), (500, 2 * analytic_hop)),
        (
            "measured_order1",
            RenderConfig(layout=ring, hrir_source=measured_set(ring, rng)),
            (500, 3 * measured_hop),
        ),
        (
            "measured_order2",
            RenderConfig(order=2, layout=sphere, hrir_source=measured_set(sphere, rng)),
            (700, 2 * measured_hop),
        ),
    ]
    return [
        pytest.param(cfg, n, id=f"{name}-n{n}") for name, cfg, lengths in cases for n in lengths
    ]


class TestSpeakerLoopOracle:
    """The SH-domain filter bank reproduces the speaker-by-speaker render."""

    @pytest.mark.parametrize("cfg,n", render_cases())
    def test_static_matches_oracle(self, rng, cfg, n):
        mono = noise_buffer(rng, n)
        direction = Direction(0.7, 0.3 if cfg.order == 2 else 0.0)
        out = render_static(mono, direction, cfg)
        n_blocks = -(-n // DEFAULT_BLOCK_SIZE)
        left, right = oracle_render(mono, [direction] * n_blocks, cfg)
        np.testing.assert_allclose(out.left.samples, left, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.right.samples, right, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("cfg,n", render_cases())
    def test_trajectory_matches_oracle(self, rng, cfg, n):
        mono = noise_buffer(rng, n)
        points = tuple(
            (0.02 * i, Direction(1.3 - 0.4 * i, 0.25 * (i % 3) if cfg.order == 2 else 0.0))
            for i in range(8)
        )
        out = render_trajectory(mono, Trajectory(*breakpoints(points)), cfg)
        n_blocks = -(-n // DEFAULT_BLOCK_SIZE)
        directions = [
            oracle_direction_at(points, b * DEFAULT_BLOCK_SIZE / FS) for b in range(n_blocks)
        ]
        left, right = oracle_render(mono, directions, cfg)
        np.testing.assert_allclose(out.left.samples, left, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.right.samples, right, rtol=0, atol=1e-9)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3000),
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        azimuth=st.floats(-math.pi, math.pi),
    )
    def test_render_is_linear(self, seed, n, a, b, azimuth):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        direction = Direction(azimuth)
        mixed = render_static(AudioBuffer(a * x + b * y, FS), direction)
        rx = render_static(AudioBuffer(x, FS), direction)
        ry = render_static(AudioBuffer(y, FS), direction)
        for got, px, py in ((mixed.left, rx.left, ry.left), (mixed.right, rx.right, ry.right)):
            np.testing.assert_allclose(
                got.samples, a * px.samples + b * py.samples, rtol=0, atol=1e-9
            )


class TestDirectionFromFeatures:
    def _features(self, s_h_values, rate=31.25):
        rows = [[v, 0.1, 0.0, 0.0, 0.0] for v in s_h_values]
        return SpatialFeatureSequence(np.array(rows), rate)

    def test_center(self):
        traj = direction_from_features(self._features([0.5, 0.5, 0.5]))
        assert np.all(traj.azimuth == 0.0)

    def test_left_edge(self):
        traj = direction_from_features(self._features([0.0]), field_of_view=math.pi / 2)
        assert traj.azimuth[0] == pytest.approx(math.pi / 4)

    def test_linear_ramp(self):
        values = np.linspace(0.0, 1.0, 11)
        traj = direction_from_features(self._features(values), field_of_view=math.pi / 2)
        expected = (0.5 - values) * math.pi / 2
        np.testing.assert_allclose(traj.azimuth, expected, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            direction_from_features(
                SpatialFeatureSequence(np.zeros((0, 5)).reshape(0, 5))
            )


def test_trajectory_render_memory_peak():
    # The SH-encoded signal is built one overlap-add group at a time: beyond
    # the 2 x N output, a 60 s render may hold a few MB of group buffers,
    # never an N x K encoded array.
    import tracemalloc

    n = 60 * FS
    mono = noise_buffer(np.random.default_rng(7), n=n)
    times = np.arange(0.0, 60.0, 0.02)
    azimuth = np.cumsum(np.random.default_rng(8).normal(0.0, 0.07, len(times)))
    traj = Trajectory(times, azimuth, np.zeros(len(times)))
    tracemalloc.start()
    try:
        render_trajectory(mono, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * n * 8
