import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binauralkit.audio import AudioBuffer, fft_convolve, next_pow2
from binauralkit.ambisonic import (
    DEFAULT_BLOCK_SIZE,
    SpeakerLayout,
    Trajectory,
    decode_matrix,
    encode_mono,
    ring_layout,
)
import binauralkit.render as render
from binauralkit.heatmap import FRAME_RATE
from binauralkit.hrir import lookup, woodworth_delay
from binauralkit.render import (
    CHUNK,
    FFT_COST_IN_PASSES,
    RenderConfig,
    _ear_bank,
    direction_from_features,
    render_trajectory,
)
from conftest import breakpoints, noise_buffer
from oracles import oracle_direction_at, oracle_speaker_render, render_static

FS = 16000


def aligned_layout(azimuth):
    """Square first-order horizontal system with a speaker at the source:
    projecting the source's SH vector then lands entirely on that speaker."""
    return SpeakerLayout(azimuth + 2.0 * math.pi * np.arange(3) / 3.0, np.zeros(3))


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
        out = render_static(AudioBuffer(np.zeros(4000), FS), 0.3)
        assert np.all(out.left.samples == 0.0)
        assert np.all(out.right.samples == 0.0)

    def test_front_center_symmetric(self, rng):
        mono = noise_buffer(rng, 8000)
        out = render_static(mono, 0.0)
        np.testing.assert_allclose(out.left.samples, out.right.samples, atol=1e-6)

    def test_hard_left_cross_correlation_lag(self, rng):
        mono = noise_buffer(rng, 16000)
        cfg = RenderConfig(layout=aligned_layout(math.pi / 2))
        out = render_static(mono, math.pi / 2, cfg=cfg)
        lag = cross_corr_peak_lag(out.left.samples, out.right.samples)
        assert abs(lag - 10) <= 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            render_static(AudioBuffer(np.zeros(0), FS), 0.0)

    def test_output_length_trimmed(self, rng):
        mono = noise_buffer(rng, 5000)
        out = render_static(mono, 0.5)
        assert len(out) == 5000

    def test_linearity(self, rng):
        mono = noise_buffer(rng, 4000)
        scaled = AudioBuffer(0.37 * mono.samples, FS)
        a = render_static(mono, 0.8)
        b = render_static(scaled, 0.8)
        np.testing.assert_allclose(b.left.samples, 0.37 * a.left.samples, atol=1e-9)
        np.testing.assert_allclose(b.right.samples, 0.37 * a.right.samples, atol=1e-9)

    def test_azimuth_mirror_swaps_channels(self, rng):
        mono = noise_buffer(rng, 4000)
        for az in (0.4, 1.1, -0.9):
            a = render_static(mono, az)
            b = render_static(mono, -az)
            np.testing.assert_allclose(a.left.samples, b.right.samples, atol=1e-9)
            np.testing.assert_allclose(a.right.samples, b.left.samples, atol=1e-9)

    def test_energy_bound(self, rng):
        mono = noise_buffer(rng, 4000)
        cfg = RenderConfig()
        from binauralkit.ambisonic import decode_matrix, sh_basis
        from binauralkit.hrir import analytic_hrir

        dm = decode_matrix(cfg.layout, cfg.order)
        hrirs = analytic_hrir(cfg.layout.azimuth, cfg.layout.elevation, FS)
        for az in (0.0, 0.7, -1.3):
            out = render_static(mono, az, cfg=cfg)
            gains = dm @ sh_basis(az, 0.0, 1)
            max_ir_energy = np.max(np.sum(hrirs**2, axis=2))
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
            out = render_static(mono, az, cfg=cfg)
            expected_delay = round(
                woodworth_delay(abs(math.asin(math.sin(az)))) * FS
            )
            measured_samples = itd(out) * FS / 1e3
            assert abs(measured_samples - expected_delay) <= 1.0
            if abs(deg) == 90:
                assert ild(out) == pytest.approx(6.0206, abs=0.5)



class TestRenderTrajectory:
    def test_sweep_flips_ild_sign(self, rng):
        mono = noise_buffer(rng, 32000)
        traj = Trajectory(*breakpoints(
            (i * 0.1, math.pi / 2 - i * (math.pi / 19), 0.0) for i in range(20)
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
        seg_a = render_static(mono, 0.0, cfg=cfg)
        seg_b = render_static(mono, math.pi / 2, cfg=cfg)
        bound = (
            np.max(np.abs(seg_a.left.samples)) + np.max(np.abs(seg_b.left.samples))
        )
        assert np.max(np.abs(out.left.samples)) <= bound + 1e-9


def sphere_layout():
    """Two staggered rings of six at +-34 degrees plus both poles: enough
    spread for a non-singular second-order projection."""
    ring = 2.0 * math.pi * np.arange(6) / 6
    azimuth = np.concatenate([ring + math.pi / 6, ring, [0.0, 0.0]])
    elevation = np.concatenate([np.full(6, -0.6), np.full(6, 0.6), [math.pi / 2, -math.pi / 2]])
    return SpeakerLayout(azimuth, elevation)


def measured_pairs(layout, rng, taps=57):
    """Dense random 2 x `taps` HRIRs at every layout direction: M x 2 x taps."""
    return rng.standard_normal((len(layout), 2, taps))


def speaker_hrirs(monkeypatch, cfg, hrirs):
    """Each speaker's HRIR pair, M x 2 x L: the head model's, or the random
    pairs `hrirs`, which the renderer is then patched to look up instead."""
    if hrirs is None:
        return lookup(cfg.layout.azimuth, cfg.layout.elevation, FS)
    monkeypatch.setattr("binauralkit.render.lookup", lambda azimuth, elevation, sample_rate: hrirs)
    return hrirs


def ola_hop(taps):
    """Samples per overlap-add block of an L-tap bank in fft_convolve."""
    return next_pow2(16 * taps) - taps + 1


def oracle_render(mono, azimuth, elevation, cfg, pairs):
    """The speaker-loop reference for one clip with per-block directions."""
    sh = encode_mono(mono.samples, azimuth, elevation, cfg.order)
    projection = decode_matrix(cfg.layout, cfg.order)
    left, right = oracle_speaker_render(sh, projection, [(p[0], p[1]) for p in pairs])
    return left[: len(mono)], right[: len(mono)]


@pytest.fixture(params=["tap_sum", "fft"])
def kernel(request, monkeypatch):
    """Force the render's tap sum or its block FFT convolution, whatever
    the bank's count of nonzero taps."""
    cost = 10**6 if request.param == "tap_sum" else 0
    monkeypatch.setattr(render, "FFT_COST_IN_PASSES", cost)
    return request.param


def render_cases():
    """(id, config, HRIR pairs, signal lengths) covering SH orders 0-2, the
    head model (a sparse bank) and dense random HRIRs (a dense one), a
    signal shorter than one FFT block and exact block multiples, signals no
    longer than the head model's largest tap delay (10 samples at 16 kHz on
    the ring) and lengths around the tap sum's CHUNK."""
    rng = np.random.default_rng(7)
    ring, sphere = ring_layout(8), sphere_layout()
    analytic_hop, measured_hop = ola_hop(64), ola_hop(57)
    around_chunk = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
    cases = [
        ("order0", RenderConfig(order=0), None, (500, 3 * analytic_hop)),
        ("order1", RenderConfig(order=1), None, (500, 3 * analytic_hop, 5000)),
        ("order2", RenderConfig(order=2, layout=sphere), None, (500, 2 * analytic_hop)),
        (
            "measured_order1",
            RenderConfig(layout=ring),
            measured_pairs(ring, rng),
            (500, 3 * measured_hop),
        ),
        (
            "measured_order2",
            RenderConfig(order=2, layout=sphere),
            measured_pairs(sphere, rng),
            (700, 2 * measured_hop),
        ),
        ("order1_within_delay", RenderConfig(order=1), None, (1, 2, 6, 10, 11, 12)),
        ("order1_chunk", RenderConfig(order=1), None, around_chunk),
        ("order0_chunk", RenderConfig(order=0), None, (CHUNK + 1,)),
        ("order2_chunk", RenderConfig(order=2, layout=sphere), None, (CHUNK + 1,)),
        (
            "measured_order1_chunk",
            RenderConfig(layout=ring),
            measured_pairs(ring, rng),
            (CHUNK + 1,),
        ),
    ]
    return [
        pytest.param(cfg, hrirs, n, id=f"{name}-n{n}")
        for name, cfg, hrirs, lengths in cases
        for n in lengths
    ]


class TestSpeakerLoopOracle:
    """The SH-domain filter bank reproduces the speaker-by-speaker render."""

    @pytest.mark.parametrize("cfg,hrirs,n", render_cases())
    def test_static_matches_oracle(self, rng, monkeypatch, cfg, hrirs, n):
        pairs = speaker_hrirs(monkeypatch, cfg, hrirs)
        mono = noise_buffer(rng, n)
        elevation = 0.3 if cfg.order == 2 else 0.0
        out = render_static(mono, 0.7, elevation, cfg)
        left, right = oracle_render(mono, 0.7, elevation, cfg, pairs)
        np.testing.assert_allclose(out.left.samples, left, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.right.samples, right, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("cfg,hrirs,n", render_cases())
    def test_trajectory_matches_oracle(self, rng, monkeypatch, cfg, hrirs, n):
        self.assert_trajectory_matches_oracle(rng, monkeypatch, cfg, hrirs, n)

    @pytest.mark.parametrize("cfg,hrirs,n", render_cases())
    def test_each_kernel_matches_oracle(self, rng, monkeypatch, kernel, cfg, hrirs, n):
        self.assert_trajectory_matches_oracle(rng, monkeypatch, cfg, hrirs, n)

    def assert_trajectory_matches_oracle(self, rng, monkeypatch, cfg, hrirs, n):
        pairs = speaker_hrirs(monkeypatch, cfg, hrirs)
        mono = noise_buffer(rng, n)
        points = tuple(
            (0.02 * i, 1.3 - 0.4 * i, 0.25 * (i % 3) if cfg.order == 2 else 0.0)
            for i in range(8)
        )
        out = render_trajectory(mono, Trajectory(*breakpoints(points)), cfg)
        n_blocks = -(-n // DEFAULT_BLOCK_SIZE)
        azimuth, elevation = np.array([
            oracle_direction_at(points, b * DEFAULT_BLOCK_SIZE / FS) for b in range(n_blocks)
        ]).T
        left, right = oracle_render(mono, azimuth, elevation, cfg, pairs)
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
        mixed = render_static(AudioBuffer(a * x + b * y, FS), azimuth)
        rx = render_static(AudioBuffer(x, FS), azimuth)
        ry = render_static(AudioBuffer(y, FS), azimuth)
        for got, px, py in ((mixed.left, rx.left, ry.left), (mixed.right, rx.right, ry.right)):
            np.testing.assert_allclose(
                got.samples, a * px.samples + b * py.samples, rtol=0, atol=1e-9
            )


def per_block_points(n, seed):
    """(time_s, azimuth, elevation) breakpoints at every block start with random
    azimuths, so every block boundary, each CHUNK boundary included,
    crossfades."""
    rng = np.random.default_rng(seed)
    return tuple(
        (b * DEFAULT_BLOCK_SIZE / FS, rng.uniform(-math.pi, math.pi), 0.0)
        for b in range(-(-n // DEFAULT_BLOCK_SIZE))
    )


class TestTapSumEdgeCases:
    """The sum over the ear bank's nonzero taps, and the FFT path that
    takes a dense bank, against the speaker loop where chunking and tap
    selection could go wrong."""

    def assert_matches_oracle(self, mono, points, cfg, pairs):
        times, azimuth, elevation = breakpoints(points)
        out = render_trajectory(mono, Trajectory(times, azimuth, elevation), cfg)
        left, right = oracle_render(mono, azimuth, elevation, cfg, pairs)
        np.testing.assert_allclose(out.left.samples, left, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.right.samples, right, rtol=0, atol=1e-9)
        return out

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_crossfades_across_chunk_boundaries(self, rng, kernel, n):
        cfg = RenderConfig()
        pairs = lookup(cfg.layout.azimuth, cfg.layout.elevation, FS)
        self.assert_matches_oracle(noise_buffer(rng, n), per_block_points(n, n), cfg, pairs)

    def test_all_zero_ear(self, rng, monkeypatch, kernel):
        cfg = RenderConfig()
        hrirs = rng.standard_normal((len(cfg.layout), 2, 20)) * np.array([[1.0], [0.0]])
        pairs = speaker_hrirs(monkeypatch, cfg, hrirs)
        n = 3000
        out = self.assert_matches_oracle(noise_buffer(rng, n), per_block_points(n, 1), cfg, pairs)
        assert np.all(out.right.samples == 0.0)
        assert np.any(out.left.samples != 0.0)

    def test_tap_whose_speaker_contributions_cancel(self, rng, monkeypatch, kernel):
        # At order 0 every speaker has the same projection weight, so taps
        # of +1 and -1 on alternate speakers of the ring sum to exactly 0.
        cfg = RenderConfig(order=0)
        hrirs = rng.standard_normal((len(cfg.layout), 2, 12))
        hrirs[:, :, 5] = (-1.0) ** np.arange(len(cfg.layout))[:, None]
        pairs = speaker_hrirs(monkeypatch, cfg, hrirs)
        bank = _ear_bank(pairs, decode_matrix(cfg.layout, cfg.order))
        assert np.all(bank[:, :, 5] == 0.0) and np.all(bank[:, :, 4] != 0.0)
        n = 3000
        self.assert_matches_oracle(noise_buffer(rng, n), per_block_points(n, 2), cfg, pairs)

    @pytest.mark.parametrize("cost", [10**6, 0], ids=["tap_sum", "fft"])
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5000),
        n_points=st.integers(1, 8),
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
    )
    def test_trajectory_render_is_linear(self, cost, seed, n, n_points, a, b):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, n / FS, n_points - 1))])
        traj = Trajectory(times, rng.uniform(-math.pi, math.pi, n_points), np.zeros(n_points))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(render, "FFT_COST_IN_PASSES", cost)
            mixed = render_trajectory(AudioBuffer(a * x + b * y, FS), traj)
            rx = render_trajectory(AudioBuffer(x, FS), traj)
            ry = render_trajectory(AudioBuffer(y, FS), traj)
        for got, px, py in ((mixed.left, rx.left, ry.left), (mixed.right, rx.right, ry.right)):
            np.testing.assert_allclose(
                got.samples, a * px.samples + b * py.samples, rtol=0, atol=1e-12
            )


class TestKernelChoice:
    """A bank with more nonzero taps than FFT_COST_IN_PASSES * (K + 1)
    takes the block FFT convolution; a sparser one, the tap sum."""

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            render, "fft_convolve", lambda s, k: calls.append(k.shape) or fft_convolve(s, k)
        )
        return calls

    @pytest.mark.parametrize(
        "speakers,order,rate,expected",
        [
            (8, 1, 16000, 0),  # the CLI default: 6 taps
            (32, 1, 48000, 0),  # 18 taps, at most 25
            (64, 1, 48000, 1),  # 34 taps
            (8, 0, 16000, 0),  # 6 taps, at most 10
            (16, 0, 48000, 0),  # 10 taps
            (32, 0, 48000, 1),  # 18 taps
        ],
    )
    def test_head_model_bank(self, rng, fft_calls, speakers, order, rate, expected):
        cfg = RenderConfig(order=order, layout=ring_layout(speakers))
        bank = _ear_bank(
            lookup(cfg.layout.azimuth, cfg.layout.elevation, rate), decode_matrix(cfg.layout, order)
        )
        taps = np.count_nonzero(np.any(bank != 0.0, axis=1))
        assert (taps > FFT_COST_IN_PASSES * ((order + 1) ** 2 + 1)) == bool(expected)
        render_static(noise_buffer(rng, 3000, sample_rate=rate), 0.4, cfg=cfg)
        assert len(fft_calls) == expected

    def test_dense_random_bank_takes_the_fft(self, rng, monkeypatch, fft_calls):
        cfg = RenderConfig()
        speaker_hrirs(monkeypatch, cfg, measured_pairs(cfg.layout, rng))
        render_static(noise_buffer(rng, 3000), 0.4, cfg=cfg)
        assert fft_calls == [(2, 4, 57)]


class TestDirectionFromFeatures:
    def _features(self, s_h_values):
        return np.array([[v, 0.1, 0.0, 0.0, 0.0] for v in s_h_values])

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

    def test_breakpoints_at_the_frame_rate(self):
        traj = direction_from_features(self._features(np.linspace(0.0, 1.0, 37)))
        np.testing.assert_array_equal(traj.times, np.arange(37) / FRAME_RATE)
        np.testing.assert_array_equal(traj.elevation, np.zeros(37))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty feature sequence"):
            direction_from_features(np.zeros((0, 5)))

    @pytest.mark.parametrize("shape", [(), (3,), (3, 4), (2, 3, 5)])
    def test_shape_must_be_t_by_5(self, shape):
        with pytest.raises(ValueError, match="T x 5"):
            direction_from_features(np.zeros(shape))


def test_trajectory_render_memory_peak():
    # The tap weights are built one CHUNK of samples at a time: beyond the
    # 2 x N output, a 60 s render may hold a few MB of chunk weights, never
    # an N x K encoded array (test_dense_render_memory_peak: the FFT path).
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


def test_dense_render_memory_peak():
    # A 64-speaker ring at 48 kHz has 34 nonzero taps, so its bank goes
    # through the block FFT convolution, whose SH rows and spectra are built
    # one overlap-add group at a time: again no N x K or N x taps array.
    import tracemalloc

    rate = 48000
    n = 20 * rate
    mono = noise_buffer(np.random.default_rng(7), n=n, sample_rate=rate)
    times = np.arange(0.0, 20.0, 0.02)
    azimuth = np.cumsum(np.random.default_rng(8).normal(0.0, 0.07, len(times)))
    traj = Trajectory(times, azimuth, np.zeros(len(times)))
    tracemalloc.start()
    try:
        render_trajectory(mono, traj, RenderConfig(layout=ring_layout(64)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * n * 8
