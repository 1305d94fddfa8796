import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binauralkit.audio import AudioBuffer
from binauralkit.ambisonic import Direction
from binauralkit.hrir import IR_LENGTH, analytic_hrir, lookup, woodworth_delay
from oracles import render_static

FS = 16000


class TestAnalyticModel:
    def test_front_symmetric(self):
        pair = analytic_hrir(Direction(0.0), FS)
        np.testing.assert_array_equal(pair[0], pair[1])

    def test_hard_left_delay(self):
        # (0.0875/343)(pi/2 + 1) ~ 0.6558 ms ~ 10 samples at 16 kHz
        tau = woodworth_delay(math.pi / 2)
        assert tau == pytest.approx(6.558e-4, rel=1e-3)
        pair = analytic_hrir(Direction(math.pi / 2), FS)
        assert np.argmax(np.abs(pair[0])) == 0
        assert np.argmax(np.abs(pair[1])) == 10

    def test_hard_left_gains(self):
        pair = analytic_hrir(Direction(math.pi / 2), FS)
        assert np.max(np.abs(pair[0])) == pytest.approx(1.0)
        assert np.max(np.abs(pair[1])) == pytest.approx(10 ** (-6 / 20), rel=1e-6)

    def test_mirror_symmetry(self, rng):
        for _ in range(20):
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(-np.pi / 2, np.pi / 2)
            a = analytic_hrir(Direction(az, el), FS)
            b = analytic_hrir(Direction(-az, el), FS)
            np.testing.assert_allclose(a[0], b[1], atol=1e-12)
            np.testing.assert_allclose(a[1], b[0], atol=1e-12)

    def test_monotonic_far_ear_delay(self):
        delays = [
            np.argmax(np.abs(analytic_hrir(Direction(az), FS)[1]))
            for az in np.linspace(0.0, math.pi / 2, 30)
        ]
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    def test_impulse_response_grows_to_fit_the_delay(self):
        # The 0.66 ms far-ear delay needs more than 64 taps from ~98 kHz on.
        rate = 192000
        delay = round(woodworth_delay(math.pi / 2) * rate)
        assert delay >= 64
        pair = analytic_hrir(Direction(math.pi / 2), rate)
        assert len(pair[0]) == len(pair[1]) == delay + 1
        assert np.argmax(pair[0]) == 0
        assert np.argmax(pair[1]) == delay
        tone = np.sin(2 * np.pi * 440.0 * np.arange(rate // 10) / rate)
        out = render_static(AudioBuffer(tone, rate), Direction(math.pi / 2))
        assert out.sample_rate == rate
        assert len(out.left.samples) == len(tone)
        assert np.all(np.isfinite(out.left.samples)) and np.any(out.right.samples)

    def test_low_rate_banks_keep_ir_length_taps(self):
        for rate in (16000, 48000, 96000):
            assert len(analytic_hrir(Direction(math.pi / 2), rate)[0]) == IR_LENGTH

    def test_energy_bound(self, rng):
        for _ in range(20):
            d = Direction(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
            pair = analytic_hrir(d, FS)
            assert np.sum(pair[0]**2) <= 1.0 + 1e-12
            assert np.sum(pair[1]**2) <= 1.0 + 1e-12

    def test_analytic_lookup_is_exact_synthesis(self):
        d = Direction(0.123, 0.045)
        found = lookup(d, FS)
        direct = analytic_hrir(d, FS)
        np.testing.assert_array_equal(found[0], direct[0])
        np.testing.assert_array_equal(found[1], direct[1])

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.integers(8000, 192000),
        directions=st.lists(
            st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi / 2, math.pi / 2)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_one_length_per_rate(self, rate, directions):
        # The renderer stacks every speaker's HRIR into one M x 2 x L array,
        # so at one rate every direction must give the same 2 x L shape.
        hrirs = [lookup(Direction(az, el), rate) for az, el in directions]
        for hrir in hrirs:
            assert hrir.dtype == np.float64
            assert hrir.shape == hrirs[0].shape
        taps = hrirs[0].shape[1]
        assert hrirs[0].shape[0] == 2
        assert taps >= IR_LENGTH
        assert taps > round(woodworth_delay(math.pi / 2) * rate)
