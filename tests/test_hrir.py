import math

import numpy as np
import pytest

from binauralkit.audio import AudioBuffer
from binauralkit.ambisonic import Direction
from binauralkit.hrir import IR_LENGTH, analytic_hrir, lookup, woodworth_delay
from binauralkit.render import render_static

FS = 16000


class TestAnalyticModel:
    def test_front_symmetric(self):
        pair = analytic_hrir(Direction(0.0), FS)
        np.testing.assert_array_equal(pair.left, pair.right)

    def test_hard_left_delay(self):
        # (0.0875/343)(pi/2 + 1) ~ 0.6558 ms ~ 10 samples at 16 kHz
        tau = woodworth_delay(math.pi / 2)
        assert tau == pytest.approx(6.558e-4, rel=1e-3)
        pair = analytic_hrir(Direction(math.pi / 2), FS)
        assert np.argmax(np.abs(pair.left)) == 0
        assert np.argmax(np.abs(pair.right)) == 10

    def test_hard_left_gains(self):
        pair = analytic_hrir(Direction(math.pi / 2), FS)
        assert np.max(np.abs(pair.left)) == pytest.approx(1.0)
        assert np.max(np.abs(pair.right)) == pytest.approx(10 ** (-6 / 20), rel=1e-6)

    def test_mirror_symmetry(self, rng):
        for _ in range(20):
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(-np.pi / 2, np.pi / 2)
            a = analytic_hrir(Direction(az, el), FS)
            b = analytic_hrir(Direction(-az, el), FS)
            np.testing.assert_allclose(a.left, b.right, atol=1e-12)
            np.testing.assert_allclose(a.right, b.left, atol=1e-12)

    def test_monotonic_far_ear_delay(self):
        delays = [
            np.argmax(np.abs(analytic_hrir(Direction(az), FS).right))
            for az in np.linspace(0.0, math.pi / 2, 30)
        ]
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    def test_impulse_response_grows_to_fit_the_delay(self):
        # The 0.66 ms far-ear delay needs more than 64 taps from ~98 kHz on.
        rate = 192000
        delay = round(woodworth_delay(math.pi / 2) * rate)
        assert delay >= 64
        pair = analytic_hrir(Direction(math.pi / 2), rate)
        assert len(pair.left) == len(pair.right) == delay + 1
        assert np.argmax(pair.left) == 0
        assert np.argmax(pair.right) == delay
        tone = np.sin(2 * np.pi * 440.0 * np.arange(rate // 10) / rate)
        out = render_static(AudioBuffer(tone, rate), Direction(math.pi / 2))
        assert out.sample_rate == rate
        assert len(out.left.samples) == len(tone)
        assert np.all(np.isfinite(out.left.samples)) and np.any(out.right.samples)

    def test_low_rate_banks_keep_ir_length_taps(self):
        for rate in (16000, 48000, 96000):
            assert len(analytic_hrir(Direction(math.pi / 2), rate).left) == IR_LENGTH

    def test_energy_bound(self, rng):
        for _ in range(20):
            d = Direction(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
            pair = analytic_hrir(d, FS)
            assert np.sum(pair.left**2) <= 1.0 + 1e-12
            assert np.sum(pair.right**2) <= 1.0 + 1e-12

    def test_analytic_lookup_is_exact_synthesis(self):
        d = Direction(0.123, 0.045)
        found = lookup(d, FS)
        direct = analytic_hrir(d, FS)
        np.testing.assert_array_equal(found.left, direct.left)
        np.testing.assert_array_equal(found.right, direct.right)
