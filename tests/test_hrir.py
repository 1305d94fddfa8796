import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binauralkit.audio import AudioBuffer
from binauralkit.hrir import IR_LENGTH, analytic_hrir, lookup, woodworth_delay
from oracles import oracle_analytic_hrir, render_static

FS = 16000


class TestAnalyticModel:
    def test_front_symmetric(self):
        pair = analytic_hrir(0.0, 0.0, FS)
        np.testing.assert_array_equal(pair[0], pair[1])

    def test_hard_left_delay(self):
        # (0.0875/343)(pi/2 + 1) ~ 0.6558 ms ~ 10 samples at 16 kHz
        tau = woodworth_delay(math.pi / 2)
        assert tau == pytest.approx(6.558e-4, rel=1e-3)
        pair = analytic_hrir(math.pi / 2, 0.0, FS)
        assert np.argmax(np.abs(pair[0])) == 0
        assert np.argmax(np.abs(pair[1])) == 10

    def test_hard_left_gains(self):
        pair = analytic_hrir(math.pi / 2, 0.0, FS)
        assert np.max(np.abs(pair[0])) == pytest.approx(1.0)
        assert np.max(np.abs(pair[1])) == pytest.approx(10 ** (-6 / 20), rel=1e-6)

    def test_mirror_symmetry(self, rng):
        for _ in range(20):
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(-np.pi / 2, np.pi / 2)
            a = analytic_hrir(az, el, FS)
            b = analytic_hrir(-az, el, FS)
            np.testing.assert_allclose(a[0], b[1], atol=1e-12)
            np.testing.assert_allclose(a[1], b[0], atol=1e-12)

    def test_monotonic_far_ear_delay(self):
        delays = [
            np.argmax(np.abs(analytic_hrir(az, 0.0, FS)[1]))
            for az in np.linspace(0.0, math.pi / 2, 30)
        ]
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    def test_impulse_response_grows_to_fit_the_delay(self):
        # The 0.66 ms far-ear delay needs more than 64 taps from ~98 kHz on.
        rate = 192000
        delay = round(woodworth_delay(math.pi / 2) * rate)
        assert delay >= 64
        pair = analytic_hrir(math.pi / 2, 0.0, rate)
        assert len(pair[0]) == len(pair[1]) == delay + 1
        assert np.argmax(pair[0]) == 0
        assert np.argmax(pair[1]) == delay
        tone = np.sin(2 * np.pi * 440.0 * np.arange(rate // 10) / rate)
        out = render_static(AudioBuffer(tone, rate), math.pi / 2)
        assert out.sample_rate == rate
        assert len(out) == len(tone)
        assert np.all(np.isfinite(out.samples[0])) and np.any(out.samples[1])

    def test_low_rate_banks_keep_ir_length_taps(self):
        for rate in (16000, 48000, 96000):
            assert len(analytic_hrir(math.pi / 2, 0.0, rate)[0]) == IR_LENGTH

    def test_energy_bound(self, rng):
        for _ in range(20):
            pair = analytic_hrir(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2), FS)
            assert np.sum(pair[0]**2) <= 1.0 + 1e-12
            assert np.sum(pair[1]**2) <= 1.0 + 1e-12

    def test_analytic_lookup_is_exact_synthesis(self):
        found = lookup(0.123, 0.045, FS)
        direct = analytic_hrir(0.123, 0.045, FS)
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
        hrirs = [lookup(az, el, rate) for az, el in directions]
        for hrir in hrirs:
            assert hrir.dtype == np.float64
            assert hrir.shape == hrirs[0].shape
        taps = hrirs[0].shape[1]
        assert hrirs[0].shape[0] == 2
        assert taps >= IR_LENGTH
        assert taps > round(woodworth_delay(math.pi / 2) * rate)


# Directions the head model must get right by construction: the poles, the
# ear axis and straight behind, where sin(az) cos(el) meets 0 or +-1.
SPECIAL_AZIMUTHS = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi])
SPECIAL_ELEVATIONS = st.sampled_from([0.0, math.pi / 2, -math.pi / 2])
DIRECTION_ARRAYS = st.lists(
    st.tuples(
        SPECIAL_AZIMUTHS | st.floats(-math.pi, math.pi),
        SPECIAL_ELEVATIONS | st.floats(-math.pi / 2, math.pi / 2),
    ),
    min_size=1,
    max_size=12,
)
RATES = st.sampled_from([16000, 44100, 48000, 96000, 192000])


class TestAgainstOracle:
    """The array head model against the ear-by-ear unit-vector oracle."""

    @given(rate=RATES, directions=DIRECTION_ARRAYS)
    def test_lookup_matches_oracle(self, rate, directions):
        azimuth, elevation = np.array(directions).T
        found = lookup(azimuth, elevation, rate)
        assert found.shape[:2] == (len(directions), 2)
        for hrir, az, el in zip(found, azimuth, elevation):
            expected = oracle_analytic_hrir(az, el, rate)
            assert hrir.shape == expected.shape
            # The same delays exactly, and the same gains within rounding.
            np.testing.assert_array_equal(np.nonzero(hrir), np.nonzero(expected))
            np.testing.assert_allclose(hrir, expected, rtol=1e-15, atol=0)

    @given(rate=RATES, directions=DIRECTION_ARRAYS)
    def test_array_call_stacks_scalar_calls(self, rate, directions):
        azimuth, elevation = np.array(directions).T
        stacked = np.stack([lookup(az, el, rate) for az, el in zip(azimuth, elevation)])
        assert stacked.ndim == 3
        np.testing.assert_array_equal(lookup(azimuth, elevation, rate), stacked)
