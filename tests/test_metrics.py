import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from binauralkit import audio, metrics
from binauralkit.audio import AudioBuffer, BinauralBuffer
from binauralkit.metrics import (
    EPSILON,
    FRAME_SIZE,
    HOP,
    IACC_BLOCK,
    MAX_LAG_MS,
    SILENCE_GATE_DB,
    STFT_FRAME,
    STFT_HOP,
    _voiced,
    iacc,
    ild,
    ipd,
    isd,
    itd,
    max_lag_samples,
    spatial_report,
)
from conftest import noise_buffer
from oracles import _gated, oracle_iacc, oracle_ild, oracle_ipd, oracle_isd, oracle_itd

FS = 16000


def stereo(left, right, rate=FS):
    return BinauralBuffer(AudioBuffer(np.asarray(left, float), rate),
                          AudioBuffer(np.asarray(right, float), rate))


def dup(x, rate=FS):
    return stereo(x, np.array(x, float).copy(), rate)


class TestTrivialValues:
    def test_identical_channels(self, rng):
        b = dup(rng.standard_normal(8000))
        assert iacc(b) == pytest.approx(1.0)
        assert ild(b) == pytest.approx(0.0, abs=1e-12)
        assert itd(b) == 0.0
        assert isd(b) == pytest.approx(0.0, abs=1e-12)
        assert ipd(b) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_channel_ild(self, rng):
        x = rng.standard_normal(8000)
        b = stereo(x, 2.0 * x)
        # energy ratio 1/4 per frame
        assert ild(b) == pytest.approx(10.0 * math.log10(4.0), rel=1e-6)
        assert iacc(b) == pytest.approx(1.0)
        assert itd(b) == 0.0
        assert isd(b) == pytest.approx(math.log10(2.0), rel=1e-3)
        assert ipd(b) == pytest.approx(0.0, abs=1e-9)

    def test_pure_delay_itd(self, rng):
        x = rng.standard_normal(8000)
        d = 5
        right = np.concatenate([np.zeros(d), x[:-d]])
        b = stereo(x, right)
        assert itd(b) == pytest.approx(d / FS * 1e3, rel=1e-6)
        assert iacc(b) > 0.95

    def test_delayed_sine_ipd_closed_form(self):
        # 500 Hz delayed by 2 samples: phase difference 2*pi*500*2/16000 = pi/8
        n = np.arange(16000)
        x = np.sin(2.0 * np.pi * 500.0 * n / FS)
        y = np.sin(2.0 * np.pi * 500.0 * (n - 2.0) / FS)
        b = stereo(x, y)
        assert ipd(b) == pytest.approx(math.pi / 8.0, rel=1e-3)

    def test_silence_rejected(self):
        b = dup(np.zeros(8000))
        with pytest.raises(ValueError):
            iacc(b)
        with pytest.raises(ValueError):
            ild(b)
        with pytest.raises(ValueError):
            itd(b)
        with pytest.raises(ValueError):
            isd(b)
        with pytest.raises(ValueError):
            ipd(b)

    @pytest.mark.parametrize("silent, message", [
        ("left", "left channel is all-zero"),
        ("right", "right channel is all-zero"),
        ("both", "both channels are all-zero"),
    ])
    def test_silent_channel_named(self, rng, silent, message):
        x = rng.standard_normal(8000)
        left = np.zeros(8000) if silent in ("left", "both") else x
        right = np.zeros(8000) if silent in ("right", "both") else 0.5 * x
        for fn in (iacc, spatial_report):
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(stereo(left, right))

    def test_antiphase_ipd(self, rng):
        x = rng.standard_normal(8000)
        b = stereo(x, -x)
        assert ipd(b) == pytest.approx(math.pi, abs=1e-9)
        assert iacc(b) == pytest.approx(1.0)  # peak of |correlation|


class TestProperties:
    def _random_pair(self, rng, n=4000):
        shared = rng.standard_normal(n)
        left = shared + 0.3 * rng.standard_normal(n)
        right = np.concatenate([np.zeros(3), shared[:-3]]) + 0.3 * rng.standard_normal(n)
        # splice in silence so gating participates
        left[1200:2000] = 0.0
        right[1200:2000] = 0.0
        return stereo(left, right)

    def test_channel_swap_invariance(self, rng):
        b = self._random_pair(rng)
        swapped = BinauralBuffer(b.right, b.left)
        for fn in (iacc, ild, itd, isd, ipd):
            assert fn(b) == pytest.approx(fn(swapped), rel=1e-9)

    def test_common_gain_invariance(self, rng):
        b = self._random_pair(rng)
        loud = stereo(8.0 * b.left.samples, 8.0 * b.right.samples)
        for fn, tol in ((iacc, 1e-9), (ild, 1e-6), (itd, 1e-9), (ipd, 1e-9)):
            assert fn(b) == pytest.approx(fn(loud), rel=1e-4, abs=tol)

    def test_ranges(self, rng):
        for _ in range(5):
            b = self._random_pair(rng)
            assert 0.0 <= iacc(b) <= 1.0
            assert ild(b) >= 0.0
            assert itd(b) >= 0.0
            assert isd(b) >= 0.0
            assert 0.0 <= ipd(b) <= math.pi

    def test_itd_bounded_by_max_lag(self, rng):
        b = self._random_pair(rng)
        assert itd(b) <= MAX_LAG_MS


class TestOracleEquivalence:
    def test_all_metrics_match_direct_summation(self, rng):
        shared = rng.standard_normal(4000)
        left = shared + 0.4 * rng.standard_normal(4000)
        right = np.concatenate([np.zeros(4), shared[:-4]]) + 0.4 * rng.standard_normal(4000)
        left[800:1600] = 0.0
        right[800:1600] = 0.0
        b = stereo(left, right)
        lag = max_lag_samples(FS)
        assert iacc(b) == pytest.approx(oracle_iacc(left, right, lag), rel=1e-9)
        assert ild(b) == pytest.approx(
            oracle_ild(left, right, FRAME_SIZE, HOP,
                       SILENCE_GATE_DB, EPSILON), rel=1e-9)
        assert itd(b) == pytest.approx(
            oracle_itd(left, right, FRAME_SIZE, HOP, lag,
                       SILENCE_GATE_DB, FS), rel=1e-9)
        assert isd(b) == pytest.approx(
            oracle_isd(left, right, STFT_FRAME, STFT_HOP,
                       SILENCE_GATE_DB, EPSILON), rel=1e-9)
        assert ipd(b) == pytest.approx(
            oracle_ipd(left, right, STFT_FRAME, STFT_HOP,
                       SILENCE_GATE_DB), rel=1e-9)


class TestReport:
    def test_report_fields_consistent(self, rng):
        b = dup(rng.standard_normal(8000))
        rep = spatial_report(b)
        assert rep.iacc == pytest.approx(iacc(b))
        assert rep.ild_db == pytest.approx(ild(b))
        assert rep.itd_ms == itd(b)
        assert rep.isd == pytest.approx(isd(b))
        assert rep.ipd_rad == pytest.approx(ipd(b))
        assert rep.frames_used == 1 + (8000 - 400) // 160

    def test_json_sorted_keys(self, rng):
        rep = spatial_report(dup(rng.standard_normal(8000)))
        text = rep.to_json()
        keys = ["frames_used", "iacc", "ild_db", "ipd_rad", "isd", "itd_ms"]
        positions = [text.index(f'"{k}"') for k in keys]
        assert positions == sorted(positions)

    def test_gated_frames_excluded_from_count(self, rng):
        x = rng.standard_normal(8000)
        x[:4000] = 0.0
        rep = spatial_report(dup(x))
        assert rep.frames_used < 1 + (8000 - 400) // 160


class TestShortInputs:
    @pytest.mark.parametrize(
        "n, fn, message",
        [
            (450, isd, "signal shorter than one frame"),
            (450, ipd, "signal shorter than one frame"),
            (450, spatial_report, "signal shorter than one frame"),
            (300, ild, "all frames below the silence gate"),
            (300, itd, "all frames below the silence gate"),
            (300, spatial_report, "all frames below the silence gate"),
            (300, isd, "signal shorter than one frame"),
            (300, ipd, "signal shorter than one frame"),
        ],
    )
    def test_error_names_the_missing_frame(self, rng, n, fn, message):
        # 450 samples hold one 400-sample frame but no 512-sample STFT frame;
        # 300 samples hold neither.
        x = rng.standard_normal(n)
        with pytest.raises(ValueError, match=message):
            fn(stereo(x, 0.5 * x))

    @pytest.mark.parametrize(
        "rate, fn, message",
        [
            (400, iacc, "max_lag must be at least one sample"),
            (250_000, itd, "frames too short for the lag search window"),
            (250_000, spatial_report, "frames too short for the lag search window"),
        ],
    )
    def test_lag_window_fits_the_rate(self, rng, rate, fn, message):
        # The +-1 ms lag window is under one sample below 500 Hz and wider
        # than half a 400-sample frame above 200 kHz.
        x = rng.standard_normal(4000)
        with pytest.raises(ValueError, match=message):
            fn(stereo(x, 0.5 * x, rate))


# (samples, (left dB, right dB)) per segment; None is digital silence in both.
_LEVELS = st.one_of(st.none(), st.tuples(st.floats(-90.0, -30.0), st.floats(-90.0, -30.0)))
_SEGMENTS = st.lists(st.tuples(st.integers(100, 1200), _LEVELS), min_size=1, max_size=6)


def _oracle_mask(left, right, frame, hop, gate_db):
    starts = range(0, len(left) - frame + 1, hop)
    return np.array([not _gated(left[s : s + frame], right[s : s + frame], gate_db) for s in starts])


class TestGate:
    @given(seed=st.integers(0, 2**32 - 1), segments=_SEGMENTS)
    def test_voiced_frames_match_scalar_gate(self, seed, segments):
        """frames_used and the STFT-frame mask equal the scalar oracle gate.

        Each segment is silence or noise at a drawn level per channel, so
        frames land on both sides of the -60 dB gate. Examples with a frame
        within 1e-9 dB of the gate are skipped: an ulp-level difference
        between NumPy's and math's log10 can only flip a frame that sits
        exactly on the gate.
        """
        rng = np.random.default_rng(seed)
        channels = ([], [])
        for n, levels in segments:
            for channel, level in zip(channels, levels or (None, None)):
                scale = 0.0 if level is None else 10.0 ** (level / 20.0)
                channel.append(scale * rng.standard_normal(n))
        left, right = (np.concatenate(c) for c in channels)
        assume(len(left) >= 512 and np.any(left))
        for frame in (FRAME_SIZE, STFT_FRAME):
            for s in range(0, len(left) - frame + 1, HOP):
                power = max(np.mean(left[s : s + frame] ** 2), np.mean(right[s : s + frame] ** 2))
                assume(abs(10.0 * math.log10(power + 1e-300) - SILENCE_GATE_DB) > 1e-9)
        b = stereo(left, right)
        frame_mask = _oracle_mask(left, right, FRAME_SIZE, HOP, SILENCE_GATE_DB)
        stft_mask = _oracle_mask(left, right, STFT_FRAME, STFT_HOP, SILENCE_GATE_DB)
        if stft_mask.any():
            assert np.array_equal(_voiced(b, STFT_FRAME, STFT_HOP), stft_mask)
        if frame_mask.any() and stft_mask.any():
            assert spatial_report(b).frames_used == int(frame_mask.sum())
        else:
            with pytest.raises(ValueError, match="all frames below the silence gate"):
                spatial_report(b)


class TestItdTies:
    def test_exact_tie_breaks_toward_smaller_lag(self):
        # Every frame correlates equally at lags 2 and 5 (integer sums, so
        # the tie is exact in any summation order); frames whose last
        # impulse only fits lag 2 favour it outright.
        left = np.zeros(8000)
        left[::97] = 1.0
        right = np.roll(left, 2) + np.roll(left, 5)
        assert itd(stereo(left, right)) == pytest.approx(0.125, rel=1e-12)


class TestOneFramingPass:
    def test_each_channel_framed_once_per_size_and_hop(self, monkeypatch, rng):
        calls = {}
        real = audio.frames

        def counting(samples, size, hop):
            key = (id(samples), size, hop)
            calls[key] = calls.get(key, 0) + 1
            return real(samples, size, hop)

        monkeypatch.setattr(audio, "frames", counting)
        monkeypatch.setattr(metrics, "frames", counting)
        x = rng.standard_normal(8000)
        x[2000:4000] = 0.0
        b = stereo(x, 0.5 * np.roll(x, 3))
        spatial_report(b)
        assert calls and max(calls.values()) == 1


@st.composite
def _impulse_pairs(draw):
    """Sparse small-integer signals: every lagged product sum is an exact
    integer, so correlation ties are exact in any summation order."""
    n = draw(st.integers(400, 1600))
    channels = []
    for _ in range(2):
        spikes = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, 3)), max_size=24))
        x = np.zeros(n)
        for i, v in spikes:
            x[i] = v
        channels.append(x)
    return channels


class TestItdAgainstOracle:
    @given(pair=_impulse_pairs())
    def test_integer_impulses_match_exactly(self, pair):
        left, right = pair
        lag = max_lag_samples(FS)
        b = stereo(left, right)
        if not _oracle_mask(left, right, FRAME_SIZE, HOP, SILENCE_GATE_DB).any():
            with pytest.raises(ValueError, match="all frames below the silence gate"):
                itd(b)
            return
        want = oracle_itd(left, right, FRAME_SIZE, HOP, lag, SILENCE_GATE_DB, FS)
        assert itd(b) == want


@st.composite
def _noise_pairs(draw):
    """A delayed, scaled noise pair, each channel with noise of its own; when
    `gated`, both hold a stretch of digital silence between voiced stretches,
    long enough to hold a whole frame of either size, so the gate drops
    frames in the middle."""
    n = draw(st.integers(2100, 2800))
    lag = draw(st.integers(-12, 12))
    gated = draw(st.booleans())
    start = draw(st.integers(700, n - 1380))
    stop = draw(st.integers(start + 680, n - 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = rng.standard_normal(n + 24)
    left = 0.2 * shared[12 : 12 + n] + 0.05 * rng.standard_normal(n)
    right = 0.15 * shared[12 + lag : 12 + lag + n] + 0.05 * rng.standard_normal(n)
    if gated:
        left[start:stop] = right[start:stop] = 0.0
    return left, right, gated


class TestLayouts:
    @settings(max_examples=20)
    @given(pair=_noise_pairs())
    def test_every_layout_gives_the_oracle_values(self, pair):
        """All five metrics equal the direct sums to 1e-9, and the report is
        bit-identical whether the channels arrive contiguous, as stride-2
        columns of an interleaved array or as reversed views; the gated
        pairs take the path that copies the voiced rows, the others the
        path that uses the frame views."""
        left, right, gated = pair
        interleaved = np.stack([left, right], axis=1)
        reversed_views = [np.ascontiguousarray(x[::-1])[::-1] for x in (left, right)]
        assert interleaved[:, 0].strides == (16,) and reversed_views[0].strides == (-8,)
        b = stereo(left, right)
        for size, hop in ((FRAME_SIZE, HOP), (STFT_FRAME, STFT_HOP)):
            assert _voiced(b, size, hop).all() != gated
        report = astuple(spatial_report(b))
        for channels in ((interleaved[:, 0], interleaved[:, 1]), reversed_views):
            assert astuple(spatial_report(stereo(*channels))) == report
        assert report[:5] == (iacc(b), ild(b), itd(b), isd(b), ipd(b))
        lag = max_lag_samples(FS)
        want = (
            oracle_iacc(left, right, lag),
            oracle_ild(left, right, FRAME_SIZE, HOP, SILENCE_GATE_DB, EPSILON),
            oracle_itd(left, right, FRAME_SIZE, HOP, lag, SILENCE_GATE_DB, FS),
            oracle_isd(left, right, STFT_FRAME, STFT_HOP, SILENCE_GATE_DB, EPSILON),
            oracle_ipd(left, right, STFT_FRAME, STFT_HOP, SILENCE_GATE_DB),
        )
        assert report[:5] == pytest.approx(want, rel=1e-9)


# Lengths the lag window allows at 16 and 48 kHz (33 and 97 lags): the
# shortest, one IACC block and a sample either side of it, and several blocks.
_BLOCK_LENGTHS = [
    (rate, n)
    for rate in (FS, 48000)
    for n in (max_lag_samples(rate) + 1, IACC_BLOCK - 1, IACC_BLOCK, IACC_BLOCK + 1,
              2 * IACC_BLOCK + 1, 3 * IACC_BLOCK - 1)
]


@st.composite
def _delayed_pairs(draw, rate, n, integer):
    """A delayed n-sample pair, each channel with noise of its own; with
    `integer`, small-integer samples, whose lagged sums are exact in any
    summation order."""
    max_lag = max_lag_samples(rate)
    lag = draw(st.integers(-max_lag, max_lag))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if integer:
        shared = rng.integers(-3, 4, n + 2 * max_lag).astype(float)
        own = [rng.integers(-1, 2, n).astype(float) for _ in range(2)]
    else:
        shared = rng.standard_normal(n + 2 * max_lag)
        own = [0.3 * rng.standard_normal(n) for _ in range(2)]
    left = shared[max_lag : max_lag + n] + own[0]
    right = 0.5 * shared[max_lag + lag : max_lag + lag + n] + own[1]
    assume(left.any() and right.any())
    return left, right


class TestIaccBlocks:
    """IACC sums its lagged dots over IACC_BLOCK-sample blocks; across block
    boundaries and at both rates, both lag searches still give the direct
    sums."""

    @staticmethod
    def _check(left, right, rate, exact):
        b = stereo(left, right, rate)
        lag = max_lag_samples(rate)
        want_iacc = oracle_iacc(left.tolist(), right.tolist(), lag)
        assert iacc(b) == (want_iacc if exact else pytest.approx(want_iacc, rel=1e-9))
        if len(left) < FRAME_SIZE:
            with pytest.raises(ValueError, match="all frames below the silence gate"):
                itd(b)
            return
        want_itd = oracle_itd(left.tolist(), right.tolist(), FRAME_SIZE, HOP, lag,
                              SILENCE_GATE_DB, rate)
        assert itd(b) == (want_itd if exact else pytest.approx(want_itd, rel=1e-9))

    @pytest.mark.parametrize("rate, n", _BLOCK_LENGTHS)
    @settings(max_examples=4)
    @given(data=st.data())
    def test_float_signals_match_the_oracles(self, rate, n, data):
        left, right = data.draw(_delayed_pairs(rate, n, integer=False))
        self._check(left, right, rate, exact=False)

    @pytest.mark.parametrize("rate, n", _BLOCK_LENGTHS)
    @settings(max_examples=4)
    @given(data=st.data())
    def test_integer_signals_match_the_oracles_exactly(self, rate, n, data):
        left, right = data.draw(_delayed_pairs(rate, n, integer=True))
        self._check(left, right, rate, exact=True)
