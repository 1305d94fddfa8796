import json
import math

import numpy as np
import pytest

from binauralkit.audio import AudioBuffer, BinauralBuffer, write_wav
from binauralkit.ambisonic import Direction
from binauralkit.hrir import (
    IR_LENGTH,
    HrirSet,
    analytic_hrir,
    load_hrir_manifest,
    lookup,
    woodworth_delay,
)
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


def _write_manifest(tmp_path, entries):
    items = []
    for i, (az_deg, el_deg) in enumerate(entries):
        name = f"hrir_{i}.wav"
        rng = np.random.default_rng(i)
        left = AudioBuffer(rng.standard_normal(32) * 0.1, FS)
        right = AudioBuffer(rng.standard_normal(32) * 0.1, FS)
        write_wav(tmp_path / name, BinauralBuffer(left, right), "float32")
        items.append({"azimuth_deg": az_deg, "elevation_deg": el_deg, "file": name})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(items))
    return path


class TestMeasuredSets:
    def test_load_two_entries(self, tmp_path):
        hset = load_hrir_manifest(_write_manifest(tmp_path, [(90.0, 0.0), (-90.0, 0.0)]))
        assert isinstance(hset, HrirSet)
        assert hset.sample_rate == FS
        assert len(hset.entries) == 2

    def test_missing_file_named(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps([{"azimuth_deg": 0.0, "elevation_deg": 0.0, "file": "gone.wav"}])
        )
        with pytest.raises(FileNotFoundError, match="gone.wav"):
            load_hrir_manifest(path)

    def test_mono_file_rejected(self, tmp_path):
        write_wav(tmp_path / "mono.wav", AudioBuffer(np.zeros(32) + 0.1, FS))
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps([{"azimuth_deg": 0.0, "elevation_deg": 0.0, "file": "mono.wav"}])
        )
        with pytest.raises(ValueError):
            load_hrir_manifest(path)

    def test_duplicate_direction_rejected(self, tmp_path):
        path = _write_manifest(tmp_path, [(10.0, 0.0), (10.0, 0.0)])
        with pytest.raises(ValueError):
            load_hrir_manifest(path)

    @pytest.mark.parametrize(
        "items,match",
        [
            ({"azimuth_deg": 0.0}, r"HRIR manifest must be a JSON array"),
            ([{"azimuth_deg": 0.0, "file": "a.wav"}], r"entry 0 needs"),
            ([{"azimuth_deg": math.nan, "elevation_deg": 0.0, "file": "a.wav"}], r"entry 0: bad"),
            ([{"azimuth_deg": "x", "elevation_deg": 0.0, "file": "a.wav"}], r"entry 0: bad"),
        ],
    )
    def test_malformed_manifest_names_file(self, tmp_path, items, match):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(items))
        with pytest.raises(ValueError, match=r"manifest\.json: " + match):
            load_hrir_manifest(path)

    def test_duplicate_direction_names_entry(self, tmp_path):
        path = _write_manifest(tmp_path, [(10.0, 0.0), (10.0, 0.0)])
        with pytest.raises(ValueError, match=r"manifest\.json: entry 1: duplicate"):
            load_hrir_manifest(path)

    def test_lookup_exact_direction(self, tmp_path):
        hset = load_hrir_manifest(_write_manifest(tmp_path, [(90.0, 0.0), (-90.0, 0.0)]))
        stored = hset.entries[Direction(math.radians(90.0), 0.0)]
        found = lookup(hset, Direction(math.radians(90.0), 0.0), FS)
        np.testing.assert_array_equal(found.left, stored.left)

    def test_lookup_nearest(self, tmp_path):
        hset = load_hrir_manifest(_write_manifest(tmp_path, [(90.0, 0.0), (-90.0, 0.0)]))
        found = lookup(hset, Direction(math.radians(80.0), 0.0), FS)
        stored = hset.entries[Direction(math.radians(90.0), 0.0)]
        np.testing.assert_array_equal(found.left, stored.left)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            HrirSet(FS, {})

    def test_analytic_lookup_is_exact_synthesis(self):
        d = Direction(0.123, 0.045)
        found = lookup(None, d, FS)
        direct = analytic_hrir(d, FS)
        np.testing.assert_array_equal(found.left, direct.left)
        np.testing.assert_array_equal(found.right, direct.right)
