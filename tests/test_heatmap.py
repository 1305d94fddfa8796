import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from binauralkit.heatmap import (
    HeatmapFormatError,
    NEUTRAL_FEATURES,
    extract_features,
    load_heatmap_sequence,
    save_features_csv,
)
from conftest import write_hmap
from oracles import oracle_heatmap_features


def features_of(m):
    """(s_h, s_area, s_var, s_lr, s_shape) of one H x W map."""
    return extract_features(np.asarray(m, float)[None])[0]


class TestHmapFormat:
    def _write(self, tmp_path, text):
        path = tmp_path / "map.hmap"
        path.write_text(text)
        return path

    def test_minimal_file(self, tmp_path):
        values = load_heatmap_sequence(self._write(tmp_path, "hmap 1 1 1 1\n0.5\n"))
        assert values.shape == (1, 1, 1)
        assert values.dtype == np.float64
        assert values[0, 0, 0] == 0.5

    def test_two_frames(self, tmp_path):
        text = "hmap 1 2 2 3\n1 2 3\n4 5 6\n0 0 0\n0 0 1\n"
        values = load_heatmap_sequence(self._write(tmp_path, text))
        assert len(values) == 2
        np.testing.assert_array_equal(values[0], [[1, 2, 3], [4, 5, 6]])
        assert values[1, 1, 2] == 1.0

    def test_bad_magic(self, tmp_path):
        with pytest.raises(HeatmapFormatError, match=":1:"):
            load_heatmap_sequence(self._write(tmp_path, "heat 1 1 1 1\n1\n"))

    def test_bad_version(self, tmp_path):
        with pytest.raises(HeatmapFormatError):
            load_heatmap_sequence(self._write(tmp_path, "hmap 2 1 1 1\n1\n"))

    def test_short_row_cites_line(self, tmp_path):
        text = "hmap 1 1 2 3\n1 2 3\n4 5\n"
        with pytest.raises(HeatmapFormatError, match=":3:"):
            load_heatmap_sequence(self._write(tmp_path, text))

    def test_non_numeric_cites_line(self, tmp_path):
        with pytest.raises(HeatmapFormatError, match=":2:"):
            load_heatmap_sequence(self._write(tmp_path, "hmap 1 1 1 1\nx\n"))

    def test_negative_value_rejected(self, tmp_path):
        with pytest.raises(HeatmapFormatError):
            load_heatmap_sequence(self._write(tmp_path, "hmap 1 1 1 2\n1 -1\n"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_cites_line(self, tmp_path, value):
        text = f"hmap 1 2 1 2\n1 1\n1 {value}\n"
        with pytest.raises(HeatmapFormatError, match=r"map\.hmap:3: non-finite heatmap value"):
            load_heatmap_sequence(self._write(tmp_path, text))

    def test_missing_rows(self, tmp_path):
        with pytest.raises(HeatmapFormatError):
            load_heatmap_sequence(self._write(tmp_path, "hmap 1 2 2 2\n1 1\n1 1\n"))

    def test_extra_rows_cite_first_extra_line(self, tmp_path):
        with pytest.raises(HeatmapFormatError, match=":3:"):
            load_heatmap_sequence(self._write(tmp_path, "hmap 1 1 1 2\n1 2\n3 4\n5 6\n"))

    def test_trailing_blank_lines_allowed(self, tmp_path):
        values = load_heatmap_sequence(self._write(tmp_path, "hmap 1 1 1 2\n1 2\n\n  \n"))
        assert len(values) == 1

    def test_roundtrip(self, tmp_path, rng):
        values = rng.uniform(0, 1, (3, 6, 8))
        path = tmp_path / "rt.hmap"
        write_hmap(path, values)
        loaded = load_heatmap_sequence(path)
        assert len(loaded) == 3
        np.testing.assert_allclose(loaded, values, rtol=1e-8)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        values=arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(0.0, 1e12, allow_subnormal=False),
        )
    )
    def test_save_load_keeps_nine_significant_digits(self, tmp_path, values):
        path = tmp_path / "rt.hmap"
        write_hmap(path, values)
        loaded = load_heatmap_sequence(path)
        np.testing.assert_allclose(loaded, values, rtol=5e-9, atol=0.0)


class TestFeatureTrivials:
    def test_uniform_map(self):
        s_h, s_area, s_var, s_lr, s_shape = features_of(np.ones((4, 4)))
        assert s_h == pytest.approx((1 + 2 + 3 + 4) / 4 / 4)
        assert s_area == 1.0
        assert s_var == pytest.approx(2.5)  # var_x = var_y = 1.25
        assert s_lr == 0.0
        assert s_shape == pytest.approx(1.0, rel=1e-6)

    def test_point_mass(self):
        m = np.zeros((10, 10))
        m[4, 2] = 7.0  # 1-based pixel (x=3, y=5)
        feats = features_of(m)
        np.testing.assert_allclose(feats, [0.3, 0.01, 0.0, -1.0, 0.0], atol=1e-12)

    def test_all_zero_neutral(self):
        np.testing.assert_array_equal(features_of(np.zeros((5, 7))), NEUTRAL_FEATURES)

    def test_odd_width_middle_column_neutral_bias(self):
        m = np.zeros((3, 5))
        m[:, 2] = 1.0  # everything in the middle column splits evenly
        assert features_of(m)[3] == 0.0

    def test_right_heavy_bias_positive(self):
        m = np.zeros((2, 4))
        m[:, 3] = 1.0
        assert features_of(m)[3] == 1.0

    def test_area_threshold_boundary_inclusive(self):
        # 0.5 == 0.5 * max counts; 0.49 does not
        assert features_of([[1.0, 0.5, 0.49]])[1] == pytest.approx(2.0 / 3.0)

    def test_wide_blob_shape_ratio(self):
        m = np.zeros((5, 5))
        m[2, :] = 1.0  # horizontal line: var_y = 0
        assert features_of(m)[4] > 1e6


class TestFeatureProperties:
    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            m = rng.uniform(0.0, 1.0, (8, 8))
            feats = features_of(m)
            expected = oracle_heatmap_features(m.tolist())
            np.testing.assert_allclose(feats, expected, atol=1e-12)

    def test_matches_loop_oracle_odd_width(self, rng):
        for _ in range(10):
            m = rng.uniform(0.0, 1.0, (6, 7))
            np.testing.assert_allclose(
                features_of(m), oracle_heatmap_features(m.tolist()), atol=1e-12
            )

    def test_scale_invariance(self, rng):
        m = rng.uniform(0.0, 1.0, (9, 11))
        np.testing.assert_allclose(features_of(m), features_of(5.0 * m), atol=1e-10)

    def test_mirror_property(self, rng):
        m = rng.uniform(0.0, 1.0, (6, 9))
        a = features_of(m)
        b = features_of(m[:, ::-1])
        assert b[0] == pytest.approx(1.0 + 1.0 / 9.0 - a[0], rel=1e-9)  # cx mirrors
        assert b[1] == pytest.approx(a[1])
        assert b[2] == pytest.approx(a[2])
        assert b[3] == pytest.approx(-a[3], abs=1e-12)
        assert b[4] == pytest.approx(a[4])


class TestSequences:
    def test_extract_features_shape(self, rng):
        feats = extract_features(rng.uniform(0, 1, (5, 4, 6)))
        assert feats.shape == (5, 5)
        assert feats.dtype == np.float64

    def test_mixed_zero_frames(self):
        values = np.stack([np.zeros((3, 3)), np.ones((3, 3))])
        feats = extract_features(values)
        np.testing.assert_array_equal(feats[0], NEUTRAL_FEATURES)
        assert feats[1][1] == 1.0

    def test_features_csv(self, tmp_path, rng):
        feats = extract_features(rng.uniform(0, 1, (3, 4, 4)))
        path = tmp_path / "f.csv"
        save_features_csv(path, feats)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame,s_h,s_area,s_var,s_lr,s_shape"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(feats[0][0], rel=1e-10)

    def test_frame_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="T x H x W"):
            extract_features(np.ones((3, 3)))
        with pytest.raises(ValueError, match="T x H x W"):
            extract_features(np.ones((0, 2, 2)))

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_values_must_be_finite_and_non_negative(self, value):
        values = np.ones((2, 2, 2))
        values[1, 0, 1] = value
        with pytest.raises(ValueError, match="finite and non-negative"):
            extract_features(values)
