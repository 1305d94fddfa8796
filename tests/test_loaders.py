"""The array loaders against the line-by-line oracles: valid files parse to
equal arrays, and a file damaged on one line fails with the same exception
type and message under both."""

import re
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from binauralkit.ambisonic import load_trajectory_csv
from binauralkit.heatmap import HeatmapSequence, extract_features, load_heatmap_sequence
from binauralkit.hrir import load_hrir_manifest
from binauralkit.pipeline import load_manifest
from oracles import oracle_load_hmap, oracle_load_trajectory

tmp_settings = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@contextmanager
def warnings_as_errors():
    """A loader that warns fails: warnings raised inside the block are
    errors. The filter covers only the block, so a test plugin's own
    warnings cannot abort the run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def outcome(load, path):
    """('ok', arrays) or ('error', exception type, message)."""
    try:
        with warnings_as_errors():
            return ("ok", load(path))
    except ValueError as exc:
        return ("error", type(exc), str(exc))


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
    else:
        assert len(got[1]) == len(want[1])
        for a, b in zip(got[1], want[1]):
            np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------------ HMAP

NUMBER_FORMATS = ("{:.9g}", "{!r}", "{:.3e}", "{:.0f}")


@st.composite
def hmap_texts(draw):
    t, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    values = draw(arrays(np.float64, (t * h, w), elements=st.floats(0.0, 1e6)))
    fmt = draw(st.sampled_from(NUMBER_FORMATS))
    sep = draw(st.sampled_from((" ", "  ", "\t", " \t ")))
    lines = [f"hmap 1 {t} {h} {w}"]
    lines += [sep.join(fmt.format(float(v)) for v in row) for row in values]
    trailing = draw(st.sampled_from(("", "\n", "\n\n  \n")))
    return "\n".join(lines) + "\n" + trailing


HMAP_DAMAGE = (
    "ragged row", "blank data line", "# token", "non-numeric", "negative",
    "nan", "inf", "trailing data row",
)


def damage_hmap(text, kind, line, field):
    lines = text.splitlines()
    _, _, t, h, w = lines[0].split()
    data = 1 + (line % (int(t) * int(h)))  # index of a data line
    fields = lines[data].split()
    i = field % len(fields)
    if kind == "ragged row":
        fields = fields[:-1] if len(fields) > 1 else fields + ["1"]
    elif kind == "blank data line":
        fields = []
    elif kind == "trailing data row":
        lines.append(" ".join(["1"] * int(w)))
    else:
        fields[i] = {"# token": "#", "non-numeric": "x", "negative": "-1",
                     "nan": "nan", "inf": "inf"}[kind]
    if kind != "trailing data row":
        lines[data] = " ".join(fields)
    return "\n".join(lines) + "\n"


def load_values(path):
    return (load_heatmap_sequence(path).values,)


def oracle_values(path):
    return (oracle_load_hmap(path),)


class TestHmapAgainstOracle:
    @tmp_settings
    @given(text=hmap_texts())
    def test_valid_files_parse_equal(self, tmp_path, text):
        path = tmp_path / "ok.hmap"
        path.write_text(text)
        got, want = outcome(load_values, path), outcome(oracle_values, path)
        assert got[0] == "ok"
        assert_same_outcome(got, want)

    @tmp_settings
    @given(
        text=hmap_texts(),
        kind=st.sampled_from(HMAP_DAMAGE),
        line=st.integers(0, 100),
        field=st.integers(0, 100),
    )
    def test_one_damaged_line_fails_alike(self, tmp_path, text, kind, line, field):
        path = tmp_path / "bad.hmap"
        path.write_text(damage_hmap(text, kind, line, field))
        got, want = outcome(load_values, path), outcome(oracle_values, path)
        assert want[0] == "error"
        assert_same_outcome(got, want)

    @pytest.mark.parametrize(
        "text",
        [
            "hmap 1 1 1 2\n1_0 2\n",
            "hmap 1 1 1 2\n\n",
            "hmap 1 2 1 1\n \n\n",
            "hmap 1 2 1 1\n\n1\n",
            "hmap 1 1 1 2\n1\x0c2\n",
            "hmap 1 1 1 2\n1 2\x0c\n",
            "hmap 1 1 2 1\n1e400\n2\n",
        ],
    )
    def test_edge_files_match(self, tmp_path, text):
        path = tmp_path / "edge.hmap"
        path.write_text(text)
        assert_same_outcome(outcome(load_values, path), outcome(oracle_values, path))


# ------------------------------------------------------------- trajectory CSV

@st.composite
def trajectory_texts(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(-10.0, 1e4),
                st.floats(-720.0, 720.0),
                st.floats(-90.0, 90.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    columns = draw(st.permutations(["time_s", "azimuth_deg", "elevation_deg"]))
    extra = draw(st.booleans())
    fmt = draw(st.sampled_from(NUMBER_FORMATS[:3]))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    header = list(columns) + (["note"] if extra else [])
    lines = [",".join(header)]
    for row in rows:
        values = dict(zip(("time_s", "azimuth_deg", "elevation_deg"), row))
        fields = [fmt.format(float(values[c])) for c in columns] + (["x"] if extra else [])
        lines.append(",".join(fields))
    return newline.join(lines) + newline


CSV_DAMAGE = (
    "missing column", "blank data line", "# token", "non-numeric", "nan", "inf",
    "bad elevation", "quoted value", "header",
)


def damage_csv(text, kind, line, field):
    newline = "\r\n" if "\r\n" in text else "\n"
    lines = text.split(newline)[:-1]
    data = 1 + line % (len(lines) - 1)
    fields = lines[data].split(",")
    i = field % 3
    if kind == "header":
        lines[0] = lines[0].replace("azimuth_deg", "azimuth")
    elif kind == "missing column":
        fields = fields[:2]
    elif kind == "blank data line":
        fields = [""]
    elif kind == "bad elevation":
        j = lines[0].split(",").index("elevation_deg")
        fields[j] = "91"
    elif kind == "quoted value":
        fields[i] = f'"{fields[i]}"'
    else:
        fields[i] = {"# token": "#", "non-numeric": "x", "nan": "nan", "inf": "-inf"}[kind]
    if kind != "header":
        lines[data] = ",".join(fields)
    return newline.join(lines) + newline


def load_arrays(path):
    traj = load_trajectory_csv(path)
    return traj.times, traj.azimuth, traj.elevation


class TestTrajectoryCsvAgainstOracle:
    @tmp_settings
    @given(text=trajectory_texts())
    def test_valid_files_parse_equal(self, tmp_path, text):
        path = tmp_path / "ok.csv"
        path.write_bytes(text.encode())
        got, want = outcome(load_arrays, path), outcome(oracle_load_trajectory, path)
        assert got[0] == "ok"
        assert_same_outcome(got, want)

    @tmp_settings
    @given(
        text=trajectory_texts(),
        kind=st.sampled_from(CSV_DAMAGE),
        line=st.integers(0, 100),
        field=st.integers(0, 100),
    )
    def test_one_damaged_line_fails_alike(self, tmp_path, text, kind, line, field):
        # A blank line or a quoted number is still a valid CSV row: then both
        # readers must return the same arrays.
        path = tmp_path / "bad.csv"
        path.write_bytes(damage_csv(text, kind, line, field).encode())
        assert_same_outcome(outcome(load_arrays, path), outcome(oracle_load_trajectory, path))

    @pytest.mark.parametrize(
        "text",
        [
            "time_s,azimuth_deg,elevation_deg\n",
            "time_s,azimuth_deg,elevation_deg\n\n\n",
            "time_s,azimuth_deg,elevation_deg\n \n",
            "",
            "time_s,azimuth_deg,elevation_deg,time_s\n0,1,2,5\n",
            'time_s,azimuth_deg,elevation_deg,note\n0,1,2,"a,\n3,4,5"\n',
            "time_s,azimuth_deg,elevation_deg\n0,1,2,extra\n1,2\n",
            "time_s,azimuth_deg,elevation_deg\r1,2,3\r4,5,6\r",
        ],
    )
    def test_edge_files_match(self, tmp_path, text):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        assert_same_outcome(outcome(load_arrays, path), outcome(oracle_load_trajectory, path))


# ------------------------------------------------------------------ text decoding

# One small file per text loader; "@" marks a spot on line 2 that the
# damaged copy replaces with the byte 0xff, which no UTF-8 text holds.
TEXT_FILES = {
    "manifest": (load_manifest, '[\n  {"id": "a@", "audio": "a.wav"}\n]\n'),
    "hrir_manifest": (
        load_hrir_manifest,
        '[\n  {"azimuth_deg": 0, "elevation_deg": 0, "file": "a@.wav"}\n]\n',
    ),
    "heatmap": (load_heatmap_sequence, "hmap 1 1 1 2\n0.5 0.25@\n"),
    "trajectory": (load_trajectory_csv, "time_s,azimuth_deg,elevation_deg\n0.0,30.0,0.0@\n"),
}


class TestTextDecoding:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("kind", sorted(TEXT_FILES))
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, kind, newline):
        load, text = TEXT_FILES[kind]
        path = tmp_path / "damaged.txt"
        path.write_bytes(text.replace("\n", newline).encode().replace(b"@", b"\xff"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: not UTF-8 text$"):
            load(path)

    @pytest.mark.parametrize("load", [load_manifest, load_hrir_manifest])
    @pytest.mark.parametrize(
        "text, where",
        [("not json\n", "line 1 column 1"), ('[\n  {"id": "a",}\n]\n', "line 2 column 14")],
        ids=["not_json", "trailing_comma"],
    )
    def test_bad_json_names_file_and_position(self, tmp_path, load, text, where):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        message = f"{path}: not valid JSON ({where})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load(path)

    @pytest.mark.parametrize(
        "load, text, fields",
        [
            (load_heatmap_sequence, "hmap 1 2 1 2\n0.5 0.25\n1 2\n", ("values",)),
            (
                load_trajectory_csv,
                "time_s,azimuth_deg,elevation_deg\n0,30,0\n1,-45,10\n",
                ("times", "azimuth", "elevation"),
            ),
        ],
        ids=["heatmap", "trajectory"],
    )
    def test_crlf_and_lf_files_load_alike(self, tmp_path, load, text, fields):
        (tmp_path / "lf.txt").write_bytes(text.encode())
        (tmp_path / "crlf.txt").write_bytes(text.replace("\n", "\r\n").encode())
        lf, crlf = load(tmp_path / "lf.txt"), load(tmp_path / "crlf.txt")
        for name in fields:
            np.testing.assert_array_equal(getattr(lf, name), getattr(crlf, name))


# ------------------------------------------------------------------ features

@given(
    values=arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 7)),
        elements=st.floats(0.0, 1e3) | st.just(0.0),
    ),
    zero=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_extract_features_matches_frame_features(values, zero):
    # The features of a stack equal those of each frame taken alone.
    values = values.copy()
    values[np.array(zero[: len(values)])] = 0.0
    with warnings_as_errors():
        got = extract_features(HeatmapSequence(values)).features
        want = np.stack([extract_features(HeatmapSequence(v[None])).features[0] for v in values])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
