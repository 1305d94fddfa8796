"""The CLI keeps freed heap memory for the next clip (glibc only).

A second run of a batch command in the same process, over the same inputs,
should find its NumPy temporaries' pages already mapped. Under glibc's
default malloc policy, a fresh process unmaps or trims each clip's multi-MB
temporaries when they are freed, and the next clip faults them in again:
about 10,500 minor faults for the eight 3 s clips below in `metrics`, and
2,000 to 3,000 for the 20 s, 48 kHz clip in `render`. The bounds sit more than
ten times under those counts. Each measurement runs in a fresh interpreter,
because the allocator state that earlier tests leave behind would decide the
count otherwise.
"""

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import binauralkit
from binauralkit import cli
from binauralkit.audio import AudioBuffer, write_wav


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


glibc_only = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not _glibc(), reason="glibc malloc policy"
)

METRICS_CLIPS = 8
METRICS_MAX_FAULTS = 400
RENDER_MAX_FAULTS = 150

# Runs main(argv) twice and prints the minor faults of the second run.
_SECOND_RUN = """
import contextlib, io, resource, sys
from binauralkit.cli import main

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
    before = faults()
    assert main(sys.argv[1:]) == 0
print(faults() - before)
"""


def _second_run_faults(argv, threads):
    src = os.path.dirname(os.path.dirname(binauralkit.__file__))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        "SV2A_THREADS": threads,
    }
    result = subprocess.run(
        [sys.executable, "-c", _SECOND_RUN, *argv], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


@glibc_only
@pytest.mark.parametrize("threads", ["1", "2"])
def test_metrics_second_run_reuses_memory(tmp_path, threads):
    rng = np.random.default_rng(5)
    fs = 16000
    for i in range(METRICS_CLIPS):
        write_wav(tmp_path / f"c{i}.wav",
                  AudioBuffer(0.3 * rng.standard_normal((2, 3 * fs)), fs), "pcm16")
    assert _second_run_faults(["metrics", str(tmp_path)], threads) <= METRICS_MAX_FAULTS


@glibc_only
def test_render_second_run_reuses_memory(tmp_path):
    fs = 48000
    mono = 0.3 * np.random.default_rng(6).standard_normal(20 * fs)
    write_wav(tmp_path / "a.wav", AudioBuffer(mono, fs), "pcm16")
    (tmp_path / "a.csv").write_text(
        "time_s,azimuth_deg,elevation_deg\n0,-60,0\n10,60,10\n20,0,0\n"
    )
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"id": "a", "audio": "a.wav", "trajectory": "a.csv"}]))
    argv = ["render", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    assert _second_run_faults(argv, "1") <= RENDER_MAX_FAULTS


def test_policy_sets_both_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    cli._retain_freed_memory.__wrapped__()
    assert sorted(calls) == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("error", [AttributeError, OSError, TypeError])
def test_policy_is_a_no_op_without_mallopt(monkeypatch, capsys, tmp_path, error):
    def no_mallopt(name):
        if error is AttributeError:
            return object()  # a libc without the symbol
        raise error("no C library here")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_mallopt)
    assert cli._retain_freed_memory.__wrapped__() is None
    monkeypatch.setattr(cli, "_retain_freed_memory", cli._retain_freed_memory.__wrapped__)
    (tmp_path / "m.json").write_text("[]")
    assert cli.main(["validate", "--manifest", str(tmp_path / "m.json")]) == 0
    captured = capsys.readouterr()
    assert captured.out == "manifest ok: 0 entries\n" and captured.err == ""
