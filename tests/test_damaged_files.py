"""Every file loader, given a small valid file with one byte cut off, flipped
or inserted, either loads it or raises ValueError or OSError naming the
file, and never allocates much more than the file's size while it tries."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from binauralkit.ambisonic import Trajectory, load_trajectory_csv, save_trajectory_csv
from binauralkit.audio import AudioBuffer, BinauralBuffer, read_wav, write_wav
from binauralkit.flow import VelocityFieldNet, load_checkpoint, save_checkpoint
from binauralkit.heatmap import HeatmapSequence, load_heatmap_sequence, save_heatmap_sequence
from binauralkit.pipeline import ClipEntry, ClipManifest, load_manifest, save_manifest


def _mono_pcm16(path):
    write_wav(path, AudioBuffer(np.linspace(-0.5, 0.5, 200), 16000), "pcm16")


def _stereo_float32(path):
    x = np.linspace(-0.5, 0.5, 100)
    write_wav(path, BinauralBuffer(AudioBuffer(x, 16000), AudioBuffer(-x, 16000)), "float32")


def _heatmap(path):
    save_heatmap_sequence(path, HeatmapSequence(np.arange(24.0).reshape(2, 3, 4) / 24))


def _trajectory(path):
    save_trajectory_csv(path, Trajectory([0.0, 0.5, 1.0], [0.0, 0.5, -0.5], [0.0, 0.1, 0.0]))


def _manifest(path):
    entries = (ClipEntry("a", "a.wav", trajectory="a.csv"), ClipEntry("b", "b.wav", heatmap="b.hmap"))
    save_manifest(path, ClipManifest(entries))


def _checkpoint(path):
    save_checkpoint(path, [VelocityFieldNet(2, 1, 4, 4), VelocityFieldNet(2, 0, 4, 4)])


# name: (file suffix, writer of a valid file, loader)
LOADERS = {
    "wav_mono_pcm16": (".wav", _mono_pcm16, read_wav),
    "wav_stereo_float32": (".wav", _stereo_float32, read_wav),
    "heatmap": (".hmap", _heatmap, load_heatmap_sequence),
    "trajectory": (".csv", _trajectory, load_trajectory_csv),
    "manifest": (".json", _manifest, load_manifest),
    "checkpoint": (".ckpt", _checkpoint, load_checkpoint),
}


def position(n):
    """An index below n; the first 64 bytes, where every format keeps its
    header, are drawn about as often as all the rest."""
    return st.integers(0, min(n, 64) - 1) | st.integers(0, n - 1)


@st.composite
def damage(draw, raw):
    """`raw` cut short, with one byte flipped or with one byte inserted."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
    i = draw(position(len(raw) + (kind == "insert")))
    if kind == "truncate":
        return raw[:i]
    if kind == "flip":
        return raw[:i] + bytes([raw[i] ^ draw(st.integers(1, 255))]) + raw[i + 1 :]
    return raw[:i] + bytes([draw(st.integers(0, 255))]) + raw[i:]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("valid")
    raw = {}
    for name, (suffix, write, load) in LOADERS.items():
        path = directory / f"{name}{suffix}"
        write(path)
        load(path)  # the undamaged file loads, and first-call set-up is done
        raw[name] = path.read_bytes()
    return raw


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_damaged_file_loads_or_names_itself(tmp_path_factory, valid_files, name):
    suffix, _, load = LOADERS[name]
    raw = valid_files[name]
    path = tmp_path_factory.mktemp("damaged") / f"{name}{suffix}"

    @settings(max_examples=150)
    @given(data=st.data())
    def check(data):
        damaged = data.draw(damage(raw))
        path.write_bytes(damaged)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                # SciPy's notes on skipped chunks pass through read_wav.
                warnings.simplefilter("ignore", wavfile.WavFileWarning)
                load(path)
        except (ValueError, OSError) as exc:
            assert str(path) in str(exc)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 64 * len(damaged) + 256 * 1024

    check()
