"""Every file loader, given a small valid file with one byte cut off, flipped
or inserted, either loads it or raises ValueError or OSError naming the
file, and never allocates much more than the file's size while it tries.
read_wav, given damaged WAV files of six layouts, loads what SciPy loads and
rejects what SciPy rejects, except where it finds the file truncated."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binauralkit.ambisonic import Trajectory, load_trajectory_csv
from binauralkit.audio import AudioBuffer, AudioFormatError, read_wav, write_wav
from binauralkit.flow import VelocityFieldNet, load_checkpoint, save_checkpoint
from binauralkit.heatmap import load_heatmap_sequence
from binauralkit.pipeline import ClipEntry, ClipManifest, load_manifest, save_manifest
from conftest import (
    GUID_TAIL, channel_columns, chunk, fmt_chunk, riff, rf64, write_hmap, write_trajectory_csv,
)
from oracles import oracle_read_wav


def _mono_pcm16(path):
    write_wav(path, AudioBuffer(np.linspace(-0.5, 0.5, 200), 16000), "pcm16")


def _stereo_float32(path):
    x = np.linspace(-0.5, 0.5, 100)
    write_wav(path, AudioBuffer(np.stack([x, -x]), 16000), "float32")


def _heatmap(path):
    write_hmap(path, np.arange(24.0).reshape(2, 3, 4) / 24)


def _trajectory(path):
    write_trajectory_csv(path, Trajectory([0.0, 0.5, 1.0], [0.0, 0.5, -0.5], [0.0, 0.1, 0.0]))


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
            load(path)
        except (ValueError, OSError) as exc:
            assert str(path) in str(exc)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 64 * len(damaged) + 256 * 1024

    check()


_PCM16 = np.round(np.linspace(-0.5, 0.5, 24) * 32767).astype("<i2")
_FLOAT32 = np.linspace(-0.5, 0.5, 24).astype("<f4")
_EXTENSION = struct.pack("<HHI", 22, 16, 4) + struct.pack("<I", 1) + GUID_TAIL

# name: a small valid WAV file of a layout write_wav does not produce
WAV_LAYOUTS = {
    "extensible_odd_list": riff(
        fmt_chunk(0xFFFE, 1, 16, _EXTENSION),
        chunk(b"LIST", b"INFOx"),
        chunk(b"data", _PCM16.tobytes()),
    ),
    "rifx_stereo_pcm16": riff(
        fmt_chunk(1, 2, 16, order=">"), chunk(b"data", _PCM16.astype(">i2").tobytes(), ">"), order=">"
    ),
    "float32_fact_two_data_odd_junk": riff(
        fmt_chunk(3, 2, 32, b"\0\0"),
        chunk(b"fact", struct.pack("<I", 12)),
        chunk(b"data", _FLOAT32[::-1].tobytes()),
        chunk(b"JUNK", b"odd"),
        chunk(b"data", _FLOAT32.tobytes()),
    ),
    "rf64_float32": rf64(_FLOAT32, _FLOAT32.nbytes),
}


@pytest.mark.parametrize("name", ["wav_mono_pcm16", "wav_stereo_float32", *WAV_LAYOUTS])
def test_damaged_wav_loads_as_scipy_does(tmp_path_factory, valid_files, name):
    raw = valid_files[name] if name in valid_files else WAV_LAYOUTS[name]
    path = tmp_path_factory.mktemp("differential") / f"{name}.wav"

    @settings(max_examples=150)
    @given(data=st.data())
    def check(data):
        path.write_bytes(data.draw(damage(raw)))
        try:
            loaded = read_wav(path)
        except AudioFormatError as exc:
            # SciPy may allocate the declared size of a truncated file, so it
            # reads only the files read_wav rejects for another reason.
            if "truncated WAV file" not in str(exc):
                with pytest.raises(Exception):
                    oracle_read_wav(path)
            return
        rate, samples = oracle_read_wav(path)
        assert loaded.sample_rate == rate
        assert channel_columns(loaded).tobytes() == samples.tobytes()

    check()
