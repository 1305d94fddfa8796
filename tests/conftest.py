import csv
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import settings

from binauralkit.audio import AudioBuffer, BinauralBuffer

# Property tests draw the same examples on every run, with no per-example
# deadline, so a slow or busy machine cannot make them flaky.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def noise_buffer(rng, n=16000, amplitude=0.2, sample_rate=16000):
    return AudioBuffer(rng.standard_normal(n) * amplitude, sample_rate)


def sine_buffer(freq, n=16000, amplitude=0.5, sample_rate=16000):
    t = np.arange(n) / sample_rate
    return AudioBuffer(amplitude * np.sin(2.0 * np.pi * freq * t), sample_rate)


def channel_columns(loaded):
    """The N x C samples of a loaded AudioBuffer or BinauralBuffer."""
    if isinstance(loaded, BinauralBuffer):
        return np.stack([loaded.left.samples, loaded.right.samples], axis=1)
    return loaded.samples[:, None]


# The KSDATAFORMAT subtype GUID of a little-endian EXTENSIBLE `fmt ` chunk,
# after its format tag.
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def fmt_chunk(tag, channels, bits, extra=b"", rate=16000, order="<"):
    block = channels * bits // 8
    payload = struct.pack(order + "HHIIHH", tag, channels, rate, rate * block, block, bits) + extra
    return b"fmt " + struct.pack(order + "I", len(payload)) + payload


def chunk(chunk_id, payload, order="<"):
    """One chunk with its declared size and, after an odd payload, a pad byte."""
    return chunk_id + struct.pack(order + "I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def riff(*chunks, order="<"):
    """A RIFF WAVE file of the chunks; with order ">" a big-endian RIFX file."""
    body = b"WAVE" + b"".join(chunks)
    return {"<": b"RIFF", ">": b"RIFX"}[order] + struct.pack(order + "I", len(body)) + body


def rf64(samples, data_size):
    """A float-32 mono RF64 file whose ds64 chunk declares data_size bytes
    of `samples` (the 32-bit RIFF and data sizes read 0xFFFFFFFF)."""
    ds64 = struct.pack("<QQQI", 4 + 36 + 24 + 8 + samples.nbytes, data_size, len(samples), 0)
    return (b"RF64" + b"\xff" * 4 + b"WAVE" + chunk(b"ds64", ds64) + fmt_chunk(3, 1, 32)
            + b"data" + b"\xff" * 4 + samples.tobytes())


def breakpoints(points):
    """(times, azimuths, elevations) arrays of (time_s, azimuth, elevation)
    triples, the arguments of Trajectory."""
    return tuple(np.array(col) for col in zip(*points))


def write_hmap(path, values):
    """Write a T x H x W heatmap array as HMAP v1 with 9 significant digits."""
    t, h, w = values.shape
    with open(path, "w") as fh:
        fh.write(f"hmap 1 {t} {h} {w}\n")
        for row in values.reshape(t * h, w):
            fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def write_trajectory_csv(path, trajectory):
    """Write a Trajectory as `time_s,azimuth_deg,elevation_deg` rows with 9
    significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time_s", "azimuth_deg", "elevation_deg"))
        for row in zip(trajectory.times, trajectory.azimuth, trajectory.elevation):
            writer.writerow([f"{row[0]:.9g}"] + [f"{math.degrees(v):.9g}" for v in row[1:]])


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion in the final summary."""
    results = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, ()):
            match = re.search(
                r"test_criterion_(\d+)_(\w+)", getattr(rep, "nodeid", "")
            )
            if match and getattr(rep, "when", "call") == "call":
                number = int(match.group(1))
                name = match.group(2).replace("_", " ")
                results[number] = (name, label)
    if results:
        terminalreporter.section("acceptance criteria")
        for number in sorted(results):
            name, label = results[number]
            terminalreporter.write_line(f"criterion {number:2d} ({name}): {label}")
