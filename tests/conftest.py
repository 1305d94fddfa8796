import re

import numpy as np
import pytest
from hypothesis import settings

from binauralkit.audio import AudioBuffer

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


def breakpoints(points):
    """(times, azimuths, elevations) arrays of (time_s, Direction) pairs, the
    arguments of Trajectory."""
    return tuple(np.array(col) for col in zip(*((t, d.azimuth, d.elevation) for t, d in points)))


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
