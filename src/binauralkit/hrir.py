"""Left/right head-related impulse responses from one of two sources: the
data-free spherical-head model (Woodworth delay + broadband head-shadow gain,
fixed by the module constants below) or a measured HrirSet loaded from a JSON
manifest."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .audio import BinauralBuffer, read_json, read_wav
from .ambisonic import Direction, angular_distance

_LEFT_EAR = Direction(math.pi / 2)
_RIGHT_EAR = Direction(-math.pi / 2)

# Spherical-head model: 0.0875 m is the standard average human head radius,
# 343 m/s the speed of sound at 20 C. The contralateral ear is attenuated by
# a broadband gain reaching -CONTRALATERAL_ATTENUATION dB directly opposite
# the ear.
HEAD_RADIUS = 0.0875
SPEED_OF_SOUND = 343.0
CONTRALATERAL_ATTENUATION = 6.0
IR_LENGTH = 64


@dataclass(frozen=True)
class HrirPair:
    """Left/right impulse responses sharing one sample rate."""

    left: np.ndarray
    right: np.ndarray
    sample_rate: int

    def __post_init__(self):
        left = np.asarray(self.left, dtype=np.float64)
        right = np.asarray(self.right, dtype=np.float64)
        if len(left) < 1 or len(right) < 1:
            raise ValueError("impulse responses must be non-empty")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


def woodworth_delay(lateral_angle):
    """Spherical-head far-ear extra delay in seconds: (a/c)(theta + sin theta)."""
    theta = abs(lateral_angle)
    return HEAD_RADIUS / SPEED_OF_SOUND * (theta + math.sin(theta))


def analytic_hrir(direction, sample_rate):
    """Single-impulse HRIR pair from the spherical-head model.

    The lateral incidence angle phi satisfies sin phi = sin(az) cos(el)
    (positive toward the listener's left). The near ear's impulse sits at
    sample 0; the far ear's is delayed by the Woodworth delay rounded to the
    nearest sample. Both responses have IR_LENGTH taps, or more when the
    rate makes the largest (pi/2) delay reach past them.
    """
    phi = math.asin(max(-1.0, min(1.0, math.sin(direction.azimuth) * math.cos(direction.elevation))))
    extra = int(round(woodworth_delay(phi) * sample_rate))
    if phi >= 0:  # source toward the left: left ear is near
        delay_l, delay_r = 0, extra
    else:
        delay_l, delay_r = extra, 0

    u = direction.unit_vector()
    gains = []
    for ear in (_LEFT_EAR, _RIGHT_EAR):
        cos_delta = float(np.clip(np.dot(u, ear.unit_vector()), -1.0, 1.0))
        gain_db = -CONTRALATERAL_ATTENUATION * (1.0 - cos_delta) / 2.0
        gains.append(10.0 ** (gain_db / 20.0))

    taps = max(IR_LENGTH, int(round(woodworth_delay(math.pi / 2) * sample_rate)) + 1)
    left = np.zeros(taps)
    right = np.zeros(taps)
    left[delay_l] = gains[0]
    right[delay_r] = gains[1]
    return HrirPair(left, right, sample_rate)


@dataclass(frozen=True)
class HrirSet:
    """Measured HRIR pairs keyed by Direction, all at one sample rate."""

    sample_rate: int
    entries: dict

    def __post_init__(self):
        if not self.entries:
            raise ValueError("HrirSet must be non-empty")


def load_hrir_manifest(path):
    """Load a measured HRIR set from a JSON manifest.

    The manifest is an array of `{"azimuth_deg", "elevation_deg", "file"}`
    objects; files are 2-channel (left, right) WAVs relative to the manifest.
    A malformed manifest raises ValueError naming the file and the entry.
    """
    items = read_json(path)
    if not isinstance(items, list):
        raise ValueError(f"{path}: HRIR manifest must be a JSON array")
    base = os.path.dirname(os.path.abspath(path))
    entries = {}
    sample_rate = None
    for i, item in enumerate(items):
        if not (isinstance(item, dict) and {"azimuth_deg", "elevation_deg"} <= item.keys()
                and isinstance(item.get("file"), str)):
            raise ValueError(
                f"{path}: entry {i} needs 'azimuth_deg', 'elevation_deg' and a string 'file'"
            )
        try:
            direction = Direction(
                math.radians(float(item["azimuth_deg"])),
                math.radians(float(item["elevation_deg"])),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: entry {i}: bad direction ({exc})") from None
        wav_path = os.path.join(base, item["file"])
        if not os.path.exists(wav_path):
            raise FileNotFoundError(f"HRIR manifest references missing file {wav_path}")
        loaded = read_wav(wav_path)
        if not isinstance(loaded, BinauralBuffer):
            raise ValueError(f"HRIR file {wav_path} must be 2-channel")
        if direction in entries:
            raise ValueError(f"{path}: entry {i}: duplicate HRIR direction {direction}")
        pair = HrirPair(loaded.left.samples, loaded.right.samples, loaded.sample_rate)
        if sample_rate is None:
            sample_rate = pair.sample_rate
        elif pair.sample_rate != sample_rate:
            raise ValueError("HRIR files disagree on sample rate")
        entries[direction] = pair
    return HrirSet(sample_rate, entries)


def lookup(source, direction, sample_rate):
    """HRIR pair for a direction at sample_rate: exact synthesis from the
    spherical-head model when source is None, or the nearest great-circle
    neighbor stored in a measured HrirSet (ties broken by smallest
    (azimuth, elevation)), whose rate must equal sample_rate."""
    if source is None:
        return analytic_hrir(direction, sample_rate)
    if source.sample_rate != sample_rate:
        raise ValueError(f"HRIR sample rate {source.sample_rate} != signal rate {sample_rate}")
    best = min(
        source.entries,
        key=lambda d: (angular_distance(d, direction), d.azimuth, d.elevation),
    )
    return source.entries[best]
