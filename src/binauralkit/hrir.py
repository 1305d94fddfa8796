"""Left/right head-related impulse responses from the data-free
spherical-head model (Woodworth delay + broadband head-shadow gain, fixed by
the module constants below), synthesised exactly at any direction and rate.
`lookup(azimuth, elevation, sample_rate)` is the name the renderer calls; it
returns one float64 2 x L array per direction, row 0 the left ear and row 1
the right, where L depends only on the rate."""

from __future__ import annotations

import math

import numpy as np

# Spherical-head model: 0.0875 m is the standard average human head radius,
# 343 m/s the speed of sound at 20 C. The contralateral ear is attenuated by
# a broadband gain reaching -CONTRALATERAL_ATTENUATION dB directly opposite
# the ear.
HEAD_RADIUS = 0.0875
SPEED_OF_SOUND = 343.0
CONTRALATERAL_ATTENUATION = 6.0
IR_LENGTH = 64


def woodworth_delay(lateral_angle):
    """Spherical-head far-ear extra delay in seconds: (a/c)(theta + sin theta)."""
    theta = np.abs(lateral_angle)
    return HEAD_RADIUS / SPEED_OF_SOUND * (theta + np.sin(theta))


def analytic_hrir(azimuth, elevation, sample_rate):
    """Single-impulse HRIRs (left, right) from the spherical-head model: one
    2 x L array per direction, so M x 2 x L for arrays of M azimuths and
    elevations in radians and 2 x L for scalars.

    The lateral incidence angle phi satisfies sin phi = sin(az) cos(el)
    (positive toward the listener's left); sin phi is also the cosine of
    the angle from the left ear to the source, and -sin phi that from the
    right ear. The near ear's impulse sits at sample 0; the far ear's is
    delayed by the Woodworth delay rounded to the nearest sample. L is
    IR_LENGTH, or more when the rate makes the largest (pi/2) delay reach
    past it.
    """
    azimuth, elevation = np.broadcast_arrays(azimuth, elevation)
    lateral = np.clip(np.sin(azimuth.ravel()) * np.cos(elevation.ravel()), -1.0, 1.0)
    cos_to_ear = np.stack([lateral, -lateral])  # 2 x M: left ear, right ear
    extra = np.round(woodworth_delay(np.arcsin(lateral)) * sample_rate).astype(int)
    delays = np.where(cos_to_ear >= 0, 0, extra)  # the near ear's impulse at 0
    gains_db = -CONTRALATERAL_ATTENUATION * (1.0 - cos_to_ear) / 2.0

    taps = max(IR_LENGTH, int(round(woodworth_delay(math.pi / 2) * sample_rate)) + 1)
    hrir = np.zeros((len(lateral), 2, taps))
    hrir[np.arange(len(lateral)), [[0], [1]], delays] = 10.0 ** (gains_db / 20.0)
    return hrir.reshape(azimuth.shape + (2, taps))


lookup = analytic_hrir
