"""Left/right head-related impulse responses from the data-free
spherical-head model (Woodworth delay + broadband head-shadow gain, fixed by
the module constants below), synthesised exactly at any direction and rate.
`lookup(direction, sample_rate)` is the name the renderer calls; it returns
one float64 2 x L array, row 0 the left ear and row 1 the right, where L
depends only on the rate."""

from __future__ import annotations

import math

import numpy as np

from .ambisonic import Direction

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


def woodworth_delay(lateral_angle):
    """Spherical-head far-ear extra delay in seconds: (a/c)(theta + sin theta)."""
    theta = abs(lateral_angle)
    return HEAD_RADIUS / SPEED_OF_SOUND * (theta + math.sin(theta))


def analytic_hrir(direction, sample_rate):
    """Single-impulse 2 x L HRIR (left, right) from the spherical-head model.

    The lateral incidence angle phi satisfies sin phi = sin(az) cos(el)
    (positive toward the listener's left). The near ear's impulse sits at
    sample 0; the far ear's is delayed by the Woodworth delay rounded to the
    nearest sample. L is IR_LENGTH, or more when the rate makes the largest
    (pi/2) delay reach past it.
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
    hrir = np.zeros((2, taps))
    hrir[0, delay_l] = gains[0]
    hrir[1, delay_r] = gains[1]
    return hrir


lookup = analytic_hrir
