"""Independent direct-summation references used to check the library
implementations. Everything here is written as plain loops over the
documented definitions, deliberately sharing no code with the package
beyond its exception types and the head model's constants. The one
exception, render_static, is a test shorthand for rendering at a fixed
direction, not a reference."""

import csv
import math
import warnings

import numpy as np
from scipy.io import wavfile

from binauralkit.ambisonic import Trajectory
from binauralkit.heatmap import HeatmapFormatError
from binauralkit.hrir import CONTRALATERAL_ATTENUATION, HEAD_RADIUS, IR_LENGTH, SPEED_OF_SOUND
from binauralkit.render import render_trajectory


def render_static(mono, azimuth, elevation=0.0, cfg=None):
    """Render a mono buffer at a fixed direction: a one-breakpoint trajectory."""
    return render_trajectory(mono, Trajectory([0.0], [azimuth], [elevation]), cfg)


def direct_convolve(x, k):
    x, k = list(x), list(k)
    out = [0.0] * (len(x) + len(k) - 1)
    for i, xi in enumerate(x):
        for j, kj in enumerate(k):
            out[i + j] += xi * kj
    return np.array(out)


def direct_dft_frame(frame):
    n = len(frame)
    out = np.zeros(n // 2 + 1, dtype=complex)
    for f in range(n // 2 + 1):
        acc = 0.0 + 0.0j
        for i, v in enumerate(frame):
            acc += v * np.exp(-2j * np.pi * f * i / n)
        out[f] = acc
    return out


def _lag_corr(left, right, lag):
    acc = 0.0
    for n in range(len(left)):
        m = n + lag
        if 0 <= m < len(right):
            acc += left[n] * right[m]
    return acc


def _lag_order(max_lag):
    order = [0]
    for k in range(1, max_lag + 1):
        order += [-k, k]
    return order


def _frame_starts(n, frame, hop):
    starts = []
    s = 0
    while s + frame <= n:
        starts.append(s)
        s += hop
    return starts


def _gated(fl, fr, gate_db):
    rms = math.sqrt(max(np.mean(np.square(fl)), np.mean(np.square(fr))))
    return 20.0 * math.log10(rms + 1e-300) < gate_db


def oracle_iacc(left, right, max_lag):
    norm = math.sqrt(sum(v * v for v in left) * sum(v * v for v in right))
    best = 0.0
    for lag in _lag_order(max_lag):
        best = max(best, abs(_lag_corr(left, right, lag)) / norm)
    return min(best, 1.0)


def oracle_ild(left, right, frame, hop, gate_db, eps):
    vals = []
    for s in _frame_starts(len(left), frame, hop):
        fl, fr = left[s : s + frame], right[s : s + frame]
        if _gated(fl, fr, gate_db):
            continue
        el = sum(v * v for v in fl) + eps
        er = sum(v * v for v in fr) + eps
        vals.append(abs(10.0 * math.log10(el / er)))
    return float(np.mean(vals))


def oracle_itd(left, right, frame, hop, max_lag, gate_db, sample_rate):
    lags = []
    for s in _frame_starts(len(left), frame, hop):
        fl, fr = left[s : s + frame], right[s : s + frame]
        if _gated(fl, fr, gate_db):
            continue
        best_lag, best_val = 0, -1.0
        for lag in _lag_order(max_lag):
            val = abs(_lag_corr(fl, fr, lag))
            if val > best_val:
                best_val, best_lag = val, lag
        lags.append(abs(best_lag))
    return float(np.mean(lags)) / sample_rate * 1e3


def hann_window(n):
    return np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * i / n) for i in range(n)])


def _stft_frames(x, frame, hop):
    w = hann_window(frame)
    return [np.fft.rfft(np.array(x[s : s + frame]) * w) for s in _frame_starts(len(x), frame, hop)]


def _kept_stft(left, right, frame, hop, gate_db):
    sl = _stft_frames(left, frame, hop)
    sr = _stft_frames(right, frame, hop)
    kept = []
    for k, s in enumerate(_frame_starts(len(left), frame, hop)):
        if not _gated(left[s : s + frame], right[s : s + frame], gate_db):
            kept.append((sl[k], sr[k]))
    return kept

def oracle_isd(left, right, frame, hop, gate_db, eps):
    vals = []
    for fl, fr in _kept_stft(left, right, frame, hop, gate_db):
        for a, b in zip(fl, fr):
            vals.append(abs(math.log10(abs(a) + eps) - math.log10(abs(b) + eps)))
    return float(np.mean(vals))


def oracle_ipd(left, right, frame, hop, gate_db):
    num = den = 0.0
    for fl, fr in _kept_stft(left, right, frame, hop, gate_db):
        for a, b in zip(fl, fr):
            phase = np.angle(a) - np.angle(b)
            while phase <= -math.pi:
                phase += 2.0 * math.pi
            while phase > math.pi:
                phase -= 2.0 * math.pi
            w = abs(a) * abs(b)
            num += w * abs(phase)
            den += w
    return num / den


def oracle_heatmap_features(values, mask_threshold_rel=0.5, shape_epsilon=1e-8):
    """All five features by double loops, 1-based indexing."""
    h, w = len(values), len(values[0])
    total = sum(values[y][x] for y in range(h) for x in range(w))
    peak = max(values[y][x] for y in range(h) for x in range(w))
    if total <= 0:
        return [0.5, 0.0, 0.0, 0.0, 0.0]
    cx = sum((x + 1) * values[y][x] for y in range(h) for x in range(w)) / total
    cy = sum((y + 1) * values[y][x] for y in range(h) for x in range(w)) / total
    mask = sum(
        1 for y in range(h) for x in range(w) if values[y][x] >= mask_threshold_rel * peak
    )
    var_x = sum((x + 1 - cx) ** 2 * values[y][x] for y in range(h) for x in range(w)) / total
    var_y = sum((y + 1 - cy) ** 2 * values[y][x] for y in range(h) for x in range(w)) / total
    left = right = 0.0
    for y in range(h):
        for x in range(w):
            col = x + 1
            if col <= w / 2:
                left += values[y][x]
            elif col > w / 2 + (1 if w % 2 else 0):
                right += values[y][x]
            else:  # middle column of an odd width
                left += values[y][x] / 2.0
                right += values[y][x] / 2.0
    return [
        cx / w,
        mask / (h * w),
        var_x + var_y,
        (right - left) / total,
        var_x / (var_y + shape_epsilon),
    ]


def oracle_interpolate(x0, x1, t):
    """x_t = (1 - t) x0 + t x1, elementwise; a 1-D t scales the rows of 2-D endpoints."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError("shape mismatch between endpoints")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 1 and x0.ndim == 2:
        t = t[:, None]
    return (1.0 - t) * x0 + t * x1


def oracle_target_velocity(x0, x1):
    """Ground-truth velocity of the linear path: x1 - x0 (t-independent)."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError("shape mismatch between endpoints")
    return x1 - x0


def oracle_cfm_loss(v_out, u):
    total = 0.0
    for vb, ub in zip(v_out, u):
        total += sum((a - b) ** 2 for a, b in zip(vb, ub))
    return total / len(v_out)


def oracle_adam_update(state, params, grads, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step with per-array moment dicts. `state` starts as {} and
    carries the step count and the moments between calls."""
    state["step"] = state.get("step", 0) + 1
    m = state.setdefault("m", {k: np.zeros_like(v) for k, v in params.items()})
    v = state.setdefault("v", {k: np.zeros_like(p) for k, p in params.items()})
    bias1 = 1.0 - beta1**state["step"]
    bias2 = 1.0 - beta2**state["step"]
    out = {}
    for k, p in params.items():
        g = grads[k]
        m[k] = beta1 * m[k] + (1.0 - beta1) * g
        v[k] = beta2 * v[k] + (1.0 - beta2) * g**2
        m_hat = m[k] / bias1
        v_hat = v[k] / bias2
        out[k] = p - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return out


def oracle_direction_at(points, t):
    """Linear scan over (time_s, azimuth, elevation) breakpoints sorted by
    time (stable): the (azimuth, elevation) of the last one with
    time <= t + 1e-12; a time before the first breakpoint is a gap."""
    points = sorted(points, key=lambda p: p[0])
    if t < points[0][0] - 1e-12:
        raise ValueError(f"trajectory gap: no direction at t={t}")
    current = points[0]
    for point in points:
        if point[0] <= t + 1e-12:
            current = point
        else:
            break
    return current[1], current[2]


def _unit_vector(azimuth, elevation):
    """Cartesian unit vector of a direction: x front, y left, z up."""
    ce = math.cos(elevation)
    return np.array([ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)])


def oracle_has_close_directions(azimuth, elevation, separation):
    """Whether any two directions are less than `separation` rad apart,
    comparing every pair by the chord between their unit vectors."""
    units = [_unit_vector(a, e) for a, e in zip(azimuth, elevation)]
    limit = 2.0 * math.sin(separation / 2.0)
    return any(
        np.linalg.norm(units[i] - units[j]) < limit
        for i in range(len(units))
        for j in range(i + 1, len(units))
    )


def oracle_analytic_hrir(azimuth, elevation, sample_rate):
    """The spherical-head 2 x L HRIR (left, right) of one direction, ear by
    ear. Each ear's gain, -CONTRALATERAL_ATTENUATION (1 - cos delta) / 2 dB,
    takes cos delta from the dot product of the source's and the ear's unit
    vectors (the ears at azimuths +-pi/2). The near ear, on the side of the
    lateral angle phi = asin(sin az cos el), has its impulse at sample 0; the
    far ear's is delayed by the Woodworth delay (a/c)(|phi| + sin |phi|),
    rounded to the nearest sample. L is IR_LENGTH, or the largest delay + 1
    when that is longer."""
    scale = HEAD_RADIUS / SPEED_OF_SOUND
    phi = math.asin(max(-1.0, min(1.0, math.sin(azimuth) * math.cos(elevation))))
    extra = int(round(scale * (abs(phi) + math.sin(abs(phi))) * sample_rate))
    delays = (0, extra) if phi >= 0 else (extra, 0)
    taps = max(IR_LENGTH, int(round(scale * (math.pi / 2 + 1.0) * sample_rate)) + 1)
    hrir = np.zeros((2, taps))
    source = _unit_vector(azimuth, elevation)
    for row, ear_azimuth in enumerate((math.pi / 2, -math.pi / 2)):
        cos_delta = float(np.clip(np.dot(source, _unit_vector(ear_azimuth, 0.0)), -1.0, 1.0))
        gain_db = -CONTRALATERAL_ATTENUATION * (1.0 - cos_delta) / 2.0
        hrir[row, delays[row]] = 10.0 ** (gain_db / 20.0)
    return hrir


def oracle_speaker_render(sh_frames, projection, hrir_pairs):
    """Virtual-loudspeaker rendering by a speaker loop: project the T x K SH
    frames onto each speaker m through row m of the M x K projection, convolve
    that feed with the speaker's (left, right) impulse responses by
    np.convolve, and sum over speakers. Returns untrimmed (left, right) of
    T + (longest IR) - 1 samples."""
    feeds = sh_frames @ projection.T
    n_out = len(sh_frames) + max(max(len(hl), len(hr)) for hl, hr in hrir_pairs) - 1
    left = np.zeros(n_out)
    right = np.zeros(n_out)
    for m, (hl, hr) in enumerate(hrir_pairs):
        yl = np.convolve(feeds[:, m], hl)
        yr = np.convolve(feeds[:, m], hr)
        left[: len(yl)] += yl
        right[: len(yr)] += yr
    return left, right


def oracle_load_hmap(path):
    """HMAP v1 parsed line by line with the loader's exact messages: returns
    the T x H x W values."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise HeatmapFormatError(f"{path}:1: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "hmap" or header[1] != "1":
        raise HeatmapFormatError(f"{path}:1: expected header 'hmap 1 <T> <H> <W>'")
    try:
        t, h, w = (int(v) for v in header[2:])
    except ValueError:
        raise HeatmapFormatError(f"{path}:1: non-integer dimensions") from None
    if t < 1 or h < 1 or w < 1:
        raise HeatmapFormatError(f"{path}:1: dimensions must be positive")
    if len(lines) - 1 < t * h:
        raise HeatmapFormatError(f"{path}: expected {t * h} data rows, found {len(lines) - 1}")
    for line_no, line in enumerate(lines[1 + t * h :], start=2 + t * h):
        if line.strip():
            raise HeatmapFormatError(f"{path}:{line_no}: data beyond the {t * h} declared rows")
    frames = []
    line_no = 1
    for _ in range(t):
        rows = []
        for _ in range(h):
            line_no += 1
            fields = lines[line_no - 1].split()
            if len(fields) != w:
                raise HeatmapFormatError(
                    f"{path}:{line_no}: expected {w} values, found {len(fields)}"
                )
            try:
                row = [float(v) for v in fields]
            except ValueError:
                raise HeatmapFormatError(f"{path}:{line_no}: non-numeric value") from None
            if not all(0.0 <= v < math.inf for v in row):
                problem = "negative" if any(v < 0 for v in row) else "non-finite"
                raise HeatmapFormatError(f"{path}:{line_no}: {problem} heatmap value")
            rows.append(row)
        frames.append(rows)
    return np.array(frames)


def oracle_load_trajectory(path):
    """A trajectory CSV read row by row with csv.DictReader, with the
    loader's exact messages: returns (times, azimuth, elevation), sorted by
    time (stable), angles in radians, azimuth wrapped into [-pi, pi)."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = ("time_s", "azimuth_deg", "elevation_deg")
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected header time_s,azimuth_deg,elevation_deg")
        for row in reader:
            try:
                time_s, az_deg, el_deg = (float(row[key]) for key in required)
            except (TypeError, ValueError):
                raise ValueError(f"{path}:{reader.line_num}: non-numeric value") from None
            if not all(math.isfinite(v) for v in (time_s, az_deg, el_deg)):
                raise ValueError(f"{path}:{reader.line_num}: non-finite value")
            elevation = math.radians(el_deg)
            if not (-math.pi / 2 - 1e-12 <= elevation <= math.pi / 2 + 1e-12):
                raise ValueError(f"{path}:{reader.line_num}: elevation outside [-90, 90] degrees")
            azimuth = (math.radians(az_deg) + math.pi) % (2.0 * math.pi) - math.pi
            points.append((time_s, azimuth, elevation))
    if not points:
        raise ValueError(f"{path}: empty trajectory")
    points.sort(key=lambda p: p[0])
    return tuple(np.array(column) for column in zip(*points))


def oracle_read_wav(path):
    """SciPy's WAV reader with read_wav's rules: PCM-16 (scaled by 1/32768)
    or float-32, one or two channels, finite samples and a positive rate.
    Returns (rate, N x C float64 samples); any other file raises. SciPy's
    warnings (skipped chunks, a short file) are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rate, data = wavfile.read(path)
    kind = (data.dtype.kind, data.dtype.itemsize)
    if kind not in (("i", 2), ("f", 4)):
        raise ValueError(f"{path}: unsupported encoding {data.dtype}")
    columns = (data[:, None] if data.ndim == 1 else data).astype(np.float64)
    if kind == ("i", 2):
        columns = columns / 32768.0
    if columns.shape[1] > 2 or rate <= 0 or not np.all(np.isfinite(columns)):
        raise ValueError(f"{path}: more than 2 channels, a rate <= 0 or non-finite samples")
    return rate, columns
