"""Acceptance suite: ten end-to-end checks at fixed tolerances, one printed
pass/fail line each. Runs on top of the regular unit suite."""

import json
import math
import sys
import time

import numpy as np

from binauralkit.ambisonic import SpeakerLayout, decode_matrix, ring_layout, sh_basis
from binauralkit.audio import AudioBuffer, BinauralBuffer, write_wav
from binauralkit.cli import main as cli_main
from binauralkit.flow import (
    FlowDataset,
    TrainConfig,
    VelocityFieldNet,
    backward,
    cfm_loss,
    constant_target_dataset,
    make_nets,
    sample_euler,
    train,
)
from binauralkit.heatmap import extract_features
from binauralkit.hrir import woodworth_delay
from binauralkit.metrics import (
    EPSILON,
    FRAME_SIZE,
    HOP,
    SILENCE_GATE_DB,
    STFT_FRAME,
    STFT_HOP,
    iacc,
    ild,
    ipd,
    isd,
    itd,
    max_lag_samples,
)
from binauralkit.pipeline import ClipEntry, ClipManifest, preprocess
from binauralkit.render import RenderConfig
from oracles import (
    oracle_heatmap_features,
    oracle_iacc,
    oracle_ild,
    oracle_ipd,
    oracle_isd,
    oracle_itd,
    render_static,
)

FS = 16000


def report(number, label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{label}]: {status}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number} ({label}) failed"


def aligned_layout(azimuth):
    return SpeakerLayout(azimuth + 2.0 * math.pi * np.arange(3) / 3.0, np.zeros(3))


def test_criterion_01_analytic_itd_ild():
    rng = np.random.default_rng(11)
    mono = AudioBuffer(0.3 * rng.standard_normal(2 * FS), FS)
    ok = True
    for deg in (0, 30, -30, 60, -60, 90, -90):
        az = math.radians(deg)
        start = time.perf_counter()
        out = render_static(mono, az, cfg=RenderConfig(layout=aligned_layout(az)))
        elapsed = time.perf_counter() - start
        expected = round(woodworth_delay(abs(az)) * FS)
        measured = itd(out) * FS / 1e3
        ok &= abs(measured - expected) <= 1.0
        ok &= elapsed < 1.0
        if abs(deg) == 90:
            ok &= abs(ild(out) - 6.0206) <= 0.5
    report(1, "analytic head model ITD/ILD", ok)


def test_criterion_02_degenerate_stereo():
    rng = np.random.default_rng(2)
    x = 0.3 * rng.standard_normal(2 * FS)
    b = BinauralBuffer(AudioBuffer(x, FS), AudioBuffer(x.copy(), FS))
    ok = (
        abs(iacc(b) - 1.0) < 1e-9
        and abs(ild(b)) < 1e-9
        and abs(itd(b)) < 1e-9
        and abs(isd(b)) < 1e-9
        and abs(ipd(b)) < 1e-9
    )
    report(2, "degenerate stereo metrics", ok)


def test_criterion_03_sh_round_trip():
    rng = np.random.default_rng(3)
    ok = True
    for m in (4, 8):
        layout = ring_layout(m)
        dm = decode_matrix(layout, 1)
        for _ in range(100):
            y = sh_basis(rng.uniform(-np.pi, np.pi), 0.0, 1)
            gains = dm @ y
            reencoded = sum(
                g * row for g, row in zip(gains, sh_basis(layout.azimuth, layout.elevation, 1))
            )
            for ch in (0, 1, 3):
                err = abs(reencoded[ch] - y[ch])
                scale = max(abs(y[ch]), 1e-9)
                ok &= err / scale <= 1e-6
    report(3, "SH encode/project/re-encode", ok)


def features_of(m):
    """(s_h, s_area, s_var, s_lr, s_shape) of one H x W map."""
    return extract_features(m[None])[0]


def test_criterion_04_heatmap_oracles():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        m = rng.uniform(0.0, 1.0, (8, 8))
        got = features_of(m)
        want = oracle_heatmap_features(m.tolist())
        ok &= bool(np.all(np.abs(got - np.asarray(want)) <= 1e-12))
    # scale invariance and mirror antisymmetry
    m = rng.uniform(0.0, 1.0, (8, 8))
    a = features_of(m)
    ok &= bool(np.allclose(a, features_of(7.0 * m), atol=1e-10))
    b = features_of(m[:, ::-1])
    ok &= abs(b[3] + a[3]) <= 1e-12 and abs(b[1] - a[1]) <= 1e-12
    report(4, "heatmap feature oracles", ok)


def test_criterion_05_feature_spot_values():
    m = np.zeros((10, 10))
    m[4, 2] = 1.0  # pixel (x=3, y=5), 1-based
    feats = features_of(m)
    ok = bool(np.allclose(feats, [0.3, 0.01, 0.0, -1.0, 0.0], atol=1e-12))
    report(5, "point-mass feature spot values", ok)


def test_criterion_06_losses_and_gradients():
    rng = np.random.default_rng(6)
    d = 3
    ok = True

    x0_l, x1_l = rng.standard_normal((16, d)), rng.standard_normal((16, d))
    x0_r, x1_r = rng.standard_normal((16, d)), rng.standard_normal((16, d))
    t = rng.uniform(0.0, 1.0, 16)
    # The dual-channel objective train records is the sum of the channel
    # losses on the batch and timesteps its seeded generator draws first.
    data = FlowDataset(x1=np.stack([x1_l, x1_r]), x0=np.stack([x0_l, x0_r]))
    cfg = TrainConfig(steps=1, batch_size=16, hidden_width=8, rng_seed=6)
    net_l, net_r = make_nets(d, 0, cfg)
    draw = np.random.default_rng(cfg.rng_seed)
    idx = draw.integers(0, len(data), cfg.batch_size)
    t_step = draw.uniform(0.0, 1.0, cfg.batch_size)
    total = (cfm_loss(net_l, x0_l[idx], x1_l[idx], t_step)
             + cfm_loss(net_r, x0_r[idx], x1_r[idx], t_step))
    ok &= train(net_l, net_r, data, cfg)[0] == total

    rigged = VelocityFieldNet(d, hidden_width=8)
    params = rigged.parameters()
    params["w3"] = np.zeros_like(params["w3"])
    params["b3"] = np.full(d, 3.0)
    rigged.set_parameters(params)
    x0 = rng.standard_normal((16, d))
    ok &= cfm_loss(rigged, x0, x0 + 3.0, t) < 1e-12

    net = VelocityFieldNet(d, cond_dim=2, hidden_width=8, rng_seed=5)
    cond = rng.standard_normal((16, 2))
    grads = backward(net, x0_l, x1_l, t, cond)
    h = 1e-5
    for name, grad in grads.items():
        base = np.array(getattr(net, name))
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus, minus = base.copy(), base.copy()
            plus[idx] += h
            minus[idx] -= h
            setattr(net, name, plus)
            lp = cfm_loss(net, x0_l, x1_l, t, cond)
            setattr(net, name, minus)
            lm = cfm_loss(net, x0_l, x1_l, t, cond)
            setattr(net, name, base)
            fd = (lp - lm) / (2.0 * h)
            ok &= abs(grad[idx] - fd) <= 1e-4 * max(abs(fd), 1e-6)
    report(6, "CFM losses and exact gradients", ok)


def test_criterion_07_toy_cfm_convergence():
    start = time.perf_counter()
    data = constant_target_dataset(1024, 1, 3.0, rng_seed=0)
    cfg = TrainConfig(steps=2000, rng_seed=0)
    net_l, net_r = make_nets(1, 0, cfg)
    trace = train(net_l, net_r, data, cfg)
    rng = np.random.default_rng(0)
    draws = np.array(
        [sample_euler(net_l, rng.standard_normal(1), steps=32)[0] for _ in range(1000)]
    )
    elapsed = time.perf_counter() - start
    ok = trace[-1] < 0.01 and abs(np.mean(draws) - 3.0) <= 0.3 and elapsed < 30.0
    report(7, "toy CFM convergence", ok)


def test_criterion_08_preprocess_fixture(tmp_path):
    rng = np.random.default_rng(8)
    write_wav(tmp_path / "silent.wav", AudioBuffer(np.zeros(12 * FS), FS), "float32")
    write_wav(
        tmp_path / "short.wav",
        AudioBuffer(0.3 * rng.standard_normal(int(9.5 * FS)), FS),
        "float32",
    )
    write_wav(
        tmp_path / "valid.wav",
        AudioBuffer(0.3 * rng.standard_normal(10 * FS), FS),
        "float32",
    )
    (tmp_path / "t.csv").write_text("time_s,azimuth_deg,elevation_deg\n0,0,0\n")
    manifest = ClipManifest(
        (
            ClipEntry("silent", "silent.wav", trajectory="t.csv"),
            ClipEntry("short", "short.wav", trajectory="t.csv"),
            ClipEntry("valid", "valid.wav", trajectory="t.csv"),
        ),
        str(tmp_path),
    )
    kept, results = preprocess(manifest)
    statuses = [r.status for r in results]
    ok = (
        statuses.count("rejected_silent") == 1
        and statuses.count("rejected_short") == 1
        and statuses.count("kept") == 1
        and [e.id for e in kept.entries] == ["valid"]
    )
    again, results2 = preprocess(kept)
    ok &= [e.id for e in again.entries] == ["valid"] and [r.status for r in results2] == ["kept"]
    report(8, "preprocess filter partition", ok)


def test_criterion_09_batch_determinism(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    for name, seed in (("a", 1), ("b", 2)):
        samples = 0.3 * np.random.default_rng(seed).standard_normal(FS)
        write_wav(tmp_path / f"{name}.wav", AudioBuffer(samples, FS), "float32")
    (tmp_path / "a.csv").write_text("time_s,azimuth_deg,elevation_deg\n0.0,45.0,0.0\n")
    (tmp_path / "b.hmap").write_text("hmap 1 1 2 4\n1 0 0 0\n0 1 0 0\n")
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text(
        json.dumps(
            [
                {"id": "a", "audio": "a.wav", "trajectory": "a.csv"},
                {"id": "b", "audio": "b.wav", "heatmap": "b.hmap"},
            ]
        )
    )
    blobs = []
    for run, workers in (("r1", "1"), ("r2", "1"), ("r3", "4")):
        monkeypatch.setenv("SV2A_THREADS", workers)
        out_dir = tmp_path / run
        assert cli_main(["render", "--manifest", str(manifest_path), "--out", str(out_dir)]) == 0
        json_out = tmp_path / f"{run}.json"
        csv_out = tmp_path / f"{run}.csv"
        assert cli_main(["metrics", str(out_dir), "--json", str(json_out), "--csv", str(csv_out)]) == 0
        kept_out = tmp_path / f"{run}_kept.json"
        assert cli_main([
            "preprocess", "--manifest", str(manifest_path), "--out", str(kept_out),
            "--min-seconds", "0.5",
        ]) == 0
        blobs.append(
            (out_dir / "a_binaural.wav").read_bytes()
            + (out_dir / "b_binaural.wav").read_bytes()
            + json_out.read_bytes()
            + csv_out.read_bytes()
            + kept_out.read_bytes()
        )
    ok = blobs[0] == blobs[1] == blobs[2]
    report(9, "batch command determinism", ok)


def test_criterion_10_metric_oracle_equivalence():
    rng = np.random.default_rng(10)
    lag = max_lag_samples(FS)
    ok = True
    for _ in range(50):
        shared = rng.standard_normal(4000)
        d = int(rng.integers(0, 8))
        left = shared + 0.4 * rng.standard_normal(4000)
        right = np.concatenate([np.zeros(d), shared[: 4000 - d]]) + 0.4 * rng.standard_normal(4000)
        b = BinauralBuffer(AudioBuffer(left, FS), AudioBuffer(right, FS))

        def close(a, bb):
            return abs(a - bb) <= 1e-9 * max(abs(a), abs(bb), 1e-12)

        ok &= close(iacc(b), oracle_iacc(left, right, lag))
        ok &= close(
            ild(b),
            oracle_ild(left, right, FRAME_SIZE, HOP, SILENCE_GATE_DB, EPSILON),
        )
        ok &= close(
            itd(b),
            oracle_itd(left, right, FRAME_SIZE, HOP, lag, SILENCE_GATE_DB, FS),
        )
        ok &= close(
            isd(b),
            oracle_isd(left, right, STFT_FRAME, STFT_HOP, SILENCE_GATE_DB, EPSILON),
        )
        ok &= close(
            ipd(b),
            oracle_ipd(left, right, STFT_FRAME, STFT_HOP, SILENCE_GATE_DB),
        )
    report(10, "metric oracle equivalence", ok)
