import json
import os
import subprocess
import sys

import numpy as np
import pytest

import binauralkit
from binauralkit.audio import AudioBuffer, BinauralBuffer, read_wav, write_wav
from binauralkit.cli import main

FS = 16000


@pytest.fixture
def dataset(tmp_path):
    """A small on-disk dataset: two usable mono clips (one with a CSV
    trajectory, one with a heatmap), a short clip and a manifest."""
    rng = np.random.default_rng(0)
    for name, seconds, seed in (("one", 1.0, 1), ("two", 1.0, 2), ("short", 0.1, 3)):
        rng = np.random.default_rng(seed)
        samples = 0.3 * rng.standard_normal(int(seconds * FS))
        write_wav(tmp_path / f"{name}.wav", AudioBuffer(samples, FS), "float32")
    (tmp_path / "one.csv").write_text("time_s,azimuth_deg,elevation_deg\n0.0,60.0,0.0\n")
    (tmp_path / "two.hmap").write_text("hmap 1 1 2 4\n1 0 0 0\n1 0 0 0\n")
    manifest = [
        {"id": "one", "audio": "one.wav", "trajectory": "one.csv"},
        {"id": "two", "audio": "two.wav", "heatmap": "two.hmap"},
        {"id": "short", "audio": "short.wav", "trajectory": "one.csv"},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return tmp_path, path


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert main(["validate", "--bogus"]) == 2

    def test_missing_required_flag(self):
        assert main(["features", "--out", "x.csv"]) == 2


class TestPreprocessCommand:
    def test_filters_and_reports(self, dataset, capsys):
        base, manifest = dataset
        out = base / "kept.json"
        report = base / "report.json"
        code = main([
            "preprocess", "--manifest", str(manifest), "--out", str(out),
            "--report", str(report), "--min-seconds", "0.5",
        ])
        assert code == 0
        kept = json.loads(out.read_text())
        assert [e["id"] for e in kept] == ["one", "two"]
        payload = json.loads(report.read_text())
        assert payload["kept"] == 2
        assert payload["rejected_short"] == 1
        assert "kept 2" in capsys.readouterr().out


class TestRenderCommand:
    def test_renders_manifest(self, dataset, capsys):
        base, manifest = dataset
        out_dir = base / "rendered"
        code = main(["render", "--manifest", str(manifest), "--out", str(out_dir)])
        assert code == 0
        for clip in ("one", "two", "short"):
            rendered = read_wav(out_dir / f"{clip}_binaural.wav")
            assert isinstance(rendered, BinauralBuffer)

    def test_strict_failure_exit_code(self, dataset, capsys):
        base, manifest = dataset
        bad = json.loads(manifest.read_text())
        bad.append({"id": "ghost", "audio": "ghost.wav", "trajectory": "one.csv"})
        manifest.write_text(json.dumps(bad))
        out_dir = base / "rendered"
        assert main(["render", "--manifest", str(manifest), "--out", str(out_dir)]) == 0
        code = main([
            "render", "--manifest", str(manifest), "--out", str(out_dir), "--strict",
        ])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    def test_thread_env_bytes_identical(self, dataset, monkeypatch):
        base, manifest = dataset
        blobs = {}
        for workers in ("1", "3"):
            monkeypatch.setenv("SV2A_THREADS", workers)
            out_dir = base / f"r{workers}"
            assert main(["render", "--manifest", str(manifest), "--out", str(out_dir)]) == 0
            blobs[workers] = b"".join(
                (out_dir / f"{clip}_binaural.wav").read_bytes()
                for clip in ("one", "two", "short")
            )
        assert blobs["1"] == blobs["3"]


class TestMetricsCommand:
    def test_directory_input(self, dataset, capsys):
        base, manifest = dataset
        out_dir = base / "rendered"
        main(["render", "--manifest", str(manifest), "--out", str(out_dir)])
        json_out = base / "metrics.json"
        csv_out = base / "agg.csv"
        code = main([
            "metrics", str(out_dir), "--json", str(json_out), "--csv", str(csv_out),
        ])
        assert code == 0
        payload = json.loads(json_out.read_text())
        assert set(payload["clips"]) == {"one_binaural", "two_binaural", "short_binaural"}
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "metric,mean,count"
        assert "iacc" in capsys.readouterr().out

    def test_strict_with_mono_file(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = 0.3 * rng.standard_normal(8000)
        write_wav(
            tmp_path / "st.wav",
            BinauralBuffer(AudioBuffer(x, FS), AudioBuffer(x.copy(), FS)),
            "float32",
        )
        write_wav(tmp_path / "mono.wav", AudioBuffer(x, FS), "float32")
        assert main(["metrics", str(tmp_path)]) == 0
        assert main(["metrics", str(tmp_path), "--strict"]) == 1
        assert "mono" in capsys.readouterr().err


class TestFeaturesCommand:
    def test_feature_csv(self, dataset, capsys):
        base, _ = dataset
        out = base / "features.csv"
        code = main(["features", "--hmap", str(base / "two.hmap"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "frame,s_h,s_area,s_var,s_lr,s_shape"
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == pytest.approx(0.25)


class TestFlowCommands:
    def test_train_then_sample(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        trace = tmp_path / "trace.csv"
        code = main([
            "cfm-train", "--checkpoint", str(ckpt), "--trace", str(trace),
            "--steps", "200", "--batch-size", "32", "--hidden", "16",
            "--lr", "0.005", "--target", "2.0", "--samples", "128",
        ])
        assert code == 0
        assert ckpt.exists()
        assert trace.read_text().startswith("step,loss\n")

        out = tmp_path / "draws.csv"
        code = main([
            "cfm-sample", "--checkpoint", str(ckpt), "--draws", "200",
            "--steps", "16", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "draw,x0"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert np.mean(values) == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("shared", [False, True])
    def test_sample_matches_per_draw_loop(self, tmp_path, monkeypatch, shared):
        from binauralkit import flow

        ckpt = tmp_path / "model.ckpt"
        main(["cfm-train", "--checkpoint", str(ckpt), "--steps", "20", "--batch-size", "8",
              "--hidden", "8", "--latent-dim", "3"] + (["--shared-weights"] if shared else []))
        real = flow.sample_euler
        drawn = []

        def recording_sample_euler(*args):
            drawn.append(real(*args))
            return drawn[-1]

        monkeypatch.setattr(flow, "sample_euler", recording_sample_euler)
        assert main(["cfm-sample", "--checkpoint", str(ckpt), "--draws", "40",
                     "--steps", "8", "--seed", "5"]) == 0

        net = flow.load_checkpoint(ckpt)[0]
        cond = np.ones(net.cond_dim) if net.cond_dim else None
        rng = np.random.default_rng(5)
        loop = [real(net, rng.standard_normal(3), cond, 8) for _ in range(40)]
        np.testing.assert_allclose(np.vstack(drawn), np.stack(loop), rtol=0, atol=1e-12)

    def test_sample_rejects_zero_draws(self, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        main(["cfm-train", "--checkpoint", str(ckpt), "--steps", "1", "--hidden", "4"])
        assert main(["cfm-sample", "--checkpoint", str(ckpt), "--draws", "0"]) == 2

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("cfm-train", ["--steps", "0"]),
            ("cfm-train", ["--samples", "0"]),
            ("cfm-train", ["--batch-size", "0"]),
            ("cfm-train", ["--lr", "-0.001"]),
            ("cfm-train", ["--lr", "nan"]),
            ("cfm-train", ["--hidden", "0"]),
            ("cfm-train", ["--latent-dim", "0"]),
            ("cfm-train", ["--target", "inf"]),
            ("cfm-sample", ["--steps", "0"]),
            ("cfm-train", ["--seed", "-1"]),
            ("cfm-sample", ["--seed", "-3"]),
        ],
    )
    def test_flow_usage_errors_exit_2(self, tmp_path, capsys, command, flags):
        ckpt = tmp_path / "model.ckpt"
        if command == "cfm-sample":
            main(["cfm-train", "--checkpoint", str(ckpt), "--steps", "1", "--hidden", "4"])
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        out_flag = "--trace" if command == "cfm-train" else "--out"
        argv = [command, "--checkpoint", str(ckpt), out_flag, str(tmp_path / "out.csv")]
        assert main(argv + flags) == 2
        assert flags[0] in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_train_determinism(self, tmp_path):
        blobs = []
        for name in ("a.ckpt", "b.ckpt"):
            path = tmp_path / name
            main([
                "cfm-train", "--checkpoint", str(path), "--steps", "50",
                "--batch-size", "16", "--hidden", "16", "--seed", "9",
            ])
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_divergence_is_one_line_error_without_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        trace = tmp_path / "trace.csv"
        argv = ["cfm-train", "--checkpoint", str(ckpt), "--trace", str(trace),
                "--lr", "1000", "--steps", "200"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("binauralkit cfm-train: error: training diverged at step ")
        assert err.count("\n") == 1
        assert not ckpt.exists() and not trace.exists()

    def test_shared_weights_single_net_checkpoint(self, tmp_path):
        from binauralkit.flow import load_checkpoint

        path = tmp_path / "shared.ckpt"
        main([
            "cfm-train", "--checkpoint", str(path), "--steps", "20",
            "--batch-size", "8", "--hidden", "16", "--shared-weights",
        ])
        assert len(load_checkpoint(path)) == 1


class TestValidateCommand:
    def test_ok(self, dataset, capsys):
        _, manifest = dataset
        assert main(["validate", "--manifest", str(manifest)]) == 0
        assert "manifest ok" in capsys.readouterr().out

    def test_missing_file(self, dataset, capsys):
        base, manifest = dataset
        items = json.loads(manifest.read_text())
        items.append({"id": "ghost", "audio": "ghost.wav"})
        manifest.write_text(json.dumps(items))
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert "ghost.wav" in capsys.readouterr().err


class TestUnreadableInputs:
    """An input that cannot be read ends the command with one stderr line
    and exit code 1, not a traceback."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["metrics", "{base}/nonexistent"], "nonexistent"),
            (["render", "--manifest", "{base}/missing.json", "--out", "{base}/o"], "missing.json"),
            (["features", "--hmap", "{base}/missing.hmap", "--out", "{base}/f"], "missing.hmap"),
            (["cfm-sample", "--checkpoint", "{base}/missing.ckpt"], "missing.ckpt"),
            (["render", "--manifest", "{base}/escape.json", "--out", "{base}/out"], "escape.json"),
            (["validate", "--manifest", "{base}/garbled.json"], "garbled.json: not valid JSON (line 1 column 1)"),
            (["validate", "--manifest", "{base}/latin1.json"], "latin1.json:2: not UTF-8 text"),
        ],
    )
    def test_one_line_error_exit_1(self, tmp_path, capsys, argv, name):
        (tmp_path / "escape.json").write_text(json.dumps([{"id": "../escaped", "audio": "a.wav"}]))
        (tmp_path / "garbled.json").write_text("not json\n")
        (tmp_path / "latin1.json").write_bytes(b'[\n  {"id": "caf\xe9", "audio": "a.wav"}\n]\n')
        argv = [arg.format(base=tmp_path) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"binauralkit {argv[0]}: error: ")
        assert name in err and err.count("\n") == 1
        assert not (tmp_path / "escaped_binaural.wav").exists()

    def test_metrics_clip_id_collision(self, tmp_path, capsys):
        x = AudioBuffer(0.3 * np.random.default_rng(1).standard_normal(FS // 2), FS)
        for name in ("a.wav", "a.WAV"):
            write_wav(tmp_path / name, BinauralBuffer(x, x), "float32")
        assert main(["metrics", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"binauralkit metrics: error: {tmp_path}: a.WAV and a.wav both give clip id 'a'\n"
        )


class TestPreprocessUsageErrors:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--min-seconds", "nan"],
            ["--min-seconds", "inf"],
            ["--min-seconds", "-1"],
            ["--silence-threshold-db", "nan"],
            ["--silence-threshold-db", "inf"],
            ["--max-silence-fraction", "nan"],
            ["--max-silence-fraction", "-0.1"],
            ["--max-silence-fraction", "1.5"],
        ],
    )
    def test_preprocess_flag_out_of_range_exits_2(self, dataset, capsys, flags):
        base, manifest = dataset
        out, report = base / "kept.json", base / "report.json"
        argv = ["preprocess", "--manifest", str(manifest), "--out", str(out), "--report", str(report)]
        assert main(argv + flags) == 2
        assert flags[0] in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    def test_range_ends_accepted(self, dataset):
        base, manifest = dataset
        argv = ["preprocess", "--manifest", str(manifest), "--out", str(base / "kept.json")]
        assert main(argv + ["--min-seconds", "0", "--max-silence-fraction", "1"]) == 0
        assert main(argv + ["--max-silence-fraction", "0"]) == 0


class TestRenderAndFeatureUsageErrors:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--speakers", "0"],
            ["--speakers", "1"],
            ["--order", "3"],
            ["--fov-deg", "nan"],
            ["--fov-deg", "inf"],
        ],
    )
    def test_render_flag_out_of_range_exits_2(self, dataset, capsys, flags):
        base, manifest = dataset
        out_dir = base / "rendered"
        assert main(["render", "--manifest", str(manifest), "--out", str(out_dir)] + flags) == 2
        assert flags[0] in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("rate", ["0", "-31.25", "nan", "inf"])
    def test_features_frame_rate_out_of_range_exits_2(self, dataset, capsys, rate):
        base, _ = dataset
        out = base / "features.csv"
        argv = ["features", "--hmap", str(base / "two.hmap"), "--out", str(out)]
        assert main(argv + ["--frame-rate", rate]) == 2
        assert "--frame-rate" in capsys.readouterr().err
        assert not out.exists()


def test_cli_import_brings_in_no_scipy():
    # A fresh interpreter: SciPy is a test dependency only, and importing it
    # would add its start-up time to every command.
    src = os.path.dirname(os.path.dirname(binauralkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import binauralkit.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
