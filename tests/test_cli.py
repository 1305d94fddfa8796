import argparse
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import binauralkit
from binauralkit import cli, flow
from binauralkit.ambisonic import decode_matrix, ring_layout
from binauralkit.audio import AudioBuffer, BinauralBuffer, read_wav, write_wav
from binauralkit.cli import _build_parser, main
from binauralkit.pipeline import PreprocessConfig
from binauralkit.render import RenderConfig

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

    def test_entry_without_direction_source_is_rejected(self, dataset, capsys):
        base, manifest = dataset
        items = json.loads(manifest.read_text())
        items.append({"id": "notraj", "audio": "one.wav"})
        manifest.write_text(json.dumps(items))
        kept, report = base / "kept.json", base / "report.json"
        assert main([
            "preprocess", "--manifest", str(manifest), "--out", str(kept),
            "--report", str(report), "--min-seconds", "0.5",
        ]) == 0
        assert [e["id"] for e in json.loads(kept.read_text())] == ["one", "two"]
        payload = json.loads(report.read_text())
        assert payload["rejected_unreadable"] == 1
        assert "neither a trajectory nor a heatmap" in payload["reasons"]["notraj"]
        assert main([
            "render", "--manifest", str(kept), "--out", str(base / "rendered"), "--strict",
        ]) == 0
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert "notraj: has neither a trajectory nor a heatmap" in capsys.readouterr().err


    def test_entries_validate_flags_are_rejected_with_its_problem(self, dataset, capsys):
        # A missing heatmap and an empty trajectory path: validate and
        # preprocess name the same problem, and the kept manifest holds only
        # clips that render.
        base, manifest = dataset
        items = json.loads(manifest.read_text())
        items += [{"id": "nohmap", "audio": "one.wav", "heatmap": "nope.hmap"},
                  {"id": "emptytraj", "audio": "one.wav", "trajectory": ""}]
        manifest.write_text(json.dumps(items))
        kept, report = base / "kept.json", base / "report.json"
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "nohmap: no heatmap file at 'nope.hmap'",
            "emptytraj: no trajectory file at ''",
        ]
        assert main([
            "preprocess", "--manifest", str(manifest), "--out", str(kept),
            "--report", str(report), "--min-seconds", "0.5",
        ]) == 0
        payload = json.loads(report.read_text())
        assert payload["rejected_unreadable"] == 2
        assert payload["reasons"]["nohmap"] == "no heatmap file at 'nope.hmap'"
        assert payload["reasons"]["emptytraj"] == "no trajectory file at ''"
        kept_items = json.loads(kept.read_text())
        assert [e["id"] for e in kept_items] == ["one", "two"]
        assert "." not in [value for e in kept_items for value in e.values()]
        assert main(["render", "--manifest", str(kept), "--out", str(base / "r"), "--strict"]) == 0

    def test_kept_manifest_in_another_directory_renders(self, dataset, capsys):
        # The kept manifest's paths name the clips from its own directory.
        base, manifest = dataset
        kept = base / "out" / "kept.json"
        kept.parent.mkdir()
        assert main([
            "preprocess", "--manifest", str(manifest), "--out", str(kept), "--min-seconds", "0.5",
        ]) == 0
        assert json.loads(kept.read_text())[0]["audio"] == os.path.join("..", "one.wav")
        assert main(["validate", "--manifest", str(kept)]) == 0
        assert main([
            "render", "--manifest", str(kept), "--out", str(base / "rendered"), "--strict",
        ]) == 0
        for clip in ("one", "two"):
            assert isinstance(read_wav(base / "rendered" / f"{clip}_binaural.wav"), BinauralBuffer)


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


class TestThreadCountOutcomes:
    def test_per_clip_outcomes_match_across_thread_counts(self, dataset, monkeypatch, capsys):
        base, manifest = dataset
        write_wav(base / "silent.wav", AudioBuffer(np.zeros(FS), FS), "float32")
        (base / "broken.wav").write_text("not audio")
        entries = json.loads(manifest.read_text()) + [
            {"id": "silent", "audio": "silent.wav", "trajectory": "one.csv"},
            {"id": "broken", "audio": "broken.wav", "trajectory": "one.csv"},
            {"id": "untracked", "audio": "one.wav"},
        ]
        manifest.write_text(json.dumps(entries))
        out_dir = base / "rendered"
        report, metrics_json = base / "report.json", base / "metrics.json"
        seen = {}
        for workers in ("1", "3"):
            monkeypatch.setenv("SV2A_THREADS", workers)
            assert main([
                "preprocess", "--manifest", str(manifest), "--out", str(base / "kept.json"),
                "--report", str(report), "--min-seconds", "0.5",
            ]) == 0
            capsys.readouterr()
            assert main([
                "render", "--manifest", str(manifest), "--out", str(out_dir), "--strict",
            ]) == 1
            rendered = capsys.readouterr()
            write_wav(out_dir / "mono.wav", AudioBuffer(0.3 * np.ones(FS), FS), "float32")
            assert main(["metrics", str(out_dir), "--json", str(metrics_json)]) == 0
            seen[workers] = (
                report.read_bytes(), rendered.out, rendered.err, metrics_json.read_bytes()
            )
        assert seen["1"] == seen["3"]
        assert set(json.loads(report.read_text())["reasons"]) == {
            "short", "silent", "broken", "untracked"
        }
        assert ["broken", "untracked"] == [
            line.split(":")[0] for line in seen["1"][2].splitlines()
        ]
        assert set(json.loads(metrics_json.read_text())["failures"]) == {"mono", "silent_binaural"}


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

    def test_manifest_input_by_path_type(self, dataset, capsys):
        # A path that is not a directory is a manifest, whatever its suffix.
        base, manifest = dataset
        main(["render", "--manifest", str(manifest), "--out", str(base / "rendered")])
        entries = [{"id": clip, "audio": f"rendered/{clip}_binaural.wav"}
                   for clip in ("one", "two")]
        (base / "clips.txt").write_text(json.dumps(entries))
        json_out = base / "metrics.json"
        assert main(["metrics", str(base / "clips.txt"), "--json", str(json_out)]) == 0
        assert set(json.loads(json_out.read_text())["clips"]) == {"one", "two"}

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


class TestBatchExitRule:
    """render and metrics exit 1 when clips were given and none succeeded, or
    on any failure under --strict; otherwise 0."""

    def _render_argv(self, base, good, bad):
        entries = [{"id": f"ok{i}", "audio": "one.wav", "trajectory": "one.csv"}
                   for i in range(good)]
        entries += [{"id": f"ghost{i}", "audio": "ghost.wav", "trajectory": "one.csv"}
                    for i in range(bad)]
        manifest = base / f"m{good}{bad}.json"
        manifest.write_text(json.dumps(entries))
        return ["render", "--manifest", str(manifest), "--out", str(base / f"r{good}{bad}")]

    def _metrics_argv(self, base, good, bad):
        clips = base / f"clips{good}{bad}"
        clips.mkdir()
        x = AudioBuffer(0.3 * np.random.default_rng(4).standard_normal(8000), FS)
        for i in range(good):
            write_wav(clips / f"st{i}.wav", BinauralBuffer(x, x), "float32")
        for i in range(bad):
            write_wav(clips / f"mono{i}.wav", x, "float32")
        return ["metrics", str(clips)]

    @pytest.mark.parametrize("command", ["render", "metrics"])
    @pytest.mark.parametrize(
        "good, bad, plain, strict",
        [(2, 0, 0, 0), (1, 2, 0, 1), (0, 1, 1, 1), (0, 3, 1, 1)],
    )
    def test_exit_code(self, dataset, capsys, command, good, bad, plain, strict):
        base, _ = dataset
        argv = getattr(self, f"_{command}_argv")(base, good, bad)
        assert main(argv) == plain
        assert main(argv + ["--strict"]) == strict
        err = capsys.readouterr().err
        assert (err == "") == (bad == 0)
        # Each of the two runs names every bad clip on one line, and nothing else.
        lines = err.splitlines()
        assert len(lines) == 2 * bad
        assert all(re.fullmatch(r"(ghost|mono)\d+: FAILED \(.+\)", line) for line in lines)

    def test_metrics_without_a_report_writes_nothing(self, dataset, capsys):
        base, _ = dataset
        json_out, csv_out = base / "m.json", base / "m.csv"
        argv = self._metrics_argv(base, 0, 2) + ["--json", str(json_out), "--csv", str(csv_out)]
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        assert not json_out.exists() and not csv_out.exists()

    def test_empty_manifest_renders_nothing(self, dataset):
        base, _ = dataset
        assert main(self._render_argv(base, 0, 0)) == 0
        assert main(self._render_argv(base, 0, 0) + ["--strict"]) == 0


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
        assert rows[0] == "draw,left_x0,right_x0"
        for column in (1, 2):
            values = [float(r.split(",")[column]) for r in rows[1:]]
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

        # The left channel's 40 draws, then the right's, from one noise stream:
        # the right net, or the shared net with its -1 flag.
        nets = flow.load_checkpoint(ckpt)
        flags = [np.ones(1), -np.ones(1)] if shared else [None, None]
        rng = np.random.default_rng(5)
        loop = [real(net, rng.standard_normal(3), flag, 8)
                for net, flag in zip((nets[0], nets[-1]), flags) for _ in range(40)]
        np.testing.assert_allclose(np.vstack(drawn), np.stack(loop), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shared", [False, True])
    def test_left_columns_are_the_one_channel_draws(self, tmp_path, shared):
        # The left channel is drawn exactly as when only nets[0] was sampled,
        # from the first (draws, d) normals of the seed, the +1 flag for a
        # shared net; the right columns come after all left ones.
        from binauralkit import flow

        ckpt, out = tmp_path / "model.ckpt", tmp_path / "draws.csv"
        main(["cfm-train", "--checkpoint", str(ckpt), "--steps", "20", "--batch-size", "8",
              "--hidden", "8", "--latent-dim", "2"] + (["--shared-weights"] if shared else []))
        assert main(["cfm-sample", "--checkpoint", str(ckpt), "--draws", "30",
                     "--steps", "4", "--seed", "9", "--out", str(out)]) == 0
        net = flow.load_checkpoint(ckpt)[0]
        cond = np.ones(net.cond_dim) if net.cond_dim else None
        x0 = np.random.default_rng(9).standard_normal((30, 2))
        left = flow.sample_euler(net, x0, cond, 4)
        lines = out.read_text().splitlines()
        assert lines[0] == "draw,left_x0,left_x1,right_x0,right_x1"
        assert [line.split(",")[1:3] for line in lines[1:]] == [
            [f"{v:.12g}" for v in row] for row in left
        ]

    def test_right_net_is_sampled(self, tmp_path):
        # Two nets trained on opposite targets: each channel's column follows
        # its own net.
        from binauralkit import flow

        cfg = flow.TrainConfig(steps=300, batch_size=32, hidden_width=16, learning_rate=0.01)
        x0 = np.random.default_rng(0).standard_normal((2, 128, 1))
        net_l, net_r = flow.make_nets(1, 0, cfg)
        flow.train(net_l, net_r, flow.FlowDataset(x1=x0 + [[[2.0]], [[-2.0]]], x0=x0), cfg)
        ckpt, out = tmp_path / "model.ckpt", tmp_path / "draws.csv"
        flow.save_checkpoint(ckpt, [net_l, net_r])
        assert main(["cfm-sample", "--checkpoint", str(ckpt), "--draws", "200",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.mean(rows[:, 1]) == pytest.approx(2.0, abs=0.3)
        assert np.mean(rows[:, 2]) == pytest.approx(-2.0, abs=0.3)

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


def test_bare_commands_use_the_library_defaults(dataset, monkeypatch, capsys):
    # Each command given only its required flags passes the library's
    # default config on.
    base, manifest = dataset
    calls = {}

    def record(module, name, result=None):
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            calls[name] = args
            return real(*args, **kwargs) if result is None else result

        monkeypatch.setattr(module, name, recorded)

    record(cli, "preprocess")
    record(cli, "batch_render")
    record(flow, "train", result=np.zeros(1))
    record(flow, "sample_euler")
    ckpt = str(base / "model.ckpt")
    assert main(["preprocess", "--manifest", str(manifest), "--out", str(base / "kept.json")]) == 0
    assert main(["render", "--manifest", str(manifest), "--out", str(base / "rendered")]) == 0
    assert main(["cfm-train", "--checkpoint", ckpt]) == 0
    assert main(["cfm-sample", "--checkpoint", ckpt, "--draws", "2"]) == 0

    assert calls["preprocess"][1] == PreprocessConfig()
    render_cfg, default = calls["batch_render"][1], RenderConfig()
    assert (render_cfg.order, render_cfg.normalize_output) == (default.order, default.normalize_output)
    np.testing.assert_array_equal(render_cfg.layout.azimuth, default.layout.azimuth)
    np.testing.assert_array_equal(render_cfg.layout.elevation, default.layout.elevation)
    assert calls["train"][3] == flow.TrainConfig()
    assert calls["sample_euler"][3] == flow.DEFAULT_EULER_STEPS


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


@pytest.mark.parametrize(
    "nets",
    [[], [(0, 0, 4, 4)], [(1, 0, 0, 4)], [(1, 0, 4, 3)]],
    ids=["no_nets", "latent_dim_0", "hidden_width_0", "odd_embed_dim"],
)
def test_bad_checkpoint_header_is_one_line_error(tmp_path, capsys, nets):
    # Each net's header dims (latent, cond, hidden, embed) followed by as many
    # zero parameter bytes as those dims need, so only the dims are wrong.
    blob = flow.CHECKPOINT_MAGIC + struct.pack("<II", flow.CHECKPOINT_VERSION, len(nets))
    for dims in nets:
        blob += struct.pack("<IIII", *dims) + bytes(flow._param_bytes(*dims))
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="bad.ckpt"):
        flow.load_checkpoint(path)
    assert main(["cfm-sample", "--checkpoint", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("binauralkit cfm-sample: error: ")
    assert "bad.ckpt" in captured.err and captured.err.count("\n") == 1


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
            ["--order", "2"],
        ],
    )
    def test_render_flag_out_of_range_exits_2(self, dataset, capsys, flags):
        base, manifest = dataset
        out_dir = base / "rendered"
        assert main(["render", "--manifest", str(manifest), "--out", str(out_dir)] + flags) == 2
        assert flags[0] in capsys.readouterr().err
        assert not out_dir.exists()

    def test_every_render_order_decodes_on_every_ring(self):
        # The CLI renders on ring_layout(--speakers), so each --order choice
        # must give a non-degenerate projection on rings of 2 to 64 speakers.
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        order = next(a for a in sub.choices["render"]._actions if a.dest == "order")
        for o in order.choices:
            for m in range(2, 65):
                assert decode_matrix(ring_layout(m), o).shape == (m, (o + 1) ** 2)

    @pytest.mark.parametrize("rate", ["0", "-31.25", "nan", "inf", "25"])
    def test_features_frame_rate_out_of_range_exits_2(self, dataset, capsys, rate):
        # Every heatmap has one frame rate, heatmap.FRAME_RATE, so features
        # has no --frame-rate flag and every value of it is a usage error.
        base, _ = dataset
        out = base / "features.csv"
        argv = ["features", "--hmap", str(base / "two.hmap"), "--out", str(out)]
        assert main(argv + ["--frame-rate", rate]) == 2
        assert "unrecognized arguments: --frame-rate" in capsys.readouterr().err
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
