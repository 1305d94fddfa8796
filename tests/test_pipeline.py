import io
import json
import math
import os
import re

import numpy as np
import pytest

from binauralkit import ambisonic, audio, flow, heatmap, pipeline
from binauralkit.ambisonic import Trajectory
from binauralkit.audio import AudioBuffer, BinauralBuffer, write_wav
from binauralkit.cli import main as cli_main
from binauralkit.metrics import SpatialMetricsReport
from binauralkit.pipeline import (
    ClipEntry,
    ClipManifest,
    PreprocessConfig,
    PreprocessReport,
    batch_metrics,
    batch_render,
    clip_trajectory,
    load_manifest,
    preprocess,
    quality_flags,
    save_manifest,
    silence_fraction,
    validate_manifest,
    worker_count,
    write_aggregate_csv,
    write_metrics_json,
)

FS = 16000


def write_noise(path, seconds, seed=0, amplitude=0.3):
    rng = np.random.default_rng(seed)
    samples = amplitude * rng.standard_normal(int(seconds * FS))
    write_wav(path, AudioBuffer(samples, FS), "float32")


def write_stereo(path, seconds=0.5, seed=0):
    rng = np.random.default_rng(seed)
    n = int(seconds * FS)
    left = AudioBuffer(0.3 * rng.standard_normal(n), FS)
    right = AudioBuffer(0.3 * rng.standard_normal(n), FS)
    write_wav(path, BinauralBuffer(left, right), "float32")


class TestManifests:
    def test_roundtrip(self, tmp_path):
        manifest = ClipManifest(
            (
                ClipEntry("a", "a.wav", caption="a bird"),
                ClipEntry("b", "b.wav", heatmap="b.hmap", trajectory="b.csv"),
            ),
            str(tmp_path),
        )
        path = tmp_path / "m.json"
        save_manifest(path, manifest)
        loaded = load_manifest(path)
        assert len(loaded) == 2
        assert loaded.entries[0].caption == "a bird"
        assert loaded.entries[1].heatmap == "b.hmap"
        assert loaded.base_dir == str(tmp_path)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ClipManifest((ClipEntry("x", "1.wav"), ClipEntry("x", "2.wav")))

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": "a"}]))
        with pytest.raises(ValueError, match="audio"):
            load_manifest(path)

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text(json.dumps({"id": "a"}))
        with pytest.raises(ValueError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "items,match",
        [
            ([1, 2], r"entry 0 needs an 'id' and a string 'audio'"),
            ([{"id": "a", "audio": "a.wav"}, {"id": "b", "audio": 5}], r"entry 1 needs"),
            ([{"id": "a", "audio": "a.wav", "heatmap": 3}], r"entry 0: 'heatmap' must be"),
            (
                [{"id": "x", "audio": "1.wav"}, {"id": "x", "audio": "2.wav"}],
                r"manifest id 'x' is repeated",
            ),
            ([{"id": "a", "audio": "a.wav"}, {"id": "../escaped", "audio": "b.wav"}],
             r"entry 1: 'id' must be a plain file name, got '\.\./escaped'"),
            ([{"id": "/tmp/anywhere", "audio": "a.wav"}], r"entry 0: 'id' must be a plain"),
            ([{"id": "sub/clip", "audio": "a.wav"}], r"entry 0: 'id' must be a plain"),
            ([{"id": "..", "audio": "a.wav"}], r"entry 0: 'id' must be a plain"),
            ([{"id": ".", "audio": "a.wav"}], r"entry 0: 'id' must be a plain"),
            ([{"id": "", "audio": "a.wav"}], r"entry 0: 'id' must be a plain"),
            (
                [{"id": None, "audio": "a.wav"}],
                r"entry 0: 'id' must be a plain file name, got None",
            ),
            ([{"id": 1, "audio": "a.wav"}, {"id": "1", "audio": "b.wav"}], r"entry 0: 'id' must"),
        ],
    )
    def test_malformed_entry_names_file(self, tmp_path, items, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(items))
        with pytest.raises(ValueError, match=r"bad\.json: " + match):
            load_manifest(path)

    def test_validate_reports_missing_files(self, tmp_path):
        write_noise(tmp_path / "ok.wav", 0.5)
        manifest = ClipManifest(
            (ClipEntry("ok", "ok.wav"), ClipEntry("gone", "gone.wav", heatmap="x.hmap")),
            str(tmp_path),
        )
        problems = validate_manifest(manifest)
        assert len(problems) == 2
        assert any("gone.wav" in p for p in problems)
        assert any("x.hmap" in p for p in problems)


class TestSilenceFraction:
    def test_all_silent(self):
        assert silence_fraction(AudioBuffer(np.zeros(8000), FS)) == 1.0

    def test_all_voiced(self, rng):
        audio = AudioBuffer(0.3 * rng.standard_normal(8000), FS)
        assert silence_fraction(audio) == 0.0

    def test_constructed_fraction(self):
        # 10000 samples: 61 frames, loud content in the first 1000 samples
        # touches frames starting at 0..960, i.e. 7 frames; 54/61 silent
        samples = np.zeros(10000)
        samples[:1000] = 0.5
        audio = AudioBuffer(samples, FS)
        assert silence_fraction(audio) == pytest.approx(54.0 / 61.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            silence_fraction(AudioBuffer(np.ones(100), FS))


class TestPreprocess:
    def _dataset(self, tmp_path):
        cfg = PreprocessConfig(min_seconds=0.5)
        write_noise(tmp_path / "keep.wav", 1.0, seed=1)
        write_noise(tmp_path / "short.wav", 0.25, seed=2)
        write_wav(tmp_path / "silent.wav", AudioBuffer(np.zeros(FS), FS), "float32")
        (tmp_path / "broken.wav").write_text("not audio")
        manifest = ClipManifest(
            tuple(
                ClipEntry(name, f"{name}.wav")
                for name in ("keep", "short", "silent", "broken")
            ),
            str(tmp_path),
        )
        return manifest, cfg

    def test_partition(self, tmp_path):
        manifest, cfg = self._dataset(tmp_path)
        kept, report = preprocess(manifest, cfg)
        assert [e.id for e in kept.entries] == ["keep"]
        assert report.kept == 1
        assert report.rejected_short == 1
        assert report.rejected_silent == 1
        assert report.rejected_unreadable == 1
        assert report.total == 4
        assert set(report.reasons) == {"short", "silent", "broken"}

    def test_idempotent(self, tmp_path):
        manifest, cfg = self._dataset(tmp_path)
        kept, _ = preprocess(manifest, cfg)
        again, report = preprocess(kept, cfg)
        assert [e.id for e in again.entries] == [e.id for e in kept.entries]
        assert report.kept == len(kept)

    def test_empty_manifest(self):
        kept, report = preprocess(ClipManifest(()))
        assert len(kept) == 0
        assert report.total == 0

    def test_duration_boundary_inclusive(self, tmp_path):
        write_noise(tmp_path / "edge.wav", 0.5, seed=3)  # exactly min_seconds
        manifest = ClipManifest((ClipEntry("edge", "edge.wav"),), str(tmp_path))
        kept, _ = preprocess(manifest, PreprocessConfig(min_seconds=0.5))
        assert len(kept) == 1

    def test_stereo_input_unreadable(self, tmp_path):
        write_stereo(tmp_path / "st.wav", 1.0)
        manifest = ClipManifest((ClipEntry("st", "st.wav"),), str(tmp_path))
        _, report = preprocess(manifest, PreprocessConfig(min_seconds=0.5))
        assert report.rejected_unreadable == 1

    def test_report_json(self, tmp_path):
        manifest, cfg = self._dataset(tmp_path)
        _, report = preprocess(manifest, cfg)
        payload = json.loads(report.to_json())
        assert payload["kept"] == 1
        assert "short" in payload["reasons"]


class TestQualityFlags:
    def test_clean_audio_no_flags(self, rng):
        audio = AudioBuffer(0.3 * rng.standard_normal(4000), FS)
        assert quality_flags(audio) == []

    def test_clipping_flagged(self):
        samples = np.full(1000, 1.0)
        flags = quality_flags(AudioBuffer(samples, FS))
        assert any("clipping" in f for f in flags)

    def test_dc_offset_flagged(self, rng):
        audio = AudioBuffer(0.1 * rng.standard_normal(4000) + 0.1, FS)
        flags = quality_flags(audio)
        assert any("dc offset" in f for f in flags)


class TestClipTrajectory:
    def test_csv_preferred(self, tmp_path):
        (tmp_path / "t.csv").write_text(
            "time_s,azimuth_deg,elevation_deg\n0.0,45.0,0.0\n"
        )
        manifest = ClipManifest(
            (ClipEntry("a", "a.wav", trajectory="t.csv"),), str(tmp_path)
        )
        traj = clip_trajectory(manifest, manifest.entries[0])
        assert traj.azimuth[0] == pytest.approx(math.radians(45.0))

    def test_heatmap_fallback(self, tmp_path):
        # all mass in the left column of a 1x4 map: s_h = 0.25 -> +fov/4
        (tmp_path / "h.hmap").write_text("hmap 1 1 1 4\n1 0 0 0\n")
        manifest = ClipManifest(
            (ClipEntry("a", "a.wav", heatmap="h.hmap"),), str(tmp_path)
        )
        traj = clip_trajectory(manifest, manifest.entries[0], fov=math.pi / 2)
        assert traj.azimuth[0] == pytest.approx(math.pi / 8)

    def test_neither_raises(self, tmp_path):
        manifest = ClipManifest((ClipEntry("a", "a.wav"),), str(tmp_path))
        with pytest.raises(ValueError, match="a"):
            clip_trajectory(manifest, manifest.entries[0])


class TestBatchRender:
    def _manifest(self, tmp_path):
        write_noise(tmp_path / "one.wav", 0.5, seed=1)
        write_noise(tmp_path / "two.wav", 0.5, seed=2)
        (tmp_path / "one.csv").write_text(
            "time_s,azimuth_deg,elevation_deg\n0.0,90.0,0.0\n"
        )
        (tmp_path / "two.hmap").write_text("hmap 1 1 2 2\n1 0\n1 0\n")
        return ClipManifest(
            (
                ClipEntry("one", "one.wav", trajectory="one.csv"),
                ClipEntry("two", "two.wav", heatmap="two.hmap"),
                ClipEntry("three", "missing.wav", trajectory="one.csv"),
            ),
            str(tmp_path),
        )

    def test_outputs_and_failures(self, tmp_path):
        manifest = self._manifest(tmp_path)
        out_dir = tmp_path / "out"
        results = batch_render(manifest, out_dir=str(out_dir))
        by_id = {r["id"]: r for r in results}
        assert by_id["one"]["status"] == "ok"
        assert by_id["two"]["status"] == "ok"
        assert by_id["three"]["status"] == "failed"
        assert os.path.exists(out_dir / "one_binaural.wav")
        assert os.path.exists(out_dir / "two_binaural.wav")
        from binauralkit.audio import read_wav

        rendered = read_wav(out_dir / "one_binaural.wav")
        assert isinstance(rendered, BinauralBuffer)

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        manifest = self._manifest(tmp_path)
        outputs = {}
        for workers in ("1", "4"):
            monkeypatch.setenv("SV2A_THREADS", workers)
            out_dir = tmp_path / f"out_{workers}"
            batch_render(manifest, out_dir=str(out_dir))
            outputs[workers] = (out_dir / "one_binaural.wav").read_bytes()
        assert outputs["1"] == outputs["4"]

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("SV2A_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("SV2A_THREADS", "junk")
        assert worker_count() == 1
        monkeypatch.delenv("SV2A_THREADS")
        assert worker_count() == 1

    def test_unparsable_worker_count_warns(self, monkeypatch, caplog):
        monkeypatch.setenv("SV2A_THREADS", "two")
        with caplog.at_level("WARNING", logger="binauralkit.pipeline"):
            assert worker_count() == 1
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "SV2A_THREADS" in caplog.text and "'two'" in caplog.text
        caplog.clear()
        monkeypatch.setenv("SV2A_THREADS", "2")
        assert worker_count() == 2
        assert caplog.records == []


class TestBatchMetrics:
    def test_directory_aggregate(self, tmp_path, rng):
        # one degenerate dual-mono clip: iacc 1, everything else 0
        x = 0.3 * rng.standard_normal(8000)
        write_wav(
            tmp_path / "dup.wav",
            BinauralBuffer(AudioBuffer(x, FS), AudioBuffer(x.copy(), FS)),
            "float32",
        )
        per_clip, aggregate, failures = batch_metrics(str(tmp_path))
        assert set(per_clip) == {"dup"}
        assert failures == {}
        assert aggregate["iacc"] == (pytest.approx(1.0), 1)
        assert aggregate["ild_db"][0] == pytest.approx(0.0, abs=1e-9)
        assert aggregate["itd_ms"] == (0.0, 1)

    def test_mono_file_is_failure(self, tmp_path):
        write_stereo(tmp_path / "ok.wav", 0.5, seed=1)
        write_noise(tmp_path / "mono.wav", 0.5, seed=2)
        per_clip, _, failures = batch_metrics(str(tmp_path))
        assert "ok" in per_clip
        assert "mono" in failures

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no stereo inputs"):
            batch_metrics(str(tmp_path))

    def test_colliding_clip_ids_rejected(self, tmp_path):
        write_stereo(tmp_path / "a.wav", 0.5, seed=1)
        write_stereo(tmp_path / "a.WAV", 0.5, seed=2)
        write_stereo(tmp_path / "b.wav", 0.5, seed=3)
        message = f"{tmp_path}: a.WAV and a.wav both give clip id 'a'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            batch_metrics(str(tmp_path))

    def test_manifest_source(self, tmp_path):
        write_stereo(tmp_path / "clip.wav", 0.5)
        manifest = ClipManifest((ClipEntry("clip", "clip.wav"),), str(tmp_path))
        per_clip, aggregate, _ = batch_metrics(manifest)
        assert set(per_clip) == {"clip"}
        assert aggregate["iacc"][1] == 1

    def test_json_and_csv_outputs(self, tmp_path):
        write_stereo(tmp_path / "a.wav", 0.5, seed=1)
        write_stereo(tmp_path / "b.wav", 0.5, seed=2)
        per_clip, aggregate, failures = batch_metrics(str(tmp_path))
        json_path = tmp_path / "metrics.json"
        csv_path = tmp_path / "agg.csv"
        write_metrics_json(json_path, per_clip, failures)
        write_aggregate_csv(csv_path, aggregate)
        payload = json.loads(json_path.read_text())
        assert set(payload["clips"]) == {"a", "b"}
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "metric,mean,count"
        assert len(lines) == 6
        assert all(line.endswith(",2") for line in lines[1:])


def _partial_then_fail(text):
    """A stand-in writer that puts `text` in its file, then fails."""

    def write(*args, **kwargs):
        fh = next(a for a in args if hasattr(a, "write"))
        fh.write(text)
        raise OSError("disk full")

    return write


class _PartialThenFailFile(io.FileIO):
    """A stand-in for `open` whose file takes b"RIFF" of the first write, then fails."""

    def write(self, data):
        super().write(b"RIFF")
        raise OSError("disk full")


def _fail_wav(tmp_path, monkeypatch, path):
    monkeypatch.setattr(audio, "open", _PartialThenFailFile, raising=False)
    write_wav(path, AudioBuffer(np.ones(100), FS))


def _fail_manifest(tmp_path, monkeypatch, path):
    monkeypatch.setattr(pipeline.json, "dump", _partial_then_fail("[{"))
    save_manifest(path, ClipManifest((ClipEntry("a", "a.wav"),)))


def _fail_metrics_json(tmp_path, monkeypatch, path):
    # The clip reports serialise first; the failure value then cannot.
    report = SpatialMetricsReport(0.5, 1.0, 0.1, 0.2, 0.3, 10)
    write_metrics_json(path, {"a": report}, {"b": object()})


def _fail_aggregate_csv(tmp_path, monkeypatch, path):
    # The header and the iacc row are written before ild_db is missed.
    write_aggregate_csv(path, {"iacc": (0.5, 1)})


def _fail_preprocess_report(tmp_path, monkeypatch, path):
    write_wav(tmp_path / "clip.wav", AudioBuffer(0.3 * np.ones(FS), FS))
    manifest = tmp_path / "clips.json"
    manifest.write_text(json.dumps([{"id": "clip", "audio": "clip.wav"}]))

    def to_json(self):
        raise TypeError("Object of type object is not JSON serializable")

    monkeypatch.setattr(PreprocessReport, "to_json", to_json)
    cli_main([
        "preprocess", "--manifest", str(manifest), "--out", str(tmp_path / "kept.json"),
        "--report", str(path), "--min-seconds", "0.5",
    ])


def _fail_checkpoint(tmp_path, monkeypatch, path):
    # The header and the first net are written before the second net's
    # parameters cannot be converted.
    bad = flow.VelocityFieldNet(1, hidden_width=2)
    bad.b3 = {"not": "an array"}
    flow.save_checkpoint(path, [flow.VelocityFieldNet(1, hidden_width=2), bad])


def _fail_loss_trace(tmp_path, monkeypatch, path):
    flow.save_loss_trace(path, [1.0, None])


def _fail_sample_csv(tmp_path, monkeypatch, path):
    ckpt = tmp_path / "model.ckpt"
    cli_main(["cfm-train", "--checkpoint", str(ckpt), "--steps", "1", "--hidden", "4"])
    monkeypatch.setattr(flow, "sample_euler", lambda *args: [[0.5], [None]])
    cli_main(["cfm-sample", "--checkpoint", str(ckpt), "--draws", "2", "--out", str(path)])


def _fail_heatmap_sequence(tmp_path, monkeypatch, path):
    # The header and the first frame are written before the second frame's
    # value cannot be formatted.
    seq = heatmap.HeatmapSequence(np.ones((2, 1, 2)))
    object.__setattr__(seq, "values", np.array([[[1.0, 1.0]], [[1.0, None]]], dtype=object))
    heatmap.save_heatmap_sequence(path, seq)


def _fail_features_csv(tmp_path, monkeypatch, path):
    monkeypatch.setattr(heatmap.csv, "writer", _partial_then_fail("frame,"))
    heatmap.save_features_csv(path, heatmap.SpatialFeatureSequence(np.zeros((2, 5))))


def _fail_trajectory_csv(tmp_path, monkeypatch, path):
    monkeypatch.setattr(ambisonic.csv, "writer", _partial_then_fail("time_s,"))
    ambisonic.save_trajectory_csv(path, Trajectory([0.0], [0.0], [0.0]))


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "fail",
        [
            _fail_wav, _fail_manifest, _fail_metrics_json, _fail_aggregate_csv,
            _fail_preprocess_report, _fail_checkpoint, _fail_loss_trace, _fail_sample_csv,
            _fail_heatmap_sequence, _fail_features_csv, _fail_trajectory_csv,
        ],
    )
    def test_failed_write_keeps_previous_output(self, tmp_path, monkeypatch, fail):
        path = tmp_path / "out.dat"
        path.write_bytes(b"previous")
        with pytest.raises((OSError, TypeError, KeyError)):
            fail(tmp_path, monkeypatch, path)
        assert path.read_bytes() == b"previous"
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_write_replaces_existing_output(self, tmp_path):
        path = tmp_path / "agg.csv"
        path.write_text("stale\n")
        write_aggregate_csv(path, {name: (1.0, 2) for name in pipeline._METRIC_FIELDS})
        assert path.read_text().startswith("metric,mean,count\n")
        assert os.listdir(tmp_path) == ["agg.csv"]
