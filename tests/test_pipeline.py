import io
import json
import math
import os
import re
import pathlib
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binauralkit import audio, cli, flow, heatmap, pipeline
from binauralkit.audio import AudioBuffer, BinauralBuffer, write_wav
from binauralkit.cli import main as cli_main
from binauralkit.metrics import SpatialMetricsReport
from binauralkit.pipeline import (
    ClipEntry,
    ClipManifest,
    ClipResult,
    PreprocessConfig,
    aggregate_metrics,
    batch_metrics,
    batch_render,
    clip_trajectory,
    load_manifest,
    preprocess,
    preprocess_report,
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


def write_trajectory(path):
    path.write_text("time_s,azimuth_deg,elevation_deg\n0,0,0\n")


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

    def test_save_rebases_relative_paths_on_its_directory(self, tmp_path):
        write_noise(tmp_path / "a.wav", 0.5)
        elsewhere = str(tmp_path / "abs.csv")
        manifest = ClipManifest(
            (ClipEntry("a", "a.wav", heatmap="maps/a.hmap", trajectory=elsewhere,
                       caption="a.wav"),),
            str(tmp_path),
        )
        path = tmp_path / "out" / "kept.json"
        path.parent.mkdir()
        save_manifest(path, manifest)
        (item,) = json.loads(path.read_text())
        assert item == {"id": "a", "audio": os.path.join("..", "a.wav"),
                        "heatmap": os.path.join("..", "maps", "a.hmap"),
                        "trajectory": elsewhere, "caption": "a.wav"}
        loaded = load_manifest(path)
        assert os.path.samefile(loaded.resolve(loaded.entries[0].audio), tmp_path / "a.wav")

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
        (tmp_path / "ok.csv").write_text("time_s,azimuth_deg,elevation_deg\n0,0,0\n")
        manifest = ClipManifest(
            (
                ClipEntry("ok", "ok.wav", trajectory="ok.csv"),
                ClipEntry("gone", "gone.wav", heatmap="x.hmap"),
            ),
            str(tmp_path),
        )
        problems = validate_manifest(manifest)
        assert len(problems) == 2
        assert any("gone.wav" in p for p in problems)
        assert any("x.hmap" in p for p in problems)

    def test_validate_reports_missing_direction_source(self, tmp_path):
        write_noise(tmp_path / "a.wav", 0.5)
        manifest = ClipManifest((ClipEntry("a", "a.wav"),), str(tmp_path))
        assert validate_manifest(manifest) == ["a: has neither a trajectory nor a heatmap"]


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
        write_trajectory(tmp_path / "t.csv")
        manifest = ClipManifest(
            tuple(
                ClipEntry(name, f"{name}.wav", trajectory="t.csv")
                for name in ("keep", "short", "silent", "broken")
            ),
            str(tmp_path),
        )
        return manifest, cfg

    def test_partition(self, tmp_path):
        manifest, cfg = self._dataset(tmp_path)
        kept, results = preprocess(manifest, cfg)
        assert [e.id for e in kept.entries] == ["keep"]
        statuses = [r.status for r in results]
        assert statuses.count("kept") == 1
        assert statuses.count("rejected_short") == 1
        assert statuses.count("rejected_silent") == 1
        assert statuses.count("rejected_unreadable") == 1
        assert len(results) == 4
        assert {r.id for r in results if r.reason is not None} == {"short", "silent", "broken"}
        assert [r.id for r in results] == [e.id for e in manifest.entries]

    def test_idempotent(self, tmp_path):
        manifest, cfg = self._dataset(tmp_path)
        kept, _ = preprocess(manifest, cfg)
        again, results = preprocess(kept, cfg)
        assert [e.id for e in again.entries] == [e.id for e in kept.entries]
        assert [r.status for r in results].count("kept") == len(kept)

    def test_empty_manifest(self):
        kept, results = preprocess(ClipManifest(()))
        assert len(kept) == 0
        assert results == []

    def test_duration_boundary_inclusive(self, tmp_path):
        write_noise(tmp_path / "edge.wav", 0.5, seed=3)  # exactly min_seconds
        write_trajectory(tmp_path / "t.csv")
        manifest = ClipManifest((ClipEntry("edge", "edge.wav", trajectory="t.csv"),), str(tmp_path))
        kept, _ = preprocess(manifest, PreprocessConfig(min_seconds=0.5))
        assert len(kept) == 1

    def test_stereo_input_unreadable(self, tmp_path):
        write_stereo(tmp_path / "st.wav", 1.0)
        write_trajectory(tmp_path / "t.csv")
        manifest = ClipManifest((ClipEntry("st", "st.wav", trajectory="t.csv"),), str(tmp_path))
        _, results = preprocess(manifest, PreprocessConfig(min_seconds=0.5))
        assert [r.status for r in results] == ["rejected_unreadable"]

    def test_shorter_than_one_silence_frame_is_short(self, tmp_path):
        write_noise(tmp_path / "tiny.wav", 100 / FS, seed=4)
        write_trajectory(tmp_path / "t.csv")
        manifest = ClipManifest((ClipEntry("tiny", "tiny.wav", trajectory="t.csv"),), str(tmp_path))
        _, results = preprocess(manifest, PreprocessConfig(min_seconds=0.0))
        assert [r.status for r in results] == ["rejected_short"]
        assert "400-sample silence frame" in results[0].reason

    def test_no_direction_source_rejected_before_audio_is_read(self, tmp_path):
        # No audio file exists: the entry's fields alone reject it.
        manifest = ClipManifest((ClipEntry("notraj", "missing.wav"),), str(tmp_path))
        kept, results = preprocess(manifest)
        assert len(kept) == 0
        assert [(r.status, r.reason) for r in results] == [
            ("rejected_unreadable", "has neither a trajectory nor a heatmap")
        ]

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"heatmap": "nope.hmap"}, "no heatmap file at 'nope.hmap'"),
            ({"trajectory": ""}, "no trajectory file at ''"),
            ({"trajectory": "sub"}, "no trajectory file at 'sub'"),
            ({"audio": "gone.wav", "trajectory": "t.csv"}, "no audio file at 'gone.wav'"),
        ],
    )
    def test_unrenderable_path_rejected_with_validates_problem(self, tmp_path, fields, problem):
        # A missing file, an empty path or a directory: validate's problem is
        # preprocess's reason, and the entry never reaches the kept manifest.
        write_noise(tmp_path / "a.wav", 1.0, seed=5)
        write_trajectory(tmp_path / "t.csv")
        (tmp_path / "sub").mkdir()
        manifest = ClipManifest((ClipEntry("a", **{"audio": "a.wav", **fields}),), str(tmp_path))
        assert validate_manifest(manifest) == [f"a: {problem}"]
        kept, results = preprocess(manifest, PreprocessConfig(min_seconds=0.5))
        assert len(kept) == 0
        assert [(r.status, r.reason) for r in results] == [("rejected_unreadable", problem)]

    def test_report_json(self, tmp_path):
        manifest, cfg = self._dataset(tmp_path)
        _, results = preprocess(manifest, cfg)
        payload = json.loads(json.dumps(preprocess_report(results)))
        assert payload["kept"] == 1
        assert "short" in payload["reasons"]


# Planted faults for the manifest property: each field names a good file, a
# missing one, an empty path or a directory; audio may also be stereo or
# shorter than the duration filter, and a direction source may be left out.
_AUDIO = {"mono": "mono.wav", "stereo": "stereo.wav", "short": "short.wav",
          "missing": "gone.wav", "empty": "", "dir": "sub"}
_TRAJECTORY = {"none": None, "ok": "t.csv", "missing": "gone.csv", "empty": "", "dir": "sub"}
_HEATMAP = {"none": None, "ok": "h.hmap", "missing": "gone.hmap", "empty": "", "dir": "sub"}


@settings(max_examples=30)
@given(st.lists(st.tuples(st.sampled_from(list(_AUDIO)), st.sampled_from(list(_TRAJECTORY)),
                          st.sampled_from(list(_HEATMAP))), min_size=1, max_size=4))
def test_preprocess_rejects_what_validate_flags_and_keeps_what_renders(faults):
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)
        write_noise(base / "mono.wav", 0.2, seed=1)
        write_noise(base / "short.wav", 0.05, seed=2)
        write_stereo(base / "stereo.wav", 0.2)
        write_trajectory(base / "t.csv")
        (base / "h.hmap").write_text("hmap 1 1 2 4\n1 0 0 0\n1 0 0 0\n")
        (base / "sub").mkdir()
        manifest = ClipManifest(
            tuple(ClipEntry(f"c{i}", _AUDIO[a], heatmap=_HEATMAP[h], trajectory=_TRAJECTORY[t])
                  for i, (a, t, h) in enumerate(faults)),
            str(base),
        )
        first_problem = {}
        for line in validate_manifest(manifest):
            clip_id, _, problem = line.partition(": ")
            first_problem.setdefault(clip_id, problem)
        kept, results = preprocess(manifest, PreprocessConfig(min_seconds=0.1))
        for r, (a, _, _) in zip(results, faults):
            if r.id in first_problem:
                assert (r.status, r.reason) == ("rejected_unreadable", first_problem[r.id])
            else:
                want = {"mono": "kept", "stereo": "rejected_unreadable", "short": "rejected_short"}
                assert r.status == want[a]
        save_manifest(base / "kept.json", kept)
        rendered = batch_render(load_manifest(base / "kept.json"), out_dir=str(base / "out"))
        assert [r.status for r in rendered] == ["ok"] * len(kept)


class TestQualityFlags:
    def test_clean_audio_no_flags(self, rng):
        audio = AudioBuffer(0.3 * rng.standard_normal(4000), FS)
        assert quality_flags(audio) == []

    def test_clipping_flagged(self):
        samples = np.full(1000, 1.0)
        flags = quality_flags(AudioBuffer(samples, FS))
        assert any("clipping" in f for f in flags)

    @pytest.mark.parametrize("rail", [1.0, -1.0])
    def test_pcm16_full_scale_flagged(self, tmp_path, rail):
        # PCM-16 reads positive full scale back as 32767/32768.
        write_wav(tmp_path / "sq.wav", AudioBuffer(np.full(1000, rail), FS), "pcm16")
        flags = quality_flags(audio.read_wav(tmp_path / "sq.wav"))
        assert "clipping fraction 1.0000" in flags

    @pytest.mark.parametrize("n, planted", [(1, 1), (7, 3), (1000, 1), (100_003, 9_001)])
    def test_clipping_fraction_equals_mask_mean(self, rng, n, planted):
        # The fraction is the mean of the clipped mask, bit for bit, as an
        # exact count divided once.
        samples = 0.3 * rng.standard_normal(n)
        at = rng.choice(n, planted, replace=False)
        samples[at] = rng.choice([-1.2, -1.0, pipeline.CLIPPING_LEVEL, 1.0], planted)
        mask = np.abs(samples) >= pipeline.CLIPPING_LEVEL
        mean = float(np.mean(mask))
        assert np.count_nonzero(mask) / samples.size == mean
        want = [f"clipping fraction {mean:.4f}"] if mean > pipeline.CLIPPING_FRACTION_MAX else []
        flags = quality_flags(AudioBuffer(samples, FS))
        assert [f for f in flags if f.startswith("clipping")] == want

    def test_empty_buffer_no_flags(self):
        assert quality_flags(AudioBuffer(np.zeros(0), FS)) == []

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

    def test_heatmap_breakpoints_at_the_frame_rate(self, tmp_path):
        # Three frames, the mass moving left to right: one breakpoint per
        # frame, 1/FRAME_RATE s apart.
        (tmp_path / "h.hmap").write_text("hmap 1 3 1 3\n1 0 0\n0 1 0\n0 0 1\n")
        manifest = ClipManifest(
            (ClipEntry("a", "a.wav", heatmap="h.hmap"),), str(tmp_path)
        )
        traj = clip_trajectory(manifest, manifest.entries[0])
        np.testing.assert_array_equal(traj.times, np.arange(3) / heatmap.FRAME_RATE)
        np.testing.assert_allclose(
            traj.azimuth, [math.pi / 12, -math.pi / 12, -math.pi / 4], atol=1e-15
        )

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
        assert [r.id for r in results] == ["one", "two", "three"]
        by_id = {r.id: r for r in results}
        assert by_id["one"].status == "ok"
        assert by_id["two"].status == "ok"
        assert by_id["three"].status == "failed"
        assert by_id["one"].value == os.path.join(str(out_dir), "one_binaural.wav")
        assert os.path.exists(out_dir / "one_binaural.wav")
        assert os.path.exists(out_dir / "two_binaural.wav")
        from binauralkit.audio import read_wav

        rendered = read_wav(out_dir / "one_binaural.wav")
        assert isinstance(rendered, BinauralBuffer)

    def test_leftover_probe_directory_does_not_block(self, tmp_path):
        # The writability check makes an anonymous file, so no name left in
        # the output directory can collide with it.
        manifest = self._manifest(tmp_path)
        out_dir = tmp_path / "out"
        (out_dir / ".write_probe").mkdir(parents=True)
        results = batch_render(manifest, out_dir=str(out_dir))
        assert [r.status for r in results] == ["ok", "ok", "failed"]
        assert sorted(os.listdir(out_dir)) == [".write_probe", "one_binaural.wav",
                                               "two_binaural.wav"]

    def test_unwritable_output_directory(self, tmp_path, monkeypatch):
        def refuse(**kwargs):
            raise PermissionError("denied")

        monkeypatch.setattr(pipeline.tempfile, "TemporaryFile", refuse)
        with pytest.raises(OSError, match="output directory .* is not writable: denied"):
            batch_render(self._manifest(tmp_path), out_dir=str(tmp_path / "out"))

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


class TestSharedPool:
    """_each_clip keeps one thread pool across calls, and replaces it when
    the worker count or the module's ThreadPoolExecutor changes."""

    @staticmethod
    def pool_after_call(monkeypatch, workers):
        monkeypatch.setenv("SV2A_THREADS", str(workers))
        items = [(i, i) for i in range(5)]
        assert pipeline._each_clip(lambda clip_id, x: 2 * x, items) == [0, 2, 4, 6, 8]
        return pipeline._pool[2]

    def test_pool_kept_then_replaced(self, monkeypatch):
        first = self.pool_after_call(monkeypatch, 2)
        assert self.pool_after_call(monkeypatch, 2) is first
        assert self.pool_after_call(monkeypatch, 3) is not first
        with pytest.raises(RuntimeError):  # the replaced pool is shut down
            first.submit(int)

        class Subclass(pipeline.ThreadPoolExecutor):
            pass

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Subclass)
        assert isinstance(self.pool_after_call(monkeypatch, 3), Subclass)

    def test_concurrent_calls_with_changing_worker_counts(self, monkeypatch):
        # Callers alternate 2 and 3 workers, so each call may replace the
        # pool while another submits to it.
        local = threading.local()
        monkeypatch.setattr(pipeline, "worker_count", lambda: local.workers)
        errors = []

        def caller(workers):
            local.workers = workers
            items = [(i, i) for i in range(30)]
            try:
                for _ in range(20):
                    got = pipeline._each_clip(lambda clip_id, x: x + workers, items)
                    assert got == [x + workers for x in range(30)]
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(2 + i % 2,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestBatchMetrics:
    def test_directory_aggregate(self, tmp_path, rng):
        # one degenerate dual-mono clip: iacc 1, everything else 0
        x = 0.3 * rng.standard_normal(8000)
        write_wav(
            tmp_path / "dup.wav",
            BinauralBuffer(AudioBuffer(x, FS), AudioBuffer(x.copy(), FS)),
            "float32",
        )
        results = batch_metrics(str(tmp_path))
        aggregate = aggregate_metrics(results)
        assert [(r.id, r.status) for r in results] == [("dup", "ok")]
        assert aggregate["iacc"] == (pytest.approx(1.0), 1)
        assert aggregate["ild_db"][0] == pytest.approx(0.0, abs=1e-9)
        assert aggregate["itd_ms"] == (0.0, 1)

    def test_mono_file_is_failure(self, tmp_path):
        write_stereo(tmp_path / "ok.wav", 0.5, seed=1)
        write_noise(tmp_path / "mono.wav", 0.5, seed=2)
        by_id = {r.id: r for r in batch_metrics(str(tmp_path))}
        assert by_id["ok"].status == "ok"
        assert by_id["mono"].status == "failed"

    def test_all_failed_clips_are_returned(self, tmp_path):
        write_noise(tmp_path / "a.wav", 0.5, seed=1)
        write_noise(tmp_path / "b.wav", 0.5, seed=2)
        results = batch_metrics(str(tmp_path))
        assert [(r.id, r.status, r.reason) for r in results] == [
            ("a", "failed", "not a stereo file"), ("b", "failed", "not a stereo file"),
        ]

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
        results = batch_metrics(manifest)
        assert [(r.id, r.status) for r in results] == [("clip", "ok")]
        assert aggregate_metrics(results)["iacc"][1] == 1

    def test_json_and_csv_outputs(self, tmp_path):
        write_stereo(tmp_path / "a.wav", 0.5, seed=1)
        write_stereo(tmp_path / "b.wav", 0.5, seed=2)
        results = batch_metrics(str(tmp_path))
        json_path = tmp_path / "metrics.json"
        csv_path = tmp_path / "agg.csv"
        write_metrics_json(json_path, results)
        write_aggregate_csv(csv_path, aggregate_metrics(results))
        payload = json.loads(json_path.read_text())
        assert set(payload["clips"]) == {"a", "b"}
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "metric,mean,count"
        assert len(lines) == 6
        assert all(line.endswith(",2") for line in lines[1:])

    def test_silent_ear_failure_names_the_channel(self, tmp_path, rng):
        write_stereo(tmp_path / "ok.wav", 0.5, seed=1)
        x = 0.3 * rng.standard_normal(8000)
        write_wav(tmp_path / "deaf.wav",
                  BinauralBuffer(AudioBuffer(x, FS), AudioBuffer(np.zeros(8000), FS)), "pcm16")
        json_path = tmp_path / "metrics.json"
        write_metrics_json(json_path, batch_metrics(str(tmp_path)))
        payload = json.loads(json_path.read_text())
        assert set(payload["clips"]) == {"ok"}
        assert payload["failures"] == {"deaf": "right channel is all-zero"}


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
    write_metrics_json(path, [ClipResult("a", "ok", value=report), ClipResult("b", "failed", object())])


def _fail_aggregate_csv(tmp_path, monkeypatch, path):
    # The header and the iacc row are written before ild_db is missed.
    write_aggregate_csv(path, {"iacc": (0.5, 1)})


def _fail_preprocess_report(tmp_path, monkeypatch, path):
    write_wav(tmp_path / "clip.wav", AudioBuffer(0.3 * np.ones(FS), FS))
    manifest = tmp_path / "clips.json"
    manifest.write_text(json.dumps([{"id": "clip", "audio": "clip.wav"}]))

    monkeypatch.setattr(cli, "preprocess_report", lambda results: object())
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


def _fail_features_csv(tmp_path, monkeypatch, path):
    monkeypatch.setattr(heatmap.csv, "writer", _partial_then_fail("frame,"))
    heatmap.save_features_csv(path, np.zeros((2, 5)))



class TestAtomicWrites:
    @pytest.mark.parametrize(
        "fail",
        [
            _fail_wav, _fail_manifest, _fail_metrics_json, _fail_aggregate_csv,
            _fail_preprocess_report, _fail_checkpoint, _fail_loss_trace, _fail_sample_csv,
            _fail_features_csv,
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
