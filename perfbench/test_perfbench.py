"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("render_long", "metrics_many", "cfm_toy")


def bench(workload, seed=3, trace=0, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_and_repeat_call_counts(workload):
    first, second = (result_of(bench(workload, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert units == declared("per_layer")
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for r in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["cli.main.calls"] == (1 if workload == "metrics_many" else 2)


def test_traced_shapes():
    render = result_of(bench("render_long", trace=1))["metrics"]
    kept = len(inputs.RENDER_SMOKE.long_seconds) + 1
    assert render["audio.fft_convolve.calls"]["value"] == 2 * reference.SPEAKERS * kept
    assert render["metrics.spatial_report.calls"]["value"] == 0
    assert render["flow.train.calls"]["value"] == 0
    flow = result_of(bench("cfm_toy", trace=1))["metrics"]
    assert flow["flow.sample_euler.calls"]["value"] == inputs.FLOW_SMOKE.draws
    assert flow["audio.read_wav.calls"]["value"] == 0
    many = result_of(bench("metrics_many", trace=1))["metrics"]
    assert many["metrics.spatial_report.calls"]["value"] == inputs.METRICS_SMOKE.n_clips
    assert many["render.render_trajectory.calls"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("cfm_toy", cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_reference_matches_the_package():
    from binauralkit.audio import AudioBuffer, BinauralBuffer
    from binauralkit.metrics import spatial_report

    rng = np.random.default_rng(5)
    shared = rng.standard_normal(9000)
    left = shared + 0.3 * rng.standard_normal(9000)
    right = 0.6 * np.concatenate([np.zeros(6), shared[:-6]]) + 0.3 * rng.standard_normal(9000)
    left[2000:4000] = right[2000:4000] = 0.0
    got = json.loads(spatial_report(BinauralBuffer(AudioBuffer(left, 16000), AudioBuffer(right, 16000))).to_json())
    assert reference.check_metrics("clip", got, left, right, 16000) == []
    got["itd_ms"] += 1e-6
    assert len(reference.check_metrics("clip", got, left, right, 16000)) == 1


def test_render_reference_matches_the_package_and_catches_an_error(tmp_path):
    from binauralkit.cli import main

    plan = inputs.make_render_inputs(str(tmp_path), 7, inputs.RENDER_SMOKE)
    assert main(["render", "--manifest", plan.manifest, "--out", str(tmp_path / "out")]) == 0
    from scipy.io import wavfile

    for clip_id, entry in plan.kept.items():
        _, stored = wavfile.read(tmp_path / entry["audio"])
        mono = stored / 32768.0
        if "trajectory" in entry:
            az, el = reference.block_directions_from_csv(tmp_path / entry["trajectory"], len(mono), 16000)
        else:
            az, el = reference.block_directions_from_hmap(tmp_path / entry["heatmap"], len(mono), 16000)
        out = tmp_path / "out" / f"{clip_id}_binaural.wav"
        assert reference.check_render(out, mono, az, el, 1024 - 300, 2048, 16000) == []
    rate, data = wavfile.read(out)
    data[1500, 0] += 1e-3
    wavfile.write(out, rate, data)
    assert reference.check_render(out, mono, az, el, 1024 - 300, 2048, 16000)


def test_tracer_restores_the_package():
    import binauralkit
    import binauralkit.render as render

    before = (render.fft_convolve, binauralkit.fft_convolve, binauralkit.Trajectory.direction_at)
    t = tracer.Tracer().install()
    assert render.fft_convolve is not before[0] and binauralkit.fft_convolve is not before[1]
    t.uninstall()
    assert (render.fft_convolve, binauralkit.fft_convolve, binauralkit.Trajectory.direction_at) == before
    assert t.missing == []
