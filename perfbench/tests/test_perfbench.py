"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from doasim import cli, experiments  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "0",
                           *args], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_tiny_run_prints_every_metric_with_its_unit():
    lines, final = _bench("--workload", "all")
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    for w in BENCH["workloads"]:
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            assert any(ln.startswith(f"{w['name']} {m['name']} = ") and f" {m['unit']} (" in ln
                       for ln in lines), (w["name"], m["name"])
            assert final["metrics"][f"{w['name']}.{m['name']}"]["unit"] == m["unit"]
        assert f"{w['name']} fail_ratio = 0.0 " in "\n".join(lines)
    assert lines[0].startswith("manifest ")


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_single_workload_result_line(trace, group):
    _, final = _bench("--workload", "perturbed-many-points", "--seed", "5", "--trace", str(trace))
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    assert set(final["metrics"]) == {m["name"] for m in BENCH[group]}


def _run_in_process(tmp_path, name="element-fov30", trace=0, trials=2):
    conf = tmp_path / f"{name}.conf"
    conf.write_text(workloads.config_text(workloads.config_mapping(name, 11, trials)))
    return child.run(name, str(conf), str(tmp_path / "out"), 11, trials, 0.0, trace)


def test_corrupted_estimate_fails_every_point(tmp_path, monkeypatch):
    pick = experiments.pick_peaks

    def off_by_a_microdegree(spectrum, count, fov_deg=90.0):
        est = pick(spectrum, count, fov_deg)
        return dataclasses.replace(est, angles=(est.angles[0] + 1e-6, *est.angles[1:]))

    monkeypatch.setattr(experiments, "pick_peaks", off_by_a_microdegree)
    res, _ = _run_in_process(tmp_path)
    assert res["attempted"] > 0 and res["failed"] == res["attempted"]


def test_corrupted_csv_row_fails_that_point(tmp_path, monkeypatch):
    write = cli.write_results

    def skew_last_row(result, destination):
        rmse = result.rmse_deg[:-1] + (result.rmse_deg[-1] * (1 + 1e-9),)
        write(dataclasses.replace(result, rmse_deg=rmse), destination)

    monkeypatch.setattr(cli, "write_results", skew_last_row)
    res, _ = _run_in_process(tmp_path)
    calls = res["attempted"] // res["points"]
    assert res["failed"] == calls


def test_missing_boundary_counts_zero_and_run_goes_on(tmp_path, monkeypatch):
    monkeypatch.delattr(experiments, "virtual_steering")
    res, spans = _run_in_process(tmp_path, trace=1, trials=1)
    assert res["missing_boundaries"] == ["experiments.virtual_steering"]
    assert res["failed"] == 0 and not res["errors"]
    assert all(v == 0 for v in res["layer"]["geometry.is_perfect_calls"])
    assert spans["spans"]


def _tracer(spans):
    t = tracing.Tracer()
    for name, start, end, parent in spans:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
    return t


SWEEP = [("cli.main", 0.0, 1.0, -1),
         ("experiments.music_pseudospectrum", 0.0, 0.6, 0),
         ("estimators.hermitian_eig", 0.1, 0.2, 1),
         ("experiments.pick_peaks", 0.6, 0.996, 0)]


def test_self_time_is_duration_minus_children():
    m = _tracer(SWEEP).sweep_metrics(0, 4, trials=2)
    assert m["estimators.scan_s"] == pytest.approx(0.25)
    assert m["estimators.eigh_s"] == pytest.approx(0.05)
    assert m["estimators.peaks_s"] == pytest.approx(0.198)
    assert m["trace.unattributed_ratio"] == pytest.approx(0.004)


@pytest.mark.parametrize("index,span", [
    (2, ("estimators.hermitian_eig", 0.1, 0.2, -1)),   # a child outside its sweep
    (3, ("experiments.pick_peaks", 0.6, 0.9, 0)),      # 10% outside every layer
])
def test_broken_trace_is_refused(index, span):
    spans = list(SWEEP)
    spans[index] = span
    with pytest.raises(ValueError):
        _tracer(spans).sweep_metrics(0, 4, trials=2)
