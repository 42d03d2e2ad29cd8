"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Shows that every workload runs clean and emits every metric of
BENCHMARK.json with its unit, that the traced runs produce spans for
every layer and none from the output checks, that each output check trips
on a corrupted result, that host-speed scaling is proportional, and that
the benchmark refuses to run without the package sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from biphoton import cli, detection, montecarlo  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: layers each workload must reach, from the mapping table in README.md
LAYERS_ON = {
    "paper": {"cli", "optimize", "bell", "detection", "optics", "fock", "selftest"},
    "tables": {"bell", "detection", "optics", "fock"},
    "events": {"montecarlo", "detection", "optics", "fock"},
    "export": {"cli", "montecarlo"},
}


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(scope="module")
def traced():
    return {w: run.run_benchmark(w, 1, 0.0, 1, workloads.TINY, setup_probes=1)
            for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_end_to_end_metric(workload):
    result, info = run.run_benchmark(workload, 1, 0.0, 0, workloads.TINY, setup_probes=1)
    assert info["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(traced, workload):
    result, _ = traced[workload]
    assert result["correct"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("per_layer")
    metrics = result["metrics"]
    assert metrics["trace.overhead_ratio"]["value"] > 0
    for layer in LAYERS_ON[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
        assert metrics[f"{layer}.self_s"]["value"] > 0, layer


def test_traced_runs_cover_every_layer(traced):
    assert set().union(*LAYERS_ON.values()) == set(tracing.LAYERS)


def test_checks_are_not_traced(traced):
    # on tables only the checks call the closed forms
    metrics = traced["tables"][0]["metrics"]
    assert metrics["detection.closed_form_lossy_table_s"]["value"] == 0
    assert metrics["bell.correlation_closed_form_calls"]["value"] == 0
    assert metrics["detection.joint_table_calls"]["value"] == 2


def test_host_speed_scaling():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REF_S
    # three marks on a host at half speed, one at double speed
    speed.starts = [10.0, 10.5, 11.0, 20.0]
    speed.loops = [2 * ref, 2 * ref, 2 * ref, ref / 2]
    speed.ends = [s + k for s, k in zip(speed.starts, speed.loops)]
    # a raw second is half a reference second; the mark inside is left out
    assert speed.scaled(10.2, 10.8) == pytest.approx((0.6 - 2 * ref) / 2)
    assert speed.factor(10.0, 11.0) == pytest.approx(0.5)
    assert speed.scaled(19.8, 19.9) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        speed.scaled(15.0, 16.0)
    # with MIN_MARKS inside an interval, the marks around it do not count
    inside = [30.1 + 0.1 * k for k in range(hostspeed.MIN_MARKS)]
    speed.starts += [29.9] + inside
    speed.loops += [ref] + [ref / 4] * len(inside)
    speed.ends = [s + k for s, k in zip(speed.starts, speed.loops)]
    assert speed.factor(30.0, 31.0) == pytest.approx(4.0)


def test_host_speed_marks_inside_long_ops():
    speed = hostspeed.HostSpeed()
    with speed.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        t1 = time.perf_counter()
    assert sum(t0 < s < t1 for s in speed.starts) >= 5
    assert 0 < speed.scaled(t0, t1)


def _run_unit(name):
    r = workloads.Run(5, workloads.TINY, run.OUT_DIR)
    step, per_unit = workloads.STEPS[name]
    for _ in range(per_unit):
        step(r)
    return r


def _shifted(fn, field, by):
    def wrong(*args, **kwargs):
        result = fn(*args, **kwargs)
        return dataclasses.replace(result, **{field: getattr(result, field) + by})
    return wrong


def test_paper_checks_trip(monkeypatch):
    monkeypatch.setattr(cli, "critical_efficiency",
                        _shifted(cli.critical_efficiency, "eta_critical", 0.02))
    monkeypatch.setattr(cli, "maximize_chsh", _shifted(cli.maximize_chsh, "best_value", 1e-3))
    monkeypatch.setattr(cli, "chsh", lambda *a, **k: 2.5)
    monkeypatch.setattr(cli, "run_all", lambda: print("15/16 checks passed") or 1)
    r = _run_unit("paper")
    assert r.failed == r.attempted == len(workloads.TINY.paper_commands)


def test_table_checks_trip(monkeypatch):
    real = detection.joint_table

    def wrong(theta1, theta2, eta=1.0):
        table = real(theta1, theta2, eta)
        probs = table.probs.copy()
        probs[0, 0] += 1e-11
        return dataclasses.replace(table, probs=probs)

    monkeypatch.setattr(detection, "joint_table", wrong)
    r = _run_unit("tables")
    assert r.failed == r.attempted == 2


def test_event_checks_trip(monkeypatch):
    real_estimate = montecarlo.estimate_chsh
    real_getitem = montecarlo.EventBatch.__getitem__

    def getitem(batch, key):
        rec = real_getitem(batch, key)
        return dataclasses.replace(rec, a=-rec.a) if isinstance(key, int) else rec

    monkeypatch.setattr(montecarlo, "estimate_chsh",
                        lambda groups: (real_estimate(groups)[0] + 1e-12, 0.0))
    monkeypatch.setattr(montecarlo.EventBatch, "__getitem__", getitem)
    r = _run_unit("events")
    assert r.failed == r.attempted == 2


def test_export_checks_trip(monkeypatch):
    real = montecarlo.EventBatch.to_csv

    def wrong(batch, path):
        real(batch, path)
        with open(path, "a") as fh:
            fh.write("\n")

    monkeypatch.setattr(montecarlo.EventBatch, "to_csv", wrong)
    r = _run_unit("export")
    assert r.failed == r.attempted == 1


def test_exception_counts_as_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(montecarlo, "sample_events", broken)
    r = _run_unit("events")
    assert r.failed == r.attempted == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
