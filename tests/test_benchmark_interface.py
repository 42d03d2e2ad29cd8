"""The parts of biphoton the benchmark in ``perfbench/`` relies on.

The benchmark's own smoke test is slow and runs outside this suite, so
these checks keep a change to the package's names or CLI flags from
breaking the benchmark unseen.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def test_warm_up_and_paper_commands_run(perfbench, tmp_path):
    workloads, _ = perfbench
    workloads.warm_up(tmp_path)
    for argv in workloads.TINY.paper_commands:
        rc, out = workloads.run_cli(argv)
        assert workloads.check_paper(argv, rc, out) == [], argv


def test_every_traced_name_resolves(perfbench):
    _, tracing = perfbench
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"biphoton.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                assert part in vars(owner), f"biphoton.{layer}.{name}"
                owner = vars(owner)[part]
