"""The benchmark's workloads run and check against the package in-process.

Both workloads call the design layer directly in their checks
(``design.PsoSettings``, ``design.optimized_thresholds`` and the design
cache), so a change to those names shows here and not only in a benchmark
run.  perfbench's ``oracles`` module shares its name with the tests' own, so
it is swapped into ``sys.modules`` for the test and back out after it.
"""

import sys
from pathlib import Path

import pytest

from hybriddet import design

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("oracles", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import workloads

    # Each benchmark round starts with a cold design cache.
    monkeypatch.setattr(design, "_DESIGN_CACHE", {})
    return workloads


@pytest.mark.parametrize("name", ("sweep-design", "roc-mc"))
def test_workload_runs_and_passes_its_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(SEED)
    if "trials" in inputs:
        inputs["trials"] = 2_000
    attempted, failed = workload.run(inputs, tmp_path)
    assert attempted > 0 and failed == 0
    assert workload.check(inputs, tmp_path) == ([], 0)
