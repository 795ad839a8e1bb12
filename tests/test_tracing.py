"""The benchmark's tracer wraps names of ``hybriddet`` by attribute lookup;
installing it must find every one of them and uninstalling must put each
original back."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # a deleted name fails here with KeyError
        # A name wrapped twice is recorded twice; the first record holds the
        # attribute as it was before ``install``.
        originals = {}
        for owner, attr, original in tracer._patched:
            originals.setdefault((owner, attr), original)
        assert originals
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, (owner, attr)


def test_probes_count_the_live_detector(monkeypatch):
    # The statistic span and the kernel build counter must sit on the code
    # ``run_roc`` runs: one statistic call per hypothesis, block and LMPT
    # detector (1b, 3b, 3b-fp), and one kernel build per fleet.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    from tracing import Tracer

    from hybriddet.experiments import ROC_BLOCK, RocScenario, run_roc

    trials = 300
    scenario = RocScenario(
        p_e=0.2, trials=trials, thresholds_hybrid=(-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5),
        thresholds_low=(0.0,),
    )
    tracer = Tracer()
    try:
        tracer.install()
        run_roc(scenario)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    blocks = -(-trials // ROC_BLOCK)
    assert blocks == 2
    assert metrics["detection.statistic.calls"] == 2 * blocks * 3
    assert metrics["detection.kernels.builds"] == 3
