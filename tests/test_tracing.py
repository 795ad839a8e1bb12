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
