"""Golden output sums: every preset file, and four more configs, byte for byte.

``golden_outputs.json`` holds the sha256 of each file that these configs
write, in ``csv`` and ``json``, with the Python and numpy versions it was
made with.  Each config runs through ``cli.main`` in process, after the
design cache and every ``functools`` cache of ``model`` and ``design`` are
cleared, so each run is cold.  A deliberate change of output bytes edits
the golden file in the same commit; ``python tests/test_golden.py``
rewrites it from the current tree.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from hybriddet import design, model
from hybriddet.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")

#: Command-line arguments of each config, without ``--out`` and ``--format``.
CONFIGS = (
    ("roc", "--preset", "ideal"),
    ("roc", "--preset", "errorprone"),
    ("fi-landscape", "--preset", "ideal"),
    ("fi-landscape", "--preset", "errorprone"),
    ("design-quantizer", "--preset", "ideal"),
    ("design-quantizer", "--preset", "errorprone"),
    ("allocate", "--preset", "mixed"),
    ("allocate", "--preset", "mixed", "--budget-mode", "exact"),
    ("allocate", "--preset", "mixed", "--sense", "min"),
    ("sweep", "--preset", "two-mixes"),
    ("sweep", "--preset", "two-mixes", "--budget-mode", "exact"),
)
FORMATS = ("csv", "json")
KEYS = [" ".join(args + ("--format", fmt)) for args in CONFIGS for fmt in FORMATS]


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _clear_caches() -> None:
    design._DESIGN_CACHE.clear()
    for module in (model, design):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _sums(key: str, directory: Path) -> dict:
    """sha256 of each file the config ``key`` writes, by role."""
    _clear_caches()
    args = key.split()
    fmt = args[-1]
    out = directory / f"out.{fmt}"
    assert main(args + ["--out", str(out)]) == 0, key
    files = {"out": out, "distribution": out.with_name(f"out_distribution.{fmt}")}
    return {role: hashlib.sha256(path.read_bytes()).hexdigest() for role, path in files.items() if path.exists()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_config():
    golden = _golden()
    assert sorted(golden["sha256"]) == sorted(KEYS)
    assert sum(len(files) for files in golden["sha256"].values()) == 26


@pytest.mark.parametrize("key", KEYS)
def test_outputs_match_the_golden_sums(key, tmp_path):
    golden = _golden()
    made = {"python": golden["python"], "numpy": golden["numpy"]}
    want, got = golden["sha256"][key], _sums(key, tmp_path)
    assert got == want, (
        f"{key}: sha256 {got} against golden {want}; "
        f"golden made with {made}, this run with {_versions()}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sums = {key: _sums(key, Path(tmp)) for key in KEYS}
    old = _golden()["sha256"] if GOLDEN.exists() else {}
    for key in KEYS:
        before = old.get(key, {})
        for role in sorted(set(before) | set(sums[key])):
            if before.get(role) != sums[key].get(role):
                print(f"{key} [{role}]: {before.get(role)} -> {sums[key].get(role)}", file=sys.stderr)
    GOLDEN.write_text(json.dumps({**_versions(), "sha256": sums}, indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
