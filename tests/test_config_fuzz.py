"""Config fuzzing: every config either runs to finite cells or is refused cleanly.

Configs are drawn from the field types of each command's scenario
dataclass, the types the CLI's coercion reads, with extreme finite floats
among the draws.  Each config sets the required fields, the fields that
size the work and at most two others, so that many get past validation and
run.  ``theta`` is set in every config that has it, near the float
maximum half the time, where the per-trial sums of ``roc`` and the
noncentralities of ``sweep`` overflow unless the config is refused.  No
run may print a warning.  Counts, fleet sizes and
bit depths stay small, so that no draw allocates or designs much.  Only
``allocate`` may exit 3, and only where counting the bits that some
assignment can spend finds that none fits the budget; a ``sweep`` row says
``infeasible`` exactly there too.
"""

import contextlib
import csv
import dataclasses
import enum
import io
import json
import math
import sys
import types
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybriddet import cli

#: Finite floats of every size, with the unit interval and a few extremes
#: drawn often enough that configs get past validation.
FLOATS = st.one_of(
    st.floats(0.0, 0.5),
    st.floats(-2.0, 2.0),
    st.sampled_from((1e-300, 1e300, 5e-324, 2.2250738585072014e-308, sys.float_info.max, 1e-6, 1e6)),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: Small draws for the integer fields that size the work, each with one
#: value out of range (last: hypothesis draws the first values most); the
#: fields of ``SIZES`` are set in every config, so that no default sizes it
#: either.  ``points`` is also drawn above the memory cap of the landscape,
#: which is refused before anything is allocated, and never between.
#: ``m_quantized`` and ``m_full`` are drawn at 10**9 too, which ``roc``
#: runs: a trial draws its sums and level counts, so no fleet size sets its
#: cost or its memory, and no fleet is refused for them.  The allocation's
#: sizes fall on both sides of its memory cap: ``m_total`` and ``m_values``
#: are drawn small or at 10**9, and ``budget`` (a size too, since it sets
#: the program's width) at 300 or less or at 10**19 or more, drawn first.
#: 10**9 sensors pass the cap with the large budgets, and are infeasible
#: with the small ones.
BITS = st.sampled_from((2, 1, 3, 0))
INTS = {
    "trials": st.sampled_from((10, 1, 20, 0)),
    "points": st.sampled_from((2, 1, 5, 20_000, 10**8, 0)),
    "m_quantized": st.sampled_from((3, 1, 6, 0, 10**9, -1)),
    "m_full": st.sampled_from((3, 1, 6, 0, 10**9, -1)),
    "m_total": st.sampled_from((10, 10**9, 20, 7, 0)),
    "m_values": st.sampled_from((10, 10**9, 20, 7, 0)),
    "bits": BITS,
    "bits_hybrid": BITS,
    "bits_low": BITS,
    "max_bits": BITS,
    "budget": st.one_of(st.sampled_from((10**19, 10**20, 10**30)), st.integers(-1, 300)),
    "l0": st.integers(-1, 40),
}
SIZES = {"trials", "points", "m_quantized", "m_full", "m_total", "m_values", "budget"}
THETA = st.one_of(st.floats(1e300, sys.float_info.max), FLOATS)
NAMES = ("clairvoyant", "1b", "2b", "3b", "fp", "3b-fp", "r-3b-fp", "2b-fp", "bgda", "pso", "x")
#: Frequencies of the default four error categories, or any short list.
FREQS = st.one_of(st.sampled_from(([0.4, 0.3, 0.2, 0.1], [0.6, 0.2, 0.1, 0.1], [0.1, 0.1, 0.2, 0.6])), st.lists(FLOATS, max_size=4))


def _strategy(name: str, hint):
    """Config values of the declared type ``hint`` of field ``name``, as JSON values."""
    if isinstance(hint, types.UnionType):
        return st.one_of(*(_strategy(name, arg) for arg in typing.get_args(hint)))
    if hint is type(None):
        return st.none()
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        if name == "freqs":
            return FREQS
        if name == "m_values":
            return st.lists(_strategy(name, item), min_size=1, max_size=2, unique=True)
        if name == "cases":
            return st.lists(_strategy(name, item), min_size=1, max_size=2, unique_by=lambda case: case.get("name"))
        return st.lists(_strategy(name, item), max_size=4)
    if isinstance(hint, enum.EnumMeta):
        return st.sampled_from([member.value for member in hint] * 3 + ["x"])
    if dataclasses.is_dataclass(hint):
        return _configs(hint)
    if hint is float:
        return THETA if name == "theta" else FLOATS
    if hint is int:
        return INTS.get(name, st.integers(0, 2**32))
    if hint is str:
        return st.sampled_from(NAMES)
    raise TypeError(f"no strategy for {name}: {hint}")


@st.composite
def _configs(draw, cls):
    """A config object for dataclass ``cls``: its required and size fields and up to two others."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING or f.name in SIZES | {"theta"}]
    optional = [f.name for f in fields if f.name not in required]
    names = required + (draw(st.lists(st.sampled_from(optional), max_size=2, unique=True)) if optional else [])
    return {name: draw(_strategy(name, hints[name])) for name in names}


def _cells(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [cell for row in rows[1:] for cell in row]


def _fits(m: int, config: dict) -> bool:
    """Whether any assignment of ``m`` sensors meets the config's budget, by
    counting alone: with ``k`` sensors at full precision and the rest at 1 to
    ``max_bits`` bits each, an assignment spends every whole number of bits
    from ``(m - k) + k * l0`` to ``(m - k) * max_bits + k * l0``."""
    budget, l0, max_bits, mode = (config[key] for key in ("budget", "l0", "max_bits", "budget_mode"))
    if getattr(mode, "value", mode) == "atmost":
        return m <= budget
    if not m <= budget <= m * max(l0, max_bits):  # outside every split's range, without counting them
        return False
    return any((m - k) + k * l0 <= budget <= (m - k) * max_bits + k * l0 for k in range(m + 1))


def _run(command: str, config: dict, out_dir: Path) -> tuple:
    """Run ``command`` on ``config`` in process: its exit code, its stderr,
    the warnings it printed and its summary rows (``None`` on failure)."""
    path = out_dir / "config.json"
    path.write_text(json.dumps(config))
    out = out_dir / "out.csv"
    tables = (out, Path(cli._distribution_path(str(out))))
    for table in tables:
        table.unlink(missing_ok=True)
    err = io.StringIO()
    # Warnings are recorded here, where the command line would print them.
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings(
        record=True
    ) as printed:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", str(path), "--out", str(out)])
    if code:
        return code, err.getvalue(), printed, None
    for table in tables:
        if table.exists():
            for cell in _cells(table):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(cell)), (config, cell)
    with open(out, newline="") as fh:
        return code, err.getvalue(), printed, list(csv.DictReader(fh))


def _check_verdicts(command: str, config: dict, code: int, rows) -> list:
    """Assert that ``allocate`` exits 3, and that a ``sweep`` row says
    ``infeasible``, exactly where ``_fits`` finds no assignment; no other
    command exits 3.  Returns the verdicts checked."""
    assert code in ((0, 2, 3) if command == "allocate" else (0, 2)), config
    resolved = {field.name: field.default for field in dataclasses.fields(cli._COMMANDS[command][1])} | config
    if command == "allocate" and code != 2:
        assert (code == 3) == (not _fits(resolved["m_total"], resolved)), config
        return [code == 3]
    if command == "sweep" and code == 0:
        verdicts = [row["status"] == "infeasible" for row in rows]
        assert verdicts == [not _fits(int(row["m_total"]), resolved) for row in rows], config
        return verdicts
    return []


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_config_runs_or_is_refused_cleanly(tmp_path_factory, command):
    cls = cli._COMMANDS[command][1]
    out_dir = tmp_path_factory.mktemp(command)

    @settings(
        max_examples=40, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(config=_configs(cls))
    def check(config):
        code, err, printed, rows = _run(command, config, out_dir)
        _check_verdicts(command, config, code, rows)
        assert not printed, config
        if code:
            assert "Traceback" not in err, config
            assert isinstance(json.loads(err), dict), config

    check()


@pytest.mark.parametrize("command", ["allocate", "sweep"])
def test_exit_3_exactly_where_counting_finds_no_assignment(tmp_path_factory, command):
    # Valid budgets only, often one bit either side of the least or the
    # most that some split of a fleet spends, where the verdict turns.
    out_dir = tmp_path_factory.mktemp(command)
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        quarters=st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
        l0=st.integers(1, 12),
        max_bits=st.integers(1, 3),
        budget_mode=st.sampled_from(("atmost", "exact")),
        data=st.data(),
    )
    def check(quarters, l0, max_bits, budget_mode, data):
        m_values = [4 * q for q in quarters]
        edges = {
            spend + step
            for m in m_values
            for k in range(m + 1)
            for spend in ((m - k) + k * l0, (m - k) * max_bits + k * l0)
            for step in (-1, 0, 1)
        }
        budget = data.draw(st.sampled_from(sorted(edges)) | st.integers(0, max(m_values) * max(l0, max_bits) + 2))
        config = {"epsilons": [0.0, 0.2], "budget": budget, "l0": l0, "max_bits": max_bits, "budget_mode": budget_mode}
        if command == "allocate":
            config |= {"freqs": [0.25, 0.75], "m_total": m_values[0]}
        else:
            cases = [{"name": "even", "freqs": [0.5, 0.5]}, {"name": "skewed", "freqs": [0.25, 0.75]}]
            config |= {"cases": cases, "m_values": m_values}
        code, err, _, rows = _run(command, config, out_dir)
        assert code in (0, 3), err
        seen.update(_check_verdicts(command, config, code, rows))

    check()
    assert seen == {True, False}
