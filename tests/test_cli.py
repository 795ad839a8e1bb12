"""Command-line interface tests: flags, config merging, error reporting."""

import argparse
import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import hybriddet
from hybriddet import allocation, cli, design, experiments
from hybriddet.cli import PRESETS, main
from hybriddet.model import GAUSSIAN_REACH, MAX_BITS

from oracles import load_table


def test_roc_with_preset_and_trials_override(tmp_path, capsys):
    out = tmp_path / "roc.csv"
    code = main(["roc", "--preset", "ideal", "--trials", "200", "--out", str(out)])
    assert code == 0
    assert out.exists()
    table = load_table(out, "csv")
    assert table.columns[0] == "detector"
    assert "wrote" in capsys.readouterr().out


def test_json_format(tmp_path):
    out = tmp_path / "design.json"
    code = main(["design-quantizer", "--preset", "ideal", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1


def test_config_file_merges_over_preset(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 150, "m_quantized": 6, "m_full": 3}))
    out = tmp_path / "roc.csv"
    code = main(["roc", "--preset", "ideal", "--config", str(cfg), "--out", str(out)])
    assert code == 0


def test_unknown_preset_fails_with_json_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["roc", "--preset", "nope", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "unknown preset" in err["error"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unwritable_output_path_fails_with_json_error(tmp_path, capsys, fmt):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 5}))
    out = tmp_path / "missing" / "x.csv"
    code = main(["fi-landscape", "--config", str(cfg), "--format", fmt, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert str(out) in error
    assert "No such file or directory" in error


def _no_run(*_args, **_kwargs):
    raise AssertionError("the command ran before its output directory was checked")


@pytest.mark.parametrize("command, preset", [("roc", "errorprone"), ("sweep", "two-mixes")])
@pytest.mark.parametrize("parent, reason", [("missing", "No such file or directory"), ("file", "Not a directory")])
def test_bad_output_directory_is_refused_before_the_run(tmp_path, capsys, monkeypatch, command, preset, parent, reason):
    for name in ("run_roc", "run_sweep"):
        monkeypatch.setattr(cli, name, _no_run)
    (tmp_path / "file").write_text("")
    out = tmp_path / parent / "x.csv"
    code = main([command, "--preset", preset, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"cannot write output file {out}: {reason}"


@pytest.mark.parametrize(
    "command, preset, directory",
    [("roc", "errorprone", "x.csv"), ("sweep", "two-mixes", "x.csv"), ("sweep", "two-mixes", "x_distribution.csv")],
)
def test_output_path_that_is_a_directory_is_refused_before_the_run(
    tmp_path, capsys, monkeypatch, command, preset, directory
):
    for name in ("run_roc", "run_sweep"):
        monkeypatch.setattr(cli, name, _no_run)
    (tmp_path / directory).mkdir()
    code = main([command, "--preset", preset, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"cannot write output file {tmp_path / directory}: Is a directory"
    assert sorted(path.name for path in tmp_path.iterdir()) == [directory]


@pytest.mark.parametrize("earlier", [False, True])
def test_sweep_writes_both_tables_or_neither(tmp_path, capsys, monkeypatch, earlier):
    out, second = tmp_path / "s.csv", tmp_path / "s_distribution.csv"
    if earlier:
        out.write_text("earlier\n")
    emit, written = cli.emit, []

    def second_fails(table, fmt, path):
        written.append(path)
        if len(written) == 2:
            raise OSError(28, "No space left on device")
        emit(table, fmt, path)

    monkeypatch.setattr(cli, "emit", second_fails)
    code = main(["sweep", "--preset", "two-mixes", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert json.loads(captured.err)["error"] == f"cannot write output file {second}: No space left on device"
    # Each table went to a new file of its own in the target directory,
    # and none is left behind.
    assert [Path(path).parent for path in written] == [tmp_path, tmp_path]
    assert not {out, second} & {Path(path) for path in written}
    assert sorted(path.name for path in tmp_path.iterdir()) == (["s.csv"] if earlier else [])
    if earlier:
        assert out.read_text() == "earlier\n"


def test_output_through_a_symbolic_link_writes_its_target(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("earlier\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["design-quantizer", "--preset", "ideal", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert load_table(target, "csv").columns[0] == "method"


def test_output_to_a_fifo_is_written_into_it(tmp_path):
    # A FIFO is no file to replace: the table goes through it.  The read end
    # is open first, so the write does not wait for a reader and the test
    # cannot hang; a replaced FIFO would leave it empty.
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["design-quantizer", "--preset", "ideal", "--out", str(fifo)]) == 0
        text = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert text.startswith("method,")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pipe.csv"]


def test_an_earlier_output_keeps_its_permissions_and_links(tmp_path):
    private, shared, link = tmp_path / "private.csv", tmp_path / "shared.csv", tmp_path / "link.csv"
    for path in (private, shared):
        path.write_text("earlier\n")
    private.chmod(0o600)
    os.link(shared, link)
    for path in (private, shared):
        assert main(["design-quantizer", "--preset", "ideal", "--out", str(path)]) == 0
    assert stat.S_IMODE(private.stat().st_mode) == 0o600
    # A file with another link is written in place, so the link sees it.
    assert os.path.samefile(shared, link)
    assert load_table(link, "csv").columns[0] == "method"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "private.csv", "shared.csv"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    out = tmp_path / "x.csv"
    code = main(["roc", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "unknown config keys" in json.loads(capsys.readouterr().err)["error"]


def test_infeasible_allocation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "epsilons": [0.0], "freqs": [1.0], "m_total": 5, "budget": 3, "max_bits": 1,
    }))
    out = tmp_path / "x.csv"
    code = main(["allocate", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert "error" in json.loads(capsys.readouterr().err)


@pytest.mark.parametrize(
    "config, message",
    [
        pytest.param({"m_total": 1_000_000}, "500 bits cannot give each of 1000000 sensors one bit",
                     id="budget-below-one-bit-each"),
        pytest.param({"m_total": 60, "budget": 10}, "10 bits cannot give each of 60 sensors one bit",
                     id="small-budget-below-one-bit-each"),
        pytest.param({"m_total": 100, "budget": 3201, "budget_mode": "exact"},
                     "no assignment consumes exactly 3201 bits; none spends over 3200",
                     id="exact-above-every-assignment"),
    ],
)
def test_infeasible_budget_exits_before_the_dynamic_program(tmp_path, capsys, monkeypatch, config, message):
    # 500 bits cannot give a million sensors one bit each, and no assignment
    # of 100 sensors spends more than 100 * 32 bits: both are settled by
    # counting, before the information table is designed.
    def unexpected(*args):
        raise AssertionError("the information table or the dynamic program ran")

    for owner, name in ((allocation, "_sensor_program"), (allocation, "build_fi_table"),
                        (allocation, "optimized_cells"), (design, "optimized_cells")):
        monkeypatch.setattr(owner, name, unexpected)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    code = main(["allocate", "--preset", "mixed", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == message
    assert not out.exists()


def test_sweep_refused_at_every_fleet_designs_nothing(tmp_path, capsys, monkeypatch):
    # 10 bits cannot give each sensor of any two-mixes fleet one bit: every
    # point is infeasible by counting, and its rows need no information table.
    def unexpected(*args):
        raise AssertionError("the information table was designed")

    for owner, name in ((allocation, "build_fi_table"), (allocation, "optimized_cells"),
                        (design, "optimized_cells")):
        monkeypatch.setattr(owner, name, unexpected)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": 10}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--preset", "two-mixes", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    defaults = experiments.SweepScenario
    summary = load_table(out, "csv")
    assert summary.columns == experiments.SWEEP_COLUMNS
    assert summary.rows == [
        (case, m, sense.value, "infeasible", None, None, None, None)
        for case in ("favorable", "adverse") for m in defaults.m_values for sense in defaults.senses
    ]
    assert len(summary.rows) == 36
    distribution = load_table(tmp_path / "sweep_distribution.csv", "csv")
    assert (distribution.columns, distribution.rows) == (experiments.DISTRIBUTION_COLUMNS, [])


#: Small configs of the commands whose noise level once overflowed a power of sigma_n.
EXTREME_NOISE_CONFIGS = [
    ("roc", {"trials": 10}),
    ("design-quantizer", {"methods": ["bgda", "pso"]}),
    ("allocate", {}),
    ("sweep", {"cases": [{"name": "a", "freqs": [1.0]}], "epsilons": [0.1], "m_values": [20]}),
]


@pytest.mark.parametrize("sigma_n2", [1e300, 1e-300, 5e-324])
@pytest.mark.parametrize("command, config", EXTREME_NOISE_CONFIGS)
def test_extreme_noise_levels_give_finite_cells_or_name_the_field(tmp_path, capsys, command, config, sigma_n2):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "sigma_n2": sigma_n2}))
    out = tmp_path / "out.csv"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    if sigma_n2 == 5e-324:
        # One sensor's information, 1 / sigma_n2, overflows.
        assert code == 2
        assert "sigma_n2" in json.loads(capsys.readouterr().err)["error"]
        return
    assert code == 0
    table = load_table(out, "csv")
    numbers = [v for row in table.rows for v in row if isinstance(v, float)]
    assert numbers and all(math.isfinite(v) for v in numbers)


@pytest.mark.parametrize(
    "command, config",
    [
        ("fi-landscape", {"tau_lo": -1e200, "tau_hi": 1e200, "points": 5}),
    ],
)
def test_thresholds_whose_square_overflows_run_without_a_warning(tmp_path, command, config):
    # A RuntimeWarning fails this test (pyproject's filterwarnings): the
    # Gaussian density at such a threshold is an exact 0, not an overflow.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    numbers = [v for row in load_table(out, "csv").rows for v in row if isinstance(v, float)]
    assert numbers and all(math.isfinite(v) for v in numbers)


def test_swarm_box_beyond_the_gaussian_reach_is_refused(tmp_path, capsys):
    # Beyond GAUSSIAN_REACH every tail underflows: a swarm started in a box
    # of 1e200 deviations scores every particle exactly 0.  At the reach
    # itself it still finds the design.
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"tau_max": 1e200, "methods": ["pso"]}))
    assert main(["design-quantizer", "--config", str(cfg), "--out", str(out)]) == 2
    assert "tau_max" in json.loads(capsys.readouterr().err)["error"]
    cfg.write_text(json.dumps({"tau_max": GAUSSIAN_REACH, "methods": ["pso"]}))
    assert main(["design-quantizer", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = load_table(out, "csv").rows
    assert row[4] > 0.0


@pytest.mark.parametrize("command, preset", [("roc", "errorprone"), ("sweep", "two-mixes")])
def test_theta_whose_sums_overflow_is_refused(tmp_path, capsys, command, preset):
    # Without the bound, roc printed two overflow warnings and exited 0,
    # and sweep wrote an infinite noncentrality.
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"theta": 1e308, "trials": 10} if command == "roc" else {"theta": 1e308}))
    assert main([command, "--preset", preset, "--config", str(cfg), "--out", str(out)]) == 2
    assert "theta" in json.loads(capsys.readouterr().err)["error"]


def test_theta_below_the_bound_runs_clean(tmp_path):
    # The preset fleet accepts theta up to about 6.5e304; there every
    # observation and sum is finite, and no RuntimeWarning is printed.
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({"theta": 1e304, "trials": 50}))
    assert main(["roc", "--preset", "errorprone", "--config", str(cfg), "--out", str(out)]) == 0
    numbers = [v for row in load_table(out, "csv").rows for v in row if isinstance(v, float)]
    assert numbers and all(math.isfinite(v) for v in numbers)


def test_huge_at_most_budget_is_the_budget_that_promotes_everyone(tmp_path):
    # No assignment of the mixed preset's 60 sensors spends more than
    # 60 * 32 bits; a budget of 1e20 is solved at that cap.
    tables = []
    for budget in (1920, 10**20):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": budget}))
        out = tmp_path / f"{budget}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["allocate", "--preset", "mixed", "--config", str(cfg), "--out", str(out)]) == 0
        tables.append(load_table(out, "csv").rows)
    assert tables[0] == tables[1]


def test_sweep_writes_companion_distribution(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_values": [20]}))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--preset", "two-mixes", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    assert (tmp_path / "sweep_distribution.csv").exists()


def test_sweep_sense_flag_selects_one_sense(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_values": [20, 30]}))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--preset", "two-mixes", "--config", str(cfg),
                 "--sense", "min", "--out", str(out)])
    assert code == 0
    table = load_table(out, "csv")
    sense = table.columns.index("sense")
    assert len(table.rows) == 4
    assert {row[sense] for row in table.rows} == {"min"}
    dist = load_table(tmp_path / "sweep_distribution.csv", "csv")
    assert {row[dist.columns.index("sense")] for row in dist.rows} == {"min"}


def test_budget_mode_flag(tmp_path):
    out = tmp_path / "a.csv"
    code = main(["allocate", "--preset", "mixed", "--budget-mode", "exact",
                 "--sense", "min", "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("command", ["fi-landscape", "allocate", "sweep"])
def test_seed_flag_is_refused_where_no_runner_reads_it(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "5", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_seed_flag_is_registered_exactly_for_scenarios_with_a_seed():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    offered = {command for command, p in sub.choices.items() if "--seed" in p._option_string_actions}
    seeded = {command for command, (_, cls, _, _) in cli._COMMANDS.items()
              if "seed" in {f.name for f in dataclasses.fields(cls)}}
    assert offered == seeded == {"roc", "design-quantizer"}


def test_every_preset_is_registered_for_a_real_command():
    commands = {"roc", "fi-landscape", "design-quantizer", "allocate", "sweep"}
    assert {cmd for cmd, _ in PRESETS} <= commands
    for cmd in commands:
        assert any(c == cmd for c, _ in PRESETS)
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._COMMANDS) == commands


@pytest.mark.parametrize("command, preset", sorted(PRESETS))
def test_preset_scenario_survives_a_json_round_trip(command, preset):
    # Every field written out the way a config file states it (enums as
    # their values, tuples as lists, nested dataclasses as objects) builds
    # the same scenario again.
    _, cls, _, _ = cli._COMMANDS[command]
    scenario = cli._build_scenario(cls, PRESETS[command, preset])
    text = json.dumps(dataclasses.asdict(scenario), default=lambda member: member.value)
    assert cli._build_scenario(cls, json.loads(text)) == scenario


@pytest.mark.parametrize(
    "command, text",
    [
        ("roc", '{"theta": NaN}'),
        ("fi-landscape", '{"tau_lo": Infinity}'),
    ],
)
def test_non_finite_json_constants_rejected(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "non-finite" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("roc", {"trials": 10.5}),
        ("roc", {"m_quantized": 2.5}),
        ("roc", {"bits_hybrid": 2.5}),
        ("roc", {"theta": "abc"}),
        ("roc", {"seed": 1.5}),
        ("roc", {"theta": True}),
        ("roc", {"pfa_grid": 0.1}),
        ("roc", {"thresholds_hybrid": [0.0, "x"]}),
        ("roc", {"detectors": ["fp", "fp"]}),
        ("allocate", {"budget": "500"}),
        ("allocate", {"max_bits": 2.5}),
        ("fi-landscape", {"points": 10.5}),
        ("design-quantizer", {"bits": 2.5}),
        ("design-quantizer", {"p_e": "0.1"}),
        # An object where a list is declared is refused, not read as its keys.
        ("roc", {"detectors": {"fp": 1, "3b-fp": 2}, "trials": 300}),
        ("roc", {"pfa_grid": {"0.1": 1}, "trials": 300}),
        ("sweep", {"cases": {"favorable": {"name": "favorable", "freqs": [0.6, 0.2, 0.1, 0.1]}}}),
    ],
)
def test_mistyped_config_values_rejected(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "error" in json.loads(err)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("roc", {"trials": 10, "bits_hybrid": 40}),
        ("roc", {"trials": 10, "bits_hybrid": 20}),
        ("roc", {"trials": 10, "bits_low": 9}),
        ("design-quantizer", {"bits": 40}),
        ("design-quantizer", {"bits": 9}),
        ("allocate", {"max_bits": 9}),
        ("sweep", {"max_bits": 40, "cases": [{"name": "a", "freqs": [0.5, 0.5, 0, 0]}]}),
    ],
)
def test_bit_depths_beyond_the_limit_rejected(tmp_path, capsys, command, config):
    # Tables grow as 2**bits and the channel kernel as 4**bits, so a depth
    # past the limit is refused before anything is built or designed.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        code = main([command, "--config", str(cfg), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"[1, {MAX_BITS}]" in json.loads(err)["error"]
    assert peak < 2**20
    assert not out.exists()


def _no_design(*_args, **_kwargs):
    raise AssertionError("a design ran before the configuration was checked")


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("roc", {"theta": -1}, "theta"),
        ("roc", {"sigma_n2": -1}, "sigma_n2"),
        ("roc", {"sigma_n2": 0}, "sigma_n2"),
        ("roc", {"sigma_h2": -0.5}, "sigma_h2"),
        ("roc", {"p_e": 0.7}, "p_e"),
        ("roc", {"p_e": 0.5, "trials": 2000, "detectors": ["3b"]}, "p_e"),
        ("roc", {"p_e": 0.5, "trials": 2000, "detectors": ["1b"]}, "p_e"),
        ("roc", {"p_e": 0.5, "trials": 2000}, "p_e"),
        ("roc", {"l0": 32}, "l0"),
        ("sweep", {"theta": -1, "m_values": [20]}, "theta"),
        ("sweep", {"pfa": 1.5, "m_values": [20]}, "pfa"),
        ("sweep", {"budget": -5, "m_values": [20]}, "budget"),
        ("sweep", {"l0": 0, "m_values": [20]}, "l0"),
        ("allocate", {"budget": -5}, "budget"),
        ("allocate", {"l0": 0}, "l0"),
        ("sweep", {"m_values": [25]}, "not integral"),
        ("sweep", {"cases": [{"name": "a", "freqs": [0.5, 0.5]}], "m_values": [20]}, "freqs"),
        ("roc", {"pfa_grid": []}, "pfa_grid"),
        # An empty grid would write a header-only table, and a repeated
        # (case, m_total, sense) point a repeated row.
        ("sweep", {"senses": []}, "senses"),
        ("sweep", {"m_values": []}, "m_values"),
        ("sweep", {"cases": []}, "cases"),
        ("sweep", {"m_values": [20, 20]}, "m_values"),
        ("sweep", {"cases": [{"name": "a", "freqs": [0.6, 0.2, 0.1, 0.1]},
                             {"name": "a", "freqs": [0.1, 0.1, 0.2, 0.6]}], "m_values": [20]}, "cases"),
        ("sweep", {"senses": ["max", "max"], "m_values": [20]}, "senses"),
        # A given threshold set is checked before the other set is designed.
        ("roc", {"thresholds_low": [0.1, 0.2]}, "thresholds_low"),
        ("roc", {"bits_low": 2, "thresholds_low": [0.5, 0.0, 1.0]}, "thresholds_low"),
        ("roc", {"thresholds_hybrid": [0.0, 1.0]}, "thresholds_hybrid"),
        ("roc", {"thresholds_hybrid": [1.5, 1.0, 0.5, 0.0, -0.5, -1.0, -1.5]}, "thresholds_hybrid"),
        # Every sample lands in the bottom cell, so the 1b detector has no
        # information: refused before its statistic divides by zero.
        ("roc", {"thresholds_low": [1e308]}, "thresholds_low"),
        # A threshold over sigma_n that overflows is refused before numpy
        # warns of it.
        ("roc", {"sigma_n2": 1e-300, "thresholds_low": [1e300], "detectors": ["1b"]}, "thresholds_low"),
        ("roc", {"sigma_n2": 1e-300, "thresholds_hybrid": [-1e300, -1.0, -0.5, 0.0, 0.5, 1.0, 1e300],
                 "detectors": ["3b-fp", "r-3b-fp"]}, "thresholds_hybrid"),
        # The design commands check their fields before they design.
        ("fi-landscape", {"points": 0}, "points"),
        ("fi-landscape", {"points": -1}, "points"),
        ("fi-landscape", {"bits": 3}, "bits"),
        ("design-quantizer", {"methods": []}, "methods"),
        ("design-quantizer", {"methods": ["pso", "pso"]}, "methods"),
        ("design-quantizer", {"methods": ["pso", "nope"]}, "methods"),
        # The ascent's first step is a constant, not a config key.
        ("design-quantizer", {"bgda_step": 0.5}, "bgda_step"),
        ("design-quantizer", {"p_e": 0.2, "methods": ["pso", "bgda"]}, "bgda"),
        ("design-quantizer", {"methods": ["pso", "bgda"], "bgda_init": [0.0, 1.0]}, "bgda_init"),
        ("design-quantizer", {"sigma_n2": 1e-300, "bgda_init": [-1e300, 0.0, 1e300], "methods": ["bgda"]},
         "bgda_init"),
        # Landscape grids are 2-bit only, and every codeword is natural
        # binary: neither is a config key.
        ("fi-landscape", {"bits": 2}, "bits"),
        *[(command, {"mapping": "natural"}, "mapping") for command in ("roc", "sweep", "fi-landscape", "design-quantizer", "allocate")],
        # The table designs take one fixed seed, so only the commands whose
        # runner reads a seed have one.
        *[(command, {"seed": 5}, "seed") for command in ("fi-landscape", "allocate", "sweep")],
        # Refused by its estimated size, before the grid is allocated.
        ("fi-landscape", {"points": 20_000}, "points"),
        # A trial draws its sums and level counts, not its sensors, so no
        # fleet is too large to run; the counts are 64-bit integers.
        ("roc", {"m_quantized": 2**63}, "m_quantized"),
        ("roc", {"m_quantized": 0, "m_full": 2**63, "detectors": ["fp"]}, "m_full"),
        # Refused by the estimated size of the allocation program, before
        # the information table is built.
        ("allocate", {"m_total": 10**9, "budget": 10**19}, "m_total"),
        ("allocate", {"l0": 10**9, "budget": 10**12}, "budget"),
        ("sweep", {"m_values": [10**9], "budget": 10**19}, "m_values"),
        # Refused by the estimated size of its tables and blocks of trials,
        # before any block is drawn.
        ("roc", {"pfa_grid": [k / 100_001 for k in range(1, 100_001)]}, "pfa_grid"),
    ],
)
def test_invalid_fields_rejected_before_any_design(tmp_path, capsys, monkeypatch, command, config, field):
    # At p_e = 0.5 the channel erases every level, so the quantized-only
    # statistics are rounding noise divided by rounding noise.
    monkeypatch.setattr(experiments, "optimized_thresholds", _no_design)
    monkeypatch.setattr(allocation, "build_fi_table", _no_design)
    for name in ("design_pso", "design_bgda", "fi_landscape", "trial_rng"):
        monkeypatch.setattr(experiments, name, _no_design)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    preset = {"sweep": ["--preset", "two-mixes"], "allocate": ["--preset", "mixed"]}.get(command, [])
    code = main([command, *preset, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert field in error
    # Raised while the scenario is built, not later by the run.
    assert error.startswith(("invalid configuration:", "unknown config keys"))
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"p_e": 0.5},
        # No sample passes the lowest threshold, so the levels tell nothing.
        {"thresholds_hybrid": [k * 1e300 for k in range(1, 8)]},
    ],
    ids=["erasing-channel", "zero-information-thresholds"],
)
def test_uninformative_channel_keeps_the_hybrid_detectors(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "trials": 2000, "detectors": ["3b-fp", "fp"]}))
    out = tmp_path / "roc.csv"
    assert main(["roc", "--config", str(cfg), "--out", str(out)]) == 0
    assert {row[0] for row in load_table(out, "csv").rows} == {"3b-fp", "fp"}


def test_landscape_on_a_zero_width_axis_has_only_invalid_cells(tmp_path):
    # The grid's axis bounds are not a search box: a zero-width axis gives a
    # grid of invalid (non-increasing) triples, not a configuration error.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_lo": 0.0, "tau_hi": 0.0, "points": 3}))
    out = tmp_path / "landscape.csv"
    assert main(["fi-landscape", "--config", str(cfg), "--out", str(out)]) == 0
    rows = load_table(out, "csv").rows
    assert len(rows) == 9
    assert all(row[2] is None for row in rows)


def test_sweep_case_without_freqs_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cases": [{"name": "favorable"}]}))
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "sweep case 0" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "config, error",
    [
        ({}, "missing config keys ['cases'] for SweepScenario"),
        ({"cases": [{"freqs": [1.0]}]}, "sweep case 0: missing config keys ['name'] for SweepCase"),
        ({"cases": [{"name": "a", "freqs": [1.0]}, {"name": "b"}]},
         "sweep case 1: missing config keys ['freqs'] for SweepCase"),
    ],
)
def test_missing_config_keys_are_named(tmp_path, capsys, config, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == error
    assert not out.exists()


#: Run in a fresh interpreter with the command and presets as ``sys.argv``.
#: Records every scipy module looked up.  Prints the presets' exit codes, the
#: scipy modules looked up, and whether scipy and ``numpy.ma`` were loaded at
#: the end.  ``numpy.ma`` costs a fresh interpreter 8-10 ms and 0.7 MB;
#: ``np.median`` and ``np.unique`` import it.
_SCIPY_GUARD = """
import sys

class Guard:
    stray = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            self.stray.append(name)
        return None

sys.meta_path.insert(0, Guard())
import hybriddet.cli
command, out = sys.argv[1], sys.argv[2]
extra = ["--trials", "200"] if command == "roc" else []
codes = [hybriddet.cli.main([command, "--preset", preset, "--out", out] + extra) for preset in sys.argv[3:]]
print(codes, Guard.stray, "scipy" in sys.modules, "numpy.ma" in sys.modules)
"""


def _run_python(*argv):
    """Stdout lines of a fresh interpreter run on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(hybriddet.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, check=True).stdout.splitlines()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # Importing scipy costs every command about 0.3 s at start.  The Gaussian
    # tail and its inverse come from the standard library, so importing the
    # CLI loads no scipy module at all.
    code = "import hybriddet.cli, sys; print(any(name.partition('.')[0] == 'scipy' for name in sys.modules))"
    assert _run_python("-c", code) == ["False"]


def test_errorprone_roc_leaves_scipy_optimize_unloaded(tmp_path):
    # Both roc presets, the error-prone one with its bit flips included, run
    # without importing any scipy module.
    lines = _run_python("-c", _SCIPY_GUARD, "roc", str(tmp_path / "out.csv"), "ideal", "errorprone")
    assert lines[-1] == "[0, 0] [] False False"


@pytest.mark.parametrize(
    "command, presets",
    [
        pytest.param("fi-landscape", ("ideal", "errorprone"), id="fi-landscape"),
        pytest.param("design-quantizer", ("ideal", "errorprone"), id="design-quantizer"),
        pytest.param("allocate", ("mixed",), id="allocate"),
        pytest.param("sweep", ("two-mixes",), id="sweep"),
    ],
)
def test_commands_load_scipy_only_through_the_solver(tmp_path, command, presets):
    # The allocation is solved by a numpy dynamic program, and HiGHS
    # (``allocation.solve_ilp``) is only a test oracle, so no command loads
    # any scipy module, the allocation commands included.
    lines = _run_python("-c", _SCIPY_GUARD, command, str(tmp_path / "out.csv"), *presets)
    assert lines[-1] == f"{[0] * len(presets)} [] False False"
