"""Command-line interface tests: flags, config merging, error reporting."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hybriddet
from hybriddet import allocation, cli, experiments
from hybriddet.cli import PRESETS, main
from hybriddet.model import MAX_BITS

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
                 "--sense", "min", "--out", str(out), "--seed", "4"])
    assert code == 0


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
    _, cls, _ = cli._COMMANDS[command]
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
    ],
)
def test_invalid_fields_rejected_before_any_design(tmp_path, capsys, monkeypatch, command, config, field):
    # At p_e = 0.5 the channel erases every level, so the quantized-only
    # statistics are rounding noise divided by rounding noise.
    monkeypatch.setattr(experiments, "optimized_thresholds", _no_design)
    monkeypatch.setattr(allocation, "build_fi_table", _no_design)
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


def test_uninformative_channel_keeps_the_hybrid_detectors(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p_e": 0.5, "trials": 2000, "detectors": ["3b-fp", "fp"]}))
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # Only allocation needs scipy.optimize; importing it at CLI start would
    # cost every command about 0.2 s.
    env = dict(os.environ, PYTHONPATH=str(Path(hybriddet.__file__).resolve().parents[1]))
    code = "import hybriddet.cli, sys; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_errorprone_roc_leaves_scipy_optimize_unloaded(tmp_path):
    # The designs of the roc path use numpy alone; importing scipy.optimize
    # costs 0.24-0.33 s, which would land inside every ROC run.
    env = dict(os.environ, PYTHONPATH=str(Path(hybriddet.__file__).resolve().parents[1]))
    out_csv = tmp_path / "roc.csv"
    code = (
        "import sys; from hybriddet import cli; "
        f"code = cli.main(['roc', '--preset', 'errorprone', '--trials', '200', '--out', {str(out_csv)!r}]); "
        "print(code, 'scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"
