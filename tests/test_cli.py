"""Command-line interface tests: flags, config merging, error reporting."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hybriddet
from hybriddet.cli import PRESETS, main
from hybriddet.experiments import load_table
from hybriddet.model import MAX_BITS


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
