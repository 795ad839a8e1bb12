"""Command-line experiment runner.

Subcommands: ``roc``, ``fi-landscape``, ``design-quantizer``, ``allocate``,
``sweep``.  Each takes a named preset and/or a JSON config file; explicit
flags override both.  Outputs are deterministic for a fixed seed.  On
validation errors or infeasible instances a machine-readable JSON object
is printed to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import types
import typing
from pathlib import Path

from .allocation import AllocationInfeasibleError, BudgetMode, Sense
from .experiments import (
    AllocateScenario,
    DesignScenario,
    LandscapeScenario,
    RocScenario,
    SweepCase,
    SweepScenario,
    Table,
    emit,
    run_allocate,
    run_design,
    run_landscape,
    run_roc,
    run_sweep,
)

__all__ = ["main", "PRESETS"]

_EXIT_VALIDATION = 2
_EXIT_INFEASIBLE = 3

#: Built-in configurations, keyed by (subcommand, preset name).
PRESETS: dict[tuple[str, str], dict] = {
    ("roc", "ideal"): {"p_e": 0.0},
    ("roc", "errorprone"): {"p_e": 0.2},
    ("fi-landscape", "ideal"): {"p_e": 0.0},
    ("fi-landscape", "errorprone"): {"p_e": 0.2},
    ("design-quantizer", "ideal"): {"p_e": 0.0, "methods": ["bgda", "pso"]},
    ("design-quantizer", "errorprone"): {"p_e": 0.2, "methods": ["pso"]},
    ("allocate", "mixed"): {},
    ("sweep", "two-mixes"): {
        "cases": [
            {"name": "favorable", "freqs": [0.6, 0.2, 0.1, 0.1]},
            {"name": "adverse", "freqs": [0.1, 0.1, 0.2, 0.6]},
        ]
    },
}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int = _EXIT_VALIDATION):
        super().__init__(message)
        self.exit_code = exit_code


def _reject_constant(name: str):
    raise CliError(f"config file contains the non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise CliError("config file must contain a JSON object")
    return cfg


def _merge(command: str, args) -> dict:
    cfg: dict = {}
    if args.preset is not None:
        key = (command, args.preset)
        if key not in PRESETS:
            names = sorted(name for cmd, name in PRESETS if cmd == command)
            raise CliError(f"unknown preset {args.preset!r}; available: {names}")
        cfg.update(PRESETS[key])
    cfg.update(_load_config(args.config))
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        cfg["trials"] = args.trials
    if getattr(args, "budget_mode", None) is not None:
        cfg["budget_mode"] = args.budget_mode
    if getattr(args, "sense", None) is not None:
        if command == "sweep":
            cfg["senses"] = [args.sense]
        else:
            cfg["sense"] = args.sense
    return cfg


def _listify(cfg: dict, keys: tuple[str, ...]) -> dict:
    out = dict(cfg)
    for k in keys:
        if k in out and out[k] is not None and not isinstance(out[k], (int, float, str)):
            out[k] = tuple(out[k])
    return out


def _fits(value, hint) -> bool:
    """Whether ``value`` has the declared type ``hint`` of a scenario field.

    An int is accepted where a float is declared; a bool is never taken
    for a number.
    """
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, a) for a in args)
    if typing.get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _build_scenario(cls, cfg: dict, tuple_keys: tuple[str, ...] = ()):
    cfg = _listify(cfg, tuple_keys)
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(cfg) - valid
    if unknown:
        raise CliError(f"unknown config keys {sorted(unknown)} for {cls.__name__}")
    hints = typing.get_type_hints(cls)
    for name, value in cfg.items():
        if not _fits(value, hints[name]):
            hint = hints[name]
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise CliError(f"config key {name!r} must be of type {expected}, got {value!r}")
    try:
        return cls(**cfg)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}")


def _parse_budget_mode(cfg: dict) -> dict:
    out = dict(cfg)
    if "budget_mode" in out and isinstance(out["budget_mode"], str):
        try:
            out["budget_mode"] = BudgetMode(out["budget_mode"])
        except ValueError:
            raise CliError(f"budget_mode must be one of {[m.value for m in BudgetMode]}")
    if "sense" in out and isinstance(out["sense"], str):
        try:
            out["sense"] = Sense(out["sense"])
        except ValueError:
            raise CliError(f"sense must be one of {[s.value for s in Sense]}")
    if "senses" in out:
        out["senses"] = tuple(Sense(s) if isinstance(s, str) else s for s in out["senses"])
    return out


def _write(table: Table, args) -> None:
    emit(table, args.format, args.out)
    print(f"wrote {args.out}")


def _cmd_roc(args) -> int:
    cfg = _merge("roc", args)
    scenario = _build_scenario(
        RocScenario, cfg,
        tuple_keys=("pfa_grid", "detectors", "thresholds_hybrid", "thresholds_low"),
    )
    _write(run_roc(scenario), args)
    return 0


def _cmd_landscape(args) -> int:
    cfg = _merge("fi-landscape", args)
    cfg.pop("seed", None)  # the grid is seed-free
    scenario = _build_scenario(LandscapeScenario, cfg)
    _write(run_landscape(scenario), args)
    return 0


def _cmd_design(args) -> int:
    cfg = _merge("design-quantizer", args)
    scenario = _build_scenario(DesignScenario, cfg, tuple_keys=("methods", "bgda_init"))
    _write(run_design(scenario), args)
    return 0


def _cmd_allocate(args) -> int:
    cfg = _parse_budget_mode(_merge("allocate", args))
    scenario = _build_scenario(AllocateScenario, cfg, tuple_keys=("epsilons", "freqs"))
    try:
        table = run_allocate(scenario)
    except AllocationInfeasibleError as exc:
        raise CliError(str(exc), _EXIT_INFEASIBLE)
    _write(table, args)
    return 0


def _distribution_path(out: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + "_distribution" + p.suffix))


def _sweep_case(index: int, case) -> SweepCase:
    if not isinstance(case, dict) or set(case) != {"name", "freqs"}:
        raise CliError(f"sweep case {index} must be an object with the keys 'name' and 'freqs' only")
    name, freqs = case["name"], case["freqs"]
    numbers = isinstance(freqs, list) and all(
        isinstance(f, (int, float)) and not isinstance(f, bool) for f in freqs
    )
    if not isinstance(name, str) or not numbers:
        raise CliError(f"sweep case {index} needs a string 'name' and a list of numbers 'freqs'")
    return SweepCase(name, tuple(freqs))


def _cmd_sweep(args) -> int:
    cfg = _parse_budget_mode(_merge("sweep", args))
    if not isinstance(cfg.get("cases"), list):
        raise CliError("sweep requires a list 'cases' (via preset or config)")
    cfg["cases"] = tuple(_sweep_case(k, c) for k, c in enumerate(cfg["cases"]))
    scenario = _build_scenario(
        SweepScenario, cfg, tuple_keys=("epsilons", "m_values", "senses")
    )
    summary, distribution = run_sweep(scenario)
    _write(summary, args)
    dist_path = _distribution_path(args.out)
    emit(distribution, args.format, dist_path)
    print(f"wrote {dist_path}")
    return 0


def _add_common(parser: argparse.ArgumentParser, with_trials: bool = False,
                with_alloc_flags: bool = False) -> None:
    parser.add_argument("--preset", help="named built-in configuration")
    parser.add_argument("--config", help="JSON config file merged over the preset")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if with_trials:
        parser.add_argument("--trials", type=int, help="Monte Carlo trials per hypothesis")
    if with_alloc_flags:
        parser.add_argument("--budget-mode", dest="budget_mode", choices=("exact", "atmost"))
        parser.add_argument("--sense", choices=("max", "min"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybriddet",
        description="Distributed weak-signal detection experiments: ROC curves, "
        "quantizer design, information landscapes, and bandwidth allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roc", help="Monte Carlo ROC comparison of the detector roster")
    _add_common(p, with_trials=True)
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("fi-landscape", help="information surface over a 2-bit threshold grid")
    _add_common(p)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("design-quantizer", help="optimize one sensor's thresholds")
    _add_common(p)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("allocate", help="solve one bandwidth allocation instance")
    _add_common(p, with_alloc_flags=True)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("sweep", help="detection probability versus fleet size")
    _add_common(p, with_alloc_flags=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return exc.exit_code
    except (ValueError, AllocationInfeasibleError) as exc:
        code = _EXIT_INFEASIBLE if isinstance(exc, AllocationInfeasibleError) else _EXIT_VALIDATION
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
