"""Command-line experiment runner.

Subcommands: ``roc``, ``fi-landscape``, ``design-quantizer``, ``allocate``,
``sweep``.  Each takes a named preset and/or a JSON config file; explicit
flags override both.  Every config value must have the type its scenario
field declares.  Outputs are deterministic, for a fixed seed where the
scenario has one.  On validation errors or infeasible instances a
machine-readable JSON object is printed to stderr and the exit code is
nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import itertools
import json
import math
import os
import re
import stat
import sys
import types
import typing
from pathlib import Path

from .allocation import AllocationInfeasibleError
from .experiments import (
    AllocateScenario,
    DesignScenario,
    LandscapeScenario,
    RocScenario,
    SweepScenario,
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

#: Subcommand -> (help text, scenario class, name of its runner here, number
#: of tables it returns).  The runner is looked up by name when the command
#: runs.  A second table is written next to ``--out`` with a
#: ``_distribution`` suffix.
_COMMANDS = {
    "roc": ("Monte Carlo ROC comparison of the detector roster", RocScenario, "run_roc", 1),
    "fi-landscape": ("information surface over a 2-bit threshold grid", LandscapeScenario, "run_landscape", 1),
    "design-quantizer": ("optimize one sensor's thresholds", DesignScenario, "run_design", 1),
    "allocate": ("solve one bandwidth allocation instance", AllocateScenario, "run_allocate", 1),
    "sweep": ("detection probability versus fleet size", SweepScenario, "run_sweep", 2),
}


class CliError(Exception):
    """A configuration the command line refuses; exit code 2."""


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


def _merge(args, cls) -> dict:
    """Preset, then config file, then the flags scenario ``cls`` registered."""
    fields = {f.name for f in dataclasses.fields(cls)}
    cfg: dict = {}
    if args.preset is not None:
        key = (args.command, args.preset)
        if key not in PRESETS:
            names = sorted(name for cmd, name in PRESETS if cmd == args.command)
            raise CliError(f"unknown preset {args.preset!r}; available: {names}")
        cfg.update(PRESETS[key])
    cfg.update(_load_config(args.config))
    for key in ("seed", "trials", "budget_mode"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if getattr(args, "sense", None) is not None:
        if "senses" in fields:
            cfg["senses"] = [args.sense]
        else:
            cfg["sense"] = args.sense
    return cfg


def _coerce(value, hint, key: str):
    """``value`` as the declared type ``hint`` of config key ``key``.

    A list becomes a tuple, a string an enum member and an object a
    dataclass, checked field by field.  An int is accepted where a float is
    declared; a bool is never taken for a number.  Any other mismatch
    raises ``TypeError``.
    """
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        for arg in args:
            with contextlib.suppress(TypeError):
                return _coerce(value, arg, key)
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            item = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", args[0].__name__).lower()  # SweepCase -> sweep case
            return tuple(_coerce(v, args[0], f"{item} {k}") for k, v in enumerate(value))
    elif isinstance(hint, enum.EnumMeta):
        if isinstance(value, str):
            names = [member.value for member in hint]
            if value not in names:
                raise CliError(f"{key} must be one of {names}")
            return hint(value)
    elif dataclasses.is_dataclass(hint):
        if isinstance(value, dict):
            return _build_scenario(hint, value, where=f"{key}: ")
    elif isinstance(value, bool):
        if hint is bool:
            return value
    elif isinstance(value, (int, float) if hint is float else hint):
        return value
    raise TypeError(hint)


def _build_scenario(cls, cfg: dict, where: str = ""):
    """``cls`` built from a config object; ``where`` prefixes every error."""
    hints = typing.get_type_hints(cls)
    unknown = set(cfg) - set(hints)
    if unknown:
        raise CliError(f"{where}unknown config keys {sorted(unknown)} for {cls.__name__}")
    missing = {f.name for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING} - set(cfg)
    if missing:
        raise CliError(f"{where}missing config keys {sorted(missing)} for {cls.__name__}")
    values = {}
    for name, value in cfg.items():
        hint = hints[name]
        try:
            values[name] = _coerce(value, hint, name)
        except TypeError:
            expected = hint.__name__ if isinstance(hint, type) else re.sub(r"\b(\w+\.)+", "", str(hint))
            raise CliError(f"{where}config key {name!r} must be of type {expected}, got {value!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{where}invalid configuration: {exc}")


def _distribution_path(out: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + "_distribution" + p.suffix))


def _check_out_path(path: str) -> None:
    """Refuse an output path that is a directory, or whose directory is
    missing or not writable.

    Checked before the run, so that a bad path ends the command at once
    rather than after the work.
    """
    directory = Path(path).parent
    if not directory.is_dir():
        reason = "Not a directory" if directory.exists() else "No such file or directory"
    elif not os.access(directory, os.W_OK):
        reason = "Permission denied"
    elif Path(path).is_dir():
        reason = "Is a directory"
    else:
        return
    raise CliError(f"cannot write output file {path}: {reason}")


def _new_file_beside(path: str) -> str | None:
    """An empty file in ``path``'s directory under a name no file has, to
    take ``path``'s name once written, or ``None`` where ``path`` is written
    in place.

    Only a path that names no file, or a regular file of ours with no other
    link, is replaced; the new file takes that file's permissions, or those
    ``open`` gives a new file.  Any other file (a device, a FIFO, a file
    with more links or another owner) would lose what it is by a rename.
    """
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1 and old.st_uid == os.geteuid()):
        return None
    for k in itertools.count():
        candidate = f"{path}.{os.getpid()}-{k}.tmp"
        try:
            fd = os.open(candidate, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        try:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
        finally:
            os.close(fd)
        return candidate


def _run(args) -> int:
    _, cls, runner, n_tables = _COMMANDS[args.command]
    scenario = _build_scenario(cls, _merge(args, cls))
    paths = (args.out, _distribution_path(args.out))[:n_tables]
    for path in paths:
        _check_out_path(path)
    tables = globals()[runner](scenario)
    if not isinstance(tables, tuple):
        tables = (tables,)
    # A table goes to a new file of its own first where its path may be
    # replaced (``_new_file_beside``), and the new files take their names
    # only once every table is written, so a failed write leaves those
    # paths as they were: ``sweep`` writes both tables or neither.  Other
    # paths are written in place.  An output path that is a symbolic link
    # keeps it: its target is written.
    staged = {}
    try:
        for table, path in zip(tables, paths, strict=True):
            target = os.path.realpath(path)
            staged[path] = _new_file_beside(target)
            emit(table, args.format, staged[path] or path)
        for path, temporary in staged.items():
            if temporary is not None:
                os.replace(temporary, os.path.realpath(path))
    except OSError as exc:
        raise CliError(f"cannot write output file {path}: {exc.strerror or exc}") from None
    finally:
        for temporary in staged.values():
            if temporary is not None:
                Path(temporary).unlink(missing_ok=True)
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybriddet",
        description="Distributed weak-signal detection experiments: ROC curves, "
        "quantizer design, information landscapes, and bandwidth allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, cls, _, _) in _COMMANDS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--preset", help="named built-in configuration")
        p.add_argument("--config", help="JSON config file merged over the preset")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if "seed" in fields:
            p.add_argument("--seed", type=int, help="master random seed")
        if "trials" in fields:
            p.add_argument("--trials", type=int, help="Monte Carlo trials per hypothesis")
        if "budget_mode" in fields:
            p.add_argument("--budget-mode", dest="budget_mode", choices=("exact", "atmost"))
            p.add_argument("--sense", choices=("max", "min"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (CliError, ValueError, AllocationInfeasibleError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return _EXIT_INFEASIBLE if isinstance(exc, AllocationInfeasibleError) else _EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
