"""Benchmark of hybriddet: one workload per call, each round in a fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roc-mc --seed 1 --seconds 45 --trace 0

``--workload all`` runs every workload in turn.  The inputs are made from
``--seed``.  Rounds of the same operations repeat until ``--seconds`` have
passed; the first round's outputs are checked against ``oracles`` and every
later round must write the same bytes.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics (medians
over rounds, scaled to a reference machine speed by ``_probe``); with
``--trace 1`` untraced and traced rounds alternate, starting untraced, and
the object carries the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Interpreter start-ups measured per run, counting the rounds' own.
SETUP_SAMPLES = 7
#: Samples of the speed probe taken before every round and after the last.
PROBE_SAMPLES = 40
#: One probe sample's CPU time on an uncontended core of the reference
#: machine (Intel Xeon, 2.1 GHz).  Reported times are scaled to this speed.
PROBE_REF_S = 0.008
#: A run starts no round that could end past this many seconds.
RUN_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("units_per_s", "1/s"))


def _worker(args: list[str], result: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), "--result", str(result), *args]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    with open(result) as fh:
        return json.load(fh)


def _probe(rng: np.random.Generator) -> list[float]:
    """CPU times of a fixed computation, which measure the machine's speed just now.

    Each sample runs code of the program's kind, a Python loop over small
    numpy arrays and plain bytecode, but never calls hybriddet, so no change
    to the program moves it.
    """
    times = []
    for _ in range(PROBE_SAMPLES):
        t = time.process_time()
        acc = 0.0
        for _ in range(600):
            x = rng.standard_normal(100)
            acc += float(np.abs(np.sort(x) - x.mean()).sum())
        for i in range(60_000):
            acc += i * i
        times.append(time.process_time() - t)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    run_dir = OUT / f"{name}-{seed}{'-trace' if trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs_path = run_dir / "inputs.json"
    with open(inputs_path, "w") as fh:
        json.dump(workload.make_inputs(seed), fh)

    # An untimed start-up first, so that every measured one finds the
    # bytecode caches written.
    _worker(["--setup-only"], run_dir / "warmup.json")

    probe_rng = np.random.default_rng(0)
    probes = [_probe(probe_rng)]
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        k = len(rounds)
        args = ["--workload", name, "--inputs", str(inputs_path), "--out-dir", str(run_dir)]
        if k == 0:
            args.append("--check")
        if trace and k % 2 == 1:
            args += ["--spans", str(run_dir / "spans.tsv")]
        began = time.monotonic()
        rounds.append(_worker(args, run_dir / f"round{k}.json"))
        probes.append(_probe(probe_rng))
        elapsed = time.monotonic() - start
        if elapsed >= seconds and (len(rounds) >= 2 or not trace):
            break
        if elapsed + (time.monotonic() - began) > RUN_LIMIT_S:
            break
    # The machine's speed drifts by 20-40% over minutes and dips in bursts
    # shorter than a probe sample (see README.md).  Every time is scaled by
    # the reference sample time over the run's mean sample time, so a run
    # made at 70% of the reference speed counts 70% of its time; the mean,
    # because a round's time is the mean over its moments.
    speeds = [PROBE_REF_S / statistics.fmean(p) for p in probes]
    scale = PROBE_REF_S / statistics.fmean(t for p in probes for t in p)
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(["--setup-only"], run_dir / "setup.json")["setup_s"])

    problems = list(rounds[0]["problems"])
    for k, r in enumerate(rounds[1:], 1):
        if r["digests"] != rounds[0]["digests"]:
            problems.append(f"round {k} wrote other bytes than round 0")
    for path in run_dir.iterdir():
        if path.suffix in (".csv", ".json") and path.name != "inputs.json":
            path.unlink()

    if trace:
        metrics = _layer_metrics(rounds, problems, scale)
    else:
        wall = scale * statistics.median(r["wall_s"] for r in rounds)
        values = {
            "wall_s": wall,
            "cpu_s": scale * statistics.median(r["cpu_s"] for r in rounds),
            "setup_s": scale * statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "units_per_s": rounds[0]["units"] / wall,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        # Every round wrote round 0's bytes, so an output that failed its
        # check in round 0 failed in every round.
        "failed": sum(r["failed"] for r in rounds) + rounds[0]["check_failed"] * len(rounds),
        "metrics": metrics,
        "problems": problems,
        "round_walls": [r["wall_s"] for r in rounds],
        "raw_setup_s": statistics.median(setups),
        "speeds": speeds,
    }


def _layer_metrics(rounds: list[dict], problems: list[str], scale: float) -> dict:
    traced = [r["layers"] for r in rounds if "layers" in r]
    traced_wall = statistics.median(r["wall_s"] for r in rounds if "layers" in r)
    plain_wall = statistics.median(r["wall_s"] for r in rounds if "layers" not in r)
    out = {}
    for name, unit in METRICS:
        if name == "trace.overhead_pct":
            value = 100.0 * (traced_wall / plain_wall - 1.0)
        elif unit == "s":
            value = scale * statistics.median(t[name] for t in traced)
        else:
            value = traced[0][name]
            if any(t[name] != value for t in traced):
                problems.append(f"{name} differs between traced rounds: {[t[name] for t in traced]}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hybriddet" / "__init__.py").is_file():
        print(f"no hybriddet sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for problem in summary.pop("problems"):
            print(f"{name}: check failed: {problem}", file=sys.stderr)
        walls = summary.pop("round_walls")
        print(f"{name}: {len(walls)} rounds of {', '.join(f'{w:.3f}' for w in walls)} s wall and "
              f"{summary.pop('raw_setup_s'):.4f} s set-up, as measured; "
              f"{summary['attempted']} operations attempted, {summary['failed']} failed")
        print(f"{name}: machine speed before each round and after the last, as a share of the "
              f"reference: {', '.join(f'{f:.3f}' for f in summary.pop('speeds'))}")
        for metric, v in summary["metrics"].items():
            print(f"{name}: {metric} = {v['value']:.6g} {v['unit']}")
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
