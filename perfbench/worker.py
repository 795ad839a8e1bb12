"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round, so the design cache and the
``lru_cache`` tables in ``hybriddet.model`` start cold every time, as they do
for a command-line user.  The round's figures go to the ``--result`` file:

- ``setup_s``: from the parent's clock reading just before it started this
  interpreter (``--t0``, on the shared monotonic clock) through
  ``import hybriddet.cli``, the command-line entry point, which imports the
  whole package;
- ``wall_s`` and ``cpu_s``: the timed region, from the first call into
  ``hybriddet`` until the last output file is written;
- ``peak_rss_mb``: the process's peak resident set at the end of the timed
  region, before any check runs.

With ``--spans`` the round runs under ``tracing.Tracer`` and also reports the
per-layer figures; with ``--check`` it checks its outputs after timing.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--inputs")
    parser.add_argument("--out-dir")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans", help="write the round's spans here (turns tracing on)")
    args = parser.parse_args()

    import hybriddet.cli

    setup_s = time.monotonic() - args.t0
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(hybriddet.__file__).resolve().parent != src / "hybriddet":
        print(f"imported hybriddet from {hybriddet.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_round(args))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def run_round(args) -> dict:
    from hybriddet import design

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    out_dir = Path(args.out_dir)
    if design._DESIGN_CACHE:
        raise RuntimeError("design cache is not cold at the start of the round")
    for name in workload.outputs:
        (out_dir / name).unlink(missing_ok=True)

    tracer = Tracer()
    if args.spans:
        tracer.install()
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    attempted, failed = workload.run(inputs, out_dir)
    wall_s = time.perf_counter() - start_wall
    cpu_s = time.process_time() - start_cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    out = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "units": workload.units(inputs),
        "attempted": attempted,
        "failed": failed,
        "digests": {name: _digest(out_dir / name) for name in workload.outputs},
    }
    if args.spans:
        out["layers"] = tracer.metrics()
        tracer.write(args.spans)
    if args.check:
        missing = [name for name, digest in out["digests"].items() if digest is None]
        if missing:
            out["problems"], out["check_failed"] = [f"no output {name}" for name in missing], 0
        else:
            out["problems"], out["check_failed"] = workload.check(inputs, out_dir)
    return out


def _digest(path: Path) -> str | None:
    """SHA-256 of an output file, or None when a failed operation left none."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


if __name__ == "__main__":
    sys.exit(main())
