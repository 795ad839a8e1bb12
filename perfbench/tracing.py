"""Per-layer tracing of ``hybriddet`` from outside the package.

Each public function is wrapped at the name its caller looks up (for
example ``experiments.trial_rng``, not only ``model.trial_rng``), because a
module that did ``from .model import trial_rng`` holds its own reference.
Spans stay in memory as ``(id, parent, name, start_ns, end_ns, child_ns)``
and are written out once, after the timed region.  A layer's self time is
its spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter

#: Per-layer metrics, in the order ``BENCHMARK.json`` lists them.
#: Names ending in ``.s`` or ``.self_s`` are self times in seconds.
METRICS = (
    ("model.trial_rng.calls", "count"),
    ("model.trial_rng.s", "s"),
    ("model.simulate.s", "s"),
    ("model.samples", "count"),
    ("model.quantize.s", "s"),
    ("model.bsc.calls", "count"),
    ("model.bsc.s", "s"),
    ("model.quantizer_spec.builds", "count"),
    ("detection.statistic.calls", "count"),
    ("detection.statistic.s", "s"),
    ("detection.kernels.builds", "count"),
    ("detection.bsc_kernel.calls", "count"),
    ("design.pso.calls", "count"),
    ("design.pso.iters", "count"),
    ("design.pso.evals", "count"),
    ("design.pso.s", "s"),
    ("design.pso.useful_ratio", "ratio"),
    ("design.optimized.calls", "count"),
    ("design.optimized.misses", "count"),
    ("design.bgda.s", "s"),
    ("allocation.table.s", "s"),
    ("allocation.allocate.calls", "count"),
    ("allocation.allocate.s", "s"),
    ("ilp.solve.calls", "count"),
    ("ilp.solve.s", "s"),
    ("ilp.nodes", "count"),
    ("ilp.nodes.max", "count"),
    ("experiments.run_roc.self_s", "s"),
    ("experiments.run_sweep.self_s", "s"),
    ("experiments.emit.s", "s"),
    ("experiments.emit.rows", "count"),
    ("experiments.emit.bytes", "count"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)

#: Span name -> metric reporting its self time.
_SELF_TIME = {
    "model.trial_rng": "model.trial_rng.s",
    "model.simulate": "model.simulate.s",
    "model.quantize": "model.quantize.s",
    "model.bsc": "model.bsc.s",
    "detection.statistic": "detection.statistic.s",
    "design.pso": "design.pso.s",
    "design.bgda": "design.bgda.s",
    "allocation.table": "allocation.table.s",
    "allocation.allocate": "allocation.allocate.s",
    "ilp.solve": "ilp.solve.s",
    "experiments.run_roc": "experiments.run_roc.self_s",
    "experiments.run_sweep": "experiments.run_sweep.self_s",
    "experiments.emit": "experiments.emit.s",
    "cli": "cli.self_s",
}

#: Span name -> metric counting its calls.
_CALLS = {
    "model.trial_rng": "model.trial_rng.calls",
    "model.bsc": "model.bsc.calls",
    "detection.statistic": "detection.statistic.calls",
    "design.pso": "design.pso.calls",
    "design.optimized": "design.optimized.calls",
    "allocation.allocate": "allocation.allocate.calls",
    "ilp.solve": "ilp.solve.calls",
}


class Tracer:
    """Records spans and counters for one round; installs and removes its wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self._useful_iters = 0
        self._ids = itertools.count()

    # -- wrapping ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def span(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a wrapper that records a span named ``name``.

        ``after(result, args, kwargs)`` runs once the span has closed.
        """
        fn = owner.__dict__[attr]
        stack, spans, ids = self._stack, self.spans, self._ids

        def wrapper(*args, **kwargs):
            entry = [next(ids), stack[-1][0] if stack else -1, name, 0, 0, 0]
            stack.append(entry)
            entry[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                entry[4] = end
                if stack:
                    stack[-1][5] += end - entry[3]
                spans.append(tuple(entry))
            if after is not None:
                after(result, args, kwargs)
            return result

        self._set(owner, attr, wrapper)

    def counter(self, owner, attr, before):
        """Replace ``owner.attr`` by a wrapper that calls ``before(args, kwargs)`` first."""
        fn = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            before(args, kwargs)
            return fn(*args, **kwargs)

        self._set(owner, attr, wrapper)

    def install(self) -> None:
        from hybriddet import allocation, cli, design, detection, experiments, model

        c = self.counts

        # cli and experiments: the names ``cli`` looks up.
        self.span(cli, "main", "cli")
        self.span(cli, "run_roc", "experiments.run_roc")
        self.span(cli, "run_sweep", "experiments.run_sweep")

        def emitted(_result, args, _kwargs):
            table, _fmt, path = args
            c["experiments.emit.rows"] += len(table.rows)
            c["experiments.emit.bytes"] += os.path.getsize(path)

        self.span(cli, "emit", "experiments.emit", after=emitted)

        # model, as looked up by experiments (and by model itself).
        for owner in (experiments, model):
            self.span(owner, "trial_rng", "model.trial_rng")

        def simulated(_result, args, kwargs):
            c["model.samples"] += int(args[2] if len(args) > 2 else kwargs["count"])

        self.span(experiments, "simulate_observations", "model.simulate", after=simulated)
        self.span(experiments, "quantize_batch", "model.quantize")
        self.span(experiments, "bsc_corrupt_levels", "model.bsc")

        def spec_built(_args, _kwargs):
            c["model.quantizer_spec.builds"] += 1

        self.counter(model.QuantizerSpec, "__post_init__", spec_built)

        # detection.
        self.span(detection.NetworkKernels, "statistic", "detection.statistic")

        def kernels_built(_args, _kwargs):
            c["detection.kernels.builds"] += 1

        self.counter(detection.NetworkKernels, "__init__", kernels_built)

        def bsc_kernel_called(_args, _kwargs):
            c["detection.bsc_kernel.calls"] += 1

        for owner in (design, detection):
            self.counter(owner, "bsc_kernel", bsc_kernel_called)

        # design.
        def swarm_done(result, _args, _kwargs):
            trace = result.trace
            c["design.pso.iters"] += len(trace) - 1
            last_rise = max((i for i in range(1, len(trace)) if trace[i] > trace[i - 1]), default=0)
            self._useful_iters += last_rise

        for owner in (design, experiments):
            self.span(owner, "design_pso", "design.pso", after=swarm_done)
            self.span(owner, "design_bgda", "design.bgda")

        def rows_evaluated(args, _kwargs):
            if self._stack and self._stack[-1][2] == "design.pso":
                tau = args[0]
                c["design.pso.evals"] += tau.shape[0] if getattr(tau, "ndim", 1) == 2 else 1

        self.counter(design, "_objective_rows", rows_evaluated)

        cache_sizes: list[int] = []

        def optimized_before(_args, _kwargs):
            cache_sizes.append(len(design._DESIGN_CACHE))

        def optimized_after(_result, _args, _kwargs):
            if len(design._DESIGN_CACHE) > cache_sizes.pop():
                c["design.optimized.misses"] += 1

        for owner in (experiments, allocation):
            self.span(owner, "optimized_thresholds", "design.optimized", after=optimized_after)
            self.counter(owner, "optimized_thresholds", optimized_before)

        # allocation and ilp.
        self.span(allocation, "build_fi_table", "allocation.table")
        self.span(allocation, "allocate", "allocation.allocate")

        def solved(result, _args, _kwargs):
            c["ilp.nodes"] += result.nodes_explored
            c["ilp.nodes.max"] = max(c["ilp.nodes.max"], result.nodes_explored)

        self.span(allocation, "solve_ilp", "ilp.solve", after=solved)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values for this round; every name in ``METRICS`` except the overhead."""
        out = {name: 0 for name, _ in METRICS if name != "trace.overhead_pct"}
        out.update(self.counts)
        for _sid, _parent, name, start, end, child in self.spans:
            if name in _SELF_TIME:
                out[_SELF_TIME[name]] += (end - start - child) / 1e9
            if name in _CALLS:
                out[_CALLS[name]] += 1
        iters = out["design.pso.iters"]
        out["design.pso.useful_ratio"] = self._useful_iters / iters if iters else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line: id, parent, name, start, end, child (ns)."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tchild_ns\n")
            for span in sorted(self.spans):
                fh.write("\t".join(str(v) for v in span) + "\n")
