"""Experiment runners and table emission.

Everything here is deterministic given the master seed: the ROC Monte
Carlo draws each block of ``ROC_BLOCK`` trials from one stream keyed by
``(seed, hypothesis, block)``, swarm threshold designs derive their seeds
from the same master seed, and emitted files are byte-stable across runs.
The ROC blocks run concurrently on a thread pool with as many threads as
the CPUs this process may use (no option sets the count); the output does
not depend on that count, and ROC memory is bounded by workers times a
block.  The sweep solves all its allocation points from one dynamic
program (``allocation.allocate_sweep``).  Every runner returns ``Table``s of
plain ``None``, ``str``, ``int`` and ``float`` cells, which ``emit`` hands to
the csv and json modules unconverted.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import allocation as alloc
from .design import DesignProblem, PsoSettings, design_bgda, design_pso, fi_landscape, optimized_thresholds
from .detection import (
    NetworkKernels,
    reconstruction_table,
    theoretical_pd,
    threshold_for_pfa,
)
from .model import (
    DEFAULT_MAPPING,
    Hypothesis,
    QuantizerSpec,
    SignalParams,
    bsc_corrupt_levels,
    check_bits,
    check_sigma_n2,
    quantize_batch,
    simulate_observations,
    trial_rng,
)

__all__ = [
    "Table",
    "emit",
    "RocScenario",
    "run_roc",
    "SweepCase",
    "SweepScenario",
    "run_sweep",
    "LandscapeScenario",
    "run_landscape",
    "DesignScenario",
    "run_design",
    "AllocateScenario",
    "run_allocate",
]

ROC_COLUMNS = ("detector", "pfa_target", "eta", "pd_theory", "pfa_mc", "pd_mc", "stderr_mc")

#: Trials simulated together in ``run_roc``; its memory grows with this
#: times the worker count, not with the trial count.  Each block draws from
#: its own stream, so this is part of the output contract: changing it
#: changes the ROC Monte Carlo columns.  The worker count is not: it comes
#: from CPU affinity, no option sets it, and the output does not depend on it.
ROC_BLOCK = 256

#: Most threads the pool runs; see ``_workers``.
_MAX_WORKERS = 8


def _workers(jobs: int) -> int:
    """Worker threads for ``jobs`` pool jobs: the CPUs this process may run
    on, capped by the job count and by ``_MAX_WORKERS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs, _MAX_WORKERS)


def _pool_map(fn, jobs: list) -> list:
    """One result per job, in job order, computed on ``_workers(len(jobs))`` threads.

    ``fn`` maps a list of jobs to the list of their results.  Thread ``w``
    calls it once, on the share ``jobs[w::workers]``, so a thread keeps its
    loop's state from one job to the next.  Results land in job order
    whatever the scheduling.  A job's exception ends its thread's share and
    is raised here once every thread has stopped.
    """
    workers = _workers(len(jobs))
    results = [None] * len(jobs)
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, jobs[w::workers]) for w in range(workers)]
        for w, future in enumerate(futures):
            results[w::workers] = future.result()
    return results


#: The exact types of a table cell: the ones csv and json write alike.
_CELL_TYPES = frozenset({type(None), str, int, float})


@dataclass
class Table:
    """Ordered columns plus rows of cells, each ``None`` or exactly a
    ``str``, ``int`` or ``float``: no ``bool``, numpy scalar or enum."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def __post_init__(self):
        self.columns = tuple(self.columns)
        self.rows = [tuple(r) for r in self.rows]
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError("row width does not match column count")
        bad = set(map(type, itertools.chain.from_iterable(self.rows))) - _CELL_TYPES
        if bad:
            names = ", ".join(sorted(t.__name__ for t in bad))
            raise TypeError(f"table cells must be None, str, int or float, not {names}")


def emit(table: Table, fmt: str, path) -> None:
    """Write a table as CSV (header row) or JSON (versioned envelope).

    Output bytes are a pure function of the table contents.  The csv and
    json modules convert the cells themselves: floats use shortest
    round-trip formatting, and ``None`` becomes an empty cell or ``null``.
    JSON refuses a non-finite float; CSV writes ``inf`` or ``nan``.
    """
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.columns)
            writer.writerows(table.rows)
        return
    if fmt == "json":
        payload = {
            "schema_version": 1,
            "columns": list(table.columns),
            "rows": [list(r) for r in table.rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
        return
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


# ---------------------------------------------------------------------------
# ROC experiment
# ---------------------------------------------------------------------------


def _check_thresholds(name: str, bits: int, thresholds) -> None:
    """Reject a threshold set that ``QuantizerSpec`` refuses, naming its field."""
    try:
        QuantizerSpec(bits, thresholds)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class RocScenario:
    """One ROC comparison run over a fixed sensor fleet.

    The fleet has ``m_quantized`` low-rate sensors (observed through
    ``bits_hybrid``- or ``bits_low``-bit quantizers depending on the
    detector) and ``m_full`` analog sensors.  Thresholds default to the
    optimized designs for the scenario's channel quality.
    """

    theta: float = 0.25
    sigma_n2: float = 1.0
    sigma_h2: float = 0.5
    m_quantized: int = 80
    m_full: int = 20
    p_e: float = 0.0
    bits_hybrid: int = 3
    bits_low: int = 1
    trials: int = 5000
    seed: int = 20260810
    pfa_grid: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5)
    detectors: tuple[str, ...] = ()
    thresholds_hybrid: tuple[float, ...] | None = None
    thresholds_low: tuple[float, ...] | None = None
    mapping: str = DEFAULT_MAPPING

    def __post_init__(self):
        SignalParams(self.theta, self.sigma_n2, self.sigma_h2)  # checks the three fields
        check_bits("bits_hybrid", self.bits_hybrid)
        check_bits("bits_low", self.bits_low)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        grid = tuple(self.pfa_grid)
        if not grid:
            raise ValueError("pfa_grid must not be empty")
        if any(not 0.0 < p < 1.0 for p in grid):
            raise ValueError("pfa_grid values must lie in (0, 1)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("pfa_grid must be strictly increasing")
        if not self.detectors:
            object.__setattr__(self, "detectors", self.default_detectors())
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError("detectors must not repeat a name")
        unknown = set(self.detectors) - set(self.default_detectors())
        if unknown:
            raise ValueError(f"unknown detectors {sorted(unknown)}")
        if self.m_quantized < 0 or self.m_full < 0 or self.m_quantized + self.m_full < 1:
            raise ValueError("the fleet must contain at least one sensor")
        check_sigma_n2(self.sigma_n2, self.m_total)
        if self.bits_low == self.bits_hybrid:
            raise ValueError("bits_low and bits_hybrid must differ (labels collide)")
        needs_q = {self.label_low, self.label_hybrid_q, self.label_hybrid, self.label_reconstruction}
        if self.m_quantized == 0 and needs_q & set(self.detectors):
            raise ValueError("quantized detectors need m_quantized >= 1")
        if self.m_full == 0 and {"fp", self.label_hybrid, self.label_reconstruction} & set(self.detectors):
            raise ValueError("full-precision detectors need m_full >= 1")
        if not 0.0 <= self.p_e <= 0.5:
            raise ValueError("p_e must lie in [0, 0.5]")
        blind = {self.label_low, self.label_hybrid_q} & set(self.detectors)
        if self.p_e == 0.5 and blind:
            raise ValueError(f"p_e = 0.5 erases every level: detectors {sorted(blind)} carry no information")
        if self.thresholds_hybrid is not None:
            _check_thresholds("thresholds_hybrid", self.bits_hybrid, self.thresholds_hybrid)
        if self.thresholds_low is not None:
            _check_thresholds("thresholds_low", self.bits_low, self.thresholds_low)

    @property
    def label_low(self) -> str:
        return f"{self.bits_low}b"

    @property
    def label_hybrid_q(self) -> str:
        return f"{self.bits_hybrid}b"

    @property
    def label_hybrid(self) -> str:
        return f"{self.bits_hybrid}b-fp"

    @property
    def label_reconstruction(self) -> str:
        return f"r-{self.bits_hybrid}b-fp"

    def default_detectors(self) -> tuple[str, ...]:
        return (
            "clairvoyant",
            self.label_low,
            self.label_hybrid_q,
            "fp",
            self.label_hybrid,
            self.label_reconstruction,
        )

    @property
    def m_total(self) -> int:
        return self.m_quantized + self.m_full


def _scenario_quantizer(
    scenario: RocScenario, bits: int, thresholds: tuple[float, ...] | None
) -> QuantizerSpec:
    """The given thresholds, or else the optimized design for the scenario's channel."""
    if thresholds is None:
        thresholds = optimized_thresholds(
            bits, scenario.p_e, scenario.sigma_n2, PsoSettings(seed=scenario.seed),
            mapping=scenario.mapping,
        ).thresholds
    return QuantizerSpec(bits, thresholds)


def run_roc(scenario: RocScenario) -> Table:
    """Monte Carlo ROC table for the scenario's detector roster.

    Decision thresholds come from the asymptotic theory; the empirical
    false-alarm rate is reported next to the target to expose asymptotic
    error.  Theory detection probabilities are filled for the locally
    optimal detectors (the reconstruction baseline has none).

    Trials run in blocks of ``ROC_BLOCK``.  Block ``b`` under hypothesis
    ``h`` draws from ``trial_rng(seed, h, b)``: the block's ``n * m_total``
    observations (under H1 all gains, then all noise), reshaped to one row
    per trial; then, through ``bsc_corrupt_levels``, an ``(n, m_quantized,
    bits_hybrid)`` flip mask if a ``bits_hybrid`` detector is requested;
    then an ``(n, m_quantized, bits_low)`` mask if the ``bits_low``
    detector is.  No flips are drawn when ``p_e == 0``.  These streams,
    this draw order and ``ROC_BLOCK`` are the block kernel's whole output
    contract: the passes after the draws (quantizing, flipping, scoring)
    may change only so that every count stays the same.  Only exceedance
    counts outlive a block.

    The ``(hypothesis, block)`` jobs run concurrently on the thread pool of
    ``_pool_map``, whose size comes from CPU affinity and no option sets.
    Each job returns its own integer counts, which are summed at the end,
    so the table does not depend on the worker count or the scheduling, and
    memory is bounded by workers times a block.
    """
    sigma_n = math.sqrt(scenario.sigma_n2)
    params = SignalParams(scenario.theta, scenario.sigma_n2, scenario.sigma_h2)
    m_q, m_u, m_total = scenario.m_quantized, scenario.m_full, scenario.m_total
    want = set(scenario.detectors)
    norm = sigma_n * math.sqrt(m_total)

    # Each detector maps a block's parts to one statistic per trial.  The
    # parts are the observations, one row per trial; the received hybrid
    # and low-rate levels; the per-trial sum of the analog observations;
    # and the per-trial sum of the hybrid levels' scores.  The two sums are
    # shared by several detectors and computed once per block.
    detectors = {"clairvoyant": lambda y, hybrid, low, analog, scores: y.sum(axis=1) / norm}
    lam = {"clairvoyant": params.theta * math.sqrt(m_total / scenario.sigma_n2)}
    if m_u:
        detectors["fp"] = lambda y, hybrid, low, analog, scores: analog / (sigma_n * math.sqrt(m_u))
        lam["fp"] = params.theta * math.sqrt(m_u / scenario.sigma_n2)

    spec_hybrid = spec_low = None
    if {scenario.label_hybrid_q, scenario.label_hybrid, scenario.label_reconstruction} & want:
        spec_hybrid = _scenario_quantizer(scenario, scenario.bits_hybrid, scenario.thresholds_hybrid)
        full = NetworkKernels(spec_hybrid, scenario.p_e, m_q, m_u, scenario.sigma_n2, scenario.mapping)
        quantized = NetworkKernels(spec_hybrid, scenario.p_e, m_q, 0, scenario.sigma_n2, scenario.mapping)
        # Indexed by received level itself; entry 0 is never read.
        recon = np.concatenate(([0.0], reconstruction_table(spec_hybrid, sigma_n)))
        detectors[scenario.label_hybrid_q] = (
            lambda y, hybrid, low, analog, scores: quantized.statistic(hybrid, (), unnormalized=scores)
        )
        detectors[scenario.label_hybrid] = lambda y, hybrid, low, analog, scores: full.statistic(
            hybrid, y[:, m_q:], unnormalized=scores + analog / scenario.sigma_n2
        )
        detectors[scenario.label_reconstruction] = (
            lambda y, hybrid, low, analog, scores: (recon[hybrid].sum(axis=1) + analog) / norm
        )
        lam[scenario.label_hybrid] = params.theta * math.sqrt(full.fisher_info)
        lam[scenario.label_hybrid_q] = params.theta * math.sqrt(quantized.fisher_info)
    if scenario.label_low in want:
        spec_low = _scenario_quantizer(scenario, scenario.bits_low, scenario.thresholds_low)
        low_kernels = NetworkKernels(spec_low, scenario.p_e, m_q, 0, scenario.sigma_n2, scenario.mapping)
        detectors[scenario.label_low] = lambda y, hybrid, low, analog, scores: low_kernels.statistic(low, ())
        lam[scenario.label_low] = params.theta * math.sqrt(low_kernels.fisher_info)
    need_analog = m_u and {"fp", scenario.label_hybrid, scenario.label_reconstruction} & want
    need_scores = {scenario.label_hybrid_q, scenario.label_hybrid} & want

    def received(spec, y, rng):
        if spec is None:
            return None
        sent = quantize_batch(y[:, :m_q], spec)
        return bsc_corrupt_levels(sent, spec.bits, scenario.p_e, rng, scenario.mapping)

    # Thresholds down a column, so each comparison runs along a contiguous row.
    etas = np.array([threshold_for_pfa(pfa) for pfa in scenario.pfa_grid])[:, None]
    hypotheses = (Hypothesis.H0, Hypothesis.H1)

    def run_blocks(jobs) -> list[np.ndarray]:
        # One loop per thread: a block's arrays live until the next block
        # replaces them, so the allocator reuses their memory instead of
        # returning it to the system and faulting it back in.
        counts = []
        for hyp_idx, block_idx in jobs:
            n = min(ROC_BLOCK, scenario.trials - block_idx * ROC_BLOCK)
            rng = trial_rng(scenario.seed, hyp_idx, block_idx)
            y = simulate_observations(params, hypotheses[hyp_idx], n * m_total, rng).reshape(n, m_total)
            # The flips are drawn in this order, after the observations.
            hybrid = received(spec_hybrid, y, rng)
            low = received(spec_low, y, rng)
            analog = y[:, m_q:].sum(axis=1) if need_analog else None
            scores = quantized.score_sums(hybrid) if need_scores else None
            stats = np.stack([detectors[det](y, hybrid, low, analog, scores) for det in scenario.detectors])
            exceed = np.zeros((2, len(scenario.detectors), len(etas)), dtype=np.int64)
            exceed[hyp_idx] = (stats[:, None, :] > etas).sum(axis=2)
            counts.append(exceed)
        return counts

    blocks = -(-scenario.trials // ROC_BLOCK)
    jobs = [(h, b) for h in range(len(hypotheses)) for b in range(blocks)]
    exceed = sum(_pool_map(run_blocks, jobs))

    rows = []
    for k, det in enumerate(scenario.detectors):
        lam_det = lam.get(det)
        for j, pfa in enumerate(scenario.pfa_grid):
            eta = float(etas[j, 0])
            pfa_mc = int(exceed[0, k, j]) / scenario.trials
            pd_mc = int(exceed[1, k, j]) / scenario.trials
            stderr = math.sqrt(max(pd_mc * (1.0 - pd_mc), 0.0) / scenario.trials)
            pd_theory = theoretical_pd(lam_det, eta) if lam_det is not None else None
            rows.append((det, float(pfa), eta, pd_theory, pfa_mc, pd_mc, stderr))
    return Table(ROC_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Allocation sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCase:
    name: str
    freqs: tuple[float, ...]


@dataclass(frozen=True)
class SweepScenario:
    """Detection probability versus fleet size under a fixed bit budget."""

    cases: tuple[SweepCase, ...]
    epsilons: tuple[float, ...] = (0.0, 0.01, 0.1, 0.2)
    m_values: tuple[int, ...] = tuple(range(20, 101, 10))
    budget: int = 500
    l0: int = 32
    max_bits: int = 3
    theta: float = 0.25
    sigma_n2: float = 1.0
    pfa: float = 0.1
    budget_mode: alloc.BudgetMode = alloc.BudgetMode.AT_MOST
    senses: tuple[alloc.Sense, ...] = (alloc.Sense.MAXIMIZE_FI, alloc.Sense.MINIMIZE_FI)
    seed: int = 20260810
    mapping: str = DEFAULT_MAPPING

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be nonnegative (one-sided test)")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError("pfa must lie strictly inside (0, 1)")
        alloc.check_budget(self.budget, self.l0)
        check_bits("max_bits", self.max_bits)
        check_sigma_n2(self.sigma_n2, max(self.m_values, default=1))
        # Every (case, m_total, sense) point is one row: none may repeat.
        for name, values in (
            ("cases", [case.name for case in self.cases]),
            ("m_values", self.m_values),
            ("senses", self.senses),
        ):
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value")
        for case in self.cases:
            for m in self.m_values:
                alloc.ErrorHistogram(self.epsilons, case.freqs, m)


def _assignment_rows(result: alloc.AllocationResult, epsilons) -> Iterator[tuple]:
    """``(level, epsilon, count)`` per bit depth and category, then ``fp`` per category."""
    for level, counts in enumerate(result.x_matrix, start=1):
        for eps, count in zip(epsilons, counts):
            yield level, eps, int(count)
    for eps, count in zip(epsilons, result.promotions):
        yield "fp", eps, int(count)


SWEEP_COLUMNS = ("case", "m_total", "sense", "status", "total_fi", "noncentrality", "pd_theory", "bits_used")
DISTRIBUTION_COLUMNS = ("case", "m_total", "sense", "level", "epsilon", "count")


def run_sweep(scenario: SweepScenario) -> tuple[Table, Table]:
    """Solve the allocation at every (case, fleet size, sense) point.

    Returns a summary table and the per-level sensor distribution table.
    Infeasible points are reported with status ``infeasible`` rather than
    aborting the sweep.  The information table is built first; then one
    call of ``allocation.allocate_sweep`` solves every point from one
    dynamic program over the sensors of the largest fleet, the smaller
    fleets being prefixes of it, and the rows come out in point order.
    """
    settings = PsoSettings(seed=scenario.seed)
    table = alloc.build_fi_table(
        scenario.epsilons, scenario.max_bits, scenario.sigma_n2, settings, scenario.mapping
    )
    eta = threshold_for_pfa(scenario.pfa)
    outcomes = alloc.allocate_sweep(
        scenario.epsilons, [case.freqs for case in scenario.cases], scenario.m_values, table,
        scenario.budget, scenario.l0, scenario.budget_mode, scenario.senses,
    )
    points = [(case, m, sense) for case in scenario.cases for m in scenario.m_values for sense in scenario.senses]
    summary_rows, dist_rows = [], []
    for (case, m, sense), result in zip(points, outcomes):
        key = (case.name, m, sense.value)
        if isinstance(result, alloc.AllocationInfeasibleError):
            summary_rows.append((*key, "infeasible", None, None, None, None))
            continue
        lam = scenario.theta * math.sqrt(result.total_fi)
        summary_rows.append((*key, "optimal", result.total_fi, lam, theoretical_pd(lam, eta), result.bits_used))
        dist_rows += [(*key, *row) for row in _assignment_rows(result, scenario.epsilons)]
    return Table(SWEEP_COLUMNS, summary_rows), Table(DISTRIBUTION_COLUMNS, dist_rows)


# ---------------------------------------------------------------------------
# Landscape and design runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LandscapeScenario:
    bits: int = 2
    p_e: float = 0.2
    sigma_n2: float = 1.0
    tau_lo: float = -5.0
    tau_hi: float = 5.0
    points: int = 201
    tau2: float = 0.0
    mapping: str = DEFAULT_MAPPING

    def __post_init__(self):
        if self.bits != 2:
            raise ValueError("bits must be 2: landscape grids are defined for 2-bit designs")
        DesignProblem(self.bits, self.p_e, self.sigma_n2)  # checks p_e and sigma_n2
        if self.points < 1:
            raise ValueError("points must be >= 1")


LANDSCAPE_COLUMNS = ("tau1", "tau3", "objective")


def run_landscape(scenario: LandscapeScenario) -> Table:
    """Tidy (tau1, tau3, objective) table; invalid cells carry ``None``."""
    problem = DesignProblem(
        bits=scenario.bits,
        p_e=scenario.p_e,
        sigma_n2=scenario.sigma_n2,
        mapping=scenario.mapping,
    )
    axis = np.linspace(scenario.tau_lo, scenario.tau_hi, scenario.points)
    grid = fi_landscape(problem, axis, axis, scenario.tau2)
    n = scenario.points
    tau1 = np.repeat(axis, n).tolist()
    tau3 = np.tile(axis, n).tolist()
    objective = np.where(np.isfinite(grid), grid, None).ravel().tolist()
    return Table(LANDSCAPE_COLUMNS, zip(tau1, tau3, objective))


@dataclass(frozen=True)
class DesignScenario:
    bits: int = 2
    p_e: float = 0.0
    sigma_n2: float = 1.0
    tau_max: float = 5.0
    methods: tuple[str, ...] = ("bgda", "pso")
    bgda_init: tuple[float, ...] | None = None
    bgda_step: float = 0.5
    seed: int = 20260810
    mapping: str = DEFAULT_MAPPING

    def __post_init__(self):
        DesignProblem(self.bits, self.p_e, self.sigma_n2, self.tau_max)  # checks the four fields
        if not self.methods:
            raise ValueError("methods must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat a name")
        unknown = set(self.methods) - {"bgda", "pso"}
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; expected 'bgda' or 'pso'")
        if self.bgda_step <= 0:
            raise ValueError("bgda_step must be positive")
        if "bgda" in self.methods and self.p_e != 0.0:
            raise ValueError("methods: bgda requires an error-free channel (p_e = 0)")
        if self.bgda_init is not None:
            _check_thresholds("bgda_init", self.bits, self.bgda_init)


def run_design(scenario: DesignScenario) -> Table:
    """Run the requested designers and tabulate thresholds and objectives."""
    problem = DesignProblem(
        bits=scenario.bits,
        p_e=scenario.p_e,
        sigma_n2=scenario.sigma_n2,
        tau_max=scenario.tau_max,
        mapping=scenario.mapping,
    )
    n_thr = problem.n_thresholds
    columns = ("method", "bits", "p_e", "sigma_n2", "objective", "iterations") + tuple(
        f"thr_{k+1}" for k in range(n_thr)
    )
    rows = []
    for method in scenario.methods:
        if method == "bgda":
            result = design_bgda(problem, scenario.bgda_init, step=scenario.bgda_step)
        else:
            result = design_pso(problem, PsoSettings(seed=scenario.seed))
        rows.append(
            (method, scenario.bits, scenario.p_e, scenario.sigma_n2,
             result.objective, len(result.trace) - 1) + tuple(result.thresholds)
        )
    return Table(columns, rows)


# ---------------------------------------------------------------------------
# One-shot allocation runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AllocateScenario:
    epsilons: tuple[float, ...] = (0.0, 0.01, 0.1, 0.2)
    freqs: tuple[float, ...] = (0.6, 0.2, 0.1, 0.1)
    m_total: int = 60
    budget: int = 500
    l0: int = 32
    max_bits: int = 3
    sigma_n2: float = 1.0
    budget_mode: alloc.BudgetMode = alloc.BudgetMode.AT_MOST
    sense: alloc.Sense = alloc.Sense.MAXIMIZE_FI
    seed: int = 20260810
    mapping: str = DEFAULT_MAPPING

    def __post_init__(self):
        alloc.check_budget(self.budget, self.l0)
        check_sigma_n2(self.sigma_n2, max(self.m_total, 1))


ALLOCATE_COLUMNS = ("level", "epsilon", "count", "total_fi", "bits_used")


def run_allocate(scenario: AllocateScenario) -> Table:
    """Solve one allocation instance and emit the assignment tidily."""
    hist = alloc.ErrorHistogram(scenario.epsilons, scenario.freqs, scenario.m_total)
    settings = PsoSettings(seed=scenario.seed)
    table = alloc.build_fi_table(
        hist.epsilons, scenario.max_bits, scenario.sigma_n2, settings, scenario.mapping
    )
    result = alloc.allocate(
        hist, table, scenario.budget, scenario.l0, scenario.budget_mode, scenario.sense
    )
    rows = [
        (*row, result.total_fi, result.bits_used)
        for row in _assignment_rows(result, scenario.epsilons)
    ]
    return Table(ALLOCATE_COLUMNS, rows)
