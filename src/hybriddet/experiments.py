"""Experiment runners and table emission.

Everything here is deterministic: the ROC Monte Carlo draws each block of
``ROC_BLOCK`` trials from one stream keyed by ``(seed, hypothesis,
block)``, every table and ROC threshold design uses the one design seed of
``PsoSettings()``, and emitted files are byte-stable across runs.  A ROC
trial draws what its detectors read, two sums of observations and the
counts of its received levels, not its sensors, so its cost is set by the
bit depths and not by the fleet.  The ROC blocks run concurrently on a
thread pool with as many threads as the CPUs this process may use (no
option sets the count); the output does not depend on that count, and ROC
memory is bounded by workers times a block.  The sweep solves all its
allocation points from one dynamic program (``allocation.allocate_sweep``).
Every runner returns ``Table``s of plain ``None``, ``str``, ``int`` and
``float`` cells, which ``emit`` hands to the csv and json modules
unconverted.
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
from typing import NamedTuple

import numpy as np

from . import allocation as alloc
from .design import (
    DesignProblem, PsoSettings, design_bgda, design_objective, design_pso, fi_landscape, optimized_thresholds)
from .detection import (
    NetworkKernels,
    bsc_kernel,
    cell_tables,
    reconstruction_table,
    theoretical_pd,
    threshold_for_pfa,
)
from .model import GAUSSIAN_REACH, QuantizerSpec, SignalParams, check_bits, check_sigma_n2, trial_rng

# The sensor-by-sensor chain is not called here: ``run_roc`` draws what its
# detectors read instead.  perfbench's tracer wraps these names on this module.
from .model import bsc_corrupt_levels, quantize_batch, simulate_observations  # noqa: F401

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

#: Most bytes a command's estimate of its largest arrays and tables may
#: reach; above it the configuration is refused before anything is allocated.
_MEMORY_CAP = 2**30


def _workers(jobs: int) -> int:
    """Worker threads for ``jobs`` pool jobs: the CPUs this process may run
    on, capped by the job count and by ``_MAX_WORKERS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs, _MAX_WORKERS)


def _refuse_above_cap(estimate: int, subject: str) -> None:
    """Refuse a configuration whose estimated bytes, ``estimate``, pass
    ``_MEMORY_CAP``; ``subject`` names what is too large."""
    if estimate > _MEMORY_CAP:
        raise ValueError(
            f"{subject} would take about {estimate / 2**30:.3g} GiB, above the {_MEMORY_CAP / 2**30:g} GiB cap")


def _pool_map(fn, jobs: range) -> list:
    """``fn`` of each thread's share of ``jobs``, on ``_workers(len(jobs))`` threads.

    Thread ``w`` calls ``fn`` once, on the share ``jobs[w::workers]``, so a
    thread keeps its loop's state from one job to the next, and returns one
    result for its whole share; the results come back in thread order.  A
    ``range`` of jobs and its shares take no memory per job.  A job's
    exception ends its thread's share and is raised here once every thread
    has stopped.
    """
    workers = _workers(len(jobs))
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, jobs[w::workers]) for w in range(workers)]
        return [future.result() for future in futures]


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
        if not self.columns:
            raise ValueError("a table needs at least one column")
        self.rows = [tuple(r) for r in self.rows]
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError("row width does not match column count")
        bad = set(map(type, itertools.chain.from_iterable(self.rows))) - _CELL_TYPES
        if bad:
            names = ", ".join(sorted(t.__name__ for t in bad))
            raise TypeError(f"table cells must be None, str, int or float, not {names}")


#: The json module's C encoder, writing each cell of a row list on its own
#: line at the depth that ``indent=2`` gives it inside the envelope.
_ROW_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",\n      ", ": "))


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
        envelope = json.dumps({"schema_version": 1, "columns": list(table.columns), "rows": []}, indent=2)
        rows = "[]"
        if table.rows:
            # Only the row breaks still lack the indentation of ``indent=2``.
            # A literal newline never occurs inside an encoded string, so
            # the pattern marks row breaks only.
            text = _ROW_ENCODER.encode(table.rows)
            rows = "[\n    [\n      " + text[2:-2].replace("],\n      [", "\n    ],\n    [\n      ") + "\n    ]\n  ]"
        with open(path, "w") as fh:
            fh.write(envelope[: -len("[]\n}")] + rows + "\n}\n")
        return
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


# ---------------------------------------------------------------------------
# ROC experiment
# ---------------------------------------------------------------------------


def _check_thresholds(name: str, bits: int, thresholds, sigma_n2: float) -> None:
    """Reject, naming its field, a threshold set that ``QuantizerSpec``
    refuses or whose quotient by ``sigma_n`` overflows: every design and
    detector reads the thresholds in noise deviations."""
    try:
        QuantizerSpec(bits, thresholds)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    sigma_n = math.sqrt(sigma_n2)
    if not all(math.isfinite(t / sigma_n) for t in thresholds):
        raise ValueError(f"{name}: a threshold over sigma_n = {sigma_n!r} overflows")


class Reads(NamedTuple):
    """What one ROC detector reads of a trial."""

    kind: str  # "sum" of raw observations, "lmpt" (a NetworkKernels statistic) or "reconstruction"
    bits: int | None  # depth of the received levels it reads; None for none
    analog: bool  # whether it reads the analog observations' sum; a raw sum without it reads every sensor


@dataclass(frozen=True)
class RocScenario:
    """One ROC comparison run over a fixed sensor fleet.

    The fleet has ``m_quantized`` low-rate sensors (observed through
    ``bits_hybrid``- or ``bits_low``-bit quantizers depending on the
    detector) and ``m_full`` analog sensors.  Thresholds default to the
    optimized designs for the scenario's channel quality, made with
    ``PsoSettings()``, so ``seed`` seeds only the Monte Carlo streams.  The
    fleet and channel are checked against what the chosen detectors read
    (``roster``).

    ``theta`` is refused where a per-trial sum could overflow.  Under the
    alternative a sum of ``m`` observations is ``m * theta + sqrt(m) *
    hypot(theta * sigma_h, sigma_n) * z`` with a standard normal ``z``,
    which passes ``R = GAUSSIAN_REACH`` with probability below 1e-307;
    since ``hypot(a, b) <= a + b`` and ``sqrt(m) <= m``, its magnitude is at
    most ``m * (theta * (1 + sigma_h * R) + sigma_n * R)``.  The largest
    sums are the clairvoyant one over ``m_total`` observations and the
    hybrid detector's ``m_full`` analog ones over ``sigma_n2``: ``max(m_total,
    m_full / sigma_n2)`` times that bound must be finite (the
    noncentralities are smaller).  A head count of ``2**63`` or more is
    refused, since the level counts are drawn as 64-bit integers.

    The fleet's size does not set the cost or the memory of a trial, which
    draws its sums and level counts rather than its sensors.  A scenario is
    refused whose tables and blocks of trials would take more than
    ``_MEMORY_CAP`` bytes, ``_MAX_WORKERS`` blocks at once, by the estimates
    of ``_table_bytes`` and ``_trial_bytes``; only a very long ``pfa_grid``
    gets there.  A given threshold set is refused, naming its field, where
    the chosen LMPT detector that reads its levels without the analog sums
    carries no information (``design_objective`` is 0), since its statistic
    would divide by that information.
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

    def __post_init__(self):
        SignalParams(self.theta, self.sigma_n2, self.sigma_h2)  # checks the three fields
        check_bits("bits_hybrid", self.bits_hybrid)
        check_bits("bits_low", self.bits_low)
        if self.bits_low == self.bits_hybrid:
            raise ValueError("bits_low and bits_hybrid must differ (labels collide)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        grid = tuple(self.pfa_grid)
        if not grid:
            raise ValueError("pfa_grid must not be empty")
        if any(not 0.0 < p < 1.0 for p in grid):
            raise ValueError("pfa_grid values must lie in (0, 1)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("pfa_grid must be strictly increasing")
        roster = self.roster()
        if not self.detectors:
            object.__setattr__(self, "detectors", tuple(roster))
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError("detectors must not repeat a name")
        unknown = set(self.detectors) - set(roster)
        if unknown:
            raise ValueError(f"unknown detectors {sorted(unknown)}")
        if self.m_quantized < 0 or self.m_full < 0 or self.m_quantized + self.m_full < 1:
            raise ValueError("the fleet must contain at least one sensor")
        if max(self.m_quantized, self.m_full) >= 2**63:
            raise ValueError("m_quantized and m_full must each be below 2**63: counts are drawn as 64-bit integers")
        subject = f"pfa_grid of {len(grid)} values is too long: the blocks of trials"
        block_bytes = min(ROC_BLOCK, self.trials) * self._trial_bytes()
        _refuse_above_cap(self._table_bytes() + _MAX_WORKERS * block_bytes, subject)
        check_sigma_n2(self.sigma_n2, self.m_total)
        peak = (self.theta * (1.0 + math.sqrt(self.sigma_h2) * GAUSSIAN_REACH)
                + math.sqrt(self.sigma_n2) * GAUSSIAN_REACH)
        if not math.isfinite(max(self.m_total, self.m_full / self.sigma_n2) * peak):
            raise ValueError(f"theta = {self.theta!r} is too large: the per-trial sums of observations overflow")
        chosen = [roster[det] for det in self.detectors]
        if self.m_quantized == 0 and any(reads.bits for reads in chosen):
            raise ValueError("quantized detectors need m_quantized >= 1")
        if self.m_full == 0 and any(reads.analog for reads in chosen):
            raise ValueError("full-precision detectors need m_full >= 1")
        if not 0.0 <= self.p_e <= 0.5:
            raise ValueError("p_e must lie in [0, 0.5]")
        blind = [det for det in self.detectors if roster[det].kind == "lmpt" and not roster[det].analog]
        if self.p_e == 0.5 and blind:
            raise ValueError(f"p_e = 0.5 erases every level: detectors {sorted(blind)} carry no information")
        for name, bits in (("thresholds_hybrid", self.bits_hybrid), ("thresholds_low", self.bits_low)):
            thresholds = getattr(self, name)
            if thresholds is None:
                continue
            _check_thresholds(name, bits, thresholds, self.sigma_n2)
            alone = [det for det in blind if roster[det].bits == bits]
            if alone and design_objective(thresholds, DesignProblem(bits, self.p_e, self.sigma_n2)) <= 0:
                raise ValueError(f"{name}: detectors {alone} carry no information at these thresholds")

    def roster(self) -> dict[str, Reads]:
        """Every detector's label and what it reads, in the default order."""
        return {
            "clairvoyant": Reads("sum", None, False),
            f"{self.bits_low}b": Reads("lmpt", self.bits_low, False),
            f"{self.bits_hybrid}b": Reads("lmpt", self.bits_hybrid, False),
            "fp": Reads("sum", None, True),
            f"{self.bits_hybrid}b-fp": Reads("lmpt", self.bits_hybrid, True),
            f"r-{self.bits_hybrid}b-fp": Reads("reconstruction", self.bits_hybrid, True),
        }

    def _trial_bytes(self) -> int:
        """Bytes one trial of a ``run_roc`` block may hold at its peak, with both depths' counts drawn.

        Per trial 96: the two normals, their sums and the temporaries
        between, with the previous block's sums, which a worker holds until
        the new ones replace them.  Per received level of each depth 32: its
        count, the previous block's, and the term and running sum that score
        it.  Per detector 64: its score or centroid sum and the temporaries
        of its statistic, the statistic, and its copy among the stacked
        statistics; and per detector and pfa target 9, its exceedances and
        their 64-bit copy in the count.  None of it grows with the fleet.
        """
        levels = 2**self.bits_hybrid + 2**self.bits_low
        return 96 + 32 * levels + len(self.detectors) * (64 + 9 * len(self.pfa_grid))

    def _table_bytes(self) -> int:
        """Bytes ``run_roc`` holds once, whatever its trials and workers:
        per depth 4 arrays of ``4**bits`` floats, its channel kernel and the
        temporaries that build it; 512 per output row; and 64 KiB for the
        thread pool and the small tables."""
        rows = len(self.detectors) * len(self.pfa_grid)
        return 32 * (4**self.bits_hybrid + 4**self.bits_low) + 512 * rows + 2**16

    @property
    def m_total(self) -> int:
        return self.m_quantized + self.m_full


def _scenario_quantizer(scenario: RocScenario, bits: int) -> QuantizerSpec:
    """The scenario's thresholds at depth ``bits``, or else the optimized design for its channel."""
    thresholds = scenario.thresholds_hybrid if bits == scenario.bits_hybrid else scenario.thresholds_low
    if thresholds is None:
        thresholds = optimized_thresholds(bits, scenario.p_e, scenario.sigma_n2, PsoSettings()).thresholds
    return QuantizerSpec(bits, thresholds)


def _observation_moments(params: SignalParams) -> list[tuple[float, float]]:
    """Mean and deviation of one observation under H0 and under H1.

    Under H1 ``y = theta * h + w`` with independent Gaussians ``h ~ N(1,
    sigma_h2)`` and ``w ~ N(0, sigma_n2)``, so ``y`` is exactly ``N(theta,
    theta**2 * sigma_h2 + sigma_n2)``; its deviation is taken by ``hypot``,
    not as the square root of the variance, since ``theta**2`` overflows
    long before ``theta * sigma_h`` does.
    """
    theta, sigma_n = params.theta, params.sigma_n
    return [(0.0, sigma_n), (theta, math.hypot(theta * math.sqrt(params.sigma_h2), sigma_n))]


def _received_law(spec: QuantizerSpec, p_e: float, mean: float, deviation: float) -> np.ndarray:
    """Probability of each received level, indexed by ``level - 1``, of one
    sensor whose sample is ``N(mean, deviation**2)``, sent over a channel of
    crossover ``p_e``."""
    return bsc_kernel(spec.bits, p_e) @ cell_tables((np.asarray(spec.thresholds) - mean) / deviation)[0]


def _level_sums(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``sum_k counts[:, k] * table[k]`` for each row of level counts.

    The sum runs level by level, in level order: a running sum keeps every
    partial, so no pairwise or BLAS order can enter, and a row's value does
    not depend on how many rows share the call.
    """
    return np.add.accumulate(counts * table, axis=1)[:, -1]


def run_roc(scenario: RocScenario) -> Table:
    """Monte Carlo ROC table for the scenario's detector roster.

    Decision thresholds come from the asymptotic theory; the empirical
    false-alarm rate is reported next to the target to expose asymptotic
    error.  Theory detection probabilities are filled for the raw sums and
    the locally optimal detectors (the reconstruction baseline has none).

    Every detector reads the quantized sensors only through a sum of
    per-level scores or centroids, and the sensors are independent and
    alike, so a trial draws its sums of observations and the counts of its
    received levels, which are multinomial, instead of its sensors.

    Trials run in blocks of ``ROC_BLOCK``.  Block ``b`` under hypothesis
    ``h`` draws from ``trial_rng(seed, h, b)``: an ``(n, 2)`` array of
    standard normals ``z``, making the raw sum of the quantized sensors,
    ``m_quantized * mu_h + sqrt(m_quantized) * s_h * z[:, 0]``, and the
    analog sum, ``m_full * mu_h + sqrt(m_full) * s_h * z[:, 1]``, with one
    observation's ``(mu_h, s_h)`` from ``_observation_moments``; then
    ``multinomial(m_quantized, law, size=n)`` with the ``bits_hybrid``
    ``_received_law`` if a detector reads ``bits_hybrid`` levels; then the
    same at ``bits_low`` if one reads ``bits_low`` levels.  Detectors share
    a draw only where they read the same quantity, and no output reads
    across detectors.  These streams, this draw order and ``ROC_BLOCK``
    are the block kernel's whole output contract: the passes after the
    draws may change only so that every count stays the same.  The counts
    are scored level by level (``_level_sums``), so a trial's statistic
    does not depend on its block.  Only exceedance counts outlive a block.

    The ``(hypothesis, block)`` jobs run concurrently on the thread pool of
    ``_pool_map``, whose size comes from CPU affinity and no option sets.
    Each thread sums its own blocks' integer counts, and the threads' sums
    are added at the end, so the table does not depend on the worker count
    or the scheduling, and memory is bounded by workers times a block.
    """
    sigma_n = math.sqrt(scenario.sigma_n2)
    params = SignalParams(scenario.theta, scenario.sigma_n2, scenario.sigma_h2)
    m_q, m_u, m_total = scenario.m_quantized, scenario.m_full, scenario.m_total
    roster = scenario.roster()
    chosen = [roster[det] for det in scenario.detectors]
    norm = sigma_n * math.sqrt(m_total)

    # The quantizers some detector reads, in draw order.
    specs = {
        bits: _scenario_quantizer(scenario, bits)
        for bits in (scenario.bits_hybrid, scenario.bits_low)
        if any(reads.bits == bits for reads in chosen)
    }
    # A kernel per LMPT detector, keyed by the (depth, reads analog) pair
    # that tells the roster's LMPT entries apart; a centroid table per
    # reconstruction depth; and the noncentrality of every detector but it.
    kernels, recon, lam = {}, {}, {}
    for det, (kind, bits, analog) in zip(scenario.detectors, chosen):
        if kind == "sum":
            lam[det] = params.theta * math.sqrt((m_u if analog else m_total) / scenario.sigma_n2)
        elif kind == "lmpt":
            kernel = kernels[bits, analog] = NetworkKernels(
                specs[bits], scenario.p_e, m_q, m_u if analog else 0, scenario.sigma_n2)
            lam[det] = params.theta * math.sqrt(kernel.fisher_info)
        else:
            recon[bits] = reconstruction_table(specs[bits], sigma_n)
    # The score table depends on the quantizer and channel alone, so each
    # depth's score sums come from one of its kernels and serve them all.
    scorers = {bits: kernel for (bits, _), kernel in kernels.items()}

    means, deviations = zip(*_observation_moments(params))
    laws = {bits: [_received_law(spec, scenario.p_e, mu, s) for mu, s in zip(means, deviations)]
            for bits, spec in specs.items()}
    # The raw and analog sums of a trial are ``z * scales[h] + shifts[h]``.
    scales = [np.array([math.sqrt(m_q) * s, math.sqrt(m_u) * s]) for s in deviations]
    shifts = [np.array([m_q * mu, m_u * mu]) for mu in means]

    # Thresholds down a column, so each comparison runs along a contiguous row.
    etas = np.array([threshold_for_pfa(pfa) for pfa in scenario.pfa_grid])[:, None]

    def run_blocks(jobs: range) -> np.ndarray:
        # One loop per thread, summing its blocks' counts into one array: a
        # block's arrays live until the next block replaces them, so the
        # allocator reuses their memory, and nothing grows with the trials.
        exceed = np.zeros((len(means), len(chosen), len(etas)), dtype=np.int64)
        for job in jobs:
            hyp_idx, block_idx = divmod(job, blocks)
            n = min(ROC_BLOCK, scenario.trials - block_idx * ROC_BLOCK)
            rng = trial_rng(scenario.seed, hyp_idx, block_idx)
            raw, analog = (rng.standard_normal((n, 2)) * scales[hyp_idx] + shifts[hyp_idx]).T
            # The counts are drawn in this order, after the normals.
            counts = {bits: rng.multinomial(m_q, law[hyp_idx], size=n) for bits, law in laws.items()}
            scores = {bits: _level_sums(counts[bits], kernel.level_scores[1:]) for bits, kernel in scorers.items()}
            stats = []
            for kind, bits, reads_analog in chosen:
                if kind == "sum":
                    stats.append(analog / (sigma_n * math.sqrt(m_u)) if reads_analog else (raw + analog) / norm)
                elif kind == "lmpt":
                    stats.append(kernels[bits, reads_analog].statistic(scores[bits], analog if reads_analog else None))
                else:
                    stats.append((_level_sums(counts[bits], recon[bits]) + analog) / norm)
            exceed[hyp_idx] += (np.stack(stats)[:, None, :] > etas).sum(axis=2)
        return exceed

    blocks = -(-scenario.trials // ROC_BLOCK)
    exceed = sum(_pool_map(run_blocks, range(len(means) * blocks)))

    rows = []
    for k, det in enumerate(scenario.detectors):
        for j, pfa in enumerate(scenario.pfa_grid):
            eta = float(etas[j, 0])
            pfa_mc = int(exceed[0, k, j]) / scenario.trials
            pd_mc = int(exceed[1, k, j]) / scenario.trials
            stderr = math.sqrt(max(pd_mc * (1.0 - pd_mc), 0.0) / scenario.trials)
            pd_theory = theoretical_pd(lam[det], eta) if det in lam else None
            rows.append((det, float(pfa), eta, pd_theory, pfa_mc, pd_mc, stderr))
    return Table(ROC_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Allocation sweep
# ---------------------------------------------------------------------------


#: Bytes per output row of ``allocate`` and ``sweep`` (its Python objects
#: and its encoded text, near 60 a row), and for each command's fixed
#: objects, among them the csv writer's record buffer (128 KiB).
_ALLOCATION_ROW_BYTES = 256
_ALLOCATION_BASE_BYTES = 2**18


def _allocation_bytes(scenario, m_values, rows: int) -> int:
    """Bytes an allocation scenario's run may hold at once, for ``rows``
    (case, sense) rows over the fleets ``m_values``: the program's arrays
    by the estimate of ``allocation.program_bytes``, plus each point's
    output rows, one summary row and one per (depth or full precision,
    category), plus the fixed objects."""
    out_rows = rows * len(m_values) * (1 + (scenario.max_bits + 1) * len(scenario.epsilons))
    return _ALLOCATION_BASE_BYTES + out_rows * _ALLOCATION_ROW_BYTES + alloc.program_bytes(
        m_values, rows, scenario.budget, scenario.l0, scenario.max_bits, scenario.budget_mode)


@dataclass(frozen=True)
class SweepCase:
    name: str
    freqs: tuple[float, ...]


@dataclass(frozen=True)
class SweepScenario:
    """Detection probability versus fleet size under a fixed bit budget.

    A sweep is refused, naming ``m_values`` and ``budget``, whose run would
    take more than ``_MEMORY_CAP`` bytes by the estimate of
    ``_allocation_bytes``, before anything is designed or allocated.
    """

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

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be nonnegative (one-sided test)")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError("pfa must lie strictly inside (0, 1)")
        alloc.check_budget(self.budget, self.l0)
        check_bits("max_bits", self.max_bits)
        check_sigma_n2(self.sigma_n2, max(self.m_values, default=1))
        # Each sensor adds at most 1 / sigma_n2 to a point's information.
        if not math.isfinite(self.theta * math.sqrt(max(self.m_values, default=1) / self.sigma_n2)):
            raise ValueError(f"theta = {self.theta!r} is too large: the noncentrality theta * sqrt(FI) overflows")
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
        rows = len(self.cases) * len(self.senses)
        _refuse_above_cap(_allocation_bytes(self, self.m_values, rows), f"m_values up to {max(self.m_values)} and "
                          f"budget = {self.budget} are too large: the allocation program")


def _allocation_outcomes(scenario, cases, m_values, senses) -> list:
    """``allocation.allocate_sweep``'s outcome at every (case, fleet size,
    sense) point of ``scenario``'s channel and budget.  The information
    table is designed only where counting (``allocation.spare_bits``)
    leaves a fleet to solve."""
    refused, spare = alloc.spare_bits(m_values, scenario.budget, scenario.l0, scenario.max_bits, scenario.budget_mode)
    if not spare:
        return [alloc.AllocationInfeasibleError(refused[m]) for _ in cases for m in m_values for _ in senses]
    table = alloc.build_fi_table(scenario.epsilons, scenario.max_bits, scenario.sigma_n2)
    return alloc.allocate_sweep(scenario.epsilons, cases, m_values, table, scenario.budget, scenario.l0,
                                scenario.budget_mode, senses)


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
    aborting the sweep.  The information table is built first, unless
    counting refuses every point; then one call of
    ``allocation.allocate_sweep`` solves every point from one dynamic
    program over the sensors of the largest fleet, the smaller fleets being
    prefixes of it, and the rows come out in point order.
    """
    eta = threshold_for_pfa(scenario.pfa)
    outcomes = _allocation_outcomes(
        scenario, [case.freqs for case in scenario.cases], scenario.m_values, scenario.senses)
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


#: Bytes per grid cell at the peak of ``run_landscape`` followed by ``emit``:
#: the grid's float arrays, the table's Python rows and, for JSON, their
#: encoded text, which peaks near 440 bytes a cell.
_LANDSCAPE_CELL_BYTES = 600


@dataclass(frozen=True)
class LandscapeScenario:
    """A 2-bit information surface over a ``points`` by ``points`` grid."""

    p_e: float = 0.2
    sigma_n2: float = 1.0
    tau_lo: float = -5.0
    tau_hi: float = 5.0
    points: int = 201
    tau2: float = 0.0

    def __post_init__(self):
        DesignProblem(2, self.p_e, self.sigma_n2)  # checks p_e and sigma_n2
        if self.points < 1:
            raise ValueError("points must be >= 1")
        _refuse_above_cap(self.points**2 * _LANDSCAPE_CELL_BYTES, f"points = {self.points} is too many: the grid")


LANDSCAPE_COLUMNS = ("tau1", "tau3", "objective")


def run_landscape(scenario: LandscapeScenario) -> Table:
    """Tidy (tau1, tau3, objective) table; invalid cells carry ``None``."""
    problem = DesignProblem(bits=2, p_e=scenario.p_e, sigma_n2=scenario.sigma_n2)
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
    seed: int = 20260810

    def __post_init__(self):
        DesignProblem(self.bits, self.p_e, self.sigma_n2, self.tau_max)  # checks the four fields
        if not self.methods:
            raise ValueError("methods must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must not repeat a name")
        unknown = set(self.methods) - {"bgda", "pso"}
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; expected 'bgda' or 'pso'")
        if "bgda" in self.methods and self.p_e != 0.0:
            raise ValueError("methods: bgda requires an error-free channel (p_e = 0)")
        if self.bgda_init is not None:
            _check_thresholds("bgda_init", self.bits, self.bgda_init, self.sigma_n2)


def run_design(scenario: DesignScenario) -> Table:
    """Run the requested designers and tabulate thresholds and objectives."""
    problem = DesignProblem(
        bits=scenario.bits,
        p_e=scenario.p_e,
        sigma_n2=scenario.sigma_n2,
        tau_max=scenario.tau_max,
    )
    n_thr = problem.n_thresholds
    columns = ("method", "bits", "p_e", "sigma_n2", "objective", "iterations") + tuple(
        f"thr_{k+1}" for k in range(n_thr)
    )
    rows = []
    for method in scenario.methods:
        if method == "bgda":
            result = design_bgda(problem, scenario.bgda_init)
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
    """One allocation instance.  Refused, naming ``m_total`` and ``budget``,
    where its run would take more than ``_MEMORY_CAP`` bytes by the estimate
    of ``_allocation_bytes``, before anything is designed or allocated."""

    epsilons: tuple[float, ...] = (0.0, 0.01, 0.1, 0.2)
    freqs: tuple[float, ...] = (0.6, 0.2, 0.1, 0.1)
    m_total: int = 60
    budget: int = 500
    l0: int = 32
    max_bits: int = 3
    sigma_n2: float = 1.0
    budget_mode: alloc.BudgetMode = alloc.BudgetMode.AT_MOST
    sense: alloc.Sense = alloc.Sense.MAXIMIZE_FI

    def __post_init__(self):
        alloc.check_budget(self.budget, self.l0)
        check_bits("max_bits", self.max_bits)
        check_sigma_n2(self.sigma_n2, max(self.m_total, 1))
        alloc.ErrorHistogram(self.epsilons, self.freqs, self.m_total)
        subject = f"m_total = {self.m_total} and budget = {self.budget} are too large: the allocation program"
        _refuse_above_cap(_allocation_bytes(self, (self.m_total,), 1), subject)


ALLOCATE_COLUMNS = ("level", "epsilon", "count", "total_fi", "bits_used")


def run_allocate(scenario: AllocateScenario) -> Table:
    """Solve one allocation instance and emit the assignment tidily; a budget
    that counting refuses (``allocation.spare_bits``) raises before any design."""
    (result,) = _allocation_outcomes(scenario, (scenario.freqs,), (scenario.m_total,), (scenario.sense,))
    if isinstance(result, alloc.AllocationInfeasibleError):
        raise result
    rows = [
        (*row, result.total_fi, result.bits_used)
        for row in _assignment_rows(result, scenario.epsilons)
    ]
    return Table(ALLOCATE_COLUMNS, rows)
