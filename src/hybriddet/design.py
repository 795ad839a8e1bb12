"""Per-sensor threshold optimization.

A quantized sensor's information contribution is maximized over its
threshold vector.  Over an error-free channel the objective is unimodal
and a projected gradient ascent (BGDA) suffices; with channel errors the
surface grows multiple peaks and a constriction-factor particle swarm is
used instead.  A grid evaluator reproduces the information landscape for
2-bit designs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .detection import bsc_kernel, received_information
from .model import DEFAULT_MAPPING, check_bits, gaussian_pdf, gaussian_upper_tail

__all__ = [
    "DesignProblem",
    "PsoSettings",
    "DesignResult",
    "design_objective",
    "objective_gradient",
    "design_bgda",
    "design_pso",
    "fi_landscape",
    "optimized_cells",
    "optimized_thresholds",
]


@dataclass(frozen=True)
class DesignProblem:
    """One sensor's design instance: bit depth, channel quality, noise level.

    ``tau_max`` bounds the swarm search box; gradient ascent is
    unconstrained apart from threshold ordering.
    """

    bits: int
    p_e: float
    sigma_n2: float = 1.0
    tau_max: float = 5.0
    mapping: str = DEFAULT_MAPPING

    def __post_init__(self):
        check_bits("bits", self.bits)
        if not 0.0 <= self.p_e <= 0.5:
            raise ValueError("p_e must lie in [0, 0.5]")
        if self.sigma_n2 <= 0:
            raise ValueError("sigma_n2 must be positive")
        if self.tau_max <= 0:
            raise ValueError("tau_max must be positive")

    @property
    def n_thresholds(self) -> int:
        return 2**self.bits - 1

    @property
    def sigma_n(self) -> float:
        return math.sqrt(self.sigma_n2)


@dataclass(frozen=True)
class PsoSettings:
    """Constriction-factor swarm parameters.

    With ``chi`` unset the Clerc-Kennedy factor is derived from
    ``c1 + c2``, which must then exceed 4.
    """

    c1: float = 2.05
    c2: float = 2.05
    swarm_size: int = 100
    v_tol: float = 1e-6
    max_iters: int = 2000
    seed: int = 0
    chi: float | None = None

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.v_tol <= 0:
            raise ValueError("v_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.chi is None and self.c1 + self.c2 <= 4.0:
            raise ValueError("c1 + c2 must exceed 4 for the constriction factor")

    def constriction(self) -> float:
        if self.chi is not None:
            return self.chi
        phi = self.c1 + self.c2
        return 2.0 / (phi - 2.0 + math.sqrt(phi * phi - 4.0 * phi))


@dataclass(frozen=True)
class DesignResult:
    thresholds: tuple[float, ...]
    objective: float
    trace: tuple[float, ...]


def _swarm_cells(tau: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell probabilities and score weights for rows of sorted thresholds.

    The last copy of ``detection.cell_tables``, kept on purpose.  Its
    probabilities subtract adjacent upper tails, ``tails[:, :-1] -
    tails[:, 1:]``, which cancels to 0 in cells far below zero.  Switching
    to ``cell_tables`` is a one-line change that waits for a tie-aware
    roc-mc check and a restated design gate (ROADMAP item 2): any
    tail-safe form moves the 3-bit designs, ``cell_tables`` itself costs
    35-45% per call, and the full-speed tail-safe form puts the 1-bit
    designs exactly on 0, where the ``1b`` detector's null statistic ties
    with eta = 0 in 8.9% of trials.
    """
    n_rows = tau.shape[0]
    edges = np.concatenate(
        (
            np.full((n_rows, 1), -np.inf),
            tau,
            np.full((n_rows, 1), np.inf),
        ),
        axis=1,
    )
    z = edges / sigma
    tails = gaussian_upper_tail(z)
    dens = gaussian_pdf(z)
    return tails[:, :-1] - tails[:, 1:], sigma**2 * (dens[:, :-1] - dens[:, 1:])


def _objective_rows(tau: np.ndarray, problem: DesignProblem) -> np.ndarray:
    """Information contribution for each row of sorted thresholds.

    Rows may contain repeated values (e.g. after clipping); the resulting
    zero-probability cells contribute nothing.
    """
    tau = np.atleast_2d(np.asarray(tau, dtype=float))
    sigma = problem.sigma_n
    probs, scores = _swarm_cells(tau, sigma)
    kernel = bsc_kernel(problem.bits, problem.p_e, problem.mapping)
    return received_information(probs, scores, kernel, sigma)[2]


def _check_monotone(thresholds) -> np.ndarray:
    tau = np.asarray(thresholds, dtype=float)
    if tau.ndim != 1:
        raise ValueError("thresholds must be one-dimensional")
    if tau.size > 1 and not np.all(np.diff(tau) > 0):
        raise ValueError("thresholds must be strictly increasing")
    return tau


def design_objective(thresholds, problem: DesignProblem) -> float:
    """Single-sensor information contribution at the given thresholds."""
    tau = _check_monotone(thresholds)
    if tau.size != problem.n_thresholds:
        raise ValueError(
            f"expected {problem.n_thresholds} thresholds, got {tau.size}"
        )
    return float(_objective_rows(tau, problem)[0])


def objective_gradient(thresholds, problem: DesignProblem) -> np.ndarray:
    """Closed-form gradient of the error-free objective.

    Component ``i`` couples only cells ``i`` and ``i+1``:
    ``pdf(t_i/s)/s**6 * (F_i/Q_i - F_{i+1}/Q_{i+1})
    * (2 t_i - (F_i/Q_i + F_{i+1}/Q_{i+1})/s)``.
    Only valid for a noiseless reporting channel.
    """
    if problem.p_e != 0.0:
        raise ValueError("closed-form gradient requires p_e == 0")
    tau = _check_monotone(thresholds)
    if tau.size != problem.n_thresholds:
        raise ValueError(
            f"expected {problem.n_thresholds} thresholds, got {tau.size}"
        )
    sigma = problem.sigma_n
    probs, scores = (table[0] for table in _swarm_cells(tau[None, :], sigma))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(probs > 0.0, scores / np.where(probs > 0.0, probs, 1.0), 0.0)
    psi = gaussian_pdf(tau / sigma)
    lead = ratio[:-1] - ratio[1:]
    bracket = 2.0 * tau - (ratio[:-1] + ratio[1:]) / sigma
    return psi * lead * bracket / sigma**6


def _project_strictly_increasing(tau: np.ndarray, gap: float = 1e-9) -> np.ndarray:
    """Repair ordering violations by splitting offending pairs around their midpoint."""
    tau = tau.copy()
    for _ in range(max(len(tau), 4)):
        bad = np.where(np.diff(tau) <= 0)[0]
        if bad.size == 0:
            return tau
        for i in bad:
            mid = 0.5 * (tau[i] + tau[i + 1])
            tau[i] = mid - gap
            tau[i + 1] = mid + gap
    order = np.argsort(tau, kind="stable")
    tau = tau[order] + gap * np.arange(len(tau))
    return tau


def design_bgda(
    problem: DesignProblem,
    init=None,
    step: float = 0.5,
    tol: float = 1e-8,
    max_iters: int = 10_000,
) -> DesignResult:
    """Projected gradient ascent for the error-free, unimodal objective.

    Steps along the closed-form gradient with halving when a step would
    not improve; ordering violations are projected back apart.  Stops when
    the gradient max-norm drops below ``tol``.  The default start spreads
    the thresholds evenly over ``(-sigma_n, sigma_n)``.
    """
    if problem.p_e != 0.0:
        raise ValueError("gradient ascent requires p_e == 0")
    if step <= 0:
        raise ValueError("step must be positive")
    if init is None:
        init = np.linspace(-1.0, 1.0, problem.n_thresholds + 2)[1:-1] * problem.sigma_n
    x = _check_monotone(init).copy()
    if x.size != problem.n_thresholds:
        raise ValueError(f"expected {problem.n_thresholds} thresholds, got {x.size}")
    obj = design_objective(x, problem)
    trace = [obj]
    for _ in range(max_iters):
        grad = objective_gradient(x, problem)
        if np.max(np.abs(grad)) <= tol:
            break
        s = step
        improved = False
        while s > 1e-14:
            cand = _project_strictly_increasing(x + s * grad)
            cand_obj = float(_objective_rows(cand, problem)[0])
            if cand_obj > obj:
                x, obj = cand, cand_obj
                trace.append(obj)
                improved = True
                break
            s *= 0.5
        if not improved:
            break
    return DesignResult(tuple(float(t) for t in x), obj, tuple(trace))


#: Stall stop of the swarm: it ends once its best objective has risen by at
#: most ``_STALL_TOL * |best|`` over the last ``_STALL_ITERS`` sweeps.
_STALL_ITERS = 150
_STALL_TOL = 1e-12


def design_pso(
    problem: DesignProblem,
    settings: PsoSettings,
    initial_guesses: tuple = (),
) -> DesignResult:
    """Constriction-factor particle swarm over the threshold box.

    Particle coordinates are sorted before each objective evaluation, so
    the box search space needs no ordering constraint.  All randomness
    comes from one seeded stream in a fixed order; runs are reproducible.
    Stops for the first of three reasons: every velocity component is
    within ``v_tol``; the best objective has stalled, rising by at most
    ``_STALL_TOL * |best|`` over the last ``_STALL_ITERS`` sweeps; or
    ``max_iters`` sweeps have run.  The trace holds the initial best and
    one value per sweep run.

    ``initial_guesses`` optionally overwrites the first few particles;
    useful to seed the swarm with known-good candidates when the surface
    has large flat regions.
    """
    return _run_swarms([problem], [settings.seed], settings, initial_guesses)[0]


def _run_swarms(
    problems: list[DesignProblem],
    seeds: list[int],
    settings: PsoSettings,
    initial_guesses: tuple = (),
) -> list[DesignResult]:
    """One :func:`design_pso` swarm per (problem, seed) pair, run as one batch.

    The problems share bit depth, noise level and box and may differ in
    channel.  Each swarm draws from its own ``default_rng(seed)`` in a lone
    swarm's order, stops by a lone swarm's rules and then leaves the batch.
    All live rows share one cell-table call and one information call per
    run of swarms with the same channel; both act row by row, so every
    result equals its lone swarm's.
    """
    swarm, dim = settings.swarm_size, problems[0].n_thresholds
    chi, bound, sigma = settings.constriction(), problems[0].tau_max, problems[0].sigma_n
    kernels = {p: bsc_kernel(p.bits, p.p_e, p.mapping) for p in set(problems)}
    rngs = [np.random.default_rng(seed) for seed in seeds]

    def evaluate(pos: np.ndarray, live: np.ndarray) -> np.ndarray:
        probs, scores = _swarm_cells(np.sort(pos, axis=2).reshape(-1, dim), sigma)
        info, start = [], 0
        for problem, run in itertools.groupby(problems[k] for k in live):
            rows = slice(start, start + swarm * len(list(run)))
            info.append(received_information(probs[rows], scores[rows], kernels[problem], sigma)[2])
            start = rows.stop
        return np.concatenate(info).reshape(-1, swarm)

    live = np.arange(len(problems))
    pos = np.stack([rng.uniform(-bound, bound, size=(swarm, dim)) for rng in rngs])
    for k, guess in enumerate(initial_guesses[:swarm]):
        pos[:, k] = np.clip(np.asarray(guess, dtype=float), -bound, bound)
    vel = np.zeros_like(pos)
    pbest, pbest_obj = pos.copy(), evaluate(pos, live)
    g_idx = np.argmax(pbest_obj, axis=1)
    gbest, gbest_obj = pbest[live, g_idx], pbest_obj[live, g_idx]
    traces = [[float(best)] for best in gbest_obj]
    results: list[DesignResult | None] = [None] * len(problems)

    def finish(done: np.ndarray) -> None:
        for i in np.flatnonzero(done):
            k = live[i]
            thresholds = tuple(float(t) for t in np.sort(gbest[i]))
            results[k] = DesignResult(thresholds, traces[k][-1], tuple(traces[k]))

    for _ in range(settings.max_iters):
        r1, r2 = np.empty_like(pos), np.empty_like(pos)
        for i, k in enumerate(live):
            rngs[k].random(out=r1[i])
            rngs[k].random(out=r2[i])
        vel = chi * (
            vel
            + settings.c1 * r1 * (pbest - pos)
            + settings.c2 * r2 * (gbest[:, None] - pos)
        )
        pos = np.clip(pos + vel, -bound, bound)
        obj = evaluate(pos, live)
        better = obj > pbest_obj
        pbest[better] = pos[better]
        pbest_obj[better] = obj[better]
        rows = np.arange(live.size)
        g_idx = np.argmax(pbest_obj, axis=1)
        lead = pbest_obj[rows, g_idx]
        rose = lead > gbest_obj
        gbest[rose] = pbest[rows, g_idx][rose]
        gbest_obj[rose] = lead[rose]
        done = np.max(np.abs(vel), axis=(1, 2)) <= settings.v_tol
        for i, k in enumerate(live):
            trace, best = traces[k], float(gbest_obj[i])
            trace.append(best)
            if len(trace) > _STALL_ITERS and best - trace[-1 - _STALL_ITERS] <= _STALL_TOL * abs(best):
                done[i] = True
        if done.any():
            finish(done)
            keep = ~done
            live, pos, vel, pbest, pbest_obj = live[keep], pos[keep], vel[keep], pbest[keep], pbest_obj[keep]
            gbest, gbest_obj = gbest[keep], gbest_obj[keep]
            if live.size == 0:
                break
    finish(np.ones(live.size, dtype=bool))
    return results


def fi_landscape(
    problem: DesignProblem,
    tau1_axis,
    tau3_axis,
    tau2: float = 0.0,
) -> np.ndarray:
    """Objective over a (first, third) threshold grid with the middle fixed.

    Only strictly increasing triples are evaluated; other cells are NaN.
    Row ``i`` corresponds to ``tau1_axis[i]``, column ``j`` to
    ``tau3_axis[j]``.
    """
    if problem.bits != 2:
        raise ValueError("landscape grids are defined for 2-bit designs")
    t1 = np.asarray(tau1_axis, dtype=float)
    t3 = np.asarray(tau3_axis, dtype=float)
    g1, g3 = np.meshgrid(t1, t3, indexing="ij")
    valid = (g1 < tau2) & (g3 > tau2)
    out = np.full(g1.shape, np.nan)
    if np.any(valid):
        triples = np.column_stack(
            (g1[valid], np.full(int(valid.sum()), tau2), g3[valid])
        )
        out[valid] = _objective_rows(triples, problem)
    return out


_DESIGN_CACHE: dict[tuple, DesignResult] = {}

#: Shrink/stretch factors applied to the error-free optimum when seeding
#: error-prone swarms; informative thresholds contract as channels worsen.
_GUESS_SCALES = (1.0, 0.5, 0.25, 2.0)
_PSO_RESTARTS = 3


@functools.cache
def _error_free_optimum(bits: int, sigma_n2: float) -> np.ndarray:
    """The BGDA design over an error-free channel, computed once and read-only."""
    problem = DesignProblem(bits=bits, p_e=0.0, sigma_n2=sigma_n2)
    optimum = np.asarray(design_bgda(problem).thresholds)
    optimum.flags.writeable = False
    return optimum


def optimized_thresholds(
    bits: int,
    p_e: float,
    sigma_n2: float,
    settings: PsoSettings,
    tau_max: float = 5.0,
    mapping: str = DEFAULT_MAPPING,
) -> DesignResult:
    """Best swarm design for one (bit depth, channel) cell, cached."""
    return optimized_cells(bits, (p_e,), sigma_n2, settings, tau_max, mapping)[0]


def optimized_cells(
    bits: int,
    p_es,
    sigma_n2: float,
    settings: PsoSettings,
    tau_max: float = 5.0,
    mapping: str = DEFAULT_MAPPING,
) -> list[DesignResult]:
    """Best swarm design for each channel in ``p_es`` at one bit depth, cached.

    Each cell runs a few independent swarms whose seeds derive
    deterministically from the base settings seed and the cell coordinates,
    each seeded with scaled copies of the error-free optimum, and keeps the
    first best objective.  The swarms of every uncached cell run as one
    batch.  Repeated calls (and concurrent table builds) agree exactly.
    """
    keys = {
        p_e: (bits, float(p_e), float(sigma_n2), settings, float(tau_max), mapping)
        for p_e in p_es
    }
    missing = [p_e for p_e, key in keys.items() if key not in _DESIGN_CACHE]
    if missing:
        base = _error_free_optimum(bits, sigma_n2)
        guesses = tuple(tuple(base * s) for s in _GUESS_SCALES)
        problems, seeds = [], []
        for p_e in missing:
            cell = np.random.SeedSequence(settings.seed, spawn_key=(bits, int(round(p_e * 10**9))))
            problem = DesignProblem(
                bits=bits, p_e=p_e, sigma_n2=sigma_n2, tau_max=tau_max, mapping=mapping
            )
            problems += [problem] * _PSO_RESTARTS
            seeds += [int(seed) for seed in cell.generate_state(_PSO_RESTARTS)]
        runs = _run_swarms(problems, seeds, settings, guesses)
        for i, p_e in enumerate(missing):
            restarts = runs[i * _PSO_RESTARTS : (i + 1) * _PSO_RESTARTS]
            best = max(restarts, key=lambda result: result.objective)
            _DESIGN_CACHE[keys[p_e]] = _separate_ties(best, problems[i * _PSO_RESTARTS])
    return [_DESIGN_CACHE[keys[p_e]] for p_e in p_es]


def _separate_ties(result: DesignResult, problem: DesignProblem) -> DesignResult:
    """Move exactly tied thresholds apart by the fewest ulps.

    The swarm sorts each particle, so its best point can repeat a value,
    which no quantizer accepts.  Each repeat is raised to the next float
    above its predecessor and the objective is re-evaluated there; results
    without ties are returned unchanged.
    """
    tau = list(result.thresholds)
    for i in range(1, len(tau)):
        if tau[i] <= tau[i - 1]:
            tau[i] = float(np.nextafter(tau[i - 1], np.inf))
    if tau == list(result.thresholds):
        return result
    return replace(result, thresholds=tuple(tau), objective=design_objective(tau, problem))
