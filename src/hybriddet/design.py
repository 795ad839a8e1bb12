"""Per-sensor threshold optimization.

A quantized sensor's information contribution is maximized over its
threshold vector.  Over an error-free channel the objective is unimodal
and a projected gradient ascent (BGDA) suffices; with channel errors the
surface grows multiple peaks and a constriction-factor particle swarm is
used instead.  A grid evaluator reproduces the information landscape for
2-bit designs.
"""

from __future__ import annotations

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
    "find_local_maxima",
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


def _objective_rows(
    tau: np.ndarray, problem: DesignProblem, kernel: np.ndarray | None = None
) -> np.ndarray:
    """Information contribution for each row of sorted thresholds.

    Rows may contain repeated values (e.g. after clipping); the resulting
    zero-probability cells contribute nothing.  ``kernel`` is the problem's
    ``bsc_kernel``; callers that evaluate many batches pass it in once
    instead of having it rebuilt per call.
    """
    tau = np.atleast_2d(np.asarray(tau, dtype=float))
    sigma = problem.sigma_n
    probs, scores = _swarm_cells(tau, sigma)
    if kernel is None:
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
    init,
    step: float = 0.5,
    tol: float = 1e-8,
    max_iters: int = 10_000,
) -> DesignResult:
    """Projected gradient ascent for the error-free, unimodal objective.

    Steps along the closed-form gradient with halving when a step would
    not improve; ordering violations are projected back apart.  Stops when
    the gradient max-norm drops below ``tol``.
    """
    if problem.p_e != 0.0:
        raise ValueError("gradient ascent requires p_e == 0")
    if step <= 0:
        raise ValueError("step must be positive")
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
    rng = np.random.default_rng(settings.seed)
    dim = problem.n_thresholds
    swarm = settings.swarm_size
    chi = settings.constriction()
    bound = problem.tau_max
    kernel = bsc_kernel(problem.bits, problem.p_e, problem.mapping)

    pos = rng.uniform(-bound, bound, size=(swarm, dim))
    for k, guess in enumerate(initial_guesses[:swarm]):
        pos[k] = np.clip(np.asarray(guess, dtype=float), -bound, bound)
    vel = np.zeros((swarm, dim))
    obj = _objective_rows(np.sort(pos, axis=1), problem, kernel)
    pbest = pos.copy()
    pbest_obj = obj.copy()
    g_idx = int(np.argmax(pbest_obj))
    gbest = pbest[g_idx].copy()
    gbest_obj = float(pbest_obj[g_idx])
    trace = [gbest_obj]

    for _ in range(settings.max_iters):
        r1 = rng.random((swarm, dim))
        r2 = rng.random((swarm, dim))
        vel = chi * (
            vel
            + settings.c1 * r1 * (pbest - pos)
            + settings.c2 * r2 * (gbest - pos)
        )
        pos = np.clip(pos + vel, -bound, bound)
        obj = _objective_rows(np.sort(pos, axis=1), problem, kernel)
        better = obj > pbest_obj
        pbest[better] = pos[better]
        pbest_obj[better] = obj[better]
        g_idx = int(np.argmax(pbest_obj))
        if pbest_obj[g_idx] > gbest_obj:
            gbest = pbest[g_idx].copy()
            gbest_obj = float(pbest_obj[g_idx])
        trace.append(gbest_obj)
        if np.max(np.abs(vel)) <= settings.v_tol:
            break
        if (
            len(trace) > _STALL_ITERS
            and gbest_obj - trace[-1 - _STALL_ITERS] <= _STALL_TOL * abs(gbest_obj)
        ):
            break

    thresholds = tuple(float(t) for t in np.sort(gbest))
    return DesignResult(thresholds, gbest_obj, tuple(trace))


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


def find_local_maxima(values: np.ndarray) -> list[tuple[int, int]]:
    """Grid cells strictly greater than every finite 8-neighbor.

    NaN cells are skipped and never count as neighbors; boundary cells
    compare against their existing neighbors only.
    """
    rows, cols = values.shape
    maxima = []
    for i in range(rows):
        for j in range(cols):
            v = values[i, j]
            if not np.isfinite(v):
                continue
            is_max = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if 0 <= ni < rows and 0 <= nj < cols:
                        nb = values[ni, nj]
                        if np.isfinite(nb) and nb >= v:
                            is_max = False
                            break
                if not is_max:
                    break
            if is_max:
                maxima.append((i, j))
    return maxima


_DESIGN_CACHE: dict[tuple, DesignResult] = {}

#: Shrink/stretch factors applied to the error-free optimum when seeding
#: error-prone swarms; informative thresholds contract as channels worsen.
_GUESS_SCALES = (1.0, 0.5, 0.25, 2.0)
_PSO_RESTARTS = 3


def _error_free_optimum(bits: int, sigma_n2: float) -> np.ndarray:
    problem = DesignProblem(bits=bits, p_e=0.0, sigma_n2=sigma_n2)
    n = problem.n_thresholds
    init = np.linspace(-1.0, 1.0, n + 2)[1:-1] * math.sqrt(sigma_n2)
    if n == 1:
        init = np.array([0.0])
    return np.asarray(design_bgda(problem, init).thresholds)


def optimized_thresholds(
    bits: int,
    p_e: float,
    sigma_n2: float,
    settings: PsoSettings,
    tau_max: float = 5.0,
    mapping: str = DEFAULT_MAPPING,
) -> DesignResult:
    """Best swarm design for one (bit depth, channel) cell, cached.

    Runs a few independent swarms whose seeds derive deterministically from
    the base settings seed and the cell coordinates, each seeded with
    scaled copies of the error-free optimum, and keeps the best objective.
    Repeated calls (and concurrent table builds) agree exactly.
    """
    key = (bits, float(p_e), float(sigma_n2), settings, float(tau_max), mapping)
    hit = _DESIGN_CACHE.get(key)
    if hit is not None:
        return hit
    base = _error_free_optimum(bits, sigma_n2)
    guesses = tuple(tuple(base * s) for s in _GUESS_SCALES)
    cell = np.random.SeedSequence(
        settings.seed, spawn_key=(bits, int(round(p_e * 10**9)))
    )
    problem = DesignProblem(
        bits=bits, p_e=p_e, sigma_n2=sigma_n2, tau_max=tau_max, mapping=mapping
    )
    best: DesignResult | None = None
    for restart_seed in cell.generate_state(_PSO_RESTARTS):
        derived = replace(settings, seed=int(restart_seed))
        result = design_pso(problem, derived, initial_guesses=guesses)
        if best is None or result.objective > best.objective:
            best = result
    best = _separate_ties(best, problem)
    _DESIGN_CACHE[key] = best
    return best


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
