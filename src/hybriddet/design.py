"""Per-sensor threshold optimization.

A quantized sensor's information contribution is maximized over its
threshold vector.  Over an error-free channel the objective is unimodal
and a projected gradient ascent (BGDA) suffices; with channel errors the
surface grows multiple peaks, and its best points leave some levels
empty.  The cached designs of 2 and 3 bits therefore search every face of
the ordered threshold box (every set of used levels), climbing one face
of each class that a relabelling of the codeword bits maps onto each
other, with batched BFGS on the closed-form gradient, and certify the
winner.  At 1 bit the
information peaks at a threshold of 0 over every channel, so every cached
1-bit cell takes that threshold in closed form, moved up by the tie rule
``_ONE_BIT_OFFSET``.  The constriction-factor particle swarm designs the
cells of 4 or more bits and serves ``design-quantizer``.  A grid evaluator
reproduces the information landscape for 2-bit designs.
"""

from __future__ import annotations

import functools
import itertools
import math
import statistics
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .detection import bsc_kernel, cell_tables, received_information
from .model import GAUSSIAN_REACH, QuantizerSpec, check_bits, check_sigma_n2, gaussian_pdf

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

    ``tau_max`` bounds the box that the swarm and the face design search,
    in noise deviations: their thresholds lie within ``+/-tau_max *
    sigma_n``.  It may not exceed ``GAUSSIAN_REACH``: beyond it every tail
    underflows, so a swarm started there scores every particle exactly 0.
    Gradient ascent is unconstrained apart from threshold ordering.
    """

    bits: int
    p_e: float
    sigma_n2: float = 1.0
    tau_max: float = 5.0

    def __post_init__(self):
        check_bits("bits", self.bits)
        if not 0.0 <= self.p_e <= 0.5:
            raise ValueError("p_e must lie in [0, 0.5]")
        check_sigma_n2(self.sigma_n2)
        if not 0 < self.tau_max <= GAUSSIAN_REACH:
            raise ValueError(f"tau_max must lie in (0, {GAUSSIAN_REACH}] noise deviations, got {self.tau_max!r}")

    @property
    def n_thresholds(self) -> int:
        return 2**self.bits - 1

    @property
    def sigma_n(self) -> float:
        return math.sqrt(self.sigma_n2)


@dataclass(frozen=True)
class PsoSettings:
    """The design seed, by default the one every command's table designs use;
    every other swarm rule is a module constant (``_PSO_*``)."""

    seed: int = 20260810


@dataclass(frozen=True)
class DesignResult:
    thresholds: tuple[float, ...]
    objective: float
    trace: tuple[float, ...]


def _leave_unit_noise(z, trace, problem: DesignProblem) -> DesignResult:
    """A unit-noise design and its objective trace, scaled to the problem's noise level."""
    trace = tuple(float(value) / problem.sigma_n2 for value in trace)
    return DesignResult(tuple(float(t) for t in np.multiply(z, problem.sigma_n)), trace[-1], trace)


def _objective_rows(tau: np.ndarray, problem: DesignProblem) -> np.ndarray:
    """Information contribution for each row of sorted thresholds.

    Rows may contain repeated values (e.g. after clipping); the resulting
    zero-probability cells contribute nothing.  The unit-noise information
    of the thresholds over ``sigma_n`` is divided by ``sigma_n2``.
    """
    tau = np.atleast_2d(np.asarray(tau, dtype=float))
    probs, scores = cell_tables(tau / problem.sigma_n)
    kernel = bsc_kernel(problem.bits, problem.p_e)
    return received_information(probs, scores, kernel)[2] / problem.sigma_n2


def _information_terms(z: np.ndarray, kernel: np.ndarray) -> tuple:
    """Unit-noise information of rows of sorted thresholds ``z``, its gradient and the cell masses.

    With received probabilities ``R = K p`` and numerators ``N = K s``,
    moving ``z_i`` shifts mass and score weight between cells ``i`` and
    ``i + 1`` only, so the derivative is
    ``pdf(z_i) * (z_i (u_i - u_{i+1}) - (v_i - v_{i+1}))`` with
    ``u = K^T (2 N / R)`` and ``v = K^T (N / R)**2``.  ``kernel`` is one
    channel kernel or one per row.
    """
    probs, scores = cell_tables(z)
    received, numerators, info = received_information(probs, scores, kernel)
    live = received > 0.0
    ratio = np.where(live, numerators / np.where(live, received, 1.0), 0.0)
    u = np.einsum("...k,...kj->...j", 2.0 * ratio, kernel)
    v = np.einsum("...k,...kj->...j", ratio * ratio, kernel)
    grad = gaussian_pdf(z) * (z * (u[..., :-1] - u[..., 1:]) - (v[..., :-1] - v[..., 1:]))
    return info, grad, probs


def design_objective(thresholds, problem: DesignProblem) -> float:
    """Single-sensor information contribution at the given thresholds, which
    ``QuantizerSpec`` must accept at the problem's depth."""
    tau = np.array(QuantizerSpec(problem.bits, thresholds).thresholds)
    return float(_objective_rows(tau, problem)[0])


def objective_gradient(thresholds, problem: DesignProblem) -> np.ndarray:
    """Closed-form gradient of the objective, for any crossover.

    It is the unit-noise gradient at ``z = t / sigma_n``, divided by
    ``sigma_n2`` (the information's scale) and then by ``sigma_n`` (the
    thresholds').  Unit-noise component ``i`` is
    ``pdf(z_i) * (z_i (u_i - u_{i+1}) - (v_i - v_{i+1}))``, where ``u`` and
    ``v`` pass ``2 N / R`` and ``(N / R)**2`` back through the channel
    kernel (see ``_information_terms``).  Over an error-free channel it
    reduces to ``pdf(z_i) (r_i - r_{i+1}) (2 z_i - r_i - r_{i+1})`` with
    ``r`` the unit-noise score-to-mass ratio of each cell.
    """
    tau = np.array(QuantizerSpec(problem.bits, thresholds).thresholds)
    kernel = bsc_kernel(problem.bits, problem.p_e)
    return _information_terms(tau / problem.sigma_n, kernel)[1] / problem.sigma_n2 / problem.sigma_n


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


#: Gradient ascent tries a step of ``_BGDA_STEP`` times the gradient first,
#: halving it until the objective improves.  It stops once the unit-noise
#: gradient's max-norm is at most ``_BGDA_TOL``, once no halved step
#: improves, or after ``_BGDA_MAX_ITERS`` steps.
_BGDA_STEP = 0.5
_BGDA_TOL = 1e-8
_BGDA_MAX_ITERS = 10_000


def design_bgda(problem: DesignProblem, init=None) -> DesignResult:
    """Projected gradient ascent for the error-free, unimodal objective.

    Steps along the closed-form gradient with halving when a step would
    not improve; ordering violations are projected back apart.  Stops by
    the ``_BGDA_*`` rules.  The ascent runs for unit noise, from ``init``
    over ``sigma_n``; the default start spreads the thresholds evenly over
    ``(-sigma_n, sigma_n)``.
    """
    if problem.p_e != 0.0:
        raise ValueError("bgda requires an error-free channel (p_e = 0)")
    unit = replace(problem, sigma_n2=1.0)
    if init is None:
        x = np.linspace(-1.0, 1.0, problem.n_thresholds + 2)[1:-1]
    else:
        x = np.array(QuantizerSpec(problem.bits, init).thresholds) / problem.sigma_n
    obj = design_objective(x, unit)
    trace = [obj]
    for _ in range(_BGDA_MAX_ITERS):
        grad = objective_gradient(x, unit)
        if np.max(np.abs(grad)) <= _BGDA_TOL:
            break
        s = _BGDA_STEP
        improved = False
        while s > 1e-14:
            cand = _project_strictly_increasing(x + s * grad)
            cand_obj = float(_objective_rows(cand, unit)[0])
            if cand_obj > obj:
                x, obj = cand, cand_obj
                trace.append(obj)
                improved = True
                break
            s *= 0.5
        if not improved:
            break
    return _leave_unit_noise(x, trace, problem)


#: Swarm rules.  ``_PSO_SIZE`` particles move with the Clerc-Kennedy
#: accelerations ``_PSO_C1`` and ``_PSO_C2`` and constriction factor
#: ``_PSO_CHI``, derived from their sum, which must exceed 4.  A swarm stops
#: once every velocity component is within ``_PSO_V_TOL``; once its best
#: objective has risen by at most ``_STALL_TOL * |best|`` over the last
#: ``_STALL_ITERS`` sweeps while at least half of its particles' own bests
#: lie within that tolerance of the best; or after ``_PSO_MAX_ITERS`` sweeps.
#: A swarm whose best stalls while most particles still hold far worse
#: bests is still exploring, and can climb again after a long plateau.
_PSO_SIZE = 100
_PSO_C1 = 2.05
_PSO_C2 = 2.05
_PHI = _PSO_C1 + _PSO_C2
_PSO_CHI = 2.0 / (_PHI - 2.0 + math.sqrt(_PHI * _PHI - 4.0 * _PHI))
_PSO_V_TOL = 1e-6
_PSO_MAX_ITERS = 2000
_STALL_ITERS = 150
_STALL_TOL = 1e-12


def design_pso(problem: DesignProblem, settings: PsoSettings) -> DesignResult:
    """Constriction-factor particle swarm over the threshold box.

    Particle coordinates are sorted before each objective evaluation, so
    the box search space needs no ordering constraint.  All randomness
    comes from one seeded stream in a fixed order; runs are reproducible.
    Stops by the first of the ``_PSO_*`` and ``_STALL_*`` rules to hold.
    The trace holds the initial best and one value per sweep run.
    """
    unit = _run_swarms([problem], [settings.seed])[0]
    return _leave_unit_noise(unit.thresholds, unit.trace, problem)


def _run_swarms(
    problems: list[DesignProblem],
    seeds: list[int],
    initial_guesses: tuple = (),
) -> list[DesignResult]:
    """One :func:`design_pso` swarm per (problem, seed) pair, run as one batch.

    The problems share bit depth, noise level and box and may differ in
    channel.  The swarms fly for unit noise, in the box ``+/-tau_max``,
    with unit-noise ``initial_guesses`` overwriting their first particles,
    and return unit-noise designs and traces, which the callers scale.
    Each swarm draws from its own ``default_rng(seed)`` in a lone swarm's
    order, stops by a lone swarm's rules and then leaves the batch.  All
    live swarms share one cell-table call and one information call, with
    one channel kernel per swarm; both act row by row, so every result
    equals its lone swarm's.
    """
    swarm, dim = _PSO_SIZE, problems[0].n_thresholds
    bound = problems[0].tau_max
    kernels = np.stack([bsc_kernel(p.bits, p.p_e) for p in problems])[:, None]
    rngs = [np.random.default_rng(seed) for seed in seeds]

    def evaluate(pos: np.ndarray, live: np.ndarray) -> np.ndarray:
        probs, scores = cell_tables(np.sort(pos, axis=2))
        return received_information(probs, scores, kernels[live])[2]

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
            results[k] = DesignResult(tuple(float(t) for t in np.sort(gbest[i])), traces[k][-1], tuple(traces[k]))

    for _ in range(_PSO_MAX_ITERS):
        r1, r2 = np.empty_like(pos), np.empty_like(pos)
        for i, k in enumerate(live):
            rngs[k].random(out=r1[i])
            rngs[k].random(out=r2[i])
        vel = _PSO_CHI * (
            vel
            + _PSO_C1 * r1 * (pbest - pos)
            + _PSO_C2 * r2 * (gbest[:, None] - pos)
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
        done = np.max(np.abs(vel), axis=(1, 2)) <= _PSO_V_TOL
        for i, k in enumerate(live):
            trace, best = traces[k], float(gbest_obj[i])
            trace.append(best)
            tol = _STALL_TOL * abs(best)
            if (
                len(trace) > _STALL_ITERS
                and best - trace[-1 - _STALL_ITERS] <= tol
                and best - statistics.median(pbest_obj[i].tolist()) <= tol
            ):
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


class _FaceTable(NamedTuple):
    """One bit depth's faces; see ``_faces``."""

    used: np.ndarray
    slots: np.ndarray
    lookup: dict
    classes: np.ndarray
    error_free: np.ndarray


#: The first face of each class (``_faces``), by index in face order, per
#: bit depth.  Relabelling every face under every bit permutation, as
#: ``tests/oracles.face_classes_loop`` does, costs a cold process more than
#: half a millisecond at 3 bits, so the orbits are stated here.
_FACE_CLASSES = {
    1: (0, 1),
    2: (0, 1, 2, 3, 4, 6, 7, 8),
    3: (
        0, 3, 4, 5, 6, 8, 10, 11, 13, 20, 23, 24, 25, 29, 30, 35, 38, 40, 41, 42, 48,
        50, 51, 52, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 72, 74, 77, 80, 81, 82,
        84, 86, 88, 91, 92, 94, 96, 97, 98, 99, 100, 101, 102, 103, 104, 105, 106, 108,
        111, 112, 113, 114, 115, 116, 117, 119, 120, 121, 122, 123, 124, 125, 126, 127,
        128, 129, 130, 131, 132, 133, 134,
    ),
}


@functools.cache
def _faces(bits: int) -> _FaceTable:
    """The faces of the ordered threshold box that the face design searches.

    A face is the set of levels whose cells keep a positive width; every
    other level's cell is empty, its threshold repeating a neighbour or
    sitting on the box bound (the two outer levels then still hold the
    tails beyond the box).  The faces are every set of used levels, by size
    and then in lexicographic order of the level tuple.  Of each mirror
    pair (level ``l`` swapped with level ``2**bits + 1 - l``) only the set
    whose level tuple is lexicographically the larger is kept.  This holds
    by construction: the natural binary codeword of level ``2**bits + 1 -
    l`` is the complement of that of level ``l``, so a mirrored design,
    which negates and reverses the thresholds, complements every codeword.
    That keeps every Hamming distance and so the information, though not
    the reconstruction baseline's decoding.  That leaves 7 faces
    with a free edge at 2 bits and 131 at 3, besides the vertices (one used
    level, every threshold on the bound: 2 and 4), which matter only in a
    box a few hundredths of a deviation wide.

    More faces pose the same problem.  Along the line a face's cells send
    the codewords ``0`` (the lower tail), those of its used levels in
    increasing order, and ``2**bits - 1`` (the upper tail).  A permutation
    of the codeword bits keeps every Hamming distance and fixes both tail
    codewords; where it keeps the order of the used levels' codewords, the
    image face, with the same edges, has the same information over every
    binary symmetric channel.  With the complement (the mirror) these are
    the ``2 * bits!`` cube automorphisms that fix the set of the two tail
    codewords.  A codeword XOR, the rest of the cube's ``2**bits * bits!``,
    would move a tail codeword to another level and change the problem
    where the tails beyond the box carry mass.  The orbits of the kept
    faces under these automorphisms are the classes: 8 at 2 bits and 82 at
    3, stated in ``_FACE_CLASSES``.

    Returns a ``_FaceTable``.  ``used[f]`` marks the used levels of face
    ``f``.  ``slots[f, j]`` places threshold ``j`` in the vector
    ``(-tau_max, e_1, ..., e_n, tau_max)``, where ``e_1 < ... < e_{|S|-1}``
    are the face's free edges and ``e_k`` past those is never read.
    ``lookup`` maps each kept level tuple to its face.  ``classes`` holds
    the first face of each class in this order, which ``_first_best``'s tie
    rule would keep of the class, and ``error_free`` the face of every
    level, the one the design climbs over an error-free channel (see
    ``_design_faces``).
    """
    levels = 2**bits
    faces = [
        face
        for size in range(1, levels + 1)
        for face in itertools.combinations(range(1, levels + 1), size)
        if face >= tuple(sorted(levels + 1 - level for level in face))
    ]
    used = np.zeros((len(faces), levels), dtype=bool)
    used[np.repeat(np.arange(len(faces)), [len(face) for face in faces]), np.concatenate(faces) - 1] = True
    # Threshold j (between levels j and j + 1) sits after the face's used
    # levels up to j, or on the upper bound once they are all of them.
    below = np.cumsum(used, axis=1)[:, :-1]
    slots = np.where(below < used.sum(axis=1, keepdims=True), below, levels)
    return _FaceTable(
        used,
        slots,
        {face: f for f, face in enumerate(faces)},
        np.array(_FACE_CLASSES[bits]),
        np.array([len(faces) - 1]),
    )


#: Face design rules, in units of the noise deviation.  Derivatives are
#: measured against the objective, or against ``_FACE_FLOOR`` if that is
#: larger (the information of a channel near p_e = 0.5 vanishes, and its
#: derivatives with it).  A row stops once its largest free-edge derivative
#: is at most ``_FACE_GTOL`` times that; once a used cell is narrower than
#: ``_FACE_WIDTH`` or holds less than ``_FACE_MASS`` (the point then lies on
#: a smaller face, searched on its own row); once an accepted step no
#: longer raises the objective, which happens within rounding of the
#: optimum; once its line search has shrunk below ``_FACE_MIN_STEP``; or
#: after ``_FACE_MAX_ITERS`` trial steps.  No step moves an edge further
#: than ``_FACE_MAX_MOVE``.  No empty level of the winner may open faster
#: than ``_KKT_TOL`` times that (``_kkt_opening``).  Rows within
#: ``_FACE_TIE`` of the best objective, relative to it, tie (``_first_best``).
_FACE_FLOOR = 1e-5
_FACE_GTOL = 1e-10
_FACE_WIDTH = 1e-9
_FACE_MASS = 1e-15
_FACE_MIN_STEP = 1e-12
_FACE_MAX_ITERS = 500
_FACE_MAX_MOVE = 1.0
_KKT_TOL = 1e-7
_FACE_TIE = 1e-13
#: Widths at which a level that fails the check is opened, each on its own row.
_OPEN_STEPS = (1e-2, 1e-4, 1e-6)


def _design_faces(problems: list[DesignProblem]) -> list[DesignResult]:
    """Best design of each problem over every face of its threshold box, as one batch.

    The problems share bit depth, noise level and box and may differ in
    channel.  Each problem climbs the first face of every class
    (``_faces``), one row each, started from evenly spread edges and
    climbed by ``_climb``, in unit-noise coordinates: the other faces of a
    class pose the same problem, and the tie rule would keep the first.
    An error-free problem climbs the face of every level alone.  Refining a
    quantizer never loses information, and over an error-free channel the
    objective is unimodal, so a stationary point inside the box on that
    face is the best of every face.  If the row ends elsewhere (in a narrow
    box the optimum presses against the bound), the problem climbs the
    other classes too.  Each problem keeps its best row (of rows that tie,
    the first face: ``_first_best``), which must pass the optimality check
    of ``_kkt_opening``.  Where opening an empty level still raises the
    objective (a face can hold more than one peak), that level is opened
    and the larger face climbed from there; where the best row stopped as
    a cell closed, cells narrower than ``_FACE_WIDTH`` are closed and the
    smaller face climbed; until the check passes.  The
    thresholds are the face point scaled to the noise level, and the trace
    holds its objective alone.
    """
    bits, bound = problems[0].bits, problems[0].tau_max
    table = _faces(bits)
    kernels = np.stack([bsc_kernel(p.bits, p.p_e) for p in problems])
    n = table.slots.shape[1]
    spread = min(2.0, bound)
    # Row m: m evenly spread free edges.
    spreads = np.zeros((n + 1, n))
    for m in range(1, n + 1):
        spreads[m, :m] = np.linspace(-spread, spread, m + 2)[1:-1]
    starts = spreads[table.used.sum(axis=1) - 1]
    # An error-free channel climbs the other classes only if its one row
    # ends on the bound or away from a stationary point.
    others = [f for f in table.classes.tolist() if f not in table.error_free]
    unchecked = {k for k, p in enumerate(problems) if p.p_e == 0.0}
    first = [table.error_free if k in unchecked else table.classes for k in range(len(problems))]
    face = np.concatenate(first)
    channel = np.repeat(np.arange(len(problems)), [len(rows) for rows in first])
    x = starts[face]
    best: list = [None] * len(problems)
    for _ in range(2**bits + 1):
        z, f = _climb(table.used[face], table.slots[face], kernels[channel], x, bound)
        for k in sorted(set(channel.tolist())):
            rows = [(z[r], f[r], face[r]) for r in np.flatnonzero(channel == k)]
            best[k] = _first_best(rows if best[k] is None else [best[k], *rows])
        face, channel, x = [], [], []
        for k, (z_k, f_k, _) in enumerate(best):
            rate, push, room = _kkt_opening(z_k, bound, kernels[k])
            settled = rate <= _KKT_TOL * max(f_k, _FACE_FLOOR)
            if k in unchecked and others:
                unchecked.discard(k)
                if not (settled and np.diff((-bound, *z_k, bound)).min() > _FACE_WIDTH):
                    face += others
                    channel += [k] * len(others)
                    x += list(starts[others])
                    continue
            if settled:
                continue
            for step in _OPEN_STEPS:
                opened = z_k + push * min(step, 0.5 * room)
                levels = tuple(np.flatnonzero(np.diff((-bound, *opened, bound)) > _FACE_WIDTH) + 1)
                if levels not in table.lookup:
                    opened, levels = -opened[::-1], tuple(sorted(2**bits + 1 - lv for lv in levels))
                face.append(table.lookup[levels])
                channel.append(k)
                x.append(np.zeros(n))
                x[-1][: len(levels) - 1] = opened[np.array(levels[:-1]) - 1]
        if not face:
            break
        face, channel, x = np.array(face), np.array(channel), np.array(x)
    else:
        raise RuntimeError(f"face design of {problems} failed its optimality check")
    return [_leave_unit_noise(z_k, (f_k,), problem) for problem, (z_k, f_k, _) in zip(problems, best)]


def _first_best(rows: list) -> tuple:
    """The ``(z, objective, face)`` row kept among rows that tie.

    Faces can climb to the same optimum within a few ulps (the faces of a
    class pose one problem; at 3 bits and p_e = 0.1 or 0.2 a class of
    three holds the best), and which of them rounding puts on top would
    decide the design.  Of the rows within ``_FACE_TIE`` (relative)
    of the best objective, the first in ``_faces`` order is kept, and of
    equal faces the first listed.
    """
    top = max(row[1] for row in rows)
    return min((row for row in rows if row[1] >= top - _FACE_TIE * abs(top)), key=lambda row: row[2])


def _place(x: np.ndarray, ends: np.ndarray, bound: float) -> np.ndarray:
    """Rows ``(-bound, thresholds, bound)`` from rows of free edges.

    ``ends`` is ``_faces``' slots with a first column of 0 and a last of
    ``x.shape[1] + 1``, which place the two bounds.
    """
    bounded = np.empty((len(x), x.shape[1] + 2))
    bounded[:, 0], bounded[:, 1:-1], bounded[:, -1] = -bound, x, bound
    return bounded[np.arange(len(x))[:, None], ends]


def _climb(used, slots, kernels, x, bound) -> tuple:
    """Climb each row's face from its free edges ``x`` by BFGS, as one batch.

    A backtracking line search never lets a used cell close; rows leave
    the batch by the ``_FACE_*`` rules.  Returns each row's thresholds and
    objective.
    """
    x = x.copy()
    n = x.shape[1]
    free = np.arange(n) < used.sum(axis=1, keepdims=True) - 1
    onto = (slots[:, :, None] == np.arange(1, n + 1)).astype(float)
    ends = np.pad(slots, ((0, 0), (1, 1)), constant_values=(0, n + 1))

    def evaluate(x: np.ndarray, rows: np.ndarray) -> tuple:
        """Objective, free-edge gradient, whether a used cell closes, and the cell widths."""
        bounded = _place(x, ends[rows], bound)
        info, grad, probs = _information_terms(bounded[:, 1:-1], kernels[rows])
        widths = bounded[:, 1:] - bounded[:, :-1]
        # A float difference is at most 0 exactly when the first float is at
        # most the second, so this is each used cell's width and mass
        # against its floor.
        closing = np.where(used[rows], np.minimum(widths - _FACE_WIDTH, probs - _FACE_MASS), np.inf).min(axis=1) <= 0.0
        return info, np.einsum("rj,rjk->rk", grad, onto[rows]), closing, widths

    def first_step(widths: np.ndarray, d: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Unit step from points with cell ``widths``, shortened so that no used
        cell closes or edge leaves the box."""
        moved = _place(d, ends[rows], 0.0)
        rates = moved[:, 1:] - moved[:, :-1]
        shrinking = used[rows] & (rates < 0.0)
        limit = np.where(shrinking, widths / np.where(shrinking, -rates, 1.0), np.inf).min(axis=1)
        return np.minimum(1.0, 0.999 * limit)

    def direction(h: np.ndarray, g: np.ndarray) -> np.ndarray:
        d = np.einsum("rjk,rk->rj", h, g)
        return d * np.minimum(1.0, _FACE_MAX_MOVE / np.maximum(np.abs(d).max(axis=1), 1e-300))[:, None]

    everyone = np.arange(len(x))
    f, g, _, widths = evaluate(x, everyone)
    eye = np.eye(n)
    h = eye * free[:, None, :]
    fresh = np.ones(len(x), dtype=bool)
    d = direction(h, g)
    alpha = first_step(widths, d, everyone)
    live = np.ones(len(x), dtype=bool)
    for _ in range(_FACE_MAX_ITERS):
        rows = np.flatnonzero(live)
        trial = x[rows] + alpha[rows, None] * d[rows]
        f_t, g_t, closing, widths = evaluate(trial, rows)
        slope = np.einsum("rk,rk->r", g[rows], d[rows])
        accept = f_t >= f[rows] + 1e-4 * alpha[rows] * slope
        took, reject = rows[accept], rows[~accept]
        alpha[reject] *= 0.5
        live[reject[alpha[reject] < _FACE_MIN_STEP]] = False
        if took.size:
            x_t, f_t, g_t = trial[accept], f_t[accept], g_t[accept]
            s, y = x_t - x[took], g[took] - g_t
            sy = np.einsum("rk,rk->r", s, y)
            curved = sy > 0.0
            if curved.any():
                r, s, y, sy = took[curved], s[curved], y[curved], sy[curved]
                # The inverse-Hessian update; a row's first one rescales
                # its identity start by s.y / y.y.
                h0 = np.where(fresh[r], sy / np.einsum("rk,rk->r", y, y), 1.0)[:, None, None]
                a = eye - s[:, :, None] * y[:, None, :] / sy[:, None, None]
                h[r] = a @ (h[r] * h0) @ a.transpose(0, 2, 1) + s[:, :, None] * s[:, None, :] / sy[:, None, None]
                fresh[r] = False
            flat = f_t <= f[took]
            x[took], f[took], g[took] = x_t, f_t, g_t
            d_t = direction(h[took], g_t)
            downhill = ~(np.einsum("rk,rk->r", g_t, d_t) > 0.0)
            if downhill.any():
                reset = took[downhill]
                h[reset], fresh[reset] = eye * free[reset, None, :], True
                d_t[downhill] = direction(h[reset], g_t[downhill])
            d[took] = d_t
            alpha[took] = first_step(widths[accept], d_t, took)
            gtol = _FACE_GTOL * np.maximum(f_t, _FACE_FLOOR)
            live[took[(np.abs(g_t).max(axis=1) <= gtol) | closing[accept] | flat]] = False
        if not live.any():
            break
    return _place(x, ends, bound)[:, 1:-1], f


def _kkt_opening(z: np.ndarray, bound: float, kernel: np.ndarray) -> tuple:
    """The fastest rise of the unit-noise objective as an empty level opens, and how.

    ``z`` is a face point: an empty level's thresholds repeat a neighbour
    exactly or sit on the bound ``+/-bound``.  Within a run ``a..b`` of
    equal thresholds, raising thresholds ``i..b`` opens the level between
    ``z[i-1]`` and ``z[i]``, at the rate ``sum(grad[i..b])``, and lowering
    ``a..i`` opens the level above ``z[i]``, at ``-sum(grad[a..i])``.  A
    run on the lower bound can only rise, one on the upper bound only fall,
    and a run inside the box must also be stationary as a whole.  Returns
    the largest rate, the move that gives it (``+1`` or ``-1`` on the
    thresholds it moves) and the distance to the next distinct threshold
    or bound that way.  A rate of at most rounding certifies a local
    maximum on the closed box.
    """
    grad = _information_terms(z, kernel)[1]
    padded = np.concatenate(([-bound], z, [bound]))
    best, push, room, start = -np.inf, np.zeros_like(z), 0.0, 0
    for end in range(1, z.size + 1):
        if end < z.size and z[end] == z[start]:
            continue
        run = grad[start:end]
        moves = []
        if z[start] < bound:
            moves += [(rate, start + i, end, 1.0) for i, rate in enumerate(np.cumsum(run[::-1])[::-1])]
        if z[start] > -bound:
            moves += [(rate, start, start + i + 1, -1.0) for i, rate in enumerate(-np.cumsum(run))]
        if -bound < z[start] < bound:
            moves = [m for m in moves if m[2] - m[1] < end - start] + [(abs(run.sum()), start, end, 0.0)]
        for rate, lo, hi, sign in moves:
            if rate > best:
                best, push = rate, np.zeros_like(z)
                push[lo:hi] = sign
                room = padded[end + 1] - z[start] if sign > 0 else z[start] - padded[start]
        start = end
    return best, push, room


_DESIGN_CACHE: dict[tuple, DesignResult] = {}

#: Bit depths designed on their faces.  The face count grows as
#: ``2**(2**bits) / 2``: 7 at 2 bits, 131 at 3 and 32,890 at 4, besides
#: the vertices.  A class (``_faces``) merges at most ``bits!`` faces, and
#: ``_design_faces`` climbs one row per class and channel, 8, 82 and 23,450
#: with the vertices, so deeper cells keep the swarm.  Over an error-free
#: channel it climbs one row, unless the box is too narrow for the optimum.
#: 1-bit cells are designed in closed form (see ``optimized_cells``).
_FACE_BITS = (2, 3)

#: The 1-bit threshold in noise deviations, a tie rule (see
#: ``optimized_cells``).  A power of two, it scales by ``sigma_n`` exactly.
_ONE_BIT_OFFSET = 2.0**-30

#: Shrink/stretch factors applied to the error-free optimum when seeding
#: error-prone swarms; informative thresholds contract as channels worsen.
_GUESS_SCALES = (1.0, 0.5, 0.25, 2.0)
_PSO_RESTARTS = 3


@functools.cache
def _error_free_optimum(bits: int) -> np.ndarray:
    """The unit-noise error-free design, read-only: the objective is unimodal
    there, so ``_climb`` on the face of every level finds it."""
    levels = 2**bits
    start = np.linspace(-2.0, 2.0, levels + 1)[None, 1:-1]
    used, slots = np.ones((1, levels), dtype=bool), np.arange(1, levels)[None]
    optimum = _climb(used, slots, bsc_kernel(bits, 0.0)[None], start, DesignProblem.tau_max)[0][0]
    optimum.flags.writeable = False
    return optimum


def optimized_thresholds(
    bits: int,
    p_e: float,
    sigma_n2: float,
    settings: PsoSettings,
) -> DesignResult:
    """Best design for one (bit depth, channel) cell, cached."""
    return optimized_cells(bits, (p_e,), sigma_n2, settings)[0]


def optimized_cells(
    bits: int,
    p_es,
    sigma_n2: float,
    settings: PsoSettings,
) -> list[DesignResult]:
    """Best design for each channel in ``p_es`` at one bit depth, cached.

    A 1-bit cell's information peaks at a threshold of 0 for every ``p_e <
    0.5``, with value ``(1 - 2 p_e)**2 * 2 / (pi sigma_n2)``, so every 1-bit
    cell takes ``_ONE_BIT_OFFSET * sigma_n``.  At 0 the two level scores
    cancel exactly, and the sign of the ``1b`` statistic of a fleet with as
    many ones as twos would follow the order of a float sum.  The offset
    makes the scores differ by about ``1.6 (1 - 2 p_e)`` times it, relative,
    above the rounding of any such sum (about 1.4e-16) for every ``p_e``
    below 0.4999999, so that statistic is positive in every order; it costs
    about its square of the information, relative, below one ulp.  Cells of
    2 and 3 bits come from the face design (``_design_faces``).  Neither
    reads ``settings``.  Every cell of 4 or more bits runs a few independent
    swarms whose seeds derive deterministically from the design seed and
    the cell coordinates, each seeded with scaled copies of the error-free
    optimum, and keeps the first best objective.  The uncached cells of one
    call are designed as one batch.  Tied thresholds are moved apart
    (``_separate_ties``), and every cached objective is ``design_objective``
    at the cached thresholds, in the cell's own channel; a cached trace
    holds that objective alone.  Repeated calls agree exactly.
    """
    keys = {p_e: (bits, float(p_e), float(sigma_n2), settings) for p_e in p_es}
    missing = [p_e for p_e, key in keys.items() if key not in _DESIGN_CACHE]
    if missing:
        problems = [DesignProblem(bits=bits, p_e=p_e, sigma_n2=sigma_n2) for p_e in missing]
        if bits == 1:
            designs = [(_ONE_BIT_OFFSET * problems[0].sigma_n,)] * len(problems)
        elif bits in _FACE_BITS:
            designs = [design.thresholds for design in _design_faces(problems)]
        else:
            designs = _swarm_designs(problems, settings.seed)
        for p_e, problem, thresholds in zip(missing, problems, designs):
            thresholds = _separate_ties(thresholds)
            objective = design_objective(thresholds, problem)
            _DESIGN_CACHE[keys[p_e]] = DesignResult(thresholds, objective, (objective,))
    return [_DESIGN_CACHE[keys[p_e]] for p_e in p_es]


def _swarm_designs(problems: list[DesignProblem], seed: int) -> list[tuple]:
    """The thresholds of the first best of ``_PSO_RESTARTS`` seeded swarms per problem, as one batch."""
    base = _error_free_optimum(problems[0].bits)
    guesses = tuple(tuple(base * s) for s in _GUESS_SCALES)
    seeds = []
    for p in problems:
        cell = np.random.SeedSequence(seed, spawn_key=(p.bits, int(round(p.p_e * 10**9))))
        seeds += [int(state) for state in cell.generate_state(_PSO_RESTARTS)]
    runs = _run_swarms([p for p in problems for _ in range(_PSO_RESTARTS)], seeds, guesses)
    # Restarts are compared at unit noise: scaled, values one ulp apart can
    # round to a tie.
    designs = []
    for i, problem in enumerate(problems):
        best = max(runs[i * _PSO_RESTARTS : (i + 1) * _PSO_RESTARTS], key=lambda result: result.objective)
        designs.append(tuple(float(t) for t in np.multiply(best.thresholds, problem.sigma_n)))
    return designs


def _separate_ties(thresholds) -> tuple:
    """Move exactly tied thresholds apart by the fewest ulps.

    Swarm points and face points can repeat a value, which no quantizer
    accepts.  Each repeat is raised to the next float above its predecessor.
    """
    tau = list(thresholds)
    for i in range(1, len(tau)):
        if tau[i] <= tau[i - 1]:
            tau[i] = float(np.nextafter(tau[i - 1], np.inf))
    return tuple(tau)
