"""Network-level bandwidth allocation.

Sensors are grouped into categories by their channel error probability.
Each category's head count is fixed; the optimizer chooses how many
sensors in each category report at each low-bit depth and how many are
promoted to full-precision (error-free) reporting, subject to a total
bit budget.  The assignment maximizing (or, for comparison, minimizing)
total information is found by HiGHS through ``scipy.optimize.milp``;
an independent dynamic program over (category, bits spent) verifies it
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .design import PsoSettings, optimized_thresholds
from .model import DEFAULT_MAPPING, check_bits

__all__ = [
    "BudgetMode",
    "Sense",
    "AllocationInfeasibleError",
    "ErrorHistogram",
    "FiTable",
    "AllocationResult",
    "IlpProblem",
    "IlpSolution",
    "categorize_errors",
    "build_fi_table",
    "build_ilp",
    "solve_ilp",
    "allocate",
    "allocate_dp_oracle",
    "validate_allocation",
]

_DP_BUDGET_CAP = 10_000


class BudgetMode(Enum):
    """Whether the bit budget must be met exactly or is an upper limit."""

    EXACT = "exact"
    AT_MOST = "atmost"


class Sense(Enum):
    MAXIMIZE_FI = "max"
    MINIMIZE_FI = "min"


class AllocationInfeasibleError(Exception):
    """No assignment satisfies the head counts and the bit budget."""


@dataclass(frozen=True)
class ErrorHistogram:
    """Sorted unique channel error probabilities with relative frequencies.

    Each ``freqs[n] * m_total`` must be a whole number of sensors;
    fractional head counts are rejected rather than rounded.
    """

    epsilons: tuple[float, ...]
    freqs: tuple[float, ...]
    m_total: int

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "freqs", tuple(float(f) for f in self.freqs))
        if not self.epsilons:
            raise ValueError("at least one error category is required")
        if len(self.epsilons) != len(self.freqs):
            raise ValueError("epsilons and freqs must have equal length")
        if any(not 0.0 <= e <= 0.5 for e in self.epsilons):
            raise ValueError("error probabilities must lie in [0, 0.5]")
        if any(e2 <= e1 for e1, e2 in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError("epsilons must be strictly increasing")
        if any(f <= 0 for f in self.freqs):
            raise ValueError("frequencies must be positive")
        if abs(sum(self.freqs) - 1.0) > 1e-12:
            raise ValueError("frequencies must sum to 1")
        if self.m_total < 1:
            raise ValueError("m_total must be positive")
        for f in self.freqs:
            count = f * self.m_total
            if abs(count - round(count)) > 1e-6:
                raise ValueError(
                    f"frequency {f} times {self.m_total} sensors is not integral"
                )

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(int(round(f * self.m_total)) for f in self.freqs)

    @property
    def n_categories(self) -> int:
        return len(self.epsilons)


def categorize_errors(per_sensor_pe) -> ErrorHistogram:
    """Sort per-sensor error probabilities, dedupe, and count occurrences."""
    values = [float(p) for p in per_sensor_pe]
    if not values:
        raise ValueError("at least one sensor is required")
    unique = sorted(set(values))
    m = len(values)
    freqs = tuple(values.count(u) / m for u in unique)
    return ErrorHistogram(tuple(unique), freqs, m)


@dataclass(frozen=True)
class FiTable:
    """Per-sensor information values: ``gamma[l-1, n]`` for an ``l``-bit
    sensor in category ``n`` (with optimized thresholds), ``gamma0`` for a
    full-precision sensor."""

    gamma: np.ndarray
    gamma0: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        if self.gamma.ndim != 2:
            raise ValueError("gamma must be a (levels x categories) matrix")
        if np.any(self.gamma < 0):
            raise ValueError("information values must be nonnegative")
        if self.gamma0 < 0:
            raise ValueError("gamma0 must be nonnegative")

    @property
    def max_bits(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_categories(self) -> int:
        return self.gamma.shape[1]


def build_fi_table(
    hist: ErrorHistogram,
    max_bits: int,
    sigma_n2: float,
    settings: PsoSettings | None = None,
    mapping: str = DEFAULT_MAPPING,
) -> FiTable:
    """Optimize thresholds per (bit depth, category) and tabulate the values.

    Deterministic given the design seed; cell designs are cached across
    calls.  A full-precision sensor contributes ``1 / sigma_n2``.
    """
    check_bits("max_bits", max_bits)
    if settings is None:
        settings = PsoSettings()
    gamma = np.zeros((max_bits, hist.n_categories))
    for li in range(max_bits):
        for n, eps in enumerate(hist.epsilons):
            gamma[li, n] = optimized_thresholds(
                li + 1, eps, sigma_n2, settings, mapping=mapping
            ).objective
    return FiTable(gamma=gamma, gamma0=1.0 / sigma_n2)


@dataclass(frozen=True)
class IlpProblem:
    """Minimize ``cost @ x`` over integer ``x`` with ``eq_matrix @ x == eq_rhs``
    and ``lower <= x <= upper`` (upper may be ``inf``)."""

    cost: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class IlpSolution:
    x: np.ndarray
    objective: float
    nodes_explored: int


def build_ilp(
    hist: ErrorHistogram,
    table: FiTable,
    budget: int,
    l0: int,
    budget_mode: BudgetMode = BudgetMode.AT_MOST,
) -> IlpProblem:
    """Assemble the allocation integer program.

    Decision vector: column-major assignment counts ``x[l, n]`` first, then
    per-category promotion counts, then (in at-most mode) one zero-cost
    slack absorbing unused budget.  Rows: total head count, bit budget,
    one head-count row per category.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if l0 < 1:
        raise ValueError("l0 must be >= 1")
    if table.n_categories != hist.n_categories:
        raise ValueError("information table does not match the histogram")
    L = table.max_bits
    N = hist.n_categories
    counts = np.array(hist.counts, dtype=float)
    m_total = hist.m_total
    n_main = L * N + N
    slack = 1 if budget_mode is BudgetMode.AT_MOST else 0

    gain = np.concatenate([table.gamma.flatten(order="F"), np.full(N, table.gamma0)])
    cost = np.concatenate([-gain, np.zeros(slack)])

    rows = []
    rhs = []
    row = np.zeros(n_main + slack)
    row[:n_main] = 1.0
    rows.append(row)
    rhs.append(float(m_total))

    row = np.zeros(n_main + slack)
    row[: L * N] = np.tile(np.arange(1, L + 1, dtype=float), N)
    row[L * N : n_main] = float(l0)
    if slack:
        row[-1] = 1.0
    rows.append(row)
    rhs.append(float(budget))

    for n in range(N):
        row = np.zeros(n_main + slack)
        row[n * L : (n + 1) * L] = 1.0
        row[L * N + n] = 1.0
        rows.append(row)
        rhs.append(counts[n])

    lower = np.zeros(n_main + slack)
    upper = np.concatenate(
        [np.full(L * N, np.inf), counts, np.full(slack, float(budget))]
    )
    return IlpProblem(cost, np.array(rows), np.array(rhs), lower, upper)


@dataclass(frozen=True)
class AllocationResult:
    """Solved assignment: ``x_matrix[l-1, n]`` sensors at ``l`` bits in
    category ``n``, ``promotions[n]`` upgraded to full precision."""

    x_matrix: np.ndarray
    promotions: np.ndarray
    total_fi: float
    bits_used: int


def _assemble(
    x_matrix: np.ndarray,
    promotions: np.ndarray,
    table: FiTable,
    l0: int,
) -> AllocationResult:
    L = table.max_bits
    widths = np.arange(1, L + 1)
    bits = int((widths @ x_matrix).sum() + l0 * promotions.sum())
    fi = float((table.gamma * x_matrix).sum() + table.gamma0 * promotions.sum())
    return AllocationResult(
        x_matrix=x_matrix.astype(np.int64),
        promotions=promotions.astype(np.int64),
        total_fi=fi,
        bits_used=bits,
    )


def validate_allocation(
    result: AllocationResult,
    hist: ErrorHistogram,
    budget: int,
    l0: int,
    budget_mode: BudgetMode,
) -> None:
    """Raise unless the assignment satisfies every structural constraint."""
    counts = np.array(hist.counts)
    X, a = result.x_matrix, result.promotions
    if np.any(X < 0) or np.any(a < 0):
        raise ValueError("allocation contains negative counts")
    if np.any(a > counts):
        raise ValueError("promotions exceed category head counts")
    if not np.array_equal(X.sum(axis=0) + a, counts):
        raise ValueError("per-category head counts are not preserved")
    if int(X.sum() + a.sum()) != hist.m_total:
        raise ValueError("total sensor count is not preserved")
    widths = np.arange(1, X.shape[0] + 1)
    bits = int((widths @ X).sum() + l0 * a.sum())
    if bits != result.bits_used:
        raise ValueError("bit accounting mismatch")
    if budget_mode is BudgetMode.EXACT and bits != budget:
        raise ValueError("exact budget mode requires using the full budget")
    if budget_mode is BudgetMode.AT_MOST and bits > budget:
        raise ValueError("allocation exceeds the bit budget")


def solve_ilp(problem: IlpProblem) -> IlpSolution:
    """Integer optimum of ``problem`` by HiGHS branch and cut, at zero gap.

    Raises :class:`AllocationInfeasibleError` when no integer point is
    feasible and ``RuntimeError`` on any other non-optimal outcome.
    """
    # Deferred: scipy.optimize adds about 0.2 s to every CLI start.
    from scipy.optimize import Bounds, LinearConstraint, milp

    res = milp(
        problem.cost,
        integrality=1,
        bounds=Bounds(problem.lower, problem.upper),
        constraints=LinearConstraint(problem.eq_matrix, problem.eq_rhs, problem.eq_rhs),
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:
        raise AllocationInfeasibleError("no assignment meets the head counts and the bit budget")
    if res.status != 0:
        raise RuntimeError(f"milp failed with status {res.status}: {res.message}")
    x = np.round(res.x).astype(np.int64)
    return IlpSolution(x, float(problem.cost @ x), int(res.mip_node_count))


def allocate(
    hist: ErrorHistogram,
    table: FiTable,
    budget: int,
    l0: int,
    budget_mode: BudgetMode = BudgetMode.AT_MOST,
    sense: Sense = Sense.MAXIMIZE_FI,
) -> AllocationResult:
    """Globally optimal assignment via :func:`solve_ilp`.

    Raises :class:`AllocationInfeasibleError` when no assignment fits,
    e.g. an exact budget that no combination of bit widths reaches, or an
    at-most budget below one bit per sensor.
    """
    problem = build_ilp(hist, table, budget, l0, budget_mode)
    if sense is Sense.MINIMIZE_FI:
        problem = replace(problem, cost=-problem.cost)
    solution = solve_ilp(problem)
    L, N = table.max_bits, hist.n_categories
    x = solution.x
    x_matrix = x[: L * N].reshape((L, N), order="F")
    promotions = x[L * N : L * N + N]
    result = _assemble(x_matrix, promotions, table, l0)
    solver_fi = -solution.objective if sense is Sense.MAXIMIZE_FI else solution.objective
    if abs(solver_fi - result.total_fi) > 1e-9:
        raise RuntimeError("solver objective disagrees with recomputed information")
    validate_allocation(result, hist, budget, l0, budget_mode)
    return result


def _category_options(count, L, l0, gamma_col, gamma0, cap, maximize):
    """Best information per exact bit cost for one category.

    Enumerates promotions and compositions of the remaining sensors over
    bit depths; keeps, per distinct cost, the best (a, per-depth counts).
    """
    best = np.full(cap + 1, -math.inf if maximize else math.inf)
    choice: list[tuple[int, tuple[int, ...]] | None] = [None] * (cap + 1)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    widths = list(range(1, L + 1))
    for a in range(count + 1):
        base_cost = l0 * a
        if base_cost > cap:
            break
        base_fi = gamma0 * a
        for comp in compositions(count - a, L):
            cost = base_cost + sum(w * k for w, k in zip(widths, comp))
            if cost > cap:
                continue
            fi = base_fi + sum(g * k for g, k in zip(gamma_col, comp))
            if (maximize and fi > best[cost]) or (not maximize and fi < best[cost]):
                best[cost] = fi
                choice[cost] = (a, comp)
    return best, choice


def allocate_dp_oracle(
    hist: ErrorHistogram,
    table: FiTable,
    budget: int,
    l0: int,
    budget_mode: BudgetMode = BudgetMode.AT_MOST,
    sense: Sense = Sense.MAXIMIZE_FI,
) -> AllocationResult:
    """Exact optimum by dynamic programming over (category, bits spent).

    Independent verification path for :func:`allocate`; objectives agree
    to 1e-9 on every feasible instance.  Tabulation is capped at budgets
    of 10k bits.
    """
    if budget > _DP_BUDGET_CAP:
        raise ValueError(f"budget {budget} exceeds the DP tabulation cap")
    if table.n_categories != hist.n_categories:
        raise ValueError("information table does not match the histogram")
    maximize = sense is Sense.MAXIMIZE_FI
    L, N = table.max_bits, hist.n_categories
    counts = hist.counts
    cap = budget
    worst = -math.inf if maximize else math.inf

    options = [
        _category_options(counts[n], L, l0, table.gamma[:, n], table.gamma0, cap, maximize)
        for n in range(N)
    ]

    dp = np.full(cap + 1, worst)
    dp[0] = 0.0
    layer_cost = np.full((N, cap + 1), -1, dtype=np.int64)
    for n in range(N):
        best, _ = options[n]
        ndp = np.full(cap + 1, worst)
        for cost in range(cap + 1):
            val = best[cost]
            if not math.isfinite(val):
                continue
            cand = dp[: cap + 1 - cost] + val
            seg = ndp[cost:]
            better = cand > seg if maximize else cand < seg
            seg[better] = cand[better]
            layer_cost[n, cost:][better] = cost
        dp = ndp

    usable = np.isfinite(dp)
    if budget_mode is BudgetMode.EXACT:
        if not usable[budget]:
            raise AllocationInfeasibleError(
                f"no assignment consumes exactly {budget} bits"
            )
        total_cost = budget
    else:
        if not np.any(usable):
            raise AllocationInfeasibleError("no assignment fits the bit budget")
        masked = np.where(usable, dp, worst)
        total_cost = int(np.argmax(masked) if maximize else np.argmin(masked))

    x_matrix = np.zeros((L, N), dtype=np.int64)
    promotions = np.zeros(N, dtype=np.int64)
    remaining = total_cost
    for n in range(N - 1, -1, -1):
        cost_n = int(layer_cost[n, remaining])
        if cost_n < 0:
            raise RuntimeError("dynamic program backtrack failed")
        a, comp = options[n][1][cost_n]
        promotions[n] = a
        x_matrix[:, n] = comp
        remaining -= cost_n
    if remaining != 0:
        raise RuntimeError("dynamic program cost accounting failed")

    result = _assemble(x_matrix, promotions, table, l0)
    validate_allocation(result, hist, budget, l0, budget_mode)
    return result
