"""Network-level bandwidth allocation.

Sensors are grouped into categories by their channel error probability.
Each category's head count is fixed; the optimizer chooses how many
sensors in each category report at each low-bit depth and how many are
promoted to full-precision (error-free) reporting, subject to a total
bit budget.  Each sensor picks one of 1..L bits or full precision, so
the problem is a multiple-choice knapsack, and :func:`allocate` solves it
exactly by a numpy dynamic program over sensors and bits spent.  A sweep's
fleets nest, so :func:`allocate_sweep` solves every (case, fleet size,
sense) point from one pass of that program over the largest fleet, and
:func:`allocate` is its one-point case.  An independent dynamic program
over (category, bits spent), :func:`allocate_dp_oracle`, verifies it, and
the integer program of :func:`build_ilp`, solved by HiGHS in
:func:`solve_ilp`, is kept as a second test oracle; no command calls
either.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# ``optimized_thresholds`` is not called here; perfbench's tracer wraps it by
# name on this module.
from .design import PsoSettings, optimized_cells, optimized_thresholds  # noqa: F401
from .model import check_bits

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
    "check_budget",
    "build_ilp",
    "solve_ilp",
    "allocate",
    "allocate_sweep",
    "program_bytes",
    "spare_bits",
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


def build_fi_table(epsilons, max_bits: int, sigma_n2: float) -> FiTable:
    """Optimize thresholds per (bit depth, channel in ``epsilons``) and tabulate the values.

    Cells are designed with the one design seed of ``PsoSettings()``, which
    only cells of 4 or more bits read, and are cached across calls.  A
    full-precision sensor contributes ``1 / sigma_n2``.
    """
    check_bits("max_bits", max_bits)
    gamma = np.zeros((max_bits, len(epsilons)))
    for li in range(max_bits):
        cells = optimized_cells(li + 1, epsilons, sigma_n2, PsoSettings())
        gamma[li] = [cell.objective for cell in cells]
    return FiTable(gamma=gamma, gamma0=1.0 / sigma_n2)


def check_budget(budget: int, l0: int) -> None:
    """Reject a negative bit budget or a full-precision report under one bit."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if l0 < 1:
        raise ValueError("l0 must be >= 1")


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
    check_budget(budget, l0)
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
    # Deferred: this is the package's only scipy import, and scipy is a
    # test-only dependency (the ``test`` extra).  Only the tests call this
    # oracle, so no command needs scipy or pays the 0.35 s of its import.
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
    """Globally optimal assignment, by an exact dynamic program over sensors.

    This is the one-fleet, one-sense case of :func:`allocate_sweep`.  The
    sensors are taken category by category, one at a time, and each picks
    one of the options 1..L bits, then full precision.  The program keeps
    the best information (negated for ``MINIMIZE_FI``) for every exact
    number of bits spent, and one choice per (sensor, bits); it backtracks
    from the budget itself in exact mode, and from the best bit count in
    at-most mode.  It costs about ``m_total * (L + 1) * budget`` operations,
    vectorized over the budget.

    Ties among assignments of equal information follow one canonical rule:
    a sensor's choice is the first best option in the order 1..L, full
    precision, and the at-most bit count the lowest best one.  Read as a
    whole, the kept assignment spends the fewest bits among the optimal
    ones, and among those it puts, category by category from the last,
    the most sensors at 1 bit, then at 2 bits, and so on.  A sweep takes
    its sensors in another order (see :func:`allocate_sweep`), so at exact
    ties a sweep point may keep another optimal assignment than this
    function gives on that fleet alone.

    An at-most budget above ``m_total * max(l0, max_bits)``, which no
    assignment can spend, is solved at that cap.  Raises
    :class:`AllocationInfeasibleError`, before any step of the program,
    for a budget below one bit per sensor or an exact budget above that
    cap, and after it for an exact budget that no combination of bit
    widths reaches.
    """
    (outcome,) = allocate_sweep(
        hist.epsilons, (hist.freqs,), (hist.m_total,), table, budget, l0, budget_mode, (sense,)
    )
    if isinstance(outcome, AllocationInfeasibleError):
        raise outcome
    return outcome


def allocate_sweep(
    epsilons,
    cases,
    m_values,
    table: FiTable,
    budget: int,
    l0: int,
    budget_mode: BudgetMode = BudgetMode.AT_MOST,
    senses=(Sense.MAXIMIZE_FI,),
) -> list[AllocationResult | AllocationInfeasibleError]:
    """Optimal assignment at every (case, fleet size, sense) point, from one program.

    Case ``c`` at fleet size ``m`` is ``ErrorHistogram(epsilons, cases[c],
    m)``.  Returns one outcome per point, cases outermost, then ``m_values``
    as given, then ``senses``: the :class:`AllocationResult`, or the
    :class:`AllocationInfeasibleError` that :func:`allocate` raises there
    (its budget clamp and early refusals apply point by point).

    A case's head counts grow with the fleet in every category.  With its
    sensors ordered fleet by fleet in increasing size, each fleet's added
    sensors category by category, every smaller fleet is a prefix of the
    largest.  One pass of :func:`_sensor_program` runs over the sensors of
    the largest fleet solved, one state row per (case, sense), and keeps
    the states after each fleet; each point backtracks from its own copy.
    The states are as wide as the largest spare, ``min(budget, m * max(l0,
    max_bits)) - m``; no entry feeds one of fewer spare bits, so each point
    reads what a program of its own width would give.  Each sensor keeps
    its first best option, so at exact ties the nested order can keep
    another optimal assignment than :func:`allocate` on one fleet.
    """
    check_budget(budget, l0)
    if table.n_categories != len(epsilons):
        raise ValueError("information table does not match the histogram")
    L, N = table.max_bits, table.n_categories
    hists = [[ErrorHistogram(epsilons, freqs, m) for m in m_values] for freqs in cases]
    refused, spare = spare_bits(m_values, budget, l0, L, budget_mode)
    # The sensors of every fleet up to the largest solved, in the nested order.
    fleets = sorted(m for m in set(m_values) if m <= max(spare, default=0))
    # Every sensor spends at least one bit, so the program counts the bits
    # each option spends beyond that one.
    extra = [*range(L), l0 - 1]
    categories = []
    for row in hists:
        by_fleet = {hist.m_total: hist.counts for hist in row}
        grown = np.diff([[0] * N] + [by_fleet[m] for m in fleets], axis=0)
        categories.append(np.repeat(np.tile(np.arange(N), len(fleets)), grown.ravel()))
    if fleets:
        values = np.vstack([table.gamma, np.full(N, table.gamma0)])
        signed = [values if sense is Sense.MAXIMIZE_FI else -values for sense in senses]
        gains = np.stack([v[:, category].T for category in categories for v in signed], axis=1)
        states, choices = _sensor_program(gains, extra, max(spare.values()), fleets)

    outcomes: list[AllocationResult | AllocationInfeasibleError] = []
    for c, i, s in itertools.product(range(len(cases)), range(len(m_values)), range(len(senses))):
        hist, sense = hists[c][i], senses[s]
        m = hist.m_total
        if m in refused:
            outcomes.append(AllocationInfeasibleError(refused[m]))
            continue
        r = c * len(senses) + s
        best = states[m][r, : spare[m] + 1]
        spent = spare[m] if budget_mode is BudgetMode.EXACT else int(np.argmax(best))
        value = float(best[spent])
        if value == -math.inf:
            outcomes.append(AllocationInfeasibleError(f"no assignment consumes exactly {budget} bits"))
            continue
        picked = np.zeros((L + 1, N), dtype=np.int64)
        category, row = categories[c], choices[:, r]
        for k in range(m - 1, -1, -1):
            option = row[k, spent]
            picked[option, category[k]] += 1
            spent -= extra[option]
        if spent != 0:
            raise RuntimeError("dynamic program backtrack failed")
        result = _assemble(picked[:L], picked[L], table, l0)
        if sense is Sense.MINIMIZE_FI:
            value = -value
        # Relative, so that it holds at every noise level.
        if not math.isclose(value, result.total_fi, rel_tol=1e-9):
            raise RuntimeError("dynamic program value disagrees with recomputed information")
        validate_allocation(result, hist, budget, l0, budget_mode)
        outcomes.append(result)
    return outcomes


def spare_bits(m_values, budget, l0, L, budget_mode):
    """``(refused, spare)`` by fleet size of ``m_values``: why counting alone
    rules out every assignment of that fleet, or else the spare bits, beyond
    one a sensor, that its program spans."""
    refused, spare = {}, {}
    for m in m_values:
        cap = m * max(l0, L)
        if budget < m:
            refused[m] = f"{budget} bits cannot give each of {m} sensors one bit"
        elif budget_mode is BudgetMode.EXACT and budget > cap:
            refused[m] = f"no assignment consumes exactly {budget} bits; none spends over {cap}"
        else:
            spare[m] = min(budget, cap) - m
    return refused, spare


def program_bytes(m_values, rows: int, budget: int, l0: int, max_bits: int, budget_mode: BudgetMode) -> int:
    """Bytes the arrays of :func:`allocate_sweep` may hold at once, from its
    arguments alone, for ``rows`` (case, sense) rows.

    The program runs over the sensors of the largest fleet solved, each row
    as wide as the largest spare plus one.  Per sensor and row: the int8
    choice of every column, the float64 gains of the ``max_bits + 1``
    options, twice over while they are stacked, and an int64 category
    index.  Per row and column: the float64 states, in two buffers, ``cand``
    and one copy per fleet stop, and a mask byte.
    """
    _, spare = spare_bits(m_values, budget, l0, max_bits, budget_mode)
    if not spare:
        return 0
    sensors, width = max(spare), max(spare.values()) + 1
    stops = sum(1 for m in set(m_values) if m <= sensors)
    return rows * (sensors * (width + 16 * (max_bits + 1) + 8) + width * (8 * (3 + stops) + 1))


def _sensor_program(gains, extra, spare, stops):
    """Forward pass of the allocation program, over rows of sensors at once.

    Step ``k`` takes sensor ``k`` of every row: ``gains[k, r, j]`` is what
    option ``j`` is worth to that sensor of row ``r``, and ``extra[j]`` the
    bits it spends beyond one.  Each row's state holds the best total for
    each number of spare bits spent, from 0 to ``spare``, and ``-inf``
    where none is reached.  Returns a copy of the states after each step
    count in ``stops``, keyed by that count, and the int8 choice
    ``choices[k, r, e]`` of sensor ``k`` of row ``r`` on the way to ``e``:
    the first option, in order, that attains the best.
    """
    steps, rows, _ = gains.shape
    # The states before and after a step alternate between two buffers.
    buffers = (np.full((rows, spare + 1), -math.inf), np.empty((rows, spare + 1)))
    buffers[0][:, 0] = 0.0
    cand = np.empty_like(buffers[0])
    better = np.empty(cand.shape, dtype=bool)
    choices = np.empty((steps, rows, spare + 1), dtype=np.int8)
    # Option j moves the total at e - extra[j] to e.  The views it reads and
    # writes, for each direction between the buffers, are made once.
    moves = [(j, e, spare + 1 - e) for j, e in enumerate(extra) if j and e <= spare]
    shifts = [
        [(j, old[:, :w], new[:, e:], cand[:, :w], better[:, :w], choices[:, :, e:]) for j, e, w in moves]
        for old, new in (buffers, buffers[::-1])
    ]
    # columns[k, j] is option j's gain to sensor k of each row, as a column.
    columns = gains.transpose(0, 2, 1)[..., None]
    states = {}
    for k, column in enumerate(columns):
        old, new = buffers[k % 2], buffers[1 - k % 2]
        np.add(old, column[0], out=new)
        choices[k].fill(0)
        for j, source, target, shifted, gained, chosen in shifts[k % 2]:
            np.add(source, column[j], out=shifted)
            np.greater(shifted, target, out=gained)
            np.copyto(target, shifted, where=gained)
            np.copyto(chosen[k], j, where=gained)
        if k + 1 in stops:
            states[k + 1] = new.copy()
    return states, choices


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
