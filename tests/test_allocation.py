"""Bandwidth allocation tests: histogram, tables, program assembly, solvers."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from hybriddet.allocation import (
    AllocationInfeasibleError,
    BudgetMode,
    ErrorHistogram,
    FiTable,
    Sense,
    allocate,
    allocate_dp_oracle,
    allocate_sweep,
    build_fi_table,
    build_ilp,
    categorize_errors,
    solve_ilp,
    validate_allocation,
)
from hybriddet.design import DesignProblem, _error_free_optimum, design_objective

from oracles import enumerate_ilp


def random_instance(rng, max_count=16, max_budget=200):
    n = int(rng.integers(1, 5))
    levels = int(rng.integers(1, 4))
    eps = tuple(np.sort(rng.choice(np.linspace(0, 0.5, 51), n, replace=False)))
    counts = rng.integers(1, max_count, n)
    m = int(counts.sum())
    hist = ErrorHistogram(eps, tuple(counts / m), m)
    gamma = np.sort(rng.uniform(0, 0.95, (levels, n)), axis=0)
    gamma = np.sort(gamma, axis=1)[:, ::-1]
    table = FiTable(gamma=gamma, gamma0=1.0)
    budget = int(rng.integers(m, max_budget + 1))
    l0 = int(rng.integers(4, 33))
    mode = BudgetMode.AT_MOST if rng.random() < 0.5 else BudgetMode.EXACT
    sense = Sense.MAXIMIZE_FI if rng.random() < 0.5 else Sense.MINIMIZE_FI
    return hist, table, budget, l0, mode, sense


def tiny_instance(rng):
    """One or two categories of one or two sensors: small enough to enumerate."""
    n, levels = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    counts = rng.integers(1, 3, n)
    m = int(counts.sum())
    hist = ErrorHistogram(tuple(0.1 * np.arange(n)), tuple(counts / m), m)
    table = FiTable(gamma=rng.uniform(0.0, 0.95, (levels, n)), gamma0=1.0)
    l0 = int(rng.integers(2, 6))
    budget = int(rng.integers(0, m * l0 + 2))
    return hist, table, budget, l0


def highs_information(hist, table, budget, l0, mode, sense):
    """Information of the HiGHS optimum of :func:`build_ilp`'s program, or
    ``None`` where it has no integer point."""
    prob = build_ilp(hist, table, budget, l0, mode)
    if sense is Sense.MINIMIZE_FI:
        prob = dataclasses.replace(prob, cost=-prob.cost)
    try:
        sol = solve_ilp(prob)
    except AllocationInfeasibleError:
        return None
    return -sol.objective if sense is Sense.MAXIMIZE_FI else sol.objective


def assert_solvers_agree(hist, table, budget, l0):
    """``allocate``, HiGHS and the DP oracle give the same verdict and, where
    feasible, the same information within 1e-9, in both budget modes and
    both senses."""
    for mode in BudgetMode:
        for sense in Sense:
            found = []
            for solve in (allocate, allocate_dp_oracle):
                try:
                    result = solve(hist, table, budget, l0, mode, sense)
                except AllocationInfeasibleError:
                    found.append(None)
                    continue
                validate_allocation(result, hist, budget, l0, mode)
                found.append(result.total_fi)
            found.append(highs_information(hist, table, budget, l0, mode, sense))
            assert [v is None for v in found] in ([True] * 3, [False] * 3), (mode, sense, found)
            if found[0] is not None:
                assert max(found) - min(found) <= 1e-9, (mode, sense, found)


def design_table(epsilons, designs):
    """Information of the thresholds ``designs[bits - 1]`` on each channel."""
    gamma = [
        [design_objective(tau, DesignProblem(bits=bits, p_e=e)) for e in epsilons]
        for bits, tau in enumerate(designs, start=1)
    ]
    return FiTable(gamma=np.array(gamma), gamma0=1.0)


def error_free_design_table(epsilons, max_bits):
    """Information of the error-free optimal thresholds on each channel."""
    return design_table(epsilons, [_error_free_optimum(bits) for bits in range(1, max_bits + 1)])


#: Error-free gradient-ascent designs of 1 to 3 bits at unit noise, as data,
#: so that a pinned optimum does not move with where the ascent stops.
BGDA_DESIGNS = (
    (0.0,),
    (-0.9815987637252704, 0.0, 0.9815987637252704),
    (
        -1.7479268535104084, -1.0499568414210412, -0.5005495093437964, 0.0,
        0.5005495093437964, 1.0499568414210412, 1.7479268535104084,
    ),
)


class TestCategorize:
    def test_basic(self):
        hist = categorize_errors([0.2, 0.0, 0.0, 0.2])
        assert hist.epsilons == (0.0, 0.2)
        assert hist.freqs == (0.5, 0.5)
        assert hist.m_total == 4
        assert hist.counts == (2, 2)

    def test_single(self):
        hist = categorize_errors([0.1])
        assert hist.epsilons == (0.1,)
        assert hist.freqs == (1.0,)
        assert hist.m_total == 1

    def test_paper_scale_counts(self):
        pes = [0.0] * 60 + [0.01] * 20 + [0.1] * 10 + [0.2] * 10
        hist = categorize_errors(pes)
        assert hist.counts == (60, 20, 10, 10)
        assert hist.freqs == (0.6, 0.2, 0.1, 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            categorize_errors([])

    def test_fractional_counts_rejected(self):
        with pytest.raises(ValueError):
            ErrorHistogram((0.0, 0.1), (0.55, 0.45), 10)


class TestFiTable:
    def test_values(self):
        table = build_fi_table((0.0, 0.5), 1, 1.0)
        assert table.gamma[0, 0] == pytest.approx(2 / math.pi, abs=1e-6)
        assert table.gamma[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert table.gamma0 == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_channel_and_bits(self):
        table = build_fi_table((0.0, 0.01, 0.1, 0.2), 3, 1.0)
        assert np.all(np.diff(table.gamma, axis=1) <= 1e-6)   # worse channel
        assert np.all(np.diff(table.gamma, axis=0) >= -1e-6)  # more bits
        assert table.gamma0 >= table.gamma.max() - 1e-9

    def test_deterministic(self):
        a = build_fi_table((0.0, 0.2), 2, 1.0)
        b = build_fi_table((0.0, 0.2), 2, 1.0)
        np.testing.assert_array_equal(a.gamma, b.gamma)


class TestBuildIlp:
    HIST = ErrorHistogram((0.0, 0.01, 0.1, 0.2), (0.6, 0.2, 0.1, 0.1), 20)
    TABLE = FiTable(gamma=np.arange(1, 13).reshape(3, 4) / 13.0, gamma0=1.0)

    def test_shape_before_slack(self):
        prob = build_ilp(self.HIST, self.TABLE, 500, 32, BudgetMode.EXACT)
        assert prob.eq_matrix.shape == (6, 16)

    def test_slack_column_in_at_most_mode(self):
        prob = build_ilp(self.HIST, self.TABLE, 500, 32, BudgetMode.AT_MOST)
        assert prob.eq_matrix.shape == (6, 17)
        assert prob.cost[-1] == 0.0
        np.testing.assert_array_equal(prob.eq_matrix[:, -1], [0, 1, 0, 0, 0, 0])

    def test_budget_row_rhs(self):
        prob = build_ilp(self.HIST, self.TABLE, 500, 32, BudgetMode.EXACT)
        assert prob.eq_rhs[1] == 500.0

    def test_vectorization_consistency(self):
        # The column holding the count of 2-bit sensors in category 3 must
        # carry bandwidth weight 2, cost -gamma[1, 2], and appear in
        # category 3's head-count row.
        prob = build_ilp(self.HIST, self.TABLE, 500, 32, BudgetMode.EXACT)
        L = 3
        col = 2 * L + 1  # category index 2, level index 1, column-major
        assert prob.eq_matrix[1, col] == 2.0
        assert prob.cost[col] == pytest.approx(-self.TABLE.gamma[1, 2])
        assert prob.eq_matrix[2 + 2, col] == 1.0
        assert prob.eq_matrix[2 + 1, col] == 0.0

    def test_promotion_bounds(self):
        prob = build_ilp(self.HIST, self.TABLE, 500, 32, BudgetMode.EXACT)
        np.testing.assert_array_equal(prob.upper[12:16], [12, 4, 2, 2])


class TestAllocate:
    def test_exact_budget_unique_fill(self):
        hist = ErrorHistogram((0.0,), (1.0,), 2)
        table = FiTable(gamma=np.array([[0.63], [0.88], [0.96]]), gamma0=1.0)
        result = allocate(hist, table, 64, 32, BudgetMode.EXACT, Sense.MAXIMIZE_FI)
        assert np.array_equal(result.promotions, [2])
        assert result.x_matrix.sum() == 0
        assert result.total_fi == pytest.approx(2.0, abs=1e-12)
        oracle = allocate_dp_oracle(hist, table, 64, 32, BudgetMode.EXACT, Sense.MAXIMIZE_FI)
        assert oracle.total_fi == pytest.approx(result.total_fi, abs=1e-12)

    def test_tight_budget_forces_one_bit(self):
        hist = ErrorHistogram((0.0,), (1.0,), 3)
        table = FiTable(gamma=np.array([[2 / math.pi], [0.88], [0.96]]), gamma0=1.0)
        result = allocate(hist, table, 3, 32, BudgetMode.AT_MOST, Sense.MAXIMIZE_FI)
        assert np.array_equal(result.x_matrix, [[3], [0], [0]])
        assert result.total_fi == pytest.approx(3 * 2 / math.pi, abs=1e-9)

    def test_budget_below_sensor_count_infeasible(self):
        hist = ErrorHistogram((0.0,), (1.0,), 3)
        table = FiTable(gamma=np.array([[0.6]]), gamma0=1.0)
        with pytest.raises(AllocationInfeasibleError):
            allocate(hist, table, 2, 32, BudgetMode.AT_MOST)

    def test_matches_dp_oracle_randomized(self):
        # Each instance in both budget modes and both senses, against HiGHS
        # too.
        rng = np.random.default_rng(3)
        for _ in range(40):
            hist, table, budget, l0, _, _ = random_instance(rng)
            assert_solvers_agree(hist, table, budget, l0)

    def test_budget_monotonicity(self):
        hist = ErrorHistogram((0.0, 0.2), (0.5, 0.5), 8)
        table = FiTable(gamma=np.array([[0.6, 0.2], [0.85, 0.3], [0.95, 0.4]]), gamma0=1.0)
        values = [
            allocate(hist, table, q, 16, BudgetMode.AT_MOST, Sense.MAXIMIZE_FI).total_fi
            for q in (8, 16, 32, 64, 128)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_sensor_monotonicity(self):
        table = FiTable(gamma=np.array([[0.6, 0.2], [0.85, 0.3], [0.95, 0.4]]), gamma0=1.0)
        values = []
        for m in (4, 8, 12, 16):
            hist = ErrorHistogram((0.0, 0.2), (0.5, 0.5), m)
            values.append(
                allocate(hist, table, 64, 16, BudgetMode.AT_MOST, Sense.MAXIMIZE_FI).total_fi
            )
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_sense_ordering(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            hist, table, budget, l0, _, _ = random_instance(rng)
            try:
                hi = allocate(hist, table, budget, l0, BudgetMode.AT_MOST, Sense.MAXIMIZE_FI)
                lo = allocate(hist, table, budget, l0, BudgetMode.AT_MOST, Sense.MINIMIZE_FI)
            except AllocationInfeasibleError:
                continue
            assert hi.total_fi >= lo.total_fi - 1e-12

    def test_two_sensor_reference(self):
        # Two sensors, 33 bits exactly, l0 = 32: one promotion and one 1-bit
        # sensor is the only fill.
        hist = ErrorHistogram((0.0,), (1.0,), 2)
        table = FiTable(gamma=np.array([[0.6366]]), gamma0=1.0)
        result = allocate(hist, table, 33, 32, BudgetMode.EXACT)
        assert np.array_equal(result.x_matrix, [[1]])
        assert np.array_equal(result.promotions, [1])
        assert result.total_fi == pytest.approx(1.6366, abs=1e-12)

    def test_matches_enumeration_tiny(self):
        rng = np.random.default_rng(33)
        seen = {"feasible": 0, "infeasible": 0}
        for trial in range(48):
            mode = (BudgetMode.AT_MOST, BudgetMode.EXACT)[trial % 2]
            sense = (Sense.MAXIMIZE_FI, Sense.MINIMIZE_FI)[trial // 2 % 2]
            hist, table, budget, l0 = tiny_instance(rng)
            counts, levels = np.array(hist.counts), table.max_bits
            prob = build_ilp(hist, table, budget, l0, mode)
            # Head counts bound every column; the slack is bounded by the budget.
            box = np.concatenate([np.repeat(counts, levels), counts, [budget]])
            upper = np.minimum(prob.upper, box[: prob.cost.size])
            maximize = sense is Sense.MAXIMIZE_FI
            cost = prob.cost if maximize else -prob.cost
            _, best = enumerate_ilp(cost, prob.eq_matrix, prob.eq_rhs, prob.lower, upper)
            if best is None:
                with pytest.raises(AllocationInfeasibleError):
                    allocate(hist, table, budget, l0, mode, sense)
                seen["infeasible"] += 1
            else:
                result = allocate(hist, table, budget, l0, mode, sense)
                assert result.total_fi == pytest.approx(-best if maximize else best, abs=1e-9)
                seen["feasible"] += 1
        assert min(seen.values()) >= 10

    def test_repeated_calls_identical(self):
        # Equal columns make many assignments optimal; the solver must still
        # pick the same one every time.
        hist = ErrorHistogram((0.0, 0.1, 0.2), (0.25, 0.25, 0.5), 12)
        table = FiTable(gamma=np.repeat([[0.6], [0.85], [0.95]], 3, axis=1), gamma0=1.0)
        a = allocate(hist, table, 70, 8)
        b = allocate(hist, table, 70, 8)
        assert np.array_equal(a.x_matrix, b.x_matrix)
        assert np.array_equal(a.promotions, b.promotions)

    def test_solve_ilp_reports_solution_and_nodes(self):
        hist = ErrorHistogram((0.0, 0.2), (0.5, 0.5), 8)
        table = FiTable(gamma=np.array([[0.6, 0.2], [0.85, 0.3], [0.95, 0.4]]), gamma0=1.0)
        prob = build_ilp(hist, table, 40, 16)
        sol = solve_ilp(prob)
        assert sol.x.dtype == np.int64
        np.testing.assert_array_equal(prob.eq_matrix @ sol.x, prob.eq_rhs)
        assert sol.objective == float(prob.cost @ sol.x)
        assert isinstance(sol.nodes_explored, int) and sol.nodes_explored >= 0

    def test_heavy_branching_instance_matches_dp_oracle(self):
        # Eight categories at budget 218: a dense-simplex branch and bound
        # needs over 14,000 nodes and about 20 s on this instance.
        eps = (0.10, 0.12, 0.13, 0.29, 0.30, 0.35, 0.38, 0.40)
        counts = np.array((9, 7, 9, 13, 12, 8, 10, 8))
        m = int(counts.sum())
        hist = ErrorHistogram(eps, tuple(counts / m), m)
        table = design_table(eps, BGDA_DESIGNS)
        result = allocate(hist, table, 218, 32, BudgetMode.AT_MOST, Sense.MAXIMIZE_FI)
        oracle = allocate_dp_oracle(hist, table, 218, 32, BudgetMode.AT_MOST, Sense.MAXIMIZE_FI)
        assert oracle.total_fi == pytest.approx(18.4367306, abs=1e-7)
        assert abs(result.total_fi - oracle.total_fi) <= 1e-9

    def test_twenty_categories_four_bits_match_dp_oracle(self):
        rng = np.random.default_rng(17)
        eps = rng.choice(np.round(np.linspace(0.0, 0.45, 46), 2), 20, replace=False)
        hist = categorize_errors(np.repeat(eps, 3))
        assert hist.n_categories == 20 and hist.m_total == 60
        table = error_free_design_table(hist.epsilons, 4)
        for budget, mode in ((150, BudgetMode.AT_MOST), (211, BudgetMode.EXACT)):
            for sense in (Sense.MAXIMIZE_FI, Sense.MINIMIZE_FI):
                result = allocate(hist, table, budget, 32, mode, sense)
                oracle = allocate_dp_oracle(hist, table, budget, 32, mode, sense)
                assert abs(result.total_fi - oracle.total_fi) <= 1e-9
            assert_solvers_agree(hist, table, budget, 32)

    def test_nonbinding_budget_promotes_everything(self):
        hist = ErrorHistogram((0.0, 0.2), (0.5, 0.5), 4)
        table = FiTable(gamma=np.array([[0.6, 0.2], [0.85, 0.3], [0.95, 0.4]]), gamma0=1.0)
        result = allocate(hist, table, 4 * 32, 32, BudgetMode.AT_MOST, Sense.MAXIMIZE_FI)
        assert np.array_equal(result.promotions, [2, 2])
        assert result.total_fi == pytest.approx(4.0, abs=1e-12)

    def test_budget_beyond_every_assignment(self):
        # No assignment of 4 sensors spends more than 4 * 32 bits.  An
        # at-most budget above that is solved at that cap; an exact one
        # has no assignment.
        hist = ErrorHistogram((0.0, 0.2), (0.5, 0.5), 4)
        table = FiTable(gamma=np.array([[0.6, 0.2], [0.85, 0.3], [0.95, 0.4]]), gamma0=1.0)
        for sense in (Sense.MAXIMIZE_FI, Sense.MINIMIZE_FI):
            capped = allocate(hist, table, 4 * 32, 32, BudgetMode.AT_MOST, sense)
            for budget in (4 * 32 + 1, 10**19, 10**20):
                result = allocate(hist, table, budget, 32, BudgetMode.AT_MOST, sense)
                assert np.array_equal(result.x_matrix, capped.x_matrix)
                assert np.array_equal(result.promotions, capped.promotions)
            with pytest.raises(AllocationInfeasibleError):
                allocate(hist, table, 4 * 32 + 1, 32, BudgetMode.EXACT, sense)

    @pytest.mark.parametrize("scale", [1e-300, 1e-6, 3.0, 1e6, 1e300])
    def test_assignment_does_not_depend_on_the_information_scale(self, scale):
        # Information scales with 1 / sigma_n2; the solver's tolerances do not.
        rng = np.random.default_rng(23)
        for _ in range(10):
            hist, table, budget, l0, mode, sense = random_instance(rng)
            scaled = FiTable(gamma=table.gamma * scale, gamma0=table.gamma0 * scale)
            try:
                want = allocate(hist, table, budget, l0, mode, sense)
            except AllocationInfeasibleError:
                with pytest.raises(AllocationInfeasibleError):
                    allocate(hist, scaled, budget, l0, mode, sense)
                continue
            got = allocate(hist, scaled, budget, l0, mode, sense)
            assert got.total_fi == pytest.approx(want.total_fi * scale, rel=1e-12)


class TestSolverAgreement:
    """``allocate`` against HiGHS (``solve_ilp``) and the DP oracle."""

    @pytest.mark.parametrize("seed", [9, 23])
    def test_randomized_instances(self, seed):
        # The instances of ``test_sense_ordering`` and, at unit scale, of
        # ``test_assignment_does_not_depend_on_the_information_scale``.
        rng = np.random.default_rng(seed)
        for _ in range(10):
            hist, table, budget, l0, _, _ = random_instance(rng)
            assert_solvers_agree(hist, table, budget, l0)

    def test_enumerated_instances(self):
        # The instances of ``test_matches_enumeration_tiny``.
        rng = np.random.default_rng(33)
        for _ in range(48):
            assert_solvers_agree(*tiny_instance(rng))

    def test_program_assembly_instance(self):
        assert_solvers_agree(TestBuildIlp.HIST, TestBuildIlp.TABLE, 500, 32)
        assert_solvers_agree(TestBuildIlp.HIST, TestBuildIlp.TABLE, 60, 32)


def canonical_assignment(hist, table, budget, l0, mode, sense, order=None):
    """The assignment ``allocate`` documents, by brute force: the best
    information, then the fewest bits, then the cheapest options for the
    sensors taken last.  ``order`` lists the sensors in the order the
    program takes them, as blocks ``(category, head count)`` of
    interchangeable sensors; the default, one block per category in
    category order, is ``allocate``'s.  The last rule then reads: block by
    block from the last, the most sensors at 1 bit, then at 2 bits, ...,
    then at full precision.  Returns ``None`` where no assignment fits."""
    if order is None:
        order = list(enumerate(hist.counts))
    options = table.max_bits + 1
    widths = np.append(np.arange(1, options), l0)
    values = np.vstack([table.gamma, np.full(hist.n_categories, table.gamma0)])
    per_block = [
        np.array([c for c in itertools.product(range(size + 1), repeat=options) if sum(c) == size])
        for _, size in order
    ]
    # One row per assignment: the option counts of every block.
    index = np.stack(np.meshgrid(*(np.arange(len(b)) for b in per_block), indexing="ij"), -1).reshape(-1, len(order))
    columns = np.stack([b[index[:, i]] for i, b in enumerate(per_block)], axis=1)
    picked = np.zeros((len(index), options, hist.n_categories), dtype=np.int64)
    for i, (category, _) in enumerate(order):
        picked[:, :, category] += columns[:, i]
    bits = picked.sum(axis=2) @ widths
    fits = np.flatnonzero(bits <= budget if mode is BudgetMode.AT_MOST else bits == budget)
    if fits.size == 0:
        return None
    info = (picked[fits] * values).sum(axis=(1, 2))
    signed = info if sense is Sense.MAXIMIZE_FI else -info
    # lexsort sorts by its last key first: the information, the bits, then
    # the counts of the last block, from its first option on.
    keys = [-columns[fits, i, j] for i in range(len(order)) for j in reversed(range(options))]
    return picked[fits[np.lexsort(keys + [bits[fits], -signed])[0]]]


def sweep_order(hist_at, m_values, m):
    """The blocks in which ``allocate_sweep`` takes the sensors of fleet
    ``m``: fleet by fleet in increasing size, each fleet's added sensors
    category by category.  ``hist_at(size)`` is the case at that size."""
    blocks, before = [], np.zeros(len(hist_at(m).counts), dtype=np.int64)
    for size in sorted(size for size in m_values if size <= m):
        counts = np.array(hist_at(size).counts)
        blocks += [(n, int(added)) for n, added in enumerate(counts - before) if added]
        before = counts
    return blocks


def random_sweep(rng):
    """Cases whose head counts are whole at every fleet size, the sizes in
    random order, and a budget that some fleets cannot meet."""
    n = int(rng.integers(1, 4))
    unit = int(rng.integers(n, 6))
    cases = []
    for _ in range(int(rng.integers(1, 3))):
        cuts = np.sort(rng.choice(np.arange(1, unit), n - 1, replace=False))
        cases.append(tuple(np.diff(np.concatenate(([0], cuts, [unit]))) / unit))
    m_values = tuple(int(unit * k) for k in rng.permutation(np.arange(1, 5))[: int(rng.integers(2, 5))])
    table = FiTable(gamma=rng.uniform(0.0, 0.95, (int(rng.integers(1, 4)), n)), gamma0=1.0)
    l0 = int(rng.integers(2, 12))
    budget = int(rng.integers(min(m_values), 3 * max(m_values)))
    return tuple(0.1 * np.arange(n)), cases, m_values, table, budget, l0


class TestTies:
    """Equal information columns make many assignments optimal; ``allocate``
    keeps the one its documented rule names."""

    # Dyadic values, so that equal assignments tie exactly; 2 and 3 bits are
    # worth the same, and every category the same.
    TABLE = FiTable(gamma=np.repeat([[0.5], [0.75], [0.75]], 3, axis=1), gamma0=1.0)
    HIST = ErrorHistogram((0.0, 0.1, 0.2), (0.25, 0.25, 0.5), 8)

    @pytest.mark.parametrize("sense", list(Sense))
    @pytest.mark.parametrize("mode", list(BudgetMode))
    def test_kept_assignment_follows_the_rule(self, mode, sense):
        l0 = 4
        ties = 0
        for budget in range(self.HIST.m_total, self.HIST.m_total * l0 + 2):
            want = canonical_assignment(self.HIST, self.TABLE, budget, l0, mode, sense)
            if want is None:
                with pytest.raises(AllocationInfeasibleError):
                    allocate(self.HIST, self.TABLE, budget, l0, mode, sense)
                continue
            got = allocate(self.HIST, self.TABLE, budget, l0, mode, sense)
            assert np.array_equal(got.x_matrix, want[:-1]), budget
            assert np.array_equal(got.promotions, want[-1]), budget
            ties += 1
        assert ties >= 20


class TestAllocateSweep:
    """One program for every point of a sweep; its smaller fleets are
    prefixes of the largest."""

    def test_randomized_sweeps_match_allocate_and_the_dp_oracle(self):
        rng = np.random.default_rng(41)
        seen = {"feasible": 0, "infeasible": 0}
        for _ in range(25):
            eps, cases, m_values, table, budget, l0 = random_sweep(rng)
            for mode in BudgetMode:
                outcomes = iter(allocate_sweep(eps, cases, m_values, table, budget, l0, mode, tuple(Sense)))
                for freqs, m, sense in itertools.product(cases, m_values, Sense):
                    got = next(outcomes)
                    hist = ErrorHistogram(eps, freqs, m)
                    try:
                        want = allocate(hist, table, budget, l0, mode, sense)
                    except AllocationInfeasibleError as exc:
                        assert isinstance(got, AllocationInfeasibleError) and str(got) == str(exc)
                        with pytest.raises(AllocationInfeasibleError):
                            allocate_dp_oracle(hist, table, budget, l0, mode, sense)
                        seen["infeasible"] += 1
                        continue
                    assert np.array_equal(got.x_matrix, want.x_matrix), (m, mode, sense)
                    assert np.array_equal(got.promotions, want.promotions), (m, mode, sense)
                    oracle = allocate_dp_oracle(hist, table, budget, l0, mode, sense)
                    assert abs(got.total_fi - oracle.total_fi) <= 1e-9
                    seen["feasible"] += 1
                assert next(outcomes, None) is None
        assert min(seen.values()) >= 50

    @pytest.mark.parametrize("sense", list(Sense))
    @pytest.mark.parametrize("mode", list(BudgetMode))
    def test_ties_follow_the_nested_order(self, mode, sense):
        # TestTies' dyadic table at fleets of 8 and 4 sensors, given in that
        # order: the 8-sensor fleet takes the 4-sensor fleet's sensors first.
        table, eps, freqs, m_values, l0 = TestTies.TABLE, TestTies.HIST.epsilons, TestTies.HIST.freqs, (8, 4), 4
        hist_at = lambda m: ErrorHistogram(eps, freqs, m)
        reordered = 0
        for budget in range(4, 8 * l0 + 2):
            outcomes = allocate_sweep(eps, (freqs,), m_values, table, budget, l0, mode, (sense,))
            for m, got in zip(m_values, outcomes):
                hist = hist_at(m)
                want = canonical_assignment(hist, table, budget, l0, mode, sense, sweep_order(hist_at, m_values, m))
                if want is None:
                    assert isinstance(got, AllocationInfeasibleError), (m, budget)
                    continue
                assert np.array_equal(got.x_matrix, want[:-1]), (m, budget)
                assert np.array_equal(got.promotions, want[-1]), (m, budget)
                alone = canonical_assignment(hist, table, budget, l0, mode, sense)
                reordered += not np.array_equal(alone, want)
        # The order decides the kept tie at some budgets, except where the
        # optimum is one assignment at every budget: the least information
        # under an at-most budget, every sensor at 1 bit.
        single = (mode, sense) == (BudgetMode.AT_MOST, Sense.MINIMIZE_FI)
        assert reordered == 0 if single else reordered >= 3, reordered


class TestDpOracle:
    def test_zero_budget_zero_sensors(self):
        # Smallest degenerate instance the histogram type admits: one sensor,
        # budget equal to its one-bit cost.
        hist = ErrorHistogram((0.0,), (1.0,), 1)
        table = FiTable(gamma=np.array([[0.5]]), gamma0=1.0)
        result = allocate_dp_oracle(hist, table, 1, 8, BudgetMode.AT_MOST)
        assert result.total_fi == pytest.approx(0.5)
        assert result.bits_used == 1

    def test_exact_promotion_is_only_fill(self):
        hist = ErrorHistogram((0.0,), (1.0,), 1)
        table = FiTable(gamma=np.array([[0.5], [0.8]]), gamma0=1.0)
        result = allocate_dp_oracle(hist, table, 16, 16, BudgetMode.EXACT)
        assert np.array_equal(result.promotions, [1])

    def test_budget_cap_enforced(self):
        hist = ErrorHistogram((0.0,), (1.0,), 1)
        table = FiTable(gamma=np.array([[0.5]]), gamma0=1.0)
        with pytest.raises(ValueError):
            allocate_dp_oracle(hist, table, 20_000, 32)
