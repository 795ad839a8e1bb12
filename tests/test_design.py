"""Quantizer design tests: objective, gradient, ascent, swarm, landscape."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybriddet import design
from hybriddet.design import (
    DesignProblem,
    DesignResult,
    PsoSettings,
    _objective_rows,
    _separate_ties,
    design_bgda,
    design_objective,
    design_pso,
    fi_landscape,
    find_local_maxima,
    objective_gradient,
    optimized_thresholds,
)

from hybriddet.detection import bsc_kernel, likelihood_kernels
from hybriddet.model import GRAY, NATURAL, ChannelSpec, QuantizerSpec

from oracles import central_difference, quantized_fi_oracle


class TestObjective:
    def test_one_bit_closed_form(self):
        problem = DesignProblem(bits=1, p_e=0.0)
        assert design_objective((0.0,), problem) == pytest.approx(2 / math.pi, abs=1e-12)

    def test_two_bit_reference(self):
        problem = DesignProblem(bits=2, p_e=0.0)
        expected = quantized_fi_oracle((-1.0, 0.0, 1.0), 0.0, 1.0)
        assert design_objective((-1.0, 0.0, 1.0), problem) == pytest.approx(expected, abs=1e-9)

    def test_uninformative_channel(self):
        problem = DesignProblem(bits=2, p_e=0.5)
        assert design_objective((-1.0, 0.0, 1.0), problem) == pytest.approx(0.0, abs=1e-15)

    def test_non_monotone_rejected(self):
        problem = DesignProblem(bits=2, p_e=0.0)
        with pytest.raises(ValueError):
            design_objective((1.0, 0.0, -1.0), problem)

    def test_never_exceeds_analog_information(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            bits = int(rng.integers(1, 4))
            sigma_n2 = float(rng.uniform(0.5, 2.0))
            problem = DesignProblem(bits=bits, p_e=float(rng.uniform(0, 0.5)), sigma_n2=sigma_n2)
            tau = tuple(np.sort(rng.normal(0, 2, 2**bits - 1)))
            assert design_objective(tau, problem) <= 1.0 / sigma_n2 + 1e-12

    def test_matches_oracle_at_nonunit_noise(self):
        problem = DesignProblem(bits=2, p_e=0.15, sigma_n2=2.0)
        tau = (-1.4, 0.2, 0.9)
        assert design_objective(tau, problem) == pytest.approx(
            quantized_fi_oracle(tau, 0.15, 2.0), rel=1e-9
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_passed_kernel_matches_per_call_kernel(self, data):
        # The swarm builds the channel kernel once and passes it in; every
        # row must come out bit for bit as when each call builds its own.
        bits = data.draw(st.integers(1, 4))
        problem = DesignProblem(
            bits=bits,
            p_e=data.draw(st.floats(0.0, 0.5)),
            sigma_n2=data.draw(st.floats(0.25, 4.0)),
            mapping=data.draw(st.sampled_from((NATURAL, GRAY))),
        )
        n_rows = data.draw(st.integers(1, 6))
        size = n_rows * problem.n_thresholds
        values = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=size, max_size=size))
        rows = np.sort(np.reshape(values, (n_rows, problem.n_thresholds)), axis=1)
        kernel = bsc_kernel(bits, problem.p_e, problem.mapping)
        assert np.array_equal(_objective_rows(rows, problem, kernel), _objective_rows(rows, problem))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(1, 4),
        sigma_n2=st.floats(0.1, 10.0),
        # Crossovers in (0, 1e-3) are left to
        # ``TestFarTailObjective.test_cancelled_cell_over_a_subnormal_crossover``.
        p_e=st.just(0.0) | st.floats(1e-3, 0.5),
        mapping=st.sampled_from((NATURAL, GRAY)),
        data=st.data(),
    )
    def test_matches_detection_kernels(self, bits, sigma_n2, p_e, mapping, data):
        # The swarm's cell form and ``detection.cell_tables`` differ only in
        # how they round; inside +/-4 sigma no cell is small enough for that
        # to matter.
        problem = DesignProblem(bits=bits, p_e=p_e, sigma_n2=sigma_n2, mapping=mapping)
        n = problem.n_thresholds
        z = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n, unique=True))
        tau = np.sort(z) * problem.sigma_n
        assume(np.all(np.diff(tau) > 0))
        kernels = likelihood_kernels(QuantizerSpec(bits, tuple(tau)), ChannelSpec(p_e), problem.sigma_n, mapping)
        assert _objective_rows(tau, problem)[0] == pytest.approx(kernels.fi_contribution, rel=1e-10, abs=0.0)


def _one_bit_information_mpmath(threshold: float, sigma_n2: float) -> float:
    """``pdf(z)**2 / (P(cell 1) P(cell 2)) / sigma_n2`` at 50 digits."""
    with mpmath.workdps(50):
        z = mpmath.mpf(threshold) / mpmath.mpf(math.sqrt(sigma_n2))
        below = mpmath.ncdf(z)
        return float(mpmath.npdf(z) ** 2 / (below * (1 - below)) / mpmath.mpf(sigma_n2))


class TestFarTailObjective:
    """A 1-bit threshold at -8.5 sigma: its lower cell holds 9.5e-18."""

    PROBLEM = DesignProblem(bits=1, p_e=0.0, sigma_n2=0.125)

    def test_detection_kernels_match_mpmath(self):
        want = _one_bit_information_mpmath(-3.0, self.PROBLEM.sigma_n2)
        got = likelihood_kernels(QuantizerSpec(1, (-3.0,)), ChannelSpec(0.0), self.PROBLEM.sigma_n)
        assert got.fi_contribution == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="the swarm's cells subtract upper tails near 1 (design._swarm_cells); "
        "remove this marker when they come from detection.cell_tables",
    )
    def test_swarm_objective_matches_mpmath(self):
        want = _one_bit_information_mpmath(-3.0, self.PROBLEM.sigma_n2)
        assert design_objective((-3.0,), self.PROBLEM) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="a cell the swarm's form cancels to 0 keeps its nonzero score, which a "
        "received probability of order p_e then divides (design._swarm_cells)",
    )
    def test_cancelled_cell_over_a_subnormal_crossover(self):
        # The middle cell is one ulp wide at -4 sigma; its true probability
        # is 6e-20.  Any objective stays below 1 / sigma_n2.
        tau = (-4.0, -3.9999999999999996, 0.0)
        problem = DesignProblem(bits=2, p_e=2.225073858507203e-309)
        kernels = likelihood_kernels(QuantizerSpec(2, tau), ChannelSpec(problem.p_e), 1.0)
        assert kernels.fi_contribution <= 1.0
        assert design_objective(tau, problem) == pytest.approx(kernels.fi_contribution, rel=1e-10, abs=0.0)


class TestGradient:
    def test_stationary_by_symmetry_one_bit(self):
        problem = DesignProblem(bits=1, p_e=0.0)
        assert objective_gradient((0.0,), problem)[0] == pytest.approx(0.0, abs=1e-15)

    def test_sign_toward_origin(self):
        problem = DesignProblem(bits=1, p_e=0.0)
        assert objective_gradient((-0.5,), problem)[0] > 0
        assert objective_gradient((0.5,), problem)[0] < 0

    def test_requires_error_free(self):
        with pytest.raises(ValueError):
            objective_gradient((0.0,), DesignProblem(bits=1, p_e=0.1))

    @pytest.mark.parametrize("bits", [2, 3])
    def test_matches_central_differences(self, bits):
        rng = np.random.default_rng(10 + bits)
        problem = DesignProblem(bits=bits, p_e=0.0)
        checked = 0
        while checked < 30:
            tau = np.sort(rng.normal(0, 1.2, 2**bits - 1))
            if np.min(np.diff(tau)) < 1e-3:
                continue
            analytic = objective_gradient(tau, problem)
            numeric = central_difference(
                lambda t: design_objective(t, problem), tau, h=1e-6
            )
            scale = max(np.max(np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric)) / scale <= 1e-5
            checked += 1

    def test_nonunit_noise_gradient(self):
        problem = DesignProblem(bits=2, p_e=0.0, sigma_n2=2.0)
        tau = np.array([-1.1, 0.3, 1.6])
        analytic = objective_gradient(tau, problem)
        numeric = central_difference(lambda t: design_objective(t, problem), tau, h=1e-6)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)


class TestBgda:
    def test_one_bit_converges_to_grid_argmax(self):
        problem = DesignProblem(bits=1, p_e=0.0)
        grid = np.linspace(-5, 5, 4001)
        vals = [design_objective((t,), problem) for t in grid]
        oracle = grid[int(np.argmax(vals))]
        result = design_bgda(problem, (1.5,))
        assert result.thresholds[0] == pytest.approx(oracle, abs=0.01)
        assert result.thresholds[0] == pytest.approx(0.0, abs=1e-6)

    def test_two_bit_converges_to_interior_optimum(self):
        # The symmetric optimum sits at +/-0.98160; verified against a fine
        # bisection on the symmetric slice.
        problem = DesignProblem(bits=2, p_e=0.0)
        result = design_bgda(problem, (-0.5, 0.1, 0.7))
        assert result.thresholds[0] == pytest.approx(-0.98160, abs=1e-4)
        assert result.thresholds[1] == pytest.approx(0.0, abs=1e-6)
        assert result.thresholds[2] == pytest.approx(0.98160, abs=1e-4)
        assert result.objective == pytest.approx(0.8825181521706708, abs=1e-9)

    def test_fixed_point_at_optimum(self):
        problem = DesignProblem(bits=1, p_e=0.0)
        result = design_bgda(problem, (0.0,))
        assert result.thresholds == (0.0,)
        assert list(result.trace) == sorted(result.trace)

    def test_trace_non_decreasing_and_improves_on_init(self):
        problem = DesignProblem(bits=2, p_e=0.0)
        init = (-2.5, -1.0, 2.0)
        result = design_bgda(problem, init)
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) >= 0)
        assert result.objective >= design_objective(init, problem)

    def test_rejects_error_prone_channel(self):
        with pytest.raises(ValueError):
            design_bgda(DesignProblem(bits=1, p_e=0.2), (0.0,))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            design_bgda(DesignProblem(bits=1, p_e=0.0), (0.0,), step=0.0)


class TestPso:
    def test_one_bit(self):
        result = design_pso(DesignProblem(bits=1, p_e=0.0), PsoSettings(seed=1))
        assert result.thresholds[0] == pytest.approx(0.0, abs=0.05)

    def test_two_bit_error_free(self):
        result = design_pso(DesignProblem(bits=2, p_e=0.0), PsoSettings(seed=1))
        np.testing.assert_allclose(result.thresholds, (-1.0, 0.0, 1.0), atol=0.05)

    def test_two_bit_error_prone_reaches_best_peak(self):
        problem = DesignProblem(bits=2, p_e=0.2)
        peak_small = design_objective((-0.2384, 0.0, 0.2384), problem)
        peak_tail = design_objective((-4.237, 0.0, 4.237), problem)
        result = optimized_thresholds(2, 0.2, 1.0, PsoSettings(seed=0))
        assert result.objective >= max(peak_small, peak_tail) - 1e-4

    def test_deterministic(self):
        problem = DesignProblem(bits=2, p_e=0.2)
        a = design_pso(problem, PsoSettings(seed=9))
        b = design_pso(problem, PsoSettings(seed=9))
        assert a.thresholds == b.thresholds
        assert a.trace == b.trace

    def test_trace_non_decreasing(self):
        result = design_pso(DesignProblem(bits=2, p_e=0.2), PsoSettings(seed=4))
        assert np.all(np.diff(np.array(result.trace)) >= 0)

    def test_antisymmetric_solution(self):
        result = optimized_thresholds(2, 0.2, 1.0, PsoSettings(seed=2))
        tau = np.array(result.thresholds)
        np.testing.assert_allclose(tau, -tau[::-1], atol=0.05)

    def test_tied_swarm_optimum_is_separated(self):
        # With this seed the best 3-bit swarm point at p_e = 0.2 repeats its
        # third threshold exactly; the repeat is moved up by one ulp.
        result = optimized_thresholds(3, 0.2, 1.0, PsoSettings(seed=2))
        tau = np.array(result.thresholds)
        assert np.all(np.diff(tau) > 0)
        assert tau[3] == np.nextafter(tau[2], np.inf)
        QuantizerSpec(3, result.thresholds)
        problem = DesignProblem(bits=3, p_e=0.2)
        assert result.objective == design_objective(result.thresholds, problem)

    def test_separate_ties_moves_each_repeat_one_ulp(self):
        problem = DesignProblem(bits=3, p_e=0.2)
        tied = DesignResult((-1.0, -1.0, -1.0, 0.0, 0.5, 0.5, 2.0), -1.0, (-1.0,))
        result = _separate_ties(tied, problem)
        tau = result.thresholds
        expected = [-1.0]
        expected.append(float(np.nextafter(expected[-1], np.inf)))
        expected.append(float(np.nextafter(expected[-1], np.inf)))
        expected += [0.0, 0.5, float(np.nextafter(0.5, np.inf)), 2.0]
        assert list(tau) == expected
        assert result.objective == design_objective(tau, problem)
        assert result.objective != tied.objective
        assert result.trace == tied.trace

    def test_separate_ties_returns_untied_result_itself(self):
        problem = DesignProblem(bits=2, p_e=0.2)
        untied = DesignResult((-1.0, 0.0, 1.0), -1.0, (-1.0,))
        assert _separate_ties(untied, problem) is untied

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            PsoSettings(c1=1.0, c2=1.0)
        with pytest.raises(ValueError):
            PsoSettings(swarm_size=1)
        assert PsoSettings().constriction() == pytest.approx(0.7298, abs=1e-4)

    def test_more_bits_never_hurt(self):
        settings = PsoSettings(seed=3)
        for p_e in (0.0, 0.2):
            objs = [
                optimized_thresholds(bits, p_e, 1.0, settings).objective
                for bits in (1, 2, 3)
            ]
            assert objs[0] <= objs[1] + 1e-6
            assert objs[1] <= objs[2] + 1e-6


#: The (bits, p_e) cells of the sweep preset's information table, and its seed.
SWEEP_CELLS = [(bits, p_e) for bits in (1, 2, 3) for p_e in (0.0, 0.01, 0.1, 0.2)]
SWEEP_SEED = 20260810


def _cell_swarms(monkeypatch, bits, p_e, settings):
    """Design one cell with an empty cache; return it and every restart's result."""
    runs = []
    swarm = design.design_pso

    def recorded(*args, **kwargs):
        runs.append(swarm(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(design, "_DESIGN_CACHE", {})
    monkeypatch.setattr(design, "design_pso", recorded)
    result = optimized_thresholds(bits, p_e, 1.0, settings)
    monkeypatch.setattr(design, "design_pso", swarm)
    return result, runs


def _stalled(trace, end):
    """Whether the stall rule holds after sweep ``end`` of ``trace``."""
    best = trace[end]
    return (
        end >= design._STALL_ITERS
        and best - trace[end - design._STALL_ITERS] <= design._STALL_TOL * abs(best)
    )


class TestStallStop:
    @pytest.mark.parametrize("bits, p_e", SWEEP_CELLS)
    def test_stall_loses_nothing_against_unstopped_swarm(self, monkeypatch, bits, p_e):
        settings = PsoSettings(seed=SWEEP_SEED)
        stalled, runs = _cell_swarms(monkeypatch, bits, p_e, settings)
        for run in runs:
            assert np.all(np.diff(np.array(run.trace)) >= 0)
        monkeypatch.setattr(design, "_STALL_ITERS", settings.max_iters + 1)
        unstopped, _ = _cell_swarms(monkeypatch, bits, p_e, settings)
        assert stalled.objective >= unstopped.objective - 1e-12

    def test_two_bit_cell_stops_early_and_at_the_first_stall(self, monkeypatch):
        settings = PsoSettings(seed=SWEEP_SEED)
        _, runs = _cell_swarms(monkeypatch, 2, 0.1, settings)
        assert len(runs) == design._PSO_RESTARTS
        for run in runs:
            sweeps = len(run.trace) - 1
            assert sweeps < 500
            assert _stalled(run.trace, sweeps)
            assert not any(_stalled(run.trace, k) for k in range(sweeps))


class TestLandscape:
    def test_invalid_cells_are_nan(self):
        problem = DesignProblem(bits=2, p_e=0.0)
        grid = fi_landscape(problem, np.array([-1.0, 0.5]), np.array([-0.5, 1.0]))
        assert np.isnan(grid[1, 0])  # tau1 > 0 invalid
        assert np.isnan(grid[0, 0])  # tau3 < 0 invalid
        assert np.isfinite(grid[0, 1])

    def test_error_free_grid_argmax_cell(self):
        problem = DesignProblem(bits=2, p_e=0.0)
        axis = np.linspace(-5, 5, 201)
        grid = fi_landscape(problem, axis, axis)
        i, j = np.unravel_index(np.nanargmax(grid), grid.shape)
        assert (axis[i], axis[j]) == (-1.0, 1.0)

    def test_error_prone_grid_has_two_maxima_with_primary_near_published(self):
        problem = DesignProblem(bits=2, p_e=0.2)
        axis = np.linspace(-5, 5, 201)
        grid = fi_landscape(problem, axis, axis)
        maxima = find_local_maxima(grid)
        assert len(maxima) == 2
        coords = sorted((axis[i], axis[j]) for i, j in maxima)
        primary = min(coords, key=lambda c: abs(c[0] + 0.2384))
        assert primary[0] == pytest.approx(-0.2384, abs=0.05)
        assert primary[1] == pytest.approx(0.2384, abs=0.05)

    def test_find_local_maxima_simple(self):
        values = np.array(
            [
                [np.nan, 1.0, 0.5, 0.1],
                [0.2, 3.0, 0.4, 0.1],
                [0.1, 0.3, 0.2, 0.3],
                [0.0, 0.1, 0.3, 2.0],
            ]
        )
        assert find_local_maxima(values) == [(1, 1), (3, 3)]
