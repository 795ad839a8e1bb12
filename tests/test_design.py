"""Quantizer design tests: objective, gradient, ascent, swarm, landscape."""

import math

import numpy as np
import pytest

from hybriddet.design import (
    DesignProblem,
    PsoSettings,
    design_bgda,
    design_objective,
    design_pso,
    fi_landscape,
    find_local_maxima,
    objective_gradient,
    optimized_thresholds,
)

from hybriddet.model import QuantizerSpec

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
        # lowest threshold exactly; the repeat is moved up by one ulp.
        result = optimized_thresholds(3, 0.2, 1.0, PsoSettings(seed=967776465))
        tau = np.array(result.thresholds)
        assert np.all(np.diff(tau) > 0)
        assert tau[1] == np.nextafter(tau[0], np.inf)
        QuantizerSpec(3, result.thresholds)
        problem = DesignProblem(bits=3, p_e=0.2)
        assert result.objective == design_objective(result.thresholds, problem)

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
