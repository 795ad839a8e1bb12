"""Quantizer design tests: objective, gradient, ascent, swarm, landscape."""

import itertools
import math
from dataclasses import replace

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
    objective_gradient,
    optimized_cells,
    optimized_thresholds,
)

from hybriddet.allocation import build_fi_table
from hybriddet.cli import main
from hybriddet.detection import NetworkKernels, bsc_kernel, reconstruction_table
from hybriddet.experiments import RocScenario, SweepCase, SweepScenario, run_roc, run_sweep
from hybriddet.model import QuantizerSpec

from oracles import (
    central_difference,
    face_classes_loop,
    faces_loop,
    find_local_maxima,
    quantized_fi_oracle,
    symmetric_face_argmax,
    symmetric_face_profile,
)


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

    @pytest.mark.parametrize(
        "bits, thresholds",
        [(2, (1.0, 0.0, -1.0)), (1, (math.nan,)), (1, (math.inf,)), (1, np.array([[0.0]]))],
        ids=["non-monotone", "nan", "inf", "two-dimensional"],
    )
    def test_non_monotone_rejected(self, bits, thresholds):
        problem = DesignProblem(bits=bits, p_e=0.0)
        with pytest.raises(ValueError):
            design_objective(thresholds, problem)
        with pytest.raises(ValueError):
            objective_gradient(thresholds, problem)

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
        # A swarm batch builds each channel's kernel once and evaluates the
        # rows of every swarm on that channel in one call; each swarm's
        # values must come out bit for bit as when each call builds its own.
        bits = data.draw(st.integers(1, 4))
        sigma_n2 = data.draw(st.floats(0.25, 4.0))
        problems = [
            DesignProblem(
                bits=bits,
                p_e=data.draw(st.floats(0.0, 0.5)),
                sigma_n2=sigma_n2,
                tau_max=16.0,
            )
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        n_rows = data.draw(st.integers(2, 6))
        size = n_rows * problems[0].n_thresholds
        values = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=size, max_size=size))
        rows = np.reshape(values, (n_rows, problems[0].n_thresholds))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(design, "_PSO_SIZE", n_rows)
            patch.setattr(design, "_PSO_MAX_ITERS", 1)
            guesses = tuple(map(tuple, rows / problems[0].sigma_n))
            results = design._run_swarms(problems, list(range(len(problems))), guesses)
        for problem, result in zip(problems, results):
            unit = replace(problem, sigma_n2=1.0)
            assert result.trace[0] == np.max(_objective_rows(np.sort(rows, axis=1) / problem.sigma_n, unit))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(1, 4),
        sigma_n2=st.floats(0.1, 10.0),
        # Crossovers in (0, 1e-3) are left to
        # ``TestFarTailObjective.test_cancelled_cell_over_a_subnormal_crossover``.
        p_e=st.just(0.0) | st.floats(1e-3, 0.5),
        data=st.data(),
    )
    def test_matches_detection_kernels(self, bits, sigma_n2, p_e, data):
        # The design objective and the detector share ``cell_tables`` and
        # ``received_information``; the detector's tables go through a
        # ``QuantizerSpec`` and a different noise scaling, so they may
        # differ in the last bits.
        problem = DesignProblem(bits=bits, p_e=p_e, sigma_n2=sigma_n2)
        n = problem.n_thresholds
        z = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n, unique=True))
        tau = np.sort(z) * problem.sigma_n
        assume(np.all(np.diff(tau) > 0))
        kernels = NetworkKernels(QuantizerSpec(bits, tuple(tau)), p_e, 1, 0, sigma_n2)
        assert _objective_rows(tau, problem)[0] == pytest.approx(kernels.fisher_info, rel=1e-10, abs=0.0)


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
        got = NetworkKernels(QuantizerSpec(1, (-3.0,)), 0.0, 1, 0, self.PROBLEM.sigma_n2)
        assert got.fisher_info == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_swarm_objective_matches_mpmath(self):
        want = _one_bit_information_mpmath(-3.0, self.PROBLEM.sigma_n2)
        assert design_objective((-3.0,), self.PROBLEM) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_cancelled_cell_over_a_subnormal_crossover(self):
        # The middle cell is one ulp wide at -4 sigma; its true probability
        # is 6e-20.  Any objective stays below 1 / sigma_n2.
        tau = (-4.0, -3.9999999999999996, 0.0)
        problem = DesignProblem(bits=2, p_e=2.225073858507203e-309)
        kernels = NetworkKernels(QuantizerSpec(2, tau), problem.p_e, 1, 0, 1.0)
        assert kernels.fisher_info <= 1.0
        assert design_objective(tau, problem) == pytest.approx(kernels.fisher_info, rel=1e-10, abs=0.0)


class TestGradient:
    def test_stationary_by_symmetry_one_bit(self):
        problem = DesignProblem(bits=1, p_e=0.0)
        assert objective_gradient((0.0,), problem)[0] == pytest.approx(0.0, abs=1e-15)

    def test_sign_toward_origin(self):
        problem = DesignProblem(bits=1, p_e=0.0)
        assert objective_gradient((-0.5,), problem)[0] > 0
        assert objective_gradient((0.5,), problem)[0] < 0

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

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(1, 3),
        p_e=st.floats(0.0, 0.45),
        sigma_n2=st.sampled_from((0.5, 2.0)),
        data=st.data(),
    )
    def test_noisy_gradient_matches_central_differences(self, bits, p_e, sigma_n2, data):
        problem = DesignProblem(bits=bits, p_e=p_e, sigma_n2=sigma_n2)
        n = problem.n_thresholds
        z = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n, unique=True))
        tau = np.sort(z) * problem.sigma_n
        assume(np.all(np.diff(tau) > 1e-2))
        analytic = objective_gradient(tau, problem)
        numeric = central_difference(lambda t: design_objective(t, problem), tau, h=1e-6)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

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

    def test_tied_swarm_optimum_is_separated(self, monkeypatch):
        # A swarm point can repeat a threshold exactly (coordinates are
        # clipped to the box and sorted); a best 3-bit point at p_e = 0.2
        # that repeats its third threshold has the repeat moved up by one ulp.
        tied = (-1.2, -0.6, -0.25, -0.25, 0.25, 0.6, 1.2)

        def swarms(problems, seeds, initial_guesses=()):
            return [DesignResult(tied, 0.4, (0.4,))] * len(seeds)

        monkeypatch.setattr(design, "_run_swarms", swarms)
        result = _table_swarms(3, (0.2,), PsoSettings(seed=18))[0]
        tau = np.array(result.thresholds)
        assert result.thresholds[:3] == tied[:3]
        assert np.all(np.diff(tau) > 0)
        assert tau[3] == np.nextafter(tau[2], np.inf)
        QuantizerSpec(3, result.thresholds)
        problem = DesignProblem(bits=3, p_e=0.2)
        assert result.objective == design_objective(result.thresholds, problem)

    def test_separate_ties_moves_each_repeat_one_ulp(self):
        tau = _separate_ties((-1.0, -1.0, -1.0, 0.0, 0.5, 0.5, 2.0))
        expected = [-1.0]
        expected.append(float(np.nextafter(expected[-1], np.inf)))
        expected.append(float(np.nextafter(expected[-1], np.inf)))
        expected += [0.0, 0.5, float(np.nextafter(0.5, np.inf)), 2.0]
        assert tau == tuple(expected)

    def test_separate_ties_keeps_untied_thresholds(self):
        assert _separate_ties((-1.0, 0.0, 1.0)) == (-1.0, 0.0, 1.0)

    def test_settings_validation(self):
        assert design._PSO_CHI == pytest.approx(0.7298, abs=1e-4)

    def test_more_bits_never_hurt(self):
        # Four bits exercise the swarm branch of the table's cell design.
        settings = PsoSettings(seed=3)
        for p_e in (0.0, 0.2):
            objs = [
                optimized_thresholds(bits, p_e, 1.0, settings).objective
                for bits in (1, 2, 3, 4)
            ]
            assert objs[0] <= objs[1] + 1e-6
            assert objs[1] <= objs[2] + 1e-6
            assert objs[2] <= objs[3] + 1e-6


#: The (bits, p_e) cells of the sweep preset's information table, and its seed.
SWEEP_CELLS = [(bits, p_e) for bits in (1, 2, 3) for p_e in (0.0, 0.01, 0.1, 0.2)]
SWEEP_SEED = 20260810


def _record_batches(monkeypatch):
    """Spy on the swarm engine; return the list its calls are recorded in.

    Each entry is ``(problems, seeds, guesses, results)`` of one batch.
    """
    batches = []
    engine = design._run_swarms

    def recorded(problems, seeds, initial_guesses=()):
        results = engine(problems, seeds, initial_guesses)
        batches.append((problems, seeds, initial_guesses, results))
        return results

    monkeypatch.setattr(design, "_DESIGN_CACHE", {})
    monkeypatch.setattr(design, "_run_swarms", recorded)
    return batches


def _settled(thresholds, problem):
    """A designer's thresholds as ``optimized_cells`` caches them: ties moved apart, then scored."""
    thresholds = _separate_ties(thresholds)
    objective = design_objective(thresholds, problem)
    return DesignResult(thresholds, objective, (objective,))


def _table_swarms(bits, p_es, settings):
    """Each unit-noise cell's swarm design, as the swarm path of the table designs it.

    The cells of 1 bit are designed in closed form and those of 2 and 3
    bits on their faces; this runs the swarm on them with the restarts,
    seeds and guesses of that path.
    """
    problems = [DesignProblem(bits=bits, p_e=p_e) for p_e in p_es]
    return [_settled(t, p) for t, p in zip(design._swarm_designs(problems, settings.seed), problems)]


def _cell_swarms(monkeypatch, bits, p_e, settings):
    """Design one cell by swarm with an empty cache; return it and every restart's result."""
    batches = _record_batches(monkeypatch)
    result = _table_swarms(bits, (p_e,), settings)[0]
    return result, [run for *_, results in batches for run in results]


def _stalled(trace, end):
    """Whether the stall rule's bound on the rise of ``trace`` holds after sweep ``end``."""
    best = trace[end]
    return (
        end >= design._STALL_ITERS
        and best - trace[end - design._STALL_ITERS] <= design._STALL_TOL * abs(best)
    )


class TestStallStop:
    # At 3 bits and p_e = 0.2 the best of one restart rises by only 4.40e-13
    # over sweeps 1,270-1,420 (the tolerance is 4.46e-13) while half of its
    # particles still hold bests about 5e-9 (relative) below it; it climbs
    # by 1.5e-8 after sweep 1,543.
    @pytest.mark.parametrize("bits, p_e", SWEEP_CELLS)
    def test_stall_loses_nothing_against_unstopped_swarm(self, monkeypatch, bits, p_e):
        settings = PsoSettings(seed=SWEEP_SEED)
        stalled, runs = _cell_swarms(monkeypatch, bits, p_e, settings)
        assert len(runs) == design._PSO_RESTARTS
        for run in runs:
            assert np.all(np.diff(np.array(run.trace)) >= 0)
        monkeypatch.setattr(design, "_STALL_ITERS", design._PSO_MAX_ITERS + 1)
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


def _assert_lone_swarms_agree(batch):
    """Every swarm of a recorded batch equals the lone swarm of its seed; returns the lone swarms."""
    problems, seeds, guesses, results = batch
    lone = [design._run_swarms([problem], [seed], guesses)[0] for problem, seed in zip(problems, seeds)]
    assert results == lone
    return lone


class TestSwarmBatch:
    @pytest.mark.parametrize("bits", (1, 2, 3))
    def test_batch_equals_lone_swarms(self, monkeypatch, bits):
        settings = PsoSettings(seed=SWEEP_SEED)
        batches = _record_batches(monkeypatch)
        p_es = [p_e for b, p_e in SWEEP_CELLS if b == bits]
        cells = _table_swarms(bits, p_es, settings)
        assert len(batches) == 1
        problems, _, _, results = batches[0]
        assert [p.p_e for p in problems] == [p_e for p_e in p_es for _ in range(design._PSO_RESTARTS)]
        _assert_lone_swarms_agree(batches[0])
        # The first restart with the best objective wins each cell.
        for n, cell in enumerate(cells):
            restarts = results[n * design._PSO_RESTARTS : (n + 1) * design._PSO_RESTARTS]
            best = next(r for r in restarts if r.objective == max(x.objective for x in restarts))
            assert cell == _settled(best.thresholds, problems[n * design._PSO_RESTARTS])

    def test_swarms_leave_the_batch_at_their_own_sweeps(self, monkeypatch):
        # The 3-bit eps = 0.1 restarts run for about a thousand sweeps or
        # more, beside error-free swarms that stop within a few hundred;
        # each leaves the batch after as many sweeps as it runs alone.
        settings = PsoSettings(seed=SWEEP_SEED)
        batches = _record_batches(monkeypatch)
        _table_swarms(3, (0.0, 0.1), settings)
        sweeps = [len(r.trace) - 1 for r in batches[0][3]]
        assert len(set(sweeps)) > 1
        assert max(sweeps[:3]) < 1000
        lone = _assert_lone_swarms_agree(batches[0])
        assert sweeps == [len(r.trace) - 1 for r in lone]


class TestTablePath:
    def test_cold_table_designs_each_depth_once(self, monkeypatch):
        counts = {"bgda": 0, "batches": 0, "faces": 0}
        bgda, engine, faces = design.design_bgda, design._run_swarms, design._design_faces

        def count(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        design._error_free_optimum.cache_clear()
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        monkeypatch.setattr(design, "design_bgda", count("bgda", bgda))
        monkeypatch.setattr(design, "_run_swarms", count("batches", engine))
        monkeypatch.setattr(design, "_design_faces", count("faces", faces))
        build_fi_table((0.0, 0.01, 0.1, 0.2), 3, 1.0)
        # No swarm and no gradient ascent: the 1-bit cells are closed
        # form, and one face batch designs each of 2 and 3 bits.
        assert counts == {"bgda": 0, "batches": 0, "faces": 2}

    def test_cold_cells_are_scored_once(self, monkeypatch):
        # A designer hands back its point; ``optimized_cells`` moves its
        # ties apart and scores each new cell once, tied or not.
        tied = (-1.2, -0.6, -0.25, -0.25, 0.25, 0.6, 1.2)
        calls = []

        def faces(problems):
            return [DesignResult(tied, 0.4, (0.4,))] * len(problems)

        def objective(thresholds, problem):
            calls.append(problem.p_e)
            return design_objective(thresholds, problem)

        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        monkeypatch.setattr(design, "_design_faces", faces)
        monkeypatch.setattr(design, "design_objective", objective)
        cells = optimized_cells(3, (0.1, 0.2), 1.0, PsoSettings(seed=SWEEP_SEED))
        assert calls == [0.1, 0.2]
        for cell, p_e in zip(cells, (0.1, 0.2)):
            assert cell.thresholds == _separate_ties(tied)
            assert cell.objective == design_objective(cell.thresholds, DesignProblem(bits=3, p_e=p_e))
        optimized_cells(3, (0.1, 0.2), 1.0, PsoSettings(seed=SWEEP_SEED))
        assert calls == [0.1, 0.2]

    def test_sweep_leaves_every_cell_in_the_cache(self, monkeypatch):
        # perfbench re-reads each table cell after a sweep and counts a
        # cache miss as a failed check.
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        scenario = SweepScenario(cases=(SweepCase("even", (0.25,) * 4),), m_values=(20,))
        run_sweep(scenario)
        cached = len(design._DESIGN_CACHE)
        assert cached == len(SWEEP_CELLS)
        settings = PsoSettings(seed=SWEEP_SEED)
        for bits, p_e in SWEEP_CELLS:
            optimized_thresholds(bits, p_e, scenario.sigma_n2, settings)
        assert len(design._DESIGN_CACHE) == cached

    def test_a_swarm_cell_keeps_its_objective_alone_as_trace(self, monkeypatch):
        # The swarm's trace, scaled to the noise level before the cell is
        # settled and scored again, ends one ulp off the objective here
        # (0.4952494959959041 against 0.49524949599590407); a cached cell's
        # trace holds its objective alone.
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        cell = optimized_thresholds(4, 0.0, 2.0, PsoSettings())
        assert cell.objective == design_objective(cell.thresholds, DesignProblem(bits=4, p_e=0.0, sigma_n2=2.0))
        assert cell.trace == (cell.objective,)

    def test_error_free_optimum_is_read_only(self):
        tau = design._error_free_optimum(2)
        assert design._error_free_optimum(2) is tau
        with pytest.raises(ValueError):
            tau[0] = 0.0


class TestOracleFreeCells:
    """Checks of the table cells that need no quadrature oracle, so they hold at every depth."""

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_no_cell_design_beats_a_cell_in_its_own_channel(self, bits):
        p_es = (0.0, 0.01, 0.05, 0.1, 0.2, 0.3)
        cells = optimized_cells(bits, p_es, 1.0, PsoSettings())
        for p_e, own in zip(p_es, cells):
            problem = DesignProblem(bits=bits, p_e=p_e)
            for other in cells:
                assert design_objective(other.thresholds, problem) <= own.objective * (1 + 1e-12), (p_e, other)

    @pytest.mark.parametrize("p_e", [0.0, 0.01, 0.1, 0.2, 0.3, 0.45])
    def test_one_bit_cell_reaches_the_sign_detector_information(self, p_e):
        # tau = 0 is optimal for every p_e < 1/2, with information
        # (1 - 2 p_e)^2 * 2 / pi.
        (cell,) = optimized_cells(1, (p_e,), 1.0, PsoSettings())
        assert cell.objective == pytest.approx((1 - 2 * p_e) ** 2 * 2 / math.pi, rel=1e-12, abs=0)


#: The 1-bit table channels of the closed-form tests, and two design seeds.
ONE_BIT_P_ES = (0.0, 0.01, 0.1, 0.2, 0.3, 0.45)
DESIGN_SEEDS = (SWEEP_SEED, 1)


def _no_swarm(*_args, **_kwargs):
    raise AssertionError("the swarm ran")


class TestClosedFormOneBitCells:
    """Every 1-bit cell is ``2**-30 * sigma_n``, whatever its channel and design seed."""

    @pytest.mark.parametrize("seed", DESIGN_SEEDS)
    @pytest.mark.parametrize("sigma_n2", [1.0, 0.25, 2.0])
    def test_every_cell_is_the_closed_form_scored_in_its_own_channel(self, monkeypatch, sigma_n2, seed):
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        monkeypatch.setattr(design, "_run_swarms", _no_swarm)
        settings = PsoSettings(seed=seed)
        cells = optimized_cells(1, ONE_BIT_P_ES, sigma_n2, settings)
        for p_e, cell in zip(ONE_BIT_P_ES, cells):
            assert cell.thresholds == (2**-30 * math.sqrt(sigma_n2),)
            own = design_objective(cell.thresholds, DesignProblem(bits=1, p_e=p_e, sigma_n2=sigma_n2))
            assert cell.objective == own
            assert cell.trace == (own,)

    @pytest.mark.parametrize("seed", DESIGN_SEEDS)
    @pytest.mark.parametrize("p_es", [(0.01, 0.1, 0.2, 0.3, 0.45), (0.2,), ONE_BIT_P_ES])
    def test_a_cold_call_caches_the_cells_it_asks_for(self, monkeypatch, p_es, seed):
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        settings = PsoSettings(seed=seed)
        optimized_cells(1, p_es, 1.0, settings)
        assert set(design._DESIGN_CACHE) == {(1, p_e, 1.0, settings) for p_e in p_es}

    @pytest.mark.parametrize(
        "args",
        [
            ("roc", "--preset", "ideal"),
            ("roc", "--preset", "errorprone"),
            ("fi-landscape", "--preset", "ideal"),
            ("fi-landscape", "--preset", "errorprone"),
            ("allocate", "--preset", "mixed"),
            ("sweep", "--preset", "two-mixes"),
        ],
    )
    def test_no_preset_runs_the_swarm(self, monkeypatch, tmp_path, args):
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        monkeypatch.setattr(design, "_run_swarms", _no_swarm)
        assert main([*args, "--out", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("seed", DESIGN_SEEDS)
    @pytest.mark.parametrize("p_e", [0.0, 0.2])
    def test_cancelling_scores_land_above_zero_in_every_order(self, p_e, seed):
        # With 40 of the 80 sensors of a ROC preset on each level, the two
        # scores nearly cancel; at a threshold of exactly 0 the sign of
        # their float sum would depend on the sensors' order.  The offset
        # puts it above a decision threshold of 0 in every order.
        thresholds = optimized_thresholds(1, p_e, 1.0, PsoSettings(seed=seed)).thresholds
        kernel = NetworkKernels(QuantizerSpec(1, thresholds), p_e, 80, 0, 1.0)
        levels = np.repeat((1, 2), 40)
        rng = np.random.default_rng(seed)
        orders = np.array([rng.permutation(levels) for _ in range(2000)])
        assert np.all(kernel.statistic(kernel.score_sums(orders)) > 0.0)


#: Best objective of the swarm design of each sweep-table cell over the
#: preset seed and seeds 1-7, when the swarm designed every cell.  The face
#: design must reach each to 1e-12.
SWARM_BEST = {
    (1, 0.0): 0.6366197723675815,
    (1, 0.01): 0.6114096293818253,
    (1, 0.1): 0.4074366543152522,
    (1, 0.2): 0.22918311805232938,
    (2, 0.0): 0.8825181521706711,
    (2, 0.01): 0.8368866096325429,
    (2, 0.1): 0.5660788982582659,
    (2, 0.2): 0.35416041653096575,
    (3, 0.0): 0.965452239211492,
    (3, 0.01): 0.9118589703536655,
    (3, 0.1): 0.6585991055882106,
    (3, 0.2): 0.44624021795530844,
}


def _symmetric_face_information_mpmath(t, p_e):
    """``oracles.symmetric_face_profile`` in mpmath, at the working precision."""
    p = mpmath.mpf(p_e)
    edges = [-mpmath.inf, -t, 0, 0, t, t, t, t, mpmath.inf]
    probs = [mpmath.ncdf(b) - mpmath.ncdf(a) for a, b in zip(edges, edges[1:])]
    dens = [mpmath.npdf(e) for e in edges]
    total = 0
    for i in range(8):
        flips = [bin(i ^ j).count("1") for j in range(8)]
        gain = [p**d * (1 - p) ** (3 - d) for d in flips]
        received = mpmath.fsum(g * q for g, q in zip(gain, probs))
        numerator = mpmath.fsum(g * (dens[j] - dens[j + 1]) for j, g in enumerate(gain))
        total += numerator**2 / received
    return total


def _face_point(result, problem):
    """A face design's unit-noise thresholds, with its kernel and box bound."""
    kernel = bsc_kernel(problem.bits, problem.p_e)
    return np.array(result.thresholds) / problem.sigma_n, kernel, problem.tau_max


class TestFaceDesign:
    def test_faces_keep_one_of_each_mirror_pair(self):
        for bits, count, vertices in ((2, 7, 2), (3, 131, 4)):
            used, slots = design._faces(bits)[:2]
            levels = 2**bits
            faces = {tuple(np.flatnonzero(row) + 1) for row in used}
            assert len(used) == len(faces) == count + vertices
            assert sum(len(face) == 1 for face in faces) == vertices
            for size in range(1, levels + 1):
                for face in itertools.combinations(range(1, levels + 1), size):
                    mirror = tuple(sorted(levels + 1 - level for level in face))
                    assert (face in faces) == (face >= mirror)
                    assert (face in faces) or (mirror in faces)
            # Spread free edges: the cells of exactly the used levels are open.
            edges = np.linspace(-1.0, 1.0, levels + 1)[1:-1]
            for row, slot in zip(used, slots):
                tau = np.concatenate(([-5.0], edges, [5.0]))[slot]
                widths = np.diff(tau, prepend=-5.0, append=5.0)
                np.testing.assert_array_equal(widths > 0.0, row)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_faces_match_the_per_face_search(self, bits):
        used, slots = design._faces(bits)[:2]
        want_used, want_slots = faces_loop(bits)
        for got, want in ((used, want_used), (slots, want_slots)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bits, count", [(1, 2), (2, 8), (3, 82)])
    def test_classes_match_the_per_face_search(self, bits, count):
        table = design._faces(bits)
        first = face_classes_loop(bits)
        np.testing.assert_array_equal(table.classes, [f for f, rep in enumerate(first) if rep == f])
        assert len(table.classes) == count
        np.testing.assert_array_equal(table.error_free, [len(table.used) - 1])
        assert table.used[table.error_free[0]].all()
        assert table.lookup == {tuple(int(v) for v in np.flatnonzero(row) + 1): f for f, row in enumerate(table.used)}

    @pytest.mark.parametrize("bits", [2, 3])
    def test_faces_of_a_class_carry_the_same_information(self, bits):
        # Each face and its class's first, at the same free edges in a box
        # of one deviation, where the tails beyond it carry mass.  The edges
        # are symmetric about 0, so that a mirror keeps them.
        table = design._faces(bits)
        n = 2**bits - 1
        edges = np.zeros((len(table.used), n))
        for f, m in enumerate(table.used.sum(axis=1) - 1):
            edges[f, :m] = np.linspace(-0.8, 0.8, m + 2)[1:-1]
        ends = np.pad(table.slots, ((0, 0), (1, 1)), constant_values=(0, n + 1))
        thresholds = design._place(edges, ends, 1.0)[:, 1:-1]
        for p_e in (0.05, 0.3):
            info = [quantized_fi_oracle(t, p_e, 1.0) for t in thresholds]
            for f, rep in enumerate(face_classes_loop(bits)):
                assert info[f] == pytest.approx(info[rep], rel=1e-12)
        if bits == 2:
            # A codeword XOR is no such automorphism: XOR with 1 maps face
            # {2, 3} onto {1, 4}, in order, but moves the tail codewords.
            two_three, one_four = (thresholds[table.lookup[face]] for face in ((2, 3), (1, 4)))
            assert quantized_fi_oracle(two_three, 0.1, 1.0) != pytest.approx(quantized_fi_oracle(one_four, 0.1, 1.0), rel=1e-3)

    @pytest.mark.parametrize("p_e, value", [(0.1, 0.658599217841), (0.2, 0.446241320195)])
    def test_noisy_three_bit_cells_reach_the_symmetric_face_optimum(self, p_e, value):
        t_star = symmetric_face_argmax(0.1, 1.5, p_e)
        with mpmath.workdps(50):
            profile = lambda t: _symmetric_face_information_mpmath(t, p_e)
            t_exact = mpmath.findroot(lambda t: mpmath.diff(profile, t), mpmath.mpf(t_star))
            best = float(profile(t_exact))
        assert t_star == pytest.approx(float(t_exact), abs=1e-9)
        assert symmetric_face_profile(t_star, p_e) == pytest.approx(best, abs=1e-13)
        assert best == pytest.approx(value, abs=5e-13)
        result = optimized_thresholds(3, p_e, 1.0, PsoSettings(seed=SWEEP_SEED))
        assert result.objective == pytest.approx(best, abs=1e-12)
        edges = np.unique(np.round(result.thresholds, 9))
        np.testing.assert_allclose(edges, (-t_star, 0.0, t_star), atol=1e-6)

    @pytest.mark.parametrize("p_e", (0.1, 0.2))
    def test_kept_face_survives_one_ulp_on_every_row(self, monkeypatch, p_e):
        # Faces {1, 3, 7, 8}, {1, 5, 6, 8} and {1, 5, 7, 8} form one class
        # and climb to within a few ulps of each other here.  The design
        # climbs the first alone, and keeps it however rounding moves each
        # row it climbs.
        problem = DesignProblem(bits=3, p_e=p_e)
        table = design._faces(3)
        tied = [table.lookup[face] for face in ((1, 3, 7, 8), (1, 5, 6, 8), (1, 5, 7, 8))]
        assert tied == sorted(tied)
        assert tied[0] in table.classes and not set(tied[1:]) & set(table.classes.tolist())
        x = np.zeros((3, 7))
        x[:, :3] = np.linspace(-2.0, 2.0, 5)[1:-1]
        kernels = np.stack([bsc_kernel(3, p_e)] * 3)
        f = design._climb(table.used[tied], table.slots[tied], kernels, x, problem.tau_max)[1]
        assert f.max() - f.min() <= design._FACE_TIE * f.max()

        climb, nudges = design._climb, []

        def nudged(*args):
            z, f = climb(*args)
            return z, np.nextafter(f, np.inf * nudges[-1][: len(f)])

        monkeypatch.setattr(design, "_climb", nudged)
        rng = np.random.default_rng(7)
        n_rows = len(table.classes)
        for nudge in [np.ones(n_rows), -np.ones(n_rows)] + [rng.choice((-1.0, 1.0), n_rows) for _ in range(4)]:
            nudges.append(nudge)
            z, _, bound = _face_point(design._design_faces([problem])[0], problem)
            widths = np.diff(z, prepend=-bound, append=bound)
            assert tuple(np.flatnonzero(widths > design._FACE_WIDTH) + 1) == (1, 3, 7, 8)

    @pytest.mark.parametrize("bits, p_e", SWEEP_CELLS)
    def test_table_cells_reach_every_swarm_seed(self, monkeypatch, bits, p_e):
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        result = optimized_thresholds(bits, p_e, 1.0, PsoSettings(seed=SWEEP_SEED))
        assert result.objective >= SWARM_BEST[bits, p_e] - 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(2, 3),
        p_e=st.just(0.0) | st.floats(1e-3, 0.5),
        sigma_n2=st.sampled_from((0.125, 1.0, 2.0)),
        tau_max=st.sampled_from((0.05, 1.0, 5.0)),
    )
    def test_winners_pass_the_kkt_certificate(self, bits, p_e, sigma_n2, tau_max):
        problem = DesignProblem(bits=bits, p_e=p_e, sigma_n2=sigma_n2, tau_max=tau_max)
        result = design._design_faces([problem])[0]
        z, kernel, bound = _face_point(result, problem)
        unit = result.objective * sigma_n2
        assert design._kkt_opening(z, bound, kernel)[0] <= design._KKT_TOL * max(unit, design._FACE_FLOOR)
        assert result.objective == pytest.approx(_objective_rows(z * problem.sigma_n, problem)[0], rel=1e-12)

    def test_kkt_rates_are_one_sided_differences(self):
        # At the eps = 0.1 winner every level that stays empty must cost
        # information when it opens: open each by h and compare.
        problem = DesignProblem(bits=3, p_e=0.1)
        z, kernel, bound = _face_point(design._design_faces([problem])[0], problem)
        grad = design._information_terms(z, kernel)[1]
        base = _objective_rows(z, problem)[0]
        h = 1e-7
        opened = 0
        for i in range(1, z.size):
            if z[i] == z[i - 1]:
                raised = z.copy()
                raised[i:][raised[i:] == z[i]] += h
                rate = grad[i:][z[i:] == z[i]].sum()
                assert (_objective_rows(raised, problem)[0] - base) / h == pytest.approx(rate, abs=1e-6)
                assert rate < 0.0
                opened += 1
        assert opened == 4

    def test_kkt_certificate_rejects_a_face_that_should_open(self):
        # The best error-free point on the face of levels {1, 2, 4, 8} gains
        # by opening its empty levels; the certificate must say so.
        problem = DesignProblem(bits=3, p_e=0.0)
        kernel = bsc_kernel(3, 0.0)
        t = symmetric_face_argmax(0.1, 1.5, 0.0)
        z = np.array([-t, 0.0, 0.0, t, t, t, t])
        rate, push, room = design._kkt_opening(z, problem.tau_max, kernel)
        assert rate > 1e-3
        opened = z + push * 0.5 * room
        assert np.sum(np.diff(opened) > 0.0) == np.sum(np.diff(z) > 0.0) + 1
        assert _objective_rows(opened, problem)[0] > _objective_rows(z, problem)[0]

    def test_a_face_peak_that_fails_the_check_is_opened(self):
        # At p_e = 0.49 the best face start ends on {1, 5, 8}, where raising
        # the last threshold opens level 7 and gains; the design must go on
        # to a point that passes.
        problem = DesignProblem(bits=3, p_e=0.49)
        result = design._design_faces([problem])[0]
        z, kernel, bound = _face_point(result, problem)
        assert design._kkt_opening(z, bound, kernel)[0] <= design._KKT_TOL * result.objective

    @pytest.mark.parametrize("p_e", (0.1, 0.2))
    def test_a_row_that_closes_a_cell_moves_to_the_smaller_face(self, monkeypatch, p_e):
        # Keep only the row of the full face in the first batch.  It stops
        # as two cells close, which is not a stationary point of its face;
        # the design must go on from the smaller face to a certified point.
        climb = design._climb
        batches = []

        def full_face_only(used, slots, kernels, x, bound):
            z, f = climb(used, slots, kernels, x, bound)
            if not batches:
                f = np.where(used.all(axis=1), f, -np.inf)
            batches.append(len(x))
            return z, f

        monkeypatch.setattr(design, "_climb", full_face_only)
        problem = DesignProblem(bits=3, p_e=p_e)
        result = design._design_faces([problem])[0]
        assert len(batches) > 1
        z, kernel, bound = _face_point(result, problem)
        assert design._kkt_opening(z, bound, kernel)[0] <= design._KKT_TOL * result.objective
        if p_e == 0.2:
            assert result.objective == pytest.approx(0.446241320195, abs=1e-12)

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(design, "_KKT_TOL", -1.0)
        with pytest.raises(RuntimeError, match="optimality check"):
            design._design_faces([DesignProblem(bits=2, p_e=0.1)])

    def test_cached_objective_is_design_objective(self, monkeypatch):
        # Each cached objective must be ``design_objective`` at the cached
        # thresholds bit for bit: the 12 sweep-table cells, the two
        # threshold sets of the errorprone ROC preset (both among those
        # cells), the six cells of a table away from unit noise, where the
        # face design's own value is scaled, and a 4-bit cell from the
        # swarm branch.
        cells = {}
        for build in (
            lambda: build_fi_table((0.0, 0.01, 0.1, 0.2), 3, 1.0),
            lambda: run_roc(replace(RocScenario(p_e=0.2), trials=50)),
            lambda: build_fi_table((0.01, 0.1), 3, 2.0),
            lambda: optimized_thresholds(4, 0.1, 1.0, PsoSettings(seed=SWEEP_SEED)),
        ):
            monkeypatch.setattr(design, "_DESIGN_CACHE", {})
            build()
            cells.update(design._DESIGN_CACHE)
        assert len(cells) == 12 + 6 + 1
        for (bits, p_e, sigma_n2, _), result in cells.items():
            problem = DesignProblem(bits=bits, p_e=p_e, sigma_n2=sigma_n2)
            assert result.objective == design_objective(result.thresholds, problem)


def _every_face(faces):
    """``design._faces`` with every face its own class, climbed over every channel."""

    def table(bits):
        every = np.arange(len(faces(bits).used))
        return faces(bits)._replace(classes=every, error_free=every)

    return table


def _counting_rows(monkeypatch) -> dict:
    """Count the rows every ``_climb`` call climbs, by thresholds per row."""
    climb, rows = design._climb, {}

    def counted(used, *args):
        rows[used.shape[1] - 1] = rows.get(used.shape[1] - 1, 0) + len(used)
        return climb(used, *args)

    monkeypatch.setattr(design, "_climb", counted)
    return rows


class TestFaceRows:
    """The face design climbs one row per class, one over an error-free
    channel, and gives the design of every face bit for bit."""

    @pytest.mark.parametrize("bits", [2, 3])
    def test_class_rows_give_the_every_face_design(self, monkeypatch, bits):
        # 50 channels from 0, in boxes where the error-free optimum lies
        # inside (5 deviations) and presses on the bound (1 and 0.05).
        grid = [
            [DesignProblem(bits=bits, p_e=float(p_e), sigma_n2=sigma_n2, tau_max=tau_max) for p_e in np.arange(50) / 100]
            for sigma_n2 in (1.0, 2.0)
            for tau_max in (5.0, 1.0, 0.05)
        ]
        designs = [design._design_faces(problems) for problems in grid]
        monkeypatch.setattr(design, "_faces", _every_face(design._faces))
        assert designs == [design._design_faces(problems) for problems in grid]

    def test_a_cold_table_climbs_one_row_per_class(self, monkeypatch):
        # 4 channels at 2 bits (8 classes) and at 3 (82); the error-free
        # channel climbs one row at each.  Every face: 36 and 540.
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        rows = _counting_rows(monkeypatch)
        build_fi_table((0.0, 0.01, 0.1, 0.2), 3, 1.0)
        assert rows == {3: 25, 7: 247}

    def test_the_errorprone_roc_preset_climbs_one_row_per_class(self, monkeypatch, tmp_path):
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        rows = _counting_rows(monkeypatch)
        assert main(["roc", "--preset", "errorprone", "--trials", "50", "--out", str(tmp_path / "roc.csv")]) == 0
        assert rows == {7: 82}

    @pytest.mark.parametrize("bits, tau_max, count", [(2, 5.0, 1), (3, 5.0, 1), (3, 1.0, 82), (3, 0.05, 82)])
    def test_an_error_free_channel_climbs_the_full_face_first(self, monkeypatch, bits, tau_max, count):
        # In a narrow box the full face's row ends on the bound, and the
        # other classes are climbed too.
        rows = _counting_rows(monkeypatch)
        result = design._design_faces([DesignProblem(bits=bits, p_e=0.0, tau_max=tau_max)])[0]
        assert sum(rows.values()) == count
        if count == 1:
            assert len(set(result.thresholds)) == 2**bits - 1


class TestScaleInvariance:
    """Thresholds scale with sigma_n, scores with 1 / sigma_n, information with 1 / sigma_n2."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(1, 3),
        p_e=st.just(0.0) | st.floats(1e-3, 0.45),
        sigma_n2=st.floats(1e-6, 1e6),
        data=st.data(),
    )
    def test_kernels_are_the_unit_kernels_scaled(self, bits, p_e, sigma_n2, data):
        n = 2**bits - 1
        z = np.sort(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n, unique=True)))
        assume(np.all(np.diff(z) > 1e-2))
        problem = DesignProblem(bits=bits, p_e=p_e, sigma_n2=sigma_n2)
        unit = replace(problem, sigma_n2=1.0)
        sigma = problem.sigma_n
        tau = z * sigma
        # The unit point is the scaled one brought back, so both sides
        # evaluate the same thresholds: ``z * sigma / sigma`` may differ
        # from ``z`` by one ulp, which a cancelling gradient term magnifies.
        z = tau / sigma
        assert design_objective(tau, problem) == pytest.approx(design_objective(z, unit) / sigma_n2, rel=1e-14)
        np.testing.assert_allclose(
            objective_gradient(tau, problem), objective_gradient(z, unit) / sigma_n2 / sigma, rtol=1e-14
        )
        got = NetworkKernels(QuantizerSpec(bits, tuple(tau)), p_e, 1, 0, sigma_n2)
        want = NetworkKernels(QuantizerSpec(bits, tuple(z)), p_e, 1, 0, 1.0)
        np.testing.assert_allclose(got.received_probs, want.received_probs, rtol=1e-14)
        np.testing.assert_allclose(got.level_scores[1:], want.level_scores[1:] / sigma, rtol=1e-14)
        assert got.fisher_info == pytest.approx(want.fisher_info / sigma_n2, rel=1e-14)
        np.testing.assert_allclose(
            reconstruction_table(QuantizerSpec(bits, tuple(tau)), sigma),
            reconstruction_table(QuantizerSpec(bits, tuple(z)), 1.0) * sigma,
            rtol=1e-14,
        )

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(2, 3),
        p_e=st.just(0.0) | st.floats(1e-3, 0.45),
        sigma_n2=st.floats(1e-6, 1e6),
    )
    def test_face_design_is_the_unit_design_scaled(self, bits, p_e, sigma_n2):
        problem = DesignProblem(bits=bits, p_e=p_e, sigma_n2=sigma_n2)
        unit = replace(problem, sigma_n2=1.0)
        got, want = design._design_faces([problem])[0], design._design_faces([unit])[0]
        np.testing.assert_allclose(got.thresholds, np.multiply(want.thresholds, problem.sigma_n), rtol=1e-14)
        assert got.objective == pytest.approx(want.objective / sigma_n2, rel=1e-14)

    @pytest.mark.parametrize("sigma_n2", [1e-300, 1e-6, 1e6, 1e300])
    def test_designs_at_extreme_noise_are_the_unit_designs_scaled(self, monkeypatch, sigma_n2):
        # The box is tau_max noise deviations wide at every noise level, so
        # the closed form of 1 bit, the face design of 2 and 3 bits and a
        # lone unseeded swarm all make the unit design, scaled.  Thresholds are
        # compared in deviations, where a tie moved apart at 0 is one ulp
        # of 0 at every scale.
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        sigma_n, settings = math.sqrt(sigma_n2), PsoSettings(seed=SWEEP_SEED)
        pairs = [
            (got, want)
            for bits in (1, 2, 3)
            for got, want in zip(
                optimized_cells(bits, (0.0, 0.2), sigma_n2, settings), optimized_cells(bits, (0.0, 0.2), 1.0, settings)
            )
        ]
        problem = DesignProblem(bits=2, p_e=0.2, sigma_n2=sigma_n2)
        pairs.append((design_pso(problem, settings), design_pso(replace(problem, sigma_n2=1.0), settings)))
        for got, want in pairs:
            np.testing.assert_allclose(np.divide(got.thresholds, sigma_n), want.thresholds, rtol=1e-12, atol=1e-300)
            assert got.objective == pytest.approx(want.objective / sigma_n2, rel=1e-12)
            assert want.objective > 0.2


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
