"""End-to-end acceptance suite.

Each test prints one ``[acceptance]`` line with its verdict before
asserting, so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.

Two published coordinates are not stationary points of the objective, so
the checks that involve them take their expected values from the
quadrature oracles in ``tests/oracles.py`` and keep the coordinates only
as references at their stated resolution:

* ``test_c01b``: the error-free 2-bit optimum is (-t*, 0, t*) with
  t* = 0.98160; the published (-1, 0, 1) is that optimum rounded to the
  0.05 landscape grid.
* ``test_c02b``: on the p_e = 0.2 landscape the diagonal profile
  I(-t, 0, t) rises strictly from its dip near t ~ 1.4 towards its limit
  as t -> inf; the published (-4.237, 4.237) is a point on that ridge,
  whose grid maximum is the search-box corner.
"""

import math
import time

import numpy as np
import pytest

from hybriddet.allocation import (
    AllocationInfeasibleError,
    BudgetMode,
    ErrorHistogram,
    Sense,
    allocate,
    allocate_dp_oracle,
    build_fi_table,
    validate_allocation,
)
from hybriddet.cli import PRESETS, main
from hybriddet.design import (
    DesignProblem,
    PsoSettings,
    design_bgda,
    design_objective,
    design_pso,
    fi_landscape,
    objective_gradient,
    optimized_thresholds,
)
from hybriddet.detection import NetworkKernels
from hybriddet.experiments import (
    RocScenario,
    SweepCase,
    SweepScenario,
    run_roc,
    run_sweep,
)
from hybriddet.model import QuantizerSpec

from oracles import (
    central_difference,
    diagonal_argmax,
    diagonal_profile,
    find_local_maxima,
    quantized_fi_oracle,
)
from roc_reference import null_scores
from test_allocation import random_instance

SEED = 20260810
#: Resolution of the published landscape grids.
GRID_CELL = 0.05


def report(criterion: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {verdict} ({detail})")


def _hybrid_quantizer(p_e, sigma_n2):
    """The 3-bit table design at ``sigma_n2``.

    Designed at its own noise level: scaling a unit-noise design can merge
    thresholds that sit one ulp apart.
    """
    return QuantizerSpec(3, optimized_thresholds(3, p_e, sigma_n2, PsoSettings(seed=SEED)).thresholds)


class TestC01ErrorFreeDesign:
    TARGET = np.array([-1.0, 0.0, 1.0])

    def test_c01a_swarm_recovers_reference_peak(self):
        t0 = time.perf_counter()
        problem = DesignProblem(bits=2, p_e=0.0)
        pso = design_pso(problem, PsoSettings(seed=SEED))
        elapsed = time.perf_counter() - t0
        dev = float(np.max(np.abs(np.array(pso.thresholds) - self.TARGET)))
        ok = dev <= 0.05 and elapsed < 10.0
        report("criterion 1 (swarm design, q=2, error-free)",
               ok, f"max deviation {dev:.4f} <= 0.05, {elapsed:.1f}s < 10s")
        assert ok

    def test_c01b_gradient_ascent_recovers_reference_peak(self):
        """BGDA reaches the oracle's optimum, which rounds to the reference.

        The reference (-1, 0, 1) is the optimum at the 0.05 resolution of
        the landscape grid (see
        tests/test_design.py::TestLandscape::test_error_free_grid_argmax_cell),
        not a stationary point: the gradient there is (+0.00387, 0, -0.00387).
        The stationary point (-t*, 0, t*) comes from bisection on the
        quadrature oracle's symmetric slice, t* = 0.98159882 (0.981598821568
        at 50 digits), independent of the package's objective and gradient.
        """
        t0 = time.perf_counter()
        problem = DesignProblem(bits=2, p_e=0.0)
        bgda = design_bgda(problem, (-0.5, 0.1, 0.7))
        elapsed = time.perf_counter() - t0
        t_star = diagonal_argmax(0.5, 1.5, p_e=0.0)
        thresholds = np.array(bgda.thresholds)
        dev = float(np.max(np.abs(thresholds - np.array([-t_star, 0.0, t_star]))))
        gap = abs(bgda.objective - diagonal_profile(t_star, p_e=0.0))
        on_reference = np.array_equal(
            np.round(thresholds / GRID_CELL), np.round(self.TARGET / GRID_CELL)
        )
        ok = dev <= 1e-6 and gap <= 1e-9 and on_reference and elapsed < 10.0
        report("criterion 1 (gradient-ascent design, q=2, error-free)",
               ok, f"max deviation {dev:.1e} <= 1e-6 from oracle optimum "
                   f"+/-{t_star:.8f}, objective gap {gap:.1e} <= 1e-9, "
                   f"rounds to (-1, 0, 1) on the 0.05 grid: {on_reference}, "
                   f"{elapsed:.1f}s < 10s")
        assert ok


class TestC02ErrorProneLandscape:
    AXIS = np.linspace(-5.0, 5.0, 201)
    PRIMARY = (-0.2384, 0.2384)
    SECONDARY = (-4.237, 4.237)
    CELL = GRID_CELL

    def _maxima(self):
        problem = DesignProblem(bits=2, p_e=0.2)
        grid = fi_landscape(problem, self.AXIS, self.AXIS)
        return [(float(self.AXIS[i]), float(self.AXIS[j])) for i, j in find_local_maxima(grid)]

    @staticmethod
    def _near(point, target, tol):
        return abs(point[0] - target[0]) <= tol and abs(point[1] - target[1]) <= tol

    def test_c02a_two_maxima_with_primary_peak(self):
        t0 = time.perf_counter()
        maxima = self._maxima()
        elapsed = time.perf_counter() - t0
        primary_hit = any(self._near(p, self.PRIMARY, self.CELL) for p in maxima)
        ok = len(maxima) == 2 and primary_hit and elapsed < 60.0
        report("criterion 2 (landscape peak count and primary peak)",
               ok, f"{len(maxima)} maxima at {maxima}, primary within one cell: "
                   f"{primary_hit}, {elapsed:.1f}s < 60s")
        assert ok

    def test_c02b_secondary_peak_location(self):
        """The second maximum lies on the outer ridge through (-4.237, 4.237).

        With the natural mapping the two inner cells send 01 and 10, which
        differ in both bits, so the sign is repetition-coded and the outer
        cells only cost information.  The diagonal profile I(-t, 0, t)
        therefore rises strictly from its dip near t ~ 1.4 to its limit
        0.33703 as t -> inf (slope +3.4e-4 at 4.237, +1.2e-5 at 5), with no
        stationary point near the reference.  The second grid maximum is
        the box corner, which find_local_maxima admits as a boundary cell.
        The check: that maximum sits on the anti-diagonal no more than one
        cell inside the reference, the quadrature oracle rises strictly
        along the ridge up to ``tau_max``, and the maximum's oracle value
        lies between the reference's and the primary peak's.
        """
        tau_max = DesignProblem(bits=2, p_e=0.2).tau_max
        maxima = self._maxima()
        primary = [p for p in maxima if self._near(p, self.PRIMARY, self.CELL)]
        secondary = [p for p in maxima if p not in primary]
        t_ref = self.SECONDARY[1]
        ridge_t = np.append(np.arange(t_ref - self.CELL, tau_max, self.CELL), tau_max)
        ridge = [diagonal_profile(t, p_e=0.2) for t in ridge_t]
        rising = bool(np.all(np.diff(ridge) > 0.0))
        placed = ordered = False
        if len(maxima) == 2 and len(primary) == 1:
            tau1, tau3 = secondary[0]
            placed = math.isclose(tau3, -tau1, abs_tol=1e-9) and tau3 >= t_ref - self.CELL
            value = quantized_fi_oracle((tau1, 0.0, tau3), 0.2, 1.0)
            ordered = (
                diagonal_profile(t_ref, p_e=0.2)
                <= value
                < diagonal_profile(self.PRIMARY[1], p_e=0.2)
            )
        ok = placed and rising and ordered
        report("criterion 2 (secondary maximum on the ridge through (-4.237, 4.237))",
               ok, f"maxima {maxima}; secondary on anti-diagonal with "
                   f"|tau| >= {t_ref - self.CELL:.3f}: {placed}; oracle rises "
                   f"strictly over t in [{ridge_t[0]:.3f}, {tau_max}]: {rising}; "
                   f"I(reference) <= I(secondary) < I(primary): {ordered}")
        assert ok

    def test_c02c_swarm_reaches_best_peak_objective(self):
        t0 = time.perf_counter()
        problem = DesignProblem(bits=2, p_e=0.2)
        peaks = max(
            design_objective((-0.2384, 0.0, 0.2384), problem),
            design_objective((-4.237, 0.0, 4.237), problem),
        )
        result = optimized_thresholds(2, 0.2, 1.0, PsoSettings(seed=SEED))
        elapsed = time.perf_counter() - t0
        ok = result.objective >= peaks - 1e-4 and elapsed < 60.0
        report("criterion 2 (swarm objective vs reference peaks)",
               ok, f"swarm {result.objective:.6f} >= {peaks:.6f} - 1e-4, "
                   f"{elapsed:.1f}s < 60s")
        assert ok


class TestC03ClosedFormInformation:
    def test_c03_closed_forms(self):
        one_bit = QuantizerSpec(1, (0.0,))
        got = NetworkKernels(one_bit, 0.0, 1, 0, 1.0).fisher_info
        dev = abs(got - 2.0 / math.pi)
        exact = NetworkKernels(one_bit, 0.0, 0, 20, 1.0).fisher_info == 20.0
        exact2 = NetworkKernels(one_bit, 0.0, 0, 20, 2.0).fisher_info == 10.0
        ok = dev <= 1e-9 and exact and exact2
        report("criterion 3 (closed-form information values)",
               ok, f"|FI - 2/pi| = {dev:.2e} <= 1e-9; analog-only exact: {exact and exact2}")
        assert ok


class TestC04VarianceIdentity:
    @pytest.mark.parametrize("sigma_n2", [1.0, 2.0])
    @pytest.mark.parametrize("p_e", [0.0, 0.2])
    def test_c04_score_variance_matches_information(self, sigma_n2, p_e):
        spec = _hybrid_quantizer(p_e, sigma_n2)
        fi = NetworkKernels(spec, p_e, 80, 20, sigma_n2).fisher_info
        # The hybrid detector's own null draws: ``run_roc``'s H0 streams.
        scores = null_scores(spec, p_e, 80, 20, sigma_n2, 10**6, seed=SEED)
        ratio = scores.var() / fi
        ok = abs(ratio - 1.0) <= 0.02
        report(f"criterion 4 (score variance identity, p_e={p_e}, sigma_n2={sigma_n2})",
               ok, f"var/FI = {ratio:.5f} within 2%")
        assert ok


class TestC05RocAgreement:
    @staticmethod
    def _records(p_e):
        scenario = RocScenario(p_e=p_e, trials=5000, seed=SEED,
                               pfa_grid=(0.05, 0.1, 0.2, 0.5))
        table = run_roc(scenario)
        recs = {}
        for row in table.rows:
            rec = dict(zip(table.columns, row))
            recs.setdefault(rec["detector"], {})[rec["pfa_target"]] = rec
        return recs

    def test_c05_theory_mc_agreement_and_orderings(self):
        t0 = time.perf_counter()
        grid = (0.05, 0.1, 0.2, 0.5)
        clean = self._records(0.0)
        noisy = self._records(0.2)
        worst = 0.0
        for recs in (clean, noisy):
            for p in grid:
                rec = recs["3b-fp"][p]
                worst = max(worst, abs(rec["pd_mc"] - rec["pd_theory"]))
        order_clean = all(
            clean["3b-fp"][p]["pd_mc"] >= clean["3b"][p]["pd_mc"] - 0.01
            and clean["3b"][p]["pd_mc"] >= clean["fp"][p]["pd_mc"] - 0.01
            for p in grid
        )
        order_noisy = all(
            noisy["3b-fp"][p]["pd_mc"] >= noisy["r-3b-fp"][p]["pd_mc"] - 0.01
            and noisy["3b"][p]["pd_mc"] >= noisy["1b"][p]["pd_mc"] - 0.01
            for p in grid
        )
        elapsed = time.perf_counter() - t0
        ok = worst <= 0.02 and order_clean and order_noisy and elapsed < 300.0
        report("criterion 5 (theory/MC agreement and detector orderings)",
               ok, f"hybrid max|pd_mc - pd_theory| = {worst:.4f} <= 0.02; "
                   f"orderings clean={order_clean} noisy={order_noisy}; "
                   f"{elapsed:.1f}s < 300s")
        assert ok


class TestC06IlpCorrectness:
    CASES = {
        "favorable": (0.6, 0.2, 0.1, 0.1),
        "adverse": (0.1, 0.1, 0.2, 0.6),
    }

    def test_c06_solver_equivalence(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(SEED)
        agreements = 0
        for _ in range(100):
            hist, table, budget, l0, mode, sense = random_instance(rng)
            try:
                a = allocate(hist, table, budget, l0, mode, sense)
                validate_allocation(a, hist, budget, l0, mode)
                a_fi = a.total_fi
            except AllocationInfeasibleError:
                a_fi = None
            try:
                d = allocate_dp_oracle(hist, table, budget, l0, mode, sense)
                validate_allocation(d, hist, budget, l0, mode)
                d_fi = d.total_fi
            except AllocationInfeasibleError:
                d_fi = None
            assert (a_fi is None) == (d_fi is None)
            if a_fi is not None:
                assert abs(a_fi - d_fi) <= 1e-9
            agreements += 1

        fi_table = build_fi_table((0.0, 0.01, 0.1, 0.2), 3, 1.0)
        paper_points = 0
        for freqs in self.CASES.values():
            for m in range(20, 101, 10):
                hist = ErrorHistogram((0.0, 0.01, 0.1, 0.2), freqs, m)
                for sense in (Sense.MAXIMIZE_FI, Sense.MINIMIZE_FI):
                    a = allocate(hist, fi_table, 500, 32, BudgetMode.AT_MOST, sense)
                    d = allocate_dp_oracle(hist, fi_table, 500, 32, BudgetMode.AT_MOST, sense)
                    validate_allocation(a, hist, 500, 32, BudgetMode.AT_MOST)
                    validate_allocation(d, hist, 500, 32, BudgetMode.AT_MOST)
                    assert abs(a.total_fi - d.total_fi) <= 1e-9
                    paper_points += 1
        elapsed = time.perf_counter() - t0
        ok = agreements == 100 and paper_points == 36 and elapsed < 60.0
        report("criterion 6 (HiGHS milp vs dynamic program)",
               ok, f"{agreements} randomized + {paper_points} budget-500 points agree; "
                   f"{elapsed:.1f}s < 60s")
        assert ok


class TestC07SweepOrdering:
    def test_c07_max_vs_min_information_strategies(self):
        scenario = SweepScenario(
            cases=(
                SweepCase("favorable", (0.6, 0.2, 0.1, 0.1)),
                SweepCase("adverse", (0.1, 0.1, 0.2, 0.6)),
            ),
        )
        summary, _ = run_sweep(scenario)
        recs = {(r[0], r[1], r[2]): dict(zip(summary.columns, r)) for r in summary.rows}
        gaps = {}
        dominated = True
        strict = {}
        for case in ("favorable", "adverse"):
            case_gaps = []
            for m in scenario.m_values:
                hi = recs[(case, m, "max")]
                lo = recs[(case, m, "min")]
                assert hi["status"] == lo["status"] == "optimal"
                gap = hi["pd_theory"] - lo["pd_theory"]
                dominated &= gap >= 0.0
                case_gaps.append(gap)
            gaps[case] = float(np.mean(case_gaps))
            strict[case] = max(case_gaps) > 0.0
        ok = dominated and strict["favorable"] and strict["adverse"] and (
            gaps["adverse"] > gaps["favorable"]
        )
        report("criterion 7 (allocation strategy ordering across the sweep)",
               ok, f"max >= min everywhere: {dominated}; mean gap adverse "
                   f"{gaps['adverse']:.4f} > favorable {gaps['favorable']:.4f}")
        assert ok


class TestC08GradientCheck:
    def test_c08_closed_form_vs_central_differences(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        checked = 0
        while checked < 100:
            bits = 2 if checked % 2 == 0 else 3
            tau = np.sort(rng.normal(0.0, 1.2, 2**bits - 1))
            if np.min(np.diff(tau)) < 1e-2:
                continue
            problem = DesignProblem(bits=bits, p_e=0.0)
            analytic = objective_gradient(tau, problem)
            numeric = central_difference(lambda t: design_objective(t, problem), tau, h=1e-6)
            scale = max(float(np.max(np.abs(numeric))), 1e-8)
            worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
            checked += 1
        ok = worst <= 1e-5
        report("criterion 8 (gradient vs central differences)",
               ok, f"worst relative error {worst:.2e} <= 1e-5 over {checked} vectors")
        assert ok


class TestC09CliDeterminism:
    def test_c09_presets_are_byte_identical(self, tmp_path):
        t0 = time.perf_counter()
        checked = []
        for (command, preset) in sorted(PRESETS):
            outputs = []
            for run in (0, 1):
                out = tmp_path / f"{command}-{preset}-{run}.csv"
                seed = ["--seed", str(SEED)] if command in ("roc", "design-quantizer") else []
                code = main([command, "--preset", preset, "--out", str(out), *seed])
                assert code == 0
                blobs = [out.read_bytes()]
                companion = out.with_name(out.stem + "_distribution" + out.suffix)
                if companion.exists():
                    blobs.append(companion.read_bytes())
                outputs.append(blobs)
            assert outputs[0] == outputs[1], f"{command} --preset {preset} not reproducible"
            checked.append(f"{command}:{preset}")
        elapsed = time.perf_counter() - t0
        ok = len(checked) == len(PRESETS)
        report("criterion 9 (preset determinism)",
               ok, f"{len(checked)} presets byte-identical across runs, {elapsed:.1f}s")
        assert ok
