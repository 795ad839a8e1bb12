"""Experiment-runner tests: tables, ROC engine, sweep, determinism."""

import collections
import json
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybriddet import allocation, experiments
from hybriddet.allocation import BudgetMode, Sense
from hybriddet.cli import PRESETS, main
from hybriddet.experiments import (
    ROC_BLOCK,
    ROC_COLUMNS,
    AllocateScenario,
    DesignScenario,
    LandscapeScenario,
    RocScenario,
    SweepCase,
    SweepScenario,
    Table,
    emit,
    run_allocate,
    run_design,
    run_landscape,
    run_roc,
    run_sweep,
)
from hybriddet.design import DesignProblem, fi_landscape
from hybriddet.detection import NetworkKernels
from hybriddet.model import QuantizerSpec, gaussian_upper_tail

from oracles import emit_per_cell, load_table
from roc_reference import null_scores, per_trial_roc


def by_detector(table):
    out = collections.defaultdict(dict)
    for row in table.rows:
        out[row[0]][row[1]] = dict(zip(table.columns, row))
    return out


class TestEmit:
    SAMPLE = Table(
        ("name", "count", "value", "note"),
        [("a", 3, 1.5, None), ("b", -1, 0.1234567890123456789, "x,y")],
    )

    def test_csv_roundtrip_bytes(self, tmp_path):
        p = tmp_path / "t.csv"
        emit(self.SAMPLE, "csv", p)
        first = p.read_bytes()
        loaded = load_table(p, "csv")
        emit(loaded, "csv", p)
        assert p.read_bytes() == first
        assert loaded.rows == self.SAMPLE.rows

    def test_json_roundtrip(self, tmp_path):
        p = tmp_path / "t.json"
        emit(self.SAMPLE, "json", p)
        loaded = load_table(p, "json")
        assert loaded.columns == self.SAMPLE.columns
        assert loaded.rows == self.SAMPLE.rows

    def test_empty_table_header_only(self, tmp_path):
        p = tmp_path / "e.csv"
        emit(Table(("a", "b"), []), "csv", p)
        assert p.read_text() == "a,b\n"

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self.SAMPLE, "yaml", tmp_path / "t")

    #: Cells whose text the csv and json modules must write as the per-cell
    #: formatter does: an int past int64, floats that need 17 digits or are
    #: subnormal, and strings that need quoting or escaping.
    MIXED = [None, 0, -1, 2**63, 0.1, 0.1234567890123456789, 5e-324, -0.0, "", "x,y", 'say "hi"', "a\nb"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_the_per_cell_writer(self, tmp_path, fmt):
        cells = self.MIXED + ([math.inf, -math.inf, math.nan] if fmt == "csv" else [])
        # Every cell in every column, and a row of a lone empty cell.
        rows = [tuple(cells[(i + k) % len(cells)] for k in range(3)) for i in range(len(cells))]
        for table in (Table(("a", "b", "c"), rows), Table(("a",), [(None,), ("",), (1.5,)])):
            emit(table, fmt, tmp_path / "got")
            emit_per_cell(table, fmt, tmp_path / "want")
            assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_json_refuses_non_finite_floats(self, tmp_path, value):
        with pytest.raises(ValueError):
            emit(Table(("a",), [(value,)]), "json", tmp_path / "t.json")

    @pytest.mark.parametrize(
        "value, name",
        [(True, "bool"), (np.float64(0.5), "float64"), (np.int64(1), "int64"), (Sense.MAXIMIZE_FI, "Sense")],
    )
    def test_cells_of_other_types_are_refused(self, value, name):
        with pytest.raises(TypeError, match=name):
            Table(("a", "b"), [(1, 2.0), (None, value)])

    def test_roc_columns_contract(self):
        assert ROC_COLUMNS == (
            "detector", "pfa_target", "eta", "pd_theory", "pfa_mc", "pd_mc", "stderr_mc"
        )


class TestRoc:
    def test_null_signal_pd_equals_pfa(self):
        scenario = RocScenario(
            theta=0.0, m_quantized=10, m_full=5, trials=2000,
            pfa_grid=(0.1, 0.3), seed=5,
            thresholds_hybrid=(-1.0, -0.6, -0.3, 0.0, 0.3, 0.6, 1.0),
            thresholds_low=(0.0,),
        )
        table = run_roc(scenario)
        for row in table.rows:
            rec = dict(zip(table.columns, row))
            stderr = math.sqrt(rec["pfa_target"] * (1 - rec["pfa_target"]) / scenario.trials)
            assert abs(rec["pd_mc"] - rec["pfa_mc"]) <= 3 * stderr + 1e-9

    def test_empirical_pfa_tracks_targets(self):
        # The 1-bit detector's null statistic is a binomial lattice, so its
        # exceedance probability is compared against the exact discrete tail
        # rather than the continuous target.
        from scipy import stats

        scenario = RocScenario(
            trials=3000, seed=8, pfa_grid=(0.05, 0.1, 0.2, 0.5),
            thresholds_hybrid=(-1.748, -1.05, -0.501, 0.0, 0.501, 1.05, 1.748),
            thresholds_low=(0.0,),
        )
        table = run_roc(scenario)
        score = 2 * 0.3989422804014327
        lattice = score / math.sqrt(80 * 2 / math.pi)
        for row in table.rows:
            rec = dict(zip(table.columns, row))
            if rec["detector"] == "1b":
                k_min = 40 + rec["eta"] / (2 * lattice)
                if abs(k_min - round(k_min)) < 1e-9:
                    # Threshold sits exactly on a lattice atom; which side
                    # the atom falls on is float-summation noise.
                    continue
                target = float(stats.binom.sf(math.floor(k_min), 80, 0.5))
            else:
                target = rec["pfa_target"]
            stderr = math.sqrt(target * (1 - target) / scenario.trials)
            assert abs(rec["pfa_mc"] - target) <= 3 * stderr + 0.003

    def test_deterministic_tables(self):
        scenario = RocScenario(m_quantized=8, m_full=4, trials=300, seed=3,
                               pfa_grid=(0.1, 0.5))
        assert run_roc(scenario).rows == run_roc(scenario).rows

    def test_incompatible_roster_rejected(self):
        with pytest.raises(ValueError):
            RocScenario(m_full=0)
        with pytest.raises(ValueError):
            RocScenario(m_quantized=0)
        RocScenario(m_quantized=0, detectors=("clairvoyant", "fp"))  # valid subset

    def test_theory_column_presence(self):
        scenario = RocScenario(m_quantized=6, m_full=3, trials=100, seed=2,
                               pfa_grid=(0.2,))
        table = run_roc(scenario)
        recs = by_detector(table)
        assert recs["r-3b-fp"][0.2]["pd_theory"] is None
        assert recs["3b-fp"][0.2]["pd_theory"] is not None
        assert recs["clairvoyant"][0.2]["pd_theory"] is not None


#: Hybrid thresholds: a 3-bit design for a clean channel, and the swarm
#: design of ``roc --preset errorprone``, which has near-empty cells.
_CLEAN_3BIT = (-1.748, -1.05, -0.501, 0.0, 0.501, 1.05, 1.748)
_NOISY_3BIT = (
    -0.35870825067754725, -0.3587082506775467, 0.020315721306721147,
    0.020315721306773806, 0.02031572130934028, 0.020315721309374486,
    0.36715130256065565,
)


def _roc_case(p_e, trials, detectors=(), mapping="natural", sigma_n2=1.0, sigma_h2=0.5):
    return RocScenario(
        p_e=p_e, trials=trials, seed=11, detectors=detectors, mapping=mapping,
        sigma_n2=sigma_n2, sigma_h2=sigma_h2,
        thresholds_hybrid=_NOISY_3BIT if p_e else _CLEAN_3BIT, thresholds_low=(0.0,),
    )


class TestRocBlocksMatchPerTrialLoop:
    """``run_roc`` quantizes, sends and scores whole blocks of ``ROC_BLOCK``
    trials at once; its rows must be exactly those of ``roc_reference``,
    which draws from the same per-block streams and then handles one trial
    at a time with the scalar quantizer and codeword code."""

    @pytest.mark.parametrize(
        "p_e, trials, noise",
        [
            pytest.param(p_e, trials, {}, id=f"{p_e}-{trials}")
            for trials in (1, ROC_BLOCK - 1, ROC_BLOCK, ROC_BLOCK + 1)
            for p_e in (0.0, 0.2)
        ]
        # No fading and a noise variance other than 1: every scale factor
        # of the observations is live, and the gain's normal has scale 0.
        + [pytest.param(0.2, ROC_BLOCK + 1, {"sigma_n2": 2.0, "sigma_h2": 0.0}, id="0.2-257-unfaded")],
    )
    def test_all_detectors(self, p_e, trials, noise):
        scenario = _roc_case(p_e, trials, **noise)
        assert run_roc(scenario).rows == per_trial_roc(scenario).rows

    def test_gray_mapping(self):
        scenario = _roc_case(0.2, ROC_BLOCK + 1, mapping="gray")
        assert run_roc(scenario).rows == per_trial_roc(scenario).rows

    @pytest.mark.parametrize("detectors", [("1b",), ("r-3b-fp",), ("clairvoyant", "fp")])
    def test_detector_subsets_skip_their_draws(self, detectors):
        scenario = _roc_case(0.2, ROC_BLOCK + 1, detectors)
        assert run_roc(scenario).rows == per_trial_roc(scenario).rows


class TestRocStreams:
    """The stream contract: one ``trial_rng(seed, h, block)`` per block."""

    def test_one_stream_per_block_and_hypothesis(self, monkeypatch):
        keys = []
        real = experiments.trial_rng

        def spy(seed, *key):
            keys.append((seed, *key))
            return real(seed, *key)

        monkeypatch.setattr(experiments, "trial_rng", spy)
        run_roc(_roc_case(0.2, 2 * ROC_BLOCK + 1))
        assert sorted(keys) == [(11, h, b) for h in (0, 1) for b in (0, 1, 2)]

    @pytest.mark.parametrize("p_e", [0.0, 0.2])
    def test_null_scores_are_the_hybrid_detectors_null_draws(self, p_e):
        # ``null_scores`` carries the variance identity of the acceptance
        # suite; it must replay the engine's H0 streams exactly.
        trials = 2 * ROC_BLOCK + 1
        scenario = _roc_case(p_e, trials, detectors=("3b-fp",))
        spec = QuantizerSpec(scenario.bits_hybrid, scenario.thresholds_hybrid)
        fleet = (spec, p_e, scenario.m_quantized, scenario.m_full, scenario.sigma_n2)
        fi = NetworkKernels(*fleet).fisher_info
        stats = null_scores(*fleet, trials, scenario.seed) / math.sqrt(fi)
        table = run_roc(scenario)
        for row in table.rows:
            rec = dict(zip(table.columns, row))
            assert np.count_nonzero(stats > rec["eta"]) == round(rec["pfa_mc"] * trials)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        m_q=st.integers(0, 6),
        m_u=st.integers(0, 4),
        p_e=st.sampled_from((0.0, 0.05, 0.3)),
        mapping=st.sampled_from(("natural", "gray")),
        # Block edges are drawn often: the last block is where a stream
        # key or a short block goes wrong.
        trials=st.integers(1, 2 * ROC_BLOCK + 1)
        | st.sampled_from((ROC_BLOCK, ROC_BLOCK + 1, 2 * ROC_BLOCK, 2 * ROC_BLOCK + 1)),
        chosen=st.sets(st.sampled_from(("clairvoyant", "1b", "3b", "fp", "3b-fp", "r-3b-fp"))),
    )
    def test_block_and_per_trial_roc_counts_agree_on_random_fleets(
        self, m_q, m_u, p_e, mapping, trials, chosen
    ):
        assume(m_q + m_u >= 1)
        valid = {"clairvoyant"}
        if m_q:
            valid |= {"1b", "3b"}
        if m_u:
            valid |= {"fp"}
        if m_q and m_u:
            valid |= {"3b-fp", "r-3b-fp"}
        detectors = tuple(sorted(chosen & valid)) or ("clairvoyant",)
        scenario = RocScenario(
            m_quantized=m_q, m_full=m_u, p_e=p_e, trials=trials, seed=17,
            detectors=detectors, mapping=mapping,
            thresholds_hybrid=_NOISY_3BIT if p_e else _CLEAN_3BIT, thresholds_low=(0.0,),
        )
        assert run_roc(scenario).rows == per_trial_roc(scenario).rows


class TestRocWorkers:
    """The blocks run on a thread pool; the table must not depend on its size."""

    @pytest.mark.parametrize("p_e", [0.2, 0.0])
    def test_table_does_not_depend_on_the_worker_count(self, monkeypatch, p_e):
        # The ``roc errorprone`` preset, and its error-free twin, with a
        # short last block: 4 blocks per hypothesis, 8 jobs.
        scenario = RocScenario(p_e=p_e, trials=3 * ROC_BLOCK + 45)
        asked = []
        tables = {}
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # 5 workers is more than most test machines have cores.
            for workers in (1, 2, 5):
                monkeypatch.setattr(
                    experiments, "_workers", lambda jobs, w=workers: asked.append(jobs) or w
                )
                tables[workers] = run_roc(scenario)
        finally:
            sys.setswitchinterval(interval)
        assert asked == [8, 8, 8]
        assert tables[2] == tables[1]
        assert tables[5] == tables[1]
        assert threading.active_count() == before

    def test_an_error_in_a_later_worker_reaches_the_cli(self, tmp_path, capsys, monkeypatch):
        # With 2 workers over 3 blocks per hypothesis, the last H1 block
        # runs after both threads have started: its error must surface as
        # the CLI's error.
        real = experiments.trial_rng

        def failing(seed, *key):
            if key == (1, 2):
                raise ValueError("block (1, 2) failed")
            return real(seed, *key)

        monkeypatch.setattr(experiments, "trial_rng", failing)
        monkeypatch.setattr(experiments, "_workers", lambda jobs: 2)
        before = threading.active_count()
        out = tmp_path / "roc.csv"
        code = main(["roc", "--preset", "errorprone", "--trials", str(2 * ROC_BLOCK + 1), "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {"error": "block (1, 2) failed"}
        assert not out.exists()
        assert threading.active_count() == before


class TestRocMemory:
    """Only exceedance counts outlive a block, so memory is bounded by the
    worker count times a block, not by the trial count."""

    def test_peak_does_not_grow_with_the_trial_count(self, monkeypatch):
        # One worker, so that the peak does not depend on how the threads'
        # blocks overlap.
        monkeypatch.setattr(experiments, "_workers", lambda jobs: 1)

        def peak(trials):
            tracemalloc.start()
            try:
                run_roc(_roc_case(0.2, trials))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        scenario = _roc_case(0.2, ROC_BLOCK)
        # The float64 draws of one H1 block: gains and noise, then one
        # uniform per codeword bit of either quantizer.
        block = 8 * ROC_BLOCK * (
            2 * scenario.m_total + scenario.m_quantized * (scenario.bits_hybrid + scenario.bits_low)
        )
        assert peak(20 * ROC_BLOCK) - peak(2 * ROC_BLOCK) <= block


class TestSweepWorkers:
    """The sweep points run in a plain loop, off the pool; the tables must
    not depend on its size."""

    @pytest.mark.parametrize("budget_mode", list(BudgetMode))
    def test_tables_do_not_depend_on_the_worker_count(self, monkeypatch, budget_mode):
        # A 30-bit budget fits 20 sensors (exactly, too: 10 at 1 bit and 10
        # at 2) but not 40, so the sweep returns both kinds of rows.
        scenario = SweepScenario(
            cases=(SweepCase("even", (0.5, 0.5)), SweepCase("skewed", (0.1, 0.9))),
            epsilons=(0.0, 0.2),
            m_values=(20, 40, 30),
            budget=30,
            max_bits=2,
            budget_mode=budget_mode,
        )
        asked = []
        tables = {}
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 5):
                monkeypatch.setattr(
                    experiments, "_workers", lambda jobs, w=workers: asked.append(jobs) or w
                )
                tables[workers] = run_sweep(scenario)
        finally:
            sys.setswitchinterval(interval)
        assert asked == []
        assert tables[2] == tables[1]
        assert tables[5] == tables[1]
        summary = tables[1][0]
        assert [row[:3] for row in summary.rows] == [
            (case, m, sense) for case in ("even", "skewed") for m in (20, 40, 30) for sense in ("max", "min")
        ]
        assert {row[1]: row[3] for row in summary.rows} == {20: "optimal", 40: "infeasible", 30: "optimal"}
        assert threading.active_count() == before

    def test_an_error_at_a_later_point_reaches_the_cli(self, tmp_path, capsys, monkeypatch):
        # The points are checked in point order, so the second check of a
        # 30-sensor fleet is the first case's (30, min) point.
        real = allocation.validate_allocation
        checked = []

        def failing(result, hist, *args):
            checked.append(hist.m_total)
            if checked.count(30) == 2:
                raise ValueError("point (30, min) failed")
            return real(result, hist, *args)

        monkeypatch.setattr(allocation, "validate_allocation", failing)
        monkeypatch.setattr(experiments, "_workers", lambda jobs: 2)
        before = threading.active_count()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_values": [20, 30]}))
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--preset", "two-mixes", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {"error": "point (30, min) failed"}
        assert not out.exists()
        assert threading.active_count() == before


class TestRocDesigns:
    """``run_roc`` designs a threshold set only for a detector that uses it."""

    @pytest.mark.parametrize(
        "detectors, m_quantized, designed",
        [
            (("clairvoyant", "fp"), 80, []),
            (("clairvoyant", "fp"), 0, []),
            (("1b",), 80, [(1, 0.2)]),
            (("3b", "3b-fp", "r-3b-fp"), 80, [(3, 0.2)]),
            ((), 80, [(3, 0.2), (1, 0.2)]),
        ],
    )
    def test_designs_follow_the_roster(self, monkeypatch, detectors, m_quantized, designed):
        calls = []
        real = experiments.optimized_thresholds

        def spy(bits, p_e, *args, **kwargs):
            calls.append((bits, p_e))
            return real(bits, p_e, *args, **kwargs)

        monkeypatch.setattr(experiments, "optimized_thresholds", spy)
        scenario = RocScenario(
            **PRESETS[("roc", "errorprone")], m_quantized=m_quantized, trials=10, detectors=detectors)
        run_roc(scenario)
        assert calls == designed


class TestRocClosedForm:
    """The two Gaussian detectors have exact ROCs: under H0 the statistic is
    N(0, 1); under H1 it is N(theta sqrt(m / sigma_n2), 1 + theta^2
    sigma_h2 / sigma_n2) for the ``m`` analog samples it sums."""

    def test_errorprone_gaussian_detectors_within_four_standard_errors(self):
        trials = 20_000
        # Observations are each block's first draws, so these two rows are
        # those of the full preset roster.  This roster runs no swarm design
        # (``TestRocDesigns``).
        scenario = RocScenario(
            **PRESETS[("roc", "errorprone")], trials=trials, detectors=("clairvoyant", "fp"))
        theta, s_n2, s_h2 = scenario.theta, scenario.sigma_n2, scenario.sigma_h2
        sd1 = math.sqrt(1.0 + theta**2 * s_h2 / s_n2)
        fleet = {"clairvoyant": scenario.m_total, "fp": scenario.m_full}
        table = run_roc(scenario)
        assert len(table.rows) == 2 * len(scenario.pfa_grid)
        for row in table.rows:
            rec = dict(zip(table.columns, row))
            mean1 = theta * math.sqrt(fleet[rec["detector"]] / s_n2)
            exact = {
                "pfa_mc": float(gaussian_upper_tail(rec["eta"])),
                "pd_mc": float(gaussian_upper_tail((rec["eta"] - mean1) / sd1)),
            }
            for column, p in exact.items():
                se = math.sqrt(p * (1.0 - p) / trials)
                assert abs(rec[column] - p) <= 4 * se, (rec["detector"], column, rec[column], p)


class TestSweep:
    SCENARIO = SweepScenario(
        cases=(SweepCase("favorable", (0.6, 0.2, 0.1, 0.1)),),
        m_values=(20, 40),
        seed=6,
    )

    def test_summary_and_distribution(self):
        summary, dist = run_sweep(self.SCENARIO)
        assert summary.columns[0] == "case"
        assert len(summary.rows) == 2 * 2  # two fleet sizes x two senses
        recs = {(r[0], r[1], r[2]): dict(zip(summary.columns, r)) for r in summary.rows}
        for m in (20, 40):
            hi = recs[("favorable", m, "max")]
            lo = recs[("favorable", m, "min")]
            assert hi["status"] == lo["status"] == "optimal"
            assert hi["pd_theory"] >= lo["pd_theory"]
            assert hi["bits_used"] <= 500
        counts = collections.defaultdict(int)
        for row in dist.rows:
            rec = dict(zip(dist.columns, row))
            counts[(rec["case"], rec["m_total"], rec["sense"])] += rec["count"]
        for key, total in counts.items():
            assert total == key[1]

    def test_one_forward_pass_over_the_largest_fleet(self, monkeypatch):
        # Every point of the sweep, both senses included, reads its states
        # from one pass of the program over the sensors of the largest fleet.
        program, passes = allocation._sensor_program, []

        def counted(gains, *args):
            passes.append(gains.shape[:2])
            return program(gains, *args)

        monkeypatch.setattr(allocation, "_sensor_program", counted)
        scenario = replace(self.SCENARIO, cases=(*self.SCENARIO.cases, SweepCase("adverse", (0.1, 0.1, 0.2, 0.6))),
                           m_values=(40, 20, 30))
        summary, _ = run_sweep(scenario)
        assert passes == [(40, 4)]
        assert [row[3] for row in summary.rows] == ["optimal"] * 12

    def test_infeasible_points_reported_not_fatal(self):
        scenario = SweepScenario(
            cases=(SweepCase("favorable", (0.6, 0.2, 0.1, 0.1)),),
            m_values=(20,),
            budget=10,  # below one bit per sensor
            seed=6,
        )
        summary, dist = run_sweep(scenario)
        assert all(r[3] == "infeasible" for r in summary.rows)
        assert dist.rows == []


class TestLandscapeRunner:
    def test_table_shape_and_invalid_cells(self):
        table = run_landscape(LandscapeScenario(points=41, p_e=0.0))
        assert len(table.rows) == 41 * 41
        rec = {(r[0], r[1]): r[2] for r in table.rows}
        assert rec[(1.0, -1.0)] is None
        assert rec[(-1.0, 1.0)] is not None

    def test_rows_are_the_grid_cell_by_cell(self):
        scenario = LandscapeScenario(points=7, tau_lo=-2.0, tau_hi=3.0, tau2=0.5)
        axis = np.linspace(scenario.tau_lo, scenario.tau_hi, scenario.points)
        grid = fi_landscape(DesignProblem(scenario.bits, scenario.p_e, scenario.sigma_n2), axis, axis, scenario.tau2)
        want = [
            (float(t1), float(t3), float(grid[i, j]) if np.isfinite(grid[i, j]) else None)
            for i, t1 in enumerate(axis)
            for j, t3 in enumerate(axis)
        ]
        assert {v is None for *_, v in want} == {True, False}
        assert run_landscape(scenario).rows == want


class TestDesignRunner:
    def test_both_methods_error_free(self):
        table = run_design(DesignScenario(p_e=0.0, seed=4))
        methods = {r[0] for r in table.rows}
        assert methods == {"bgda", "pso"}
        for row in table.rows:
            rec = dict(zip(table.columns, row))
            assert rec["objective"] == pytest.approx(0.882518, abs=5e-4)

    def test_bgda_rejected_on_error_prone(self):
        with pytest.raises(ValueError):
            run_design(DesignScenario(p_e=0.2, methods=("bgda",)))


class TestAllocateRunner:
    def test_counts_add_up(self):
        table = run_allocate(AllocateScenario(m_total=20, budget=120, seed=4))
        total = sum(r[2] for r in table.rows)
        assert total == 20
        bits = table.rows[0][4]
        assert bits <= 120

    def test_exact_mode_flows_through(self):
        table = run_allocate(
            AllocateScenario(
                epsilons=(0.0,), freqs=(1.0,), m_total=2, budget=64,
                budget_mode=BudgetMode.EXACT, sense=Sense.MAXIMIZE_FI, seed=4,
            )
        )
        rec = {r[0]: r for r in table.rows if r[0] == "fp"}
        assert rec["fp"][2] == 2
