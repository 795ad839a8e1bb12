"""Experiment-runner tests: tables, ROC engine, sweep, determinism."""

import collections
import math

import numpy as np
import pytest

from hybriddet.allocation import BudgetMode, Sense
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
    load_table,
    roc_transmission_bits,
    run_allocate,
    run_design,
    run_landscape,
    run_roc,
    run_sweep,
    score_samples_h0,
)
from hybriddet.detection import fisher_information
from hybriddet.model import (
    ChannelSpec,
    FullPrecisionSensor,
    NetworkConfig,
    QuantizedSensor,
    QuantizerSpec,
    SignalParams,
)

from roc_reference import per_trial_roc


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

    def test_transmission_bit_accounting(self):
        scenario = RocScenario()
        bits = roc_transmission_bits(scenario)
        assert bits["1b"] == 80
        assert bits["3b"] == 240
        assert bits["fp"] == 640
        assert bits["3b-fp"] == 880
        assert bits["clairvoyant"] is None

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


def _roc_case(p_e, trials, detectors=(), mapping="natural"):
    return RocScenario(
        p_e=p_e, trials=trials, seed=11, detectors=detectors, mapping=mapping,
        thresholds_hybrid=_NOISY_3BIT if p_e else _CLEAN_3BIT, thresholds_low=(0.0,),
    )


class TestRocBlocksMatchPerTrialLoop:
    """``run_roc`` simulates blocks of ``ROC_BLOCK`` trials; its rows must be
    exactly those of the trial-at-a-time loop in ``roc_reference``."""

    @pytest.mark.parametrize("trials", [1, ROC_BLOCK - 1, ROC_BLOCK, ROC_BLOCK + 1])
    @pytest.mark.parametrize("p_e", [0.0, 0.2])
    def test_all_detectors(self, p_e, trials):
        scenario = _roc_case(p_e, trials)
        assert run_roc(scenario).rows == per_trial_roc(scenario).rows

    def test_gray_mapping(self):
        scenario = _roc_case(0.2, ROC_BLOCK + 1, mapping="gray")
        assert run_roc(scenario).rows == per_trial_roc(scenario).rows

    @pytest.mark.parametrize("detectors", [("1b",), ("r-3b-fp",), ("clairvoyant", "fp")])
    def test_detector_subsets_skip_their_draws(self, detectors):
        scenario = _roc_case(0.2, ROC_BLOCK + 1, detectors)
        assert run_roc(scenario).rows == per_trial_roc(scenario).rows


class TestScoreSamples:
    def test_variance_matches_information_quickly(self):
        params = SignalParams(0.25, 1.0, 0.5)
        sensors = tuple(
            QuantizedSensor(QuantizerSpec(2, (-0.9816, 0.0, 0.9816)), ChannelSpec(0.2))
            for _ in range(10)
        ) + tuple(FullPrecisionSensor() for _ in range(5))
        config = NetworkConfig(params, sensors)
        scores = score_samples_h0(config, 200_000, seed=13)
        fi = fisher_information(config)
        assert abs(scores.mean()) <= 3 * math.sqrt(fi / scores.size)
        assert scores.var() == pytest.approx(fi, rel=0.02)

    def test_block_size_invariant_statistics(self):
        params = SignalParams(0.25, 1.0, 0.5)
        config = NetworkConfig(params, (FullPrecisionSensor(),) * 4)
        a = score_samples_h0(config, 1000, seed=1, block_size=1000)
        b = score_samples_h0(config, 1000, seed=1, block_size=1000)
        np.testing.assert_array_equal(a, b)


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
