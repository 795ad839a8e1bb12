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

from hybriddet import allocation, design, experiments
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
from hybriddet.model import QuantizerSpec, SignalParams, gaussian_upper_tail

from oracles import emit_per_cell, load_table, received_law_quad
from roc_reference import per_trial_roc, physical_roc


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

    def test_table_without_columns_is_refused(self):
        # A row of no cells would need its own JSON layout.
        with pytest.raises(ValueError, match="column"):
            Table((), [()])

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
        tables = (
            Table(("a", "b", "c"), rows),
            Table(("a",), [(None,), ("",), (1.5,)]),
            Table(("a",), [("x",)]),
            Table(("a", "b"), []),
        )
        for table in tables:
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


#: What each default detector reads, spelled out here rather than taken from
#: ``RocScenario.roster``: received levels, the analog sums, and whether it
#: is a locally optimal (LMPT) statistic.
_READS = {
    "clairvoyant": (False, False, False),
    "1b": (True, False, True),
    "3b": (True, False, True),
    "fp": (False, True, False),
    "3b-fp": (True, True, True),
    "r-3b-fp": (True, True, False),
}


class TestRocRoster:
    def test_default_detectors_are_the_roster(self):
        scenario = RocScenario()
        assert scenario.detectors == tuple(scenario.roster()) == tuple(_READS)
        deeper = RocScenario(bits_hybrid=4, bits_low=2)
        assert deeper.detectors == ("clairvoyant", "2b", "4b", "fp", "4b-fp", "r-4b-fp")

    @pytest.mark.parametrize("detector", list(_READS))
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("m_quantized", 0, "quantized detectors need m_quantized >= 1"),
            ("m_full", 0, "full-precision detectors need m_full >= 1"),
            ("p_e", 0.5, "p_e = 0.5 erases every level: detectors"),
            # Every sample falls in the bottom cell, which tells nothing.
            ("thresholds_low", (1e308,), r"thresholds_low: detectors \['1b'\] carry no information"),
            ("thresholds_hybrid", tuple(k * 1e300 for k in range(1, 8)),
             r"thresholds_hybrid: detectors \['3b'\] carry no information"),
        ],
    )
    def test_each_detector_alone_is_refused_exactly_where_it_reads_what_is_missing(
        self, detector, field, value, message
    ):
        levels, analog, lmpt = _READS[detector]
        refused = {
            "m_quantized": levels, "m_full": analog, "p_e": lmpt and not analog,
            "thresholds_low": detector == "1b", "thresholds_hybrid": detector == "3b",
        }[field]
        config = {"detectors": (detector,), field: value}
        if refused:
            with pytest.raises(ValueError, match=message):
                RocScenario(**config)
        else:
            assert RocScenario(**config).detectors == (detector,)


#: Hybrid thresholds: a 3-bit design for a clean channel, and the swarm
#: design of ``roc --preset errorprone``, which has near-empty cells.
_CLEAN_3BIT = (-1.748, -1.05, -0.501, 0.0, 0.501, 1.05, 1.748)
_NOISY_3BIT = (
    -0.35870825067754725, -0.3587082506775467, 0.020315721306721147,
    0.020315721306773806, 0.02031572130934028, 0.020315721309374486,
    0.36715130256065565,
)


def _roc_case(p_e, trials, detectors=(), sigma_n2=1.0, sigma_h2=0.5, theta=0.25):
    return RocScenario(
        p_e=p_e, trials=trials, seed=11, detectors=detectors, theta=theta,
        sigma_n2=sigma_n2, sigma_h2=sigma_h2,
        thresholds_hybrid=_NOISY_3BIT if p_e else _CLEAN_3BIT, thresholds_low=(0.0,),
    )


class TestRocBlocksMatchPerTrialLoop:
    """``run_roc`` makes and scores the sums and level counts of whole
    blocks of ``ROC_BLOCK`` trials at once; its rows must be exactly those
    of ``roc_reference``, which draws from the same per-block streams and
    then handles one trial at a time in Python floats."""

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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        m_q=st.integers(0, 6),
        m_u=st.integers(0, 4),
        p_e=st.sampled_from((0.0, 0.05, 0.3)),
        # Block edges are drawn often: the last block is where a stream
        # key or a short block goes wrong.
        trials=st.integers(1, 2 * ROC_BLOCK + 1)
        | st.sampled_from((ROC_BLOCK, ROC_BLOCK + 1, 2 * ROC_BLOCK, 2 * ROC_BLOCK + 1)),
        chosen=st.sets(st.sampled_from(("clairvoyant", "1b", "3b", "fp", "3b-fp", "r-3b-fp"))),
    )
    def test_block_and_per_trial_roc_counts_agree_on_random_fleets(
        self, m_q, m_u, p_e, trials, chosen
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
            detectors=detectors,
            thresholds_hybrid=_NOISY_3BIT if p_e else _CLEAN_3BIT, thresholds_low=(0.0,),
        )
        assert run_roc(scenario).rows == per_trial_roc(scenario).rows


#: Thresholds at 1 to 3 bits, none symmetric about the amplitude.
_LAW_THRESHOLDS = {1: (0.3,), 2: (-0.7, 0.1, 0.9), 3: _CLEAN_3BIT}


class TestRocLaws:
    """The laws ``run_roc`` draws from, checked from outside its contract:
    against quadrature over the gain and the noise, and against a Monte
    Carlo of every sensor through the physical chain."""

    @pytest.mark.parametrize("sigma_h2", [0.0, 0.5])
    @pytest.mark.parametrize("p_e", [0.0, 0.2])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_received_level_laws_match_quadrature(self, bits, p_e, sigma_h2):
        theta, sigma_n2 = 0.6, 1.3
        spec = QuantizerSpec(bits, _LAW_THRESHOLDS[bits])
        moments = experiments._observation_moments(SignalParams(theta, sigma_n2, sigma_h2))
        for amplitude, (mean, deviation) in zip((0.0, theta), moments):
            got = experiments._received_law(spec, p_e, mean, deviation)
            want = received_law_quad(spec.thresholds, p_e, amplitude, sigma_n2, sigma_h2)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "p_e, noise",
        [
            (0.2, {}),
            (0.0, {"sigma_n2": 2.0, "sigma_h2": 0.0}),
            # Strong fading: the H1 deviation is 1.3 noise deviations.
            (0.2, {"theta": 0.6, "sigma_h2": 2.0}),
        ],
    )
    def test_rates_match_a_monte_carlo_of_every_sensor(self, p_e, noise):
        scenario = _roc_case(p_e, 4000, **noise)
        engine, physical = run_roc(scenario), physical_roc(scenario)
        trials = scenario.trials
        for got, want in zip(engine.rows, physical.rows):
            assert got[:4] == want[:4]
            for col in (4, 5):  # pfa_mc, pd_mc
                p = min(max(0.5 * (got[col] + want[col]), 1.0 / trials), 1.0 - 1.0 / trials)
                se = math.sqrt(2.0 * p * (1.0 - p) / trials)
                assert abs(got[col] - want[col]) <= 5.0 * se, (got, want)


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
    """Each worker sums its blocks' exceedance counts into one array, so
    memory is bounded by the worker count times a block, not by the trial
    count, and a block holds sums and level counts, not sensors."""

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

        run_roc(_roc_case(0.2, 1))  # fills the caches that only a first run allocates
        assert peak(1000 * ROC_BLOCK) - peak(2 * ROC_BLOCK) < 64 * 1024

    @pytest.mark.parametrize(
        "m_q, m_u, bits_hybrid, bits_low, trials, pfa_points",
        [
            (400, 100, 3, 1, ROC_BLOCK, 6),
            (10, 2000, 3, 1, ROC_BLOCK, 6),
            # Deep quantizers and a short block: the channel tables dominate.
            (600, 10, 8, 7, 100, 6),
            # A large fleet costs what any fleet costs.
            (100_000, 20, 3, 1, ROC_BLOCK, 6),
            # A long pfa grid: the exceedances and the output rows dominate.
            (80, 20, 3, 1, ROC_BLOCK, 60),
        ],
    )
    def test_memory_estimate_covers_the_measured_peak(
        self, monkeypatch, m_q, m_u, bits_hybrid, bits_low, trials, pfa_points
    ):
        # One worker holds one block at a time; ``RocScenario`` refuses the
        # tables plus ``_MAX_WORKERS`` times this block above the cap.
        monkeypatch.setattr(experiments, "_workers", lambda jobs: 1)
        scenario = RocScenario(
            m_quantized=m_q, m_full=m_u, bits_hybrid=bits_hybrid, bits_low=bits_low, p_e=0.2, trials=trials,
            pfa_grid=tuple(np.linspace(0.01, 0.99, pfa_points)),
            thresholds_hybrid=tuple(np.linspace(-1.5, 1.5, 2**bits_hybrid - 1)),
            thresholds_low=tuple(np.linspace(-1.5, 1.5, 2**bits_low - 1)),
        )
        tracemalloc.start()
        try:
            run_roc(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scenario._table_bytes() + min(ROC_BLOCK, trials) * scenario._trial_bytes(), peak

    def test_a_large_fleet_runs(self, tmp_path):
        # A trial draws its sums and level counts, so the fleet's size sets
        # neither its cost nor its memory.
        config = tmp_path / "roc.json"
        config.write_text(json.dumps({"m_quantized": 100_000}))
        out = tmp_path / "roc.csv"
        assert main(["roc", "--config", str(config), "--out", str(out)]) == 0
        trials = RocScenario.trials
        for rec in load_table(out, "csv").rows:
            row = dict(zip(ROC_COLUMNS, rec))
            if row["detector"] in ("3b", "3b-fp"):
                p = row["pfa_target"]
                assert abs(row["pfa_mc"] - p) <= 5 * math.sqrt(p * (1 - p) / trials), row


class TestAllocationMemory:
    """``AllocateScenario`` and ``SweepScenario`` refuse a run whose
    estimate, ``experiments._allocation_bytes``, passes the cap; the
    estimate must cover what a run and its output take."""

    _CASES = (SweepCase("even", (0.5, 0.5)), SweepCase("skewed", (0.25, 0.75)))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "scenario",
        [
            AllocateScenario(),
            AllocateScenario(m_total=10, budget=20),
            # The choices dominate.
            AllocateScenario(epsilons=(0.0, 0.2), freqs=(0.25, 0.75), m_total=400, budget=4000),
            AllocateScenario(
                epsilons=(0.0, 0.2), freqs=(0.25, 0.75), m_total=400, budget=4000, budget_mode=BudgetMode.EXACT),
            SweepScenario(_CASES, epsilons=(0.0, 0.2), m_values=(8,), budget=16),
            # A hundred fleet stops, each a copy of the states.
            SweepScenario(_CASES, epsilons=(0.0, 0.2), m_values=tuple(range(4, 404, 4)), budget=400),
            SweepScenario(_CASES, epsilons=(0.0, 0.2), m_values=tuple(range(4, 404, 4)), budget=4000),
        ],
        ids=["allocate-preset", "allocate-tiny", "allocate-wide", "allocate-exact",
             "sweep-tiny", "sweep-stops", "sweep-wide"],
    )
    def test_memory_estimate_covers_the_measured_peak(self, tmp_path, scenario, fmt):
        if isinstance(scenario, AllocateScenario):
            run, m_values, rows = run_allocate, (scenario.m_total,), 1
        else:
            run, m_values, rows = run_sweep, scenario.m_values, len(scenario.cases) * len(scenario.senses)

        def run_and_emit():
            tables = run(scenario)
            for k, table in enumerate(tables if isinstance(tables, tuple) else (tables,)):
                emit(table, fmt, tmp_path / f"out{k}")

        run_and_emit()  # designs the information table, which the cache then serves
        tracemalloc.start()
        try:
            run_and_emit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= experiments._allocation_bytes(scenario, m_values, rows), peak

    @pytest.mark.parametrize(
        "make, fields",
        [
            (lambda: AllocateScenario(m_total=10**9, budget=10**19), ("m_total", "budget")),
            (lambda: AllocateScenario(l0=10**9, budget=10**12), ("m_total", "budget")),
            (lambda: SweepScenario(TestAllocationMemory._CASES, epsilons=(0.0, 0.2), m_values=(4, 10**9), budget=10**19),
             ("m_values", "budget")),
        ],
    )
    def test_refused_above_the_cap(self, make, fields):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="too large") as raised:
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(field in str(raised.value) for field in fields)
        assert "GiB cap" in str(raised.value)
        assert peak < 2**20

    def test_unsolved_fleets_cost_nothing(self, monkeypatch):
        # A budget below one bit a sensor solves no fleet: the point is
        # infeasible, not too large, and refused before any design.
        def no_design(*_args):
            raise AssertionError("the information table was designed")

        monkeypatch.setattr(allocation, "build_fi_table", no_design)
        monkeypatch.setattr(design, "optimized_cells", no_design)
        monkeypatch.setattr(allocation, "optimized_cells", no_design)
        scenario = AllocateScenario(m_total=10**9, budget=10**6)
        assert allocation.program_bytes((scenario.m_total,), 1, 10**6, 32, 3, BudgetMode.AT_MOST) == 0
        with pytest.raises(allocation.AllocationInfeasibleError, match="cannot give each of 1000000000 sensors"):
            run_allocate(scenario)


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

    def test_seed_reaches_only_the_monte_carlo(self, monkeypatch):
        # Runs at two seeds are replicates of one detector: both read the
        # table designs of ``PsoSettings()``, and the second designs nothing.
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        real, read = experiments._scenario_quantizer, []

        def spy(scenario, bits):
            spec = real(scenario, bits)
            read.append((scenario.seed, bits, tuple(spec.thresholds)))
            return spec

        monkeypatch.setattr(experiments, "_scenario_quantizer", spy)
        cached = []
        for seed in (1, 20260810):
            run_roc(RocScenario(**PRESETS[("roc", "errorprone")], trials=10, seed=seed))
            cached.append(len(design._DESIGN_CACHE))
        assert cached[0] == cached[1] > 0
        first = [(bits, t) for seed, bits, t in read if seed == 1]
        assert first and first == [(bits, t) for seed, bits, t in read if seed == 20260810]

    def test_ideal_and_errorprone_read_one_one_bit_threshold(self, monkeypatch):
        # Every 1-bit cell takes the error-free cell's thresholds, so the two
        # presets' ``1b`` detectors differ only in their channel.
        monkeypatch.setattr(design, "_DESIGN_CACHE", {})
        read = {name: experiments._scenario_quantizer(RocScenario(**PRESETS[("roc", name)]), 1).thresholds
                for name in ("errorprone", "ideal")}
        assert read["errorprone"] == read["ideal"]


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
        grid = fi_landscape(DesignProblem(2, scenario.p_e, scenario.sigma_n2), axis, axis, scenario.tau2)
        want = [
            (float(t1), float(t3), float(grid[i, j]) if np.isfinite(grid[i, j]) else None)
            for i, t1 in enumerate(axis)
            for j, t3 in enumerate(axis)
        ]
        assert {v is None for *_, v in want} == {True, False}
        assert run_landscape(scenario).rows == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_estimate_covers_the_measured_peak(self, tmp_path, fmt):
        # The estimate that ``LandscapeScenario`` refuses above the cap must
        # hold the grid, its table rows and their text.  tracemalloc also
        # counts about 0.14 MB of buffers that do not grow with the grid,
        # which grids of 60 points and more outweigh.
        for points in (60, 120, 180):
            tracemalloc.start()
            try:
                emit(run_landscape(LandscapeScenario(points=points)), fmt, tmp_path / "grid")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= points**2 * experiments._LANDSCAPE_CELL_BYTES, (points, peak)


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
        table = run_allocate(AllocateScenario(m_total=20, budget=120))
        total = sum(r[2] for r in table.rows)
        assert total == 20
        bits = table.rows[0][4]
        assert bits <= 120

    def test_exact_mode_flows_through(self):
        table = run_allocate(
            AllocateScenario(
                epsilons=(0.0,), freqs=(1.0,), m_total=2, budget=64,
                budget_mode=BudgetMode.EXACT, sense=Sense.MAXIMIZE_FI,
            )
        )
        rec = {r[0]: r for r in table.rows if r[0] == "fp"}
        assert rec["fp"][2] == 2
