"""Fusion-center kernel tests: cell tables, information sums, statistics."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybriddet import design
from hybriddet.detection import (
    NetworkKernels,
    bsc_kernel,
    cell_tables,
    received_information,
    reconstruction_table,
    theoretical_pd,
    threshold_for_pfa,
)
from hybriddet.model import (
    Hypothesis,
    QuantizerSpec,
    SignalParams,
    gaussian_pdf,
    gaussian_upper_tail,
    quantize_batch,
    simulate_observations,
    trial_rng,
)
from hybriddet.experiments import RocScenario, SweepScenario, run_roc

from oracles import (
    cell_centroid_quad,
    quantized_fi_oracle,
    received_information_sum,
    upper_tail_inverse_bisect,
    upper_tail_quad,
)
from roc_reference import null_scores

PARAMS = SignalParams(theta=0.25, sigma_n2=1.0, sigma_h2=0.5)


def _kernels(n_quantized, bits, thresholds, p_e, n_full, sigma_n2=PARAMS.sigma_n2):
    return NetworkKernels(QuantizerSpec(bits, thresholds), p_e, n_quantized, n_full, sigma_n2)


class TestCellTables:
    def test_one_bit_prob(self):
        assert cell_tables((0.0,))[0][0] == pytest.approx(0.5, abs=1e-12)

    def test_two_bit_prob_against_quadrature(self):
        spec = QuantizerSpec(2, (-1.0, 0.0, 1.0))
        expected = upper_tail_quad(-1.0) - upper_tail_quad(0.0)
        assert cell_tables(spec.thresholds)[0][1] == pytest.approx(expected, abs=1e-9)
        assert cell_tables(spec.thresholds)[0][1] == pytest.approx(0.341345, abs=1e-6)

    def test_probs_partition(self):
        for spec in (QuantizerSpec(1, (0.3,)), QuantizerSpec(3, tuple(np.linspace(-2, 2, 7)))):
            probs = cell_tables(np.divide(spec.thresholds, 1.3))[0]
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0)

    def test_tail_cells_match_mpmath(self):
        # Cells out to -8 sigma keep their relative precision (an upper tail
        # near 1 subtracted from 1 would leave rounding noise).
        spec = QuantizerSpec(3, (-8.0, -7.0, -5.5, -3.0, 2.0, 6.0, 8.0))
        sigma_n = 1.3
        with mpmath.workdps(50):
            z = [mpmath.mpf(-math.inf)] + [mpmath.mpf(t) / mpmath.mpf(sigma_n) for t in spec.thresholds]
            z.append(mpmath.mpf(math.inf))
            want = [float(mpmath.ncdf(b) - mpmath.ncdf(a)) for a, b in zip(z[:-1], z[1:])]
        probs = cell_tables(np.divide(spec.thresholds, sigma_n))[0]
        np.testing.assert_allclose(probs, want, rtol=1e-12, atol=0.0)

    def test_one_bit_scores(self):
        spec = QuantizerSpec(1, (0.0,))
        psi0 = 0.3989422804014327
        assert cell_tables(spec.thresholds)[1][0] == pytest.approx(-psi0, abs=1e-12)
        assert cell_tables(spec.thresholds)[1][1] == pytest.approx(psi0, abs=1e-12)

    def test_two_bit_score(self):
        spec = QuantizerSpec(2, (-1.0, 0.0, 1.0))
        assert cell_tables(spec.thresholds)[1][1] == pytest.approx(-0.15697155588228936, abs=1e-12)

    def test_scores_telescope_to_zero(self):
        spec = QuantizerSpec(3, (-2.1, -1.4, -0.3, 0.2, 0.9, 1.7, 2.5))
        assert abs(cell_tables(np.divide(spec.thresholds, 0.8))[1].sum()) <= 1e-12

    def test_level_bounds(self):
        # One entry per level 1..2**bits, indexed by ``level - 1``.
        for bits in (1, 2, 3):
            spec = QuantizerSpec(bits, tuple(np.linspace(-1, 1, 2**bits - 1)))
            probs, scores = cell_tables(spec.thresholds)
            assert probs.shape == scores.shape == (2**bits,)

    def test_rows_match_single_vectors(self):
        rng = np.random.default_rng(11)
        rows = np.sort(rng.uniform(-9.0, 9.0, (20, 7)), axis=1)
        probs, scores = cell_tables(np.divide(rows, 1.7))
        for row, p, s in zip(rows, probs, scores):
            want_p, want_s = cell_tables(np.divide(tuple(row), 1.7))
            np.testing.assert_array_equal(p, want_p)
            np.testing.assert_array_equal(s, want_s)

    @pytest.mark.parametrize("shape", [(7,), (40, 1), (3, 5, 3), (2, 4, 7)])
    def test_batches_match_cell_by_cell_reference(self, shape):
        # Each cell from its own two edges, one scalar at a time, with the
        # side-of-zero rule of the docstring: the batched tables must agree
        # bit for bit whatever the batch shape.
        rng = np.random.default_rng(len(shape) * 10 + shape[-1])
        rows = np.sort(rng.normal(0.0, 3.0, shape), axis=-1)
        if shape[-1] > 1:
            rows[..., -1] = rows[..., -2]  # an empty top-but-one cell
        sigma_n = 1.3
        probs, scores = cell_tables(np.divide(rows, sigma_n))
        assert probs.shape == scores.shape == shape[:-1] + (shape[-1] + 1,)
        for index in np.ndindex(shape[:-1]):
            z = [-math.inf] + [t / sigma_n for t in rows[index]] + [math.inf]
            for j, (a, b) in enumerate(zip(z[:-1], z[1:])):
                lo, hi = gaussian_upper_tail(abs(a)), gaussian_upper_tail(abs(b))
                want = lo - hi if a >= 0.0 else hi - lo if b <= 0.0 else 1.0 - lo - hi
                assert probs[index + (j,)] == want
                assert scores[index + (j,)] == gaussian_pdf(a) - gaussian_pdf(b)


class TestBscKernel:
    def test_noiseless_is_identity(self):
        np.testing.assert_array_equal(bsc_kernel(2, 0.0), np.eye(4))

    def test_entries(self):
        g = bsc_kernel(2, 0.2)
        assert g[0, 1] == pytest.approx(0.16, abs=1e-12)  # one differing bit
        assert g[0, 0] == pytest.approx(0.64, abs=1e-12)
        assert bsc_kernel(1, 0.3)[0, 0] == pytest.approx(0.7, abs=1e-12)

    def test_doubly_stochastic(self):
        for bits in (1, 2, 3):
            for p in (0.0, 0.1, 0.37, 0.5):
                g = bsc_kernel(bits, p)
                np.testing.assert_allclose(g.sum(axis=0), 1.0, atol=1e-12)
                np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(1, 8),
        p_e=st.floats(0.0, 0.5),
    )
    def test_doubly_stochastic_property(self, bits, p_e):
        g = bsc_kernel(bits, p_e)
        assert g.shape == (2**bits, 2**bits)
        assert np.all(g >= 0.0)
        np.testing.assert_allclose(g.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)


class TestReceivedInformation:
    """The channel sums accumulate in place, level by level; every element
    must equal the Python ``sum`` of the same products."""

    @staticmethod
    def _tables(rng, shape):
        z = np.sort(rng.uniform(-3.0, 3.0, shape), axis=-1)
        return cell_tables(z)

    @pytest.mark.parametrize("p_e", [0.0, 0.013, 0.2])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_in_place_sums_equal_the_generator_sums(self, bits, p_e):
        rng = np.random.default_rng(bits)
        n = 2**bits - 1
        kernel = bsc_kernel(bits, p_e)
        channels = [bsc_kernel(bits, e) for e in (p_e, 0.0, 0.1, 0.45)]
        cases = [
            # Face rows (r, 7 at 3 bits), one kernel per row.
            (*self._tables(rng, (9, n)), np.stack([channels[k % 4] for k in range(9)])),
            # Swarm rows (S, 100, 1 at 1 bit), one kernel per swarm.
            (*self._tables(rng, (3, 100, n)), np.stack(channels[:3])[:, None]),
            # A single vector and its one kernel.
            (*self._tables(rng, (n,)), kernel),
        ]
        for probs, scores, k in cases:
            got, want = received_information(probs, scores, k), received_information_sum(probs, scores, k)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.array_equal(a, b)
        if p_e == 0.0:
            # A negative score times a zero of the kernel is -0.0, which the
            # sums meet.
            _, scores, k = cases[2]
            assert (np.signbit(scores[None, :] * k) & (k == 0.0)).any()

    def test_an_eight_bit_swarm_evaluation_holds_no_product_per_level_pair(self):
        # One channel's swarms at 8 bits, shaped as ``design._run_swarms``
        # evaluates them.  The two result tables are 2 * 300 * 256 floats
        # (1.2 MB); a product over every (received, sent) level pair before
        # summing would be 256 times that.
        bits, rows = 8, design._PSO_RESTARTS * design._PSO_SIZE
        probs, scores = self._tables(np.random.default_rng(8), (design._PSO_RESTARTS, design._PSO_SIZE, 2**bits - 1))
        kernels = np.stack([bsc_kernel(bits, 0.2)] * design._PSO_RESTARTS)[:, None]
        tracemalloc.start()
        try:
            received_information(probs, scores, kernels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (2 * rows * 2**bits * 8)


class TestFisherInformation:
    def test_analog_only(self):
        kernels = _kernels(0, 1, (0.0,), 0.0, 20)
        assert kernels.fisher_info == pytest.approx(20.0, abs=1e-12)

    def test_one_bit_closed_form(self):
        kernels = _kernels(1, 1, (0.0,), 0.0, 0)
        assert kernels.fisher_info == pytest.approx(2.0 / math.pi, abs=1e-9)

    def test_two_bit_reference(self):
        kernels = _kernels(1, 2, (-1.0, 0.0, 1.0), 0.0, 0)
        expected = quantized_fi_oracle((-1.0, 0.0, 1.0), 0.0, 1.0)
        assert kernels.fisher_info == pytest.approx(expected, abs=1e-9)
        assert kernels.fisher_info == pytest.approx(0.8824467547699297, abs=1e-9)

    def test_uninformative_channel(self):
        kernels = _kernels(1, 1, (0.0,), 0.5, 0)
        assert kernels.fisher_info == pytest.approx(0.0, abs=1e-15)

    def test_matches_loop_oracle_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            bits = int(rng.integers(1, 4))
            thresholds = tuple(np.sort(rng.normal(0, 1.5, 2**bits - 1)))
            p_e = float(rng.choice([0.0, 0.05, 0.2, 0.4]))
            sigma_n2 = float(rng.uniform(0.4, 2.5))
            kernels = _kernels(1, bits, thresholds, p_e, 0, sigma_n2)
            expected = quantized_fi_oracle(thresholds, p_e, sigma_n2)
            assert kernels.fisher_info == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_channel_quality(self):
        values = [
            _kernels(1, 2, (-1.0, 0.0, 1.0), p, 0).fisher_info
            for p in (0.0, 0.2, 0.5)
        ]
        assert values[0] > values[1] > values[2] == pytest.approx(0.0, abs=1e-12)


class TestKernelProperties:
    """Random sorted designs: the null mean of the score table is zero, one
    sensor's information is below an analog sample's, and a noisier channel
    never adds information (data processing: binary symmetric channels
    compose)."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(1, 5),
        sigma_n2=st.floats(0.1, 10.0),
        p_e=st.floats(0.0, 0.5, exclude_max=True),
        data=st.data(),
    )
    def test_null_mean_information_bound_and_channel_monotonicity(self, bits, sigma_n2, p_e, data):
        n = 2**bits - 1
        tau = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n, unique=True))
        p_worse = data.draw(st.floats(p_e, 0.5, exclude_max=True))
        spec = QuantizerSpec(bits, tuple(sorted(tau)))
        sigma_n = math.sqrt(sigma_n2)
        k = NetworkKernels(spec, p_e, 1, 0, sigma_n2)
        worse = NetworkKernels(spec, p_worse, 1, 0, sigma_n2)
        assert abs(k.received_probs @ k.level_scores[1:]) <= 1e-12 / sigma_n
        assert k.fisher_info <= 1.0 / sigma_n2
        assert worse.fisher_info <= k.fisher_info * (1.0 + 1e-12)


class TestLmptStatistic:
    """``NetworkKernels.statistic``, the hybrid detector of ``run_roc``."""

    def test_single_analog(self):
        kernels = _kernels(0, 1, (0.0,), 0.0, 1)
        assert kernels.statistic(kernels.score_sums(()), 0.7) == pytest.approx(0.7, abs=1e-12)
        assert kernels.fisher_info == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_cancellation(self):
        kernels = _kernels(0, 1, (0.0,), 0.0, 4)
        analog = np.sum((1.0, -1.0, 1.0, -1.0))
        assert kernels.statistic(kernels.score_sums(()), analog) == pytest.approx(0.0, abs=1e-12)

    def test_single_one_bit_sensor(self):
        # score = pdf(0)/0.5 and sqrt(FI) = sqrt(2/pi) coincide, so the
        # normalized statistic is exactly +/-1 for the two received levels.
        kernels = _kernels(1, 1, (0.0,), 0.0, 0)
        assert kernels.statistic(kernels.score_sums((2,))) == pytest.approx(1.0, abs=1e-12)
        assert kernels.statistic(kernels.score_sums((1,))) == pytest.approx(-1.0, abs=1e-12)

    def test_noncentrality(self):
        # ``run_roc``'s theory column uses theta * sqrt(FI) of the hybrid fleet.
        thresholds = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
        scenario = RocScenario(
            m_quantized=4, m_full=16, p_e=0.1, trials=1, seed=1, pfa_grid=(0.1, 0.3),
            detectors=("3b-fp",), thresholds_hybrid=thresholds, thresholds_low=(0.0,),
        )
        lam = PARAMS.theta * math.sqrt(_kernels(4, 3, thresholds, 0.1, 16).fisher_info)
        for row in run_roc(scenario).rows:
            rec = dict(zip(("detector", "pfa_target", "eta", "pd_theory"), row))
            assert rec["pd_theory"] == theoretical_pd(lam, rec["eta"])

    def test_zero_information_raises(self):
        kernels = _kernels(1, 1, (0.0,), 0.5, 0)
        with pytest.raises(ValueError):
            kernels.statistic(kernels.score_sums((1,)))


class TestScoreMoments:
    def test_null_mean_and_variance_match_information(self):
        spec = QuantizerSpec(2, (-0.8, 0.0, 0.8))
        scores = null_scores(spec, 0.1, 12, 4, PARAMS.sigma_n2, 120_000, seed=77)
        fi = NetworkKernels(spec, 0.1, 12, 4, PARAMS.sigma_n2).fisher_info
        stderr = math.sqrt(fi / scores.size)
        assert abs(scores.mean()) <= 3 * stderr
        assert scores.var() == pytest.approx(fi, rel=0.02)


class TestRocTheory:
    def test_threshold_reference_values(self):
        assert threshold_for_pfa(0.5) == pytest.approx(0.0, abs=1e-12)
        expected = upper_tail_inverse_bisect(0.1)
        assert threshold_for_pfa(0.1) == pytest.approx(expected, abs=1e-9)
        assert threshold_for_pfa(0.9) == pytest.approx(-threshold_for_pfa(0.1), abs=1e-12)

    def test_threshold_within_two_ulp_of_mpmath(self):
        grid = RocScenario.pfa_grid + (SweepScenario.pfa, 0.9, 0.99)
        with mpmath.workdps(50):
            for p_fa in grid:
                want = -mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p_fa) - 1)
                got = threshold_for_pfa(p_fa)
                if want == 0:
                    assert got == 0.0
                else:
                    assert float(abs(got - want)) <= 2 * math.ulp(float(want))

    def test_threshold_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                threshold_for_pfa(bad)

    def test_pd_reference_values(self):
        eta = threshold_for_pfa(0.1)
        assert theoretical_pd(0.0, eta) == pytest.approx(0.1, abs=1e-12)
        assert theoretical_pd(eta, eta) == pytest.approx(0.5, abs=1e-12)
        expected = upper_tail_quad(eta - 2.0)
        assert theoretical_pd(2.0, eta) == pytest.approx(expected, abs=1e-9)
        assert theoretical_pd(2.0, eta) == pytest.approx(0.7637596, abs=1e-6)


class TestBaselines:
    """The baseline detectors, computed inline by ``run_roc``."""

    def test_clairvoyant(self):
        # On an analog-only fleet the clairvoyant average is the analog-only
        # statistic, row for row.
        scenario = RocScenario(m_quantized=0, m_full=3, trials=300, seed=4,
                               pfa_grid=(0.1, 0.5), detectors=("clairvoyant", "fp"),
                               thresholds_hybrid=tuple(np.linspace(-1.5, 1.5, 7)),
                               thresholds_low=(0.0,))
        rows = run_roc(scenario).rows
        half = len(rows) // 2
        assert [r[1:] for r in rows[:half]] == [r[1:] for r in rows[half:]]

    def test_reconstruction_centroid(self):
        spec = QuantizerSpec(1, (0.0,))
        table = reconstruction_table(spec, 1.0)
        assert table[1] == pytest.approx(2 * 0.3989422804014327, abs=1e-9)
        assert table[0] == pytest.approx(-2 * 0.3989422804014327, abs=1e-9)

    def test_quantized_only_equals_sub_network_statistic(self):
        # The hybrid score is the quantized-only score plus v / sigma_n2 per
        # analog sample, and the information adds the same way.
        full = _kernels(3, 1, (0.0,), 0.0, 2)
        sub = _kernels(3, 1, (0.0,), 0.0, 0)
        levels, analog = (1, 2, 2), (0.4, -0.1)
        hybrid = full.statistic(full.score_sums(levels), sum(analog)) * math.sqrt(full.fisher_info)
        quantized = sub.statistic(sub.score_sums(levels)) * math.sqrt(sub.fisher_info)
        assert hybrid == pytest.approx(quantized + sum(analog) / PARAMS.sigma_n2)
        assert full.fisher_info == pytest.approx(sub.fisher_info + 2 / PARAMS.sigma_n2)

    def test_empty_subset_raises(self):
        with pytest.raises(ValueError):
            RocScenario(m_quantized=2, m_full=0, detectors=("fp",))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RocScenario(detectors=("clairvoyant", "nope"))


class TestReconstructionTable:
    # The 3-bit swarm design of ``roc --preset errorprone`` (seed 20260810):
    # four of its cells are between 6e-16 and 3e-12 wide.
    ERRORPRONE_3BIT = (
        -0.35870825067754725, -0.3587082506775467, 0.020315721306721147,
        0.020315721306773806, 0.02031572130934028, 0.020315721309374486,
        0.36715130256065565,
    )

    @staticmethod
    def _designs():
        yield QuantizerSpec(3, TestReconstructionTable.ERRORPRONE_3BIT), 1.0
        rng = np.random.default_rng(2026)
        for _ in range(40):
            bits = int(rng.integers(1, 4))
            sigma_n = float(rng.uniform(0.5, 2.0))
            tau = np.sort(rng.uniform(-4.0, 4.0, 2**bits - 1)) * sigma_n
            # Squeeze some cells to widths from a few ulps up to past the
            # midpoint cutoff, on both sides of zero.
            for i in range(1, tau.size):
                if rng.random() < 0.5:
                    tau[i] = tau[i - 1] + abs(tau[i - 1]) * 10.0 ** rng.uniform(-15.5, -3.0) + 1e-300
            yield QuantizerSpec(bits, tuple(tau)), sigma_n

    def test_centroids_lie_in_their_cells(self):
        for spec, sigma_n in self._designs():
            table = reconstruction_table(spec, sigma_n)
            edges = spec.edges()
            assert np.all(edges[:-1] <= table) and np.all(table <= edges[1:]), spec

    def test_centroids_match_quadrature(self):
        for spec, sigma_n in self._designs():
            table = reconstruction_table(spec, sigma_n)
            z = spec.edges() / sigma_n
            want = [sigma_n * cell_centroid_quad(a, b) for a, b in zip(z[:-1], z[1:])]
            np.testing.assert_allclose(table, want, rtol=0.0, atol=1e-9, err_msg=str(spec))


class TestDegenerateCells:
    def test_zero_probability_cell_scores_zero(self):
        # A threshold far in the tail underflows one cell's probability to 0
        # over a noiseless channel; its score table entry must be 0, not inf.
        spec = QuantizerSpec(2, (-40.0, 0.0, 40.0))
        score_table = NetworkKernels(spec, 0.0, 1, 0, 1.0).level_scores[1:]
        assert np.all(np.isfinite(score_table))
        assert score_table[0] == 0.0
        assert score_table[-1] == 0.0


class TestNullDistribution:
    def test_statistic_tail_matches_theory(self):
        spec = QuantizerSpec(3, tuple(np.linspace(-1.75, 1.75, 7)))
        kernels = NetworkKernels(spec, 0.0, 80, 20, PARAMS.sigma_n2)
        trials = 5000
        stats = np.empty(trials)
        for t in range(trials):
            rng = trial_rng(123, t)
            y = simulate_observations(PARAMS, Hypothesis.H0, 100, rng)
            levels = quantize_batch(y[:80], spec)
            stats[t] = kernels.statistic(kernels.score_sums(levels), y[80:].sum())
        for eta, tail in ((0.0, 0.5), (1.2816, 0.09997), (2.3263, 0.01)):
            assert np.mean(stats > eta) == pytest.approx(tail, abs=0.015)
