"""Data-plane unit tests: tail functions, codewords, quantization, channels."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybriddet.detection import bsc_kernel
from hybriddet.model import (
    Hypothesis,
    QuantizerSpec,
    SignalParams,
    bsc_corrupt_levels,
    distance_matrix,
    gaussian_pdf,
    gaussian_upper_tail,
    quantize_batch,
    simulate_observations,
    trial_rng,
)

from oracles import upper_tail_quad
from roc_reference import quantize, send_level


class TestGaussianTail:
    def test_reference_points(self):
        assert gaussian_upper_tail(0.0) == pytest.approx(0.5, abs=1e-15)
        assert gaussian_upper_tail(-math.inf) == 1.0
        assert gaussian_upper_tail(math.inf) == 0.0
        assert gaussian_upper_tail(1.0) == pytest.approx(upper_tail_quad(1.0), abs=1e-9)

    def test_symmetry(self):
        x = np.linspace(-8, 8, 401)
        np.testing.assert_allclose(
            gaussian_upper_tail(x) + gaussian_upper_tail(-x), 1.0, atol=1e-12
        )

    def test_strictly_decreasing(self):
        x = np.linspace(-8, 8, 200)
        assert np.all(np.diff(gaussian_upper_tail(x)) < 0)

    def test_matches_quadrature_on_grid(self):
        for x in (-3.5, -1.0, -0.2, 0.7, 2.0, 4.0):
            assert gaussian_upper_tail(x) == pytest.approx(upper_tail_quad(x), abs=1e-9)

    def test_scalars_arrays_and_edges(self):
        assert type(gaussian_upper_tail(1.0)) is np.float64
        assert type(gaussian_upper_tail(np.float64(-2.0))) is np.float64
        assert gaussian_upper_tail(np.array(1.0)) == gaussian_upper_tail(1.0)
        x = np.array([[-math.inf, math.inf, math.nan], [0.0, 1.0, -1.0]])
        tail = gaussian_upper_tail(x)
        assert tail.shape == (2, 3)
        assert tail[0, 0] == 1.0 and tail[0, 1] == 0.0 and math.isnan(tail[0, 2])
        assert tail[1, 0] == 0.5
        np.testing.assert_array_equal(tail[1, 1:], [gaussian_upper_tail(1.0), gaussian_upper_tail(-1.0)])
        assert gaussian_upper_tail(np.zeros((3, 0))).shape == (3, 0)
        pair = gaussian_upper_tail([2.0, 3.0])
        np.testing.assert_array_equal(pair, [gaussian_upper_tail(2.0), gaussian_upper_tail(3.0)])

    def test_within_few_ulp_of_mpmath(self):
        # Each element is ``erfc(x / sqrt(2)) / 2`` at the rounded argument,
        # compared here with that value at 50 digits.  Every result on
        # [-37, 37] is a normal float (the smallest is 5.7e-300).  The grid
        # is dense near x = 24 sqrt(2), where scipy's erfc errs by about
        # 500 ulp.  glibc's erfc reaches 2.05 ulp on this grid (at 33.07).
        x = np.concatenate((np.linspace(-37.0, 37.0, 2961), 24 * math.sqrt(2) + np.linspace(-0.05, 0.05, 201)))
        tail = gaussian_upper_tail(x)
        worst = 0.0
        with mpmath.workdps(50):
            for xi, got in zip(x, tail):
                want = mpmath.erfc(mpmath.mpf(xi / math.sqrt(2))) / 2
                worst = max(worst, float(abs(got - want)) / math.ulp(float(want)))
        assert worst <= 2.5


class TestGaussianPdf:
    def test_reference_points(self):
        assert gaussian_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)
        assert gaussian_pdf(math.inf) == 0.0
        assert gaussian_pdf(-math.inf) == 0.0
        assert gaussian_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-12)

    def test_zero_beyond_the_float_range_of_the_square_without_a_warning(self):
        x = [1e200, -1e200, math.inf, -math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(gaussian_pdf(v) == 0.0 for v in x)
            assert gaussian_pdf(np.array(x)).tolist() == [0.0] * 4

    def test_even(self):
        x = np.linspace(0, 6, 100)
        np.testing.assert_allclose(gaussian_pdf(x), gaussian_pdf(-x), rtol=1e-14)

    def test_is_negative_derivative_of_upper_tail(self):
        h = 1e-5
        x = np.linspace(-5, 5, 101)
        fd = (gaussian_upper_tail(x + h) - gaussian_upper_tail(x - h)) / (2 * h)
        assert np.max(np.abs(fd + gaussian_pdf(x))) <= 1e-6


class TestCodewords:
    """The natural binary codewords, seen through the channel code that uses them."""

    @pytest.mark.parametrize(
        "level,bits,expected",
        [(1, 2, "00"), (4, 2, "11"), (3, 3, "010")],
    )
    def test_natural_mapping(self, level, bits, expected):
        # Distances to every natural codeword pin the codeword of ``level``.
        code = int(expected, 2)
        want = [bin(code ^ j).count("1") for j in range(2**bits)]
        assert list(distance_matrix(bits)[level - 1]) == want

    def test_hamming_distance(self):
        # The codewords of levels 1..4 are 00, 01, 10, 11.
        d = distance_matrix(2)
        assert d[0, 0] == 0
        assert d[0, 3] == 2
        assert d[0, 2] == 1
        assert d[1, 2] == 2
        assert distance_matrix(3)[2, 7] == 2  # 010 against 111

    def test_distance_matrix_symmetric_zero_diagonal(self):
        d = distance_matrix(3)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)


class TestQuantize:
    SPEC = QuantizerSpec(2, (-1.0, 0.0, 1.0))

    @pytest.mark.parametrize("y,expected", [(0.5, 3), (-5.0, 1), (1.0, 4), (-1.0, 2)])
    def test_cases(self, y, expected):
        assert quantize_batch(y, self.SPEC) == expected

    def test_batch_matches_scalar(self):
        # ``quantize`` is the bisecting oracle of ``roc_reference``.
        rng = np.random.default_rng(0)
        y = rng.normal(0, 2, 300)
        batch = quantize_batch(y, self.SPEC)
        assert [quantize(v, self.SPEC) for v in y] == list(batch)

    def test_partition(self):
        rng = np.random.default_rng(1)
        y = np.concatenate([rng.normal(0, 3, 1000), np.array([-1.0, 0.0, 1.0])])
        levels = quantize_batch(y, self.SPEC)
        assert np.all((levels >= 1) & (levels <= 4))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(1, 8),
        # -0.36303 is where the ``roc errorprone`` 3-bit design puts four
        # thresholds within 3 ulps of each other.
        start=st.one_of(st.just(-0.36303), st.floats(-4.0, 4.0)),
        data=st.data(),
    )
    def test_matches_searchsorted(self, bits, start, data):
        # Each gap to the next threshold is a few ulps or an ordinary step.
        gaps = data.draw(st.lists(
            st.one_of(st.integers(1, 3), st.floats(1e-3, 1.0)),
            min_size=2**bits - 2, max_size=2**bits - 2,
        ))
        t = [start]
        for gap in gaps:
            step = gap * abs(float(np.spacing(t[-1]))) if isinstance(gap, int) else gap
            t.append(t[-1] + step)
        spec = QuantizerSpec(bits, t)
        t = np.array(spec.thresholds)
        y = np.concatenate([
            t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), [-np.inf, np.inf, np.nan],
            data.draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20)),
        ])
        want = np.searchsorted(t, y, side="right") + 1
        np.testing.assert_array_equal(quantize_batch(y, spec), want)
        np.testing.assert_array_equal(quantize_batch(y[::-1].reshape(-1, 1), spec), want[::-1].reshape(-1, 1))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            QuantizerSpec(2, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            QuantizerSpec(2, (0.0, 1.0))
        with pytest.raises(ValueError, match="one-dimensional"):
            QuantizerSpec(1, np.array([[0.0]]))


class TestSimulateObservations:
    PARAMS = SignalParams(theta=0.25, sigma_n2=1.0, sigma_h2=0.5)

    def test_null_mean(self):
        y = simulate_observations(self.PARAMS, Hypothesis.H0, 10**6, 123)
        assert abs(y.mean()) <= 0.004

    def test_alternative_variance(self):
        y = simulate_observations(self.PARAMS, Hypothesis.H1, 10**6, 123)
        expected = 0.25**2 * 0.5 + 1.0
        assert y.var() == pytest.approx(expected, rel=0.01)
        assert y.mean() == pytest.approx(0.25, abs=0.005)

    def test_deterministic_given_seed(self):
        a = simulate_observations(self.PARAMS, Hypothesis.H1, 64, 7)
        b = simulate_observations(self.PARAMS, Hypothesis.H1, 64, 7)
        np.testing.assert_array_equal(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SignalParams(theta=0.1, sigma_n2=0.0, sigma_h2=0.5)
        with pytest.raises(ValueError):
            SignalParams(theta=-0.1, sigma_n2=1.0, sigma_h2=0.5)


class TestBsc:
    def test_noiseless_identity(self):
        levels = np.array([[6, 1], [8, 3]])
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        np.testing.assert_array_equal(bsc_corrupt_levels(levels, 3, 0.0, rng), levels)
        assert rng.bit_generator.state == before  # nothing is drawn
        for bits in (1, 2, 3, 4):
            levels = np.arange(1, 2**bits + 1)
            np.testing.assert_array_equal(bsc_corrupt_levels(levels, bits, 0.0, None), levels)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        bits=st.integers(1, 8),
        crossover=st.sampled_from((0.05, 0.3, 0.5)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_bit_level_oracle(self, bits, crossover, seed, data):
        levels = np.array(data.draw(st.lists(st.integers(1, 2**bits), min_size=1, max_size=12)))
        received = bsc_corrupt_levels(levels, bits, crossover, np.random.default_rng(seed))
        # The contract: one uniform per bit, shape ``levels.shape + (bits,)``.
        flips = np.random.default_rng(seed).random(levels.shape + (bits,)) < crossover
        want = [send_level(int(lv), bits, f) for lv, f in zip(levels, flips)]
        assert received.tolist() == want

    def test_intact_codeword_rate(self):
        levels = np.full(10**6, 4)
        received = bsc_corrupt_levels(levels, 2, 0.2, np.random.default_rng(42))
        frac = np.mean(received == 4)
        assert frac == pytest.approx(0.64, abs=0.002)

    def test_symmetric_limit(self):
        levels = np.full(10**6, 1)
        received = bsc_corrupt_levels(levels, 1, 0.5, np.random.default_rng(3))
        assert np.mean(received == 2) == pytest.approx(0.5, abs=0.002)

    def test_crossover_validation(self):
        with pytest.raises(ValueError):
            bsc_kernel(1, 0.6)


class TestDrawContract:
    """What one ROC block draws, pinned to explicit formulas on a twin generator.

    ``roc_reference.per_trial_roc`` draws its observations through
    ``simulate_observations``, as ``run_roc`` does, so it cannot see a
    change in what these functions draw; these tests can.
    """

    @pytest.mark.parametrize("sigma_n2, sigma_h2", [(1.0, 0.5), (2.0, 0.0), (0.3, 1.7)])
    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_observations(self, hypothesis, sigma_n2, sigma_h2):
        params = SignalParams(0.37, sigma_n2, sigma_h2)
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        y = simulate_observations(params, hypothesis, 5000, rng)
        if hypothesis is Hypothesis.H0:
            want = twin.normal(0.0, math.sqrt(sigma_n2), 5000)
        else:
            # One normal per sample, from the compound law of ``0.37 * h + w``.
            want = twin.normal(0.37, math.hypot(0.37 * math.sqrt(sigma_h2), math.sqrt(sigma_n2)), 5000)
        np.testing.assert_array_equal(y, want)
        assert rng.bit_generator.state == twin.bit_generator.state

    # Each id names the codeword that the expected levels are built from.
    @pytest.mark.parametrize("bits", [1, 2, 3, 4], ids=lambda bits: f"{bits}-natural")
    def test_flips(self, bits):
        # Levels shaped as a block: one row of sensors per trial.
        levels = np.random.default_rng(bits).integers(1, 2**bits + 1, (37, 11))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        received = bsc_corrupt_levels(levels, bits, 0.2, rng)
        # One uniform per codeword bit; entry ``k`` flips the bit of weight ``2**k``.
        flips = twin.random(levels.shape + (bits,)) < 0.2
        code = levels - 1
        for k in range(bits):
            code = code ^ (flips[..., k].astype(int) << k)
        np.testing.assert_array_equal(received, code + 1)
        assert rng.bit_generator.state == twin.bit_generator.state


class TestObservationLaw:
    """The law of the H1 draws, ``theta * h + w`` with ``h ~ N(1, sigma_h2)``
    and ``w ~ N(0, sigma_n2)``, checked by its moments rather than by the
    formula the draw uses, so that a scale slip written the same way in the
    draw and in ``TestDrawContract`` cannot pass."""

    @pytest.mark.parametrize("sigma_n2, sigma_h2", [(1.0, 0.5), (2.0, 0.0), (0.3, 1.7)])
    def test_h1_law(self, sigma_n2, sigma_h2):
        theta, n = 0.8, 10**6
        y = simulate_observations(SignalParams(theta, sigma_n2, sigma_h2), Hypothesis.H1, n, np.random.default_rng(7))
        var = theta**2 * sigma_h2 + sigma_n2
        # The sample variance of n normals has variance 2 var**2 / (n - 1).
        assert abs(y.mean() - theta) <= 5 * math.sqrt(var / n)
        assert abs(y.var(ddof=1) - var) <= 5 * var * math.sqrt(2 / (n - 1))

    def test_h1_draws_stay_finite_at_huge_theta(self):
        # ``theta**2 * sigma_h2`` overflows at this theta; the scale must not.
        params = SignalParams(1e300, 1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = simulate_observations(params, Hypothesis.H1, 1000, np.random.default_rng(3))
        assert np.all(np.isfinite(y))


class TestTrialRng:
    def test_reproducible_and_distinct(self):
        a = trial_rng(9, 0, 5).normal(size=4)
        b = trial_rng(9, 0, 5).normal(size=4)
        c = trial_rng(9, 0, 6).normal(size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
