"""Sensor-side data plane: observation synthesis, multi-bit quantization,
and binary-symmetric-channel transport of natural-binary codewords.

The network watches for a weak nonnegative amplitude that arrives through a
unit-mean Gaussian multiplicative gain on top of additive Gaussian noise.
Gain and noise are independent Gaussians, so each observation is Gaussian
too, and it is drawn from that compound law with one standard normal.
Low-rate sensors quantize each sample into one of ``2**q`` levels, encode
level ``i`` as the ``q``-bit natural binary codeword of ``i - 1``, and
report it over an error-prone binary symmetric channel.  Full-precision sensors report the raw sample over a
reliable link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_BITS",
    "GAUSSIAN_REACH",
    "Hypothesis",
    "SignalParams",
    "QuantizerSpec",
    "gaussian_upper_tail",
    "gaussian_pdf",
    "distance_matrix",
    "simulate_observations",
    "quantize_batch",
    "bsc_corrupt_levels",
    "trial_rng",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Deepest quantizer the package builds.  Tables grow as ``2**bits`` (the
#: channel kernel as ``4**bits``), so a deeper request is refused where it
#: enters instead of exhausting memory.
MAX_BITS = 8

#: Noise deviations at which the Gaussian upper tail leaves the normal
#: doubles: tail(37.5) = 4.6e-308, tail(38) = 2.9e-316 is subnormal and
#: tail(38.5) is 0.  A standard normal draw lies beyond it with probability
#: below 1e-307, and a threshold beyond it cuts off no representable mass.
GAUSSIAN_REACH = 37.5


def check_bits(name: str, bits: int) -> None:
    """Reject a bit depth outside ``1..MAX_BITS``."""
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"{name} must lie in [1, {MAX_BITS}], got {bits}")


def check_sigma_n2(sigma_n2: float, sensors: int = 1) -> None:
    """Reject a noise variance that is not positive, or so small that the
    information of ``sensors`` full-precision sensors, ``sensors / sigma_n2``,
    overflows."""
    if not sigma_n2 > 0:
        raise ValueError("sigma_n2 must be positive")
    if not math.isfinite(sensors / sigma_n2):
        raise ValueError(
            f"sigma_n2 = {sigma_n2!r} is too small: {sensors} / sigma_n2, the information "
            f"of {sensors} full-precision sensor{'s' * (sensors != 1)}, overflows"
        )


def gaussian_upper_tail(x):
    """Upper-tail probability ``P(X > x)`` of a standard normal variable.

    Strictly decreasing, exactly 1 at ``-inf`` and 0 at ``+inf``; NaN stays
    NaN.  Accepts floats (giving a scalar) or arrays (an array of the same
    shape).  All tail probabilities in this package use this convention,
    not the CDF.  Each element is one call of libm's ``erfc`` at
    ``x / sqrt(2)``; glibc's stays within about 2 ulp of the exact value
    over the normal range.
    """
    x = np.asarray(x, dtype=float) / _SQRT2
    tail = np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)
    tail *= 0.5
    return tail[()]


def gaussian_pdf(x):
    """Standard normal density; even, and 0 at ``+/-inf``."""
    with np.errstate(over="ignore"):  # a square beyond the float range: exp(-inf) is the exact 0
        return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


class Hypothesis(Enum):
    """Truth state of a simulated trial: noise only, or signal present."""

    H0 = "h0"
    H1 = "h1"


@dataclass(frozen=True)
class SignalParams:
    """Amplitude and noise parameters shared by every sensor.

    ``theta`` is the (weak, nonnegative) amplitude under the alternative,
    ``sigma_n2`` the additive-noise variance, and ``sigma_h2`` the variance
    of the unit-mean multiplicative gain.
    """

    theta: float
    sigma_n2: float
    sigma_h2: float

    def __post_init__(self):
        check_sigma_n2(self.sigma_n2)
        if self.sigma_h2 < 0:
            raise ValueError("sigma_h2 must be nonnegative")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative (one-sided test)")

    @property
    def sigma_n(self) -> float:
        return math.sqrt(self.sigma_n2)


@dataclass(frozen=True)
class QuantizerSpec:
    """A ``bits``-bit scalar quantizer defined by its interior thresholds.

    The ``2**bits - 1`` thresholds must be one-dimensional, finite and
    strictly increasing; with the implicit sentinels at ``-inf`` and ``+inf``
    they partition the real line into half-open cells ``[t[i-1], t[i])``.
    """

    bits: int
    thresholds: tuple[float, ...]

    def __post_init__(self):
        check_bits("bits", self.bits)
        if np.ndim(self.thresholds) != 1:
            raise ValueError("thresholds must be one-dimensional")
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if len(self.thresholds) != 2**self.bits - 1:
            raise ValueError(
                f"expected {2**self.bits - 1} thresholds for {self.bits} bits, "
                f"got {len(self.thresholds)}"
            )
        diffs = np.diff(self.thresholds)
        if len(diffs) and not np.all(diffs > 0):
            raise ValueError("thresholds must be strictly increasing")
        if not np.all(np.isfinite(self.thresholds)):
            raise ValueError("thresholds must be finite")

    def edges(self) -> np.ndarray:
        """Cell edges including the infinite sentinels."""
        return np.concatenate(([-np.inf], self.thresholds, [np.inf]))


@lru_cache(maxsize=None)
def distance_matrix(bits: int) -> np.ndarray:
    """Pairwise Hamming distances between the codewords of all levels.

    Level ``i`` sends the natural binary codeword of ``i - 1``, so entry
    ``(i - 1, j - 1)`` is the popcount of ``(i - 1) ^ (j - 1)``.
    """
    index = np.arange(2**bits)
    return np.vectorize(lambda v: bin(v).count("1"))(index[:, None] ^ index)


def quantize_batch(y, spec: QuantizerSpec) -> np.ndarray:
    """Level ``i`` with ``t[i-1] <= y < t[i]`` for each sample of ``y``.

    Levels run from 1 to ``2**bits``; a sample on a threshold goes up, and
    NaN goes to the top level, as with ``np.searchsorted(side="right")``.
    """
    # Binary search, one level bit per pass from the top: ``prefix`` holds
    # the bits found so far, and pass ``k`` compares each sample with the
    # middle threshold of its group, ``t[prefix * 2**(k+1) + 2**k - 1]``.
    # ``~(y < t)``, not ``y >= t``, so that NaN compares as above.
    y = np.asarray(y)
    t = np.asarray(spec.thresholds)
    top = spec.bits - 1
    prefix = (~(y < t[(1 << top) - 1])).astype(np.intp)
    for k in reversed(range(top)):
        above = ~(y < t[(1 << k) - 1 :: 1 << (k + 1)].take(prefix))
        prefix += prefix
        prefix += above
    return prefix + 1


def simulate_observations(
    params: SignalParams,
    hypothesis: Hypothesis,
    count: int,
    rng,
) -> np.ndarray:
    """Draw ``count`` independent sensor observations under one hypothesis.

    Under the null each sample is pure additive noise, ``N(0, sigma_n2)``.
    Under the alternative the amplitude is scaled by an independent
    unit-mean gain before the noise is added, ``y = theta * h + w``, so
    ``y`` is exactly ``N(theta, theta**2 * sigma_h2 + sigma_n2)``; each
    sample is drawn from that law directly, one standard normal per sample
    under either hypothesis.  ``rng`` may be an integer seed or a numpy
    ``Generator``; identical seeds give identical sequences.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(rng)
    # ``rng.normal(loc, scale)`` computes ``loc + scale * z`` from a standard
    # normal ``z``; scaling standard normals in place gives the same numbers
    # without a call per sample.  Under the null ``loc`` is 0.
    y = rng.standard_normal(count)
    if hypothesis is Hypothesis.H0:
        y *= params.sigma_n
        return y
    # ``hypot``, not the square root of the variance: ``theta**2`` overflows
    # long before ``theta * sigma_h`` does.
    y *= math.hypot(params.theta * math.sqrt(params.sigma_h2), params.sigma_n)
    y += params.theta
    return y


def bsc_corrupt_levels(levels, bits: int, crossover: float, rng) -> np.ndarray:
    """Send an array of levels through the channel; returns received levels.

    Encodes each level as its ``bits``-bit codeword, draws one uniform per
    codeword bit (shape ``levels.shape + (bits,)``; entry ``k`` goes with
    the bit of weight ``2**k``), flips the bits whose uniform falls below
    the crossover probability, and decodes.  With ``crossover == 0`` no
    randomness is consumed.
    """
    index = np.asarray(levels, dtype=np.intp) - 1
    if crossover > 0:
        flips = (np.random.default_rng(rng).random(index.shape + (bits,)) < crossover).view(np.uint8)
        mask = flips[..., bits - 1]
        for k in reversed(range(bits - 1)):  # mask = 2 * mask + flips[..., k]
            mask = mask + mask
            mask += flips[..., k]
        # The codeword of level index ``i`` is ``i`` itself, so flipping its
        # bits ``mask`` gives level index ``i ^ mask`` without decoding.
        index ^= mask
    index += 1
    return index


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible stream for one unit of Monte Carlo work.

    The stream is a pure function of ``(seed, key)``; distinct keys give
    statistically independent generators.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
