"""Fusion-center side: likelihood kernels, Fisher information, the hybrid
weak-signal test statistic, its asymptotic ROC theory, and the cell
centroids of the reconstruction baseline.

The detectors themselves are assembled from these tables, one block of
trials at a time, by ``experiments.run_roc``.

All kernels are evaluated at amplitude zero, where the locally optimal
statistic lives.  The quantized-sensor score divides by ``sigma_n**3`` (and
the information sum by ``sigma_n**6``) so that the unnormalized score has
variance exactly equal to the Fisher information for any noise level; see
the variance-identity tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .model import (
    DEFAULT_MAPPING,
    NetworkConfig,
    QuantizerSpec,
    ChannelSpec,
    distance_matrix,
    gaussian_pdf,
    gaussian_upper_tail,
)

__all__ = [
    "LikelihoodKernels",
    "NetworkKernels",
    "bin_probs",
    "bin_scores",
    "bsc_kernel",
    "likelihood_kernels",
    "fisher_information",
    "network_kernels",
    "threshold_for_pfa",
    "theoretical_pd",
    "reconstruction_table",
]

logger = logging.getLogger(__name__)


def bin_probs(spec: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Noise-only probability of each quantizer cell; sums to 1.

    Each cell's mass comes from the upper tails on its own side of zero, so
    no two numbers close to 1 are subtracted and cells far in the lower
    tail keep their relative precision.
    """
    z = spec.edges() / sigma_n
    z_lo, z_hi = z[:-1], z[1:]
    return np.where(
        z_lo >= 0.0,
        gaussian_upper_tail(z_lo) - gaussian_upper_tail(z_hi),
        np.where(
            z_hi <= 0.0,
            gaussian_upper_tail(-z_hi) - gaussian_upper_tail(-z_lo),
            1.0 - gaussian_upper_tail(-z_lo) - gaussian_upper_tail(z_hi),
        ),
    )


def bin_scores(spec: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Per-cell score weights ``sigma_n**2 * (pdf(z[j-1]) - pdf(z[j]))``.

    Telescoping makes them sum to zero; dividing by ``sigma_n**3`` turns
    them into the amplitude-derivative of the log cell probability at zero.
    """
    z = spec.edges() / sigma_n
    dens = gaussian_pdf(z)
    return sigma_n**2 * (dens[:-1] - dens[1:])


def bsc_kernel(bits: int, p_e: float, mapping: str = DEFAULT_MAPPING) -> np.ndarray:
    """Level transition matrix of the binary symmetric channel.

    Entry ``(i, j)`` is the probability of receiving the codeword of level
    ``i`` when level ``j`` was sent: ``p_e**D * (1 - p_e)**(bits - D)`` with
    ``D`` the Hamming distance between the two codewords.  Doubly
    stochastic for any bijective mapping.
    """
    if not 0.0 <= p_e <= 0.5:
        raise ValueError("p_e must lie in [0, 0.5]")
    dist = distance_matrix(bits, mapping)
    return np.power(p_e, dist) * np.power(1.0 - p_e, bits - dist)


@dataclass(frozen=True)
class LikelihoodKernels:
    """Precomputed per-sensor tables for one quantizer/channel pair.

    ``received_probs`` and ``score_numerators`` are indexed by received
    level; ``score_table`` is the per-received-level contribution to the
    unnormalized statistic and ``fi_contribution`` the sensor's share of
    the Fisher information.
    """

    bin_probs: np.ndarray
    bin_scores: np.ndarray
    bsc_matrix: np.ndarray
    received_probs: np.ndarray
    score_numerators: np.ndarray
    score_table: np.ndarray
    fi_contribution: float


def likelihood_kernels(
    quantizer: QuantizerSpec,
    channel: ChannelSpec,
    sigma_n: float,
    mapping: str = DEFAULT_MAPPING,
) -> LikelihoodKernels:
    """Build all zero-amplitude tables for one quantized sensor."""
    probs = bin_probs(quantizer, sigma_n)
    scores = bin_scores(quantizer, sigma_n)
    kernel = bsc_kernel(quantizer.bits, channel.crossover, mapping)
    received = kernel @ probs
    numerators = kernel @ scores
    live = received > 0.0
    if not np.all(live):
        logger.warning(
            "quantizer has %d received levels with zero probability; "
            "their score contribution is defined as 0",
            int(np.count_nonzero(~live)),
        )
    score_table = np.where(live, numerators / np.where(live, received, 1.0), 0.0)
    score_table = score_table / sigma_n**3
    fi = float(np.sum(np.where(live, numerators**2 / np.where(live, received, 1.0), 0.0)))
    fi /= sigma_n**6
    return LikelihoodKernels(
        bin_probs=probs,
        bin_scores=scores,
        bsc_matrix=kernel,
        received_probs=received,
        score_numerators=numerators,
        score_table=score_table,
        fi_contribution=fi,
    )


class NetworkKernels:
    """Per-configuration tables shared read-only across Monte Carlo trials.

    Sensors with identical quantizer/channel pairs share one score table;
    ``unnormalized_scores`` accepts either a single trial (1-D levels) or a
    batch (levels with a leading trial axis).
    """

    def __init__(self, config: NetworkConfig, mapping: str = DEFAULT_MAPPING):
        sigma_n = config.params.sigma_n
        groups: dict[tuple, list[int]] = {}
        table_for: dict[tuple, LikelihoodKernels] = {}
        for pos, sensor in enumerate(config.quantized):
            key = (
                sensor.quantizer.bits,
                sensor.quantizer.thresholds,
                sensor.channel.crossover,
            )
            if key not in table_for:
                table_for[key] = likelihood_kernels(
                    sensor.quantizer, sensor.channel, sigma_n, mapping
                )
            groups.setdefault(key, []).append(pos)
        self.config = config
        self.mapping = mapping
        self.sigma_n = sigma_n
        self.groups = tuple(
            (np.array(idx), table_for[key].score_table) for key, idx in groups.items()
        )
        self.kernels = tuple(table_for.values())
        quantized_fi = sum(
            table_for[key].fi_contribution * len(idx) for key, idx in groups.items()
        )
        self.fisher_info = quantized_fi + config.m_u / config.params.sigma_n2

    def unnormalized_scores(self, levels, analog) -> np.ndarray | float:
        """Zero-amplitude score; ``levels``/``analog`` may carry a batch axis."""
        levels = np.asarray(levels)
        analog = np.asarray(analog, dtype=float)
        total = 0.0
        for idx, table in self.groups:
            # ``take`` keeps the sensor axis contiguous, so each trial of a
            # batch is summed in the same order as a single trial.
            total = total + table[np.take(levels, idx, axis=-1) - 1].sum(axis=-1)
        if analog.size:
            total = total + analog.sum(axis=-1) / self.config.params.sigma_n2
        return total

    def statistic(self, levels, analog) -> np.ndarray | float:
        """Normalized statistic; asymptotically standard normal under the null."""
        if self.fisher_info <= 0.0:
            raise ValueError("Fisher information is zero; statistic undefined")
        return self.unnormalized_scores(levels, analog) / math.sqrt(self.fisher_info)


def network_kernels(config: NetworkConfig, mapping: str = DEFAULT_MAPPING) -> NetworkKernels:
    return NetworkKernels(config, mapping)


def fisher_information(config: NetworkConfig, mapping: str = DEFAULT_MAPPING) -> float:
    """Zero-amplitude Fisher information of the whole network.

    Additive over sensors: quantized sensors contribute their kernel sum,
    each full-precision sensor contributes ``1 / sigma_n2``.
    """
    return network_kernels(config, mapping).fisher_info


def threshold_for_pfa(p_fa: float) -> float:
    """Decision threshold whose upper-tail probability equals ``p_fa``."""
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie strictly inside (0, 1)")
    return float(-special.ndtri(p_fa))


def theoretical_pd(lam: float, eta: float) -> float:
    """Asymptotic detection probability at threshold ``eta``.

    The statistic is asymptotically normal with unit variance and mean
    ``lam`` under the alternative, so this is the upper tail of
    ``N(lam, 1)`` above ``eta``.
    """
    return float(gaussian_upper_tail(eta - lam))


#: Cells narrower than this many noise standard deviations decode to their
#: midpoint.  The centroid formula divides two differences that cancel to
#: rounding noise as the width goes to 0 (about ``1e-16 / width``), while
#: the midpoint is off by at most ``width**2 * |z| / 12``.
_CENTROID_MIN_WIDTH = 1e-5


def reconstruction_table(quantizer: QuantizerSpec, sigma_n: float) -> np.ndarray:
    """Noise-only conditional cell centroids, indexed by level.

    ``E[y | level, noise only] = sigma_n * (pdf(z[j-1]) - pdf(z[j])) / P(cell)``,
    with ``P(cell)`` from :func:`bin_probs`; near-empty cells use their
    midpoint (see ``_CENTROID_MIN_WIDTH``).  Every centroid lies in its
    cell.  Used by the reconstruction baseline, which decodes each received
    level to its centroid without attempting any channel correction.
    """
    edges = quantizer.edges()
    lo, hi = edges[:-1], edges[1:]
    z_lo, z_hi = lo / sigma_n, hi / sigma_n
    mass = bin_probs(quantizer, sigma_n)
    narrow = hi - lo < _CENTROID_MIN_WIDTH * sigma_n
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = sigma_n * (gaussian_pdf(z_lo) - gaussian_pdf(z_hi)) / mass
    return np.where(narrow, 0.5 * (lo + hi), centroid)
