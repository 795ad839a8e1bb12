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
    "bsc_kernel",
    "cell_tables",
    "received_information",
    "likelihood_kernels",
    "fisher_information",
    "threshold_for_pfa",
    "theoretical_pd",
    "reconstruction_table",
]

logger = logging.getLogger(__name__)


def cell_tables(thresholds, sigma_n: float) -> tuple[np.ndarray, np.ndarray]:
    """Noise-only cell probabilities and score weights, indexed by ``level - 1``.

    ``thresholds`` is one sorted threshold vector or rows of them; the
    tables run along the last axis.  Each probability comes from the upper
    tails on its cell's own side of zero, one tail per edge, so no two
    numbers close to 1 are subtracted and cells far in the lower tail keep
    their relative precision.  The score weights
    ``sigma_n**2 * (pdf(z[j-1]) - pdf(z[j]))`` telescope to zero; divided
    by ``sigma_n**3`` they are the amplitude-derivative of the log cell
    probability at zero.
    """
    tau = np.asarray(thresholds, dtype=float)
    pad = np.full(tau.shape[:-1] + (1,), np.inf)
    z = np.concatenate((-pad, tau, pad), axis=-1) / sigma_n
    tail = gaussian_upper_tail(np.abs(z))
    lo, hi = tail[..., :-1], tail[..., 1:]
    probs = np.where(
        z[..., :-1] >= 0.0, lo - hi, np.where(z[..., 1:] <= 0.0, hi - lo, 1.0 - lo - hi)
    )
    dens = gaussian_pdf(z)
    return probs, sigma_n**2 * (dens[..., :-1] - dens[..., 1:])


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


def received_information(
    probs: np.ndarray, scores: np.ndarray, kernel: np.ndarray, sigma_n: float
) -> tuple:
    """Pass cell tables through the channel: ``(received, numerators, information)``.

    ``probs`` and ``scores`` are cell tables (one row or rows) and
    ``kernel`` the channel's :func:`bsc_kernel`.  The information of a row
    is ``sum_k numerators[k]**2 / received[k] / sigma_n**6``; received
    levels of probability 0 contribute nothing.
    """
    received = probs @ kernel.T
    numerators = scores @ kernel.T
    live = received > 0.0
    terms = np.where(live, numerators**2 / np.where(live, received, 1.0), 0.0)
    return received, numerators, terms.sum(axis=-1) / sigma_n**6


@dataclass(frozen=True)
class LikelihoodKernels:
    """Precomputed per-sensor tables for one quantizer/channel pair.

    ``received_probs`` and ``score_table`` are indexed by received level;
    ``score_table`` is the per-received-level contribution to the
    unnormalized statistic and ``fi_contribution`` the sensor's share of
    the Fisher information.
    """

    received_probs: np.ndarray
    score_table: np.ndarray
    fi_contribution: float


def likelihood_kernels(
    quantizer: QuantizerSpec,
    channel: ChannelSpec,
    sigma_n: float,
    mapping: str = DEFAULT_MAPPING,
) -> LikelihoodKernels:
    """Build all zero-amplitude tables for one quantized sensor."""
    probs, scores = cell_tables(quantizer.thresholds, sigma_n)
    kernel = bsc_kernel(quantizer.bits, channel.crossover, mapping)
    received, numerators, fi = received_information(probs, scores, kernel, sigma_n)
    live = received > 0.0
    if not np.all(live):
        logger.warning(
            "quantizer has %d received levels with zero probability; "
            "their score contribution is defined as 0",
            int(np.count_nonzero(~live)),
        )
    score_table = np.where(live, numerators / np.where(live, received, 1.0), 0.0)
    return LikelihoodKernels(received, score_table / sigma_n**3, float(fi))


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
        self.groups = tuple(
            (np.array(idx), table_for[key].score_table) for key, idx in groups.items()
        )
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


def fisher_information(config: NetworkConfig, mapping: str = DEFAULT_MAPPING) -> float:
    """Zero-amplitude Fisher information of the whole network.

    Additive over sensors: quantized sensors contribute their kernel sum,
    each full-precision sensor contributes ``1 / sigma_n2``.
    """
    return NetworkKernels(config, mapping).fisher_info


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
    with ``P(cell)`` from :func:`cell_tables`; near-empty cells use their
    midpoint (see ``_CENTROID_MIN_WIDTH``).  Every centroid lies in its
    cell.  Used by the reconstruction baseline, which decodes each received
    level to its centroid without attempting any channel correction.
    """
    edges = quantizer.edges()
    lo, hi = edges[:-1], edges[1:]
    z_lo, z_hi = lo / sigma_n, hi / sigma_n
    mass, _ = cell_tables(quantizer.thresholds, sigma_n)
    narrow = hi - lo < _CENTROID_MIN_WIDTH * sigma_n
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = sigma_n * (gaussian_pdf(z_lo) - gaussian_pdf(z_hi)) / mass
    return np.where(narrow, 0.5 * (lo + hi), centroid)
