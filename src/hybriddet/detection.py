"""Fusion-center side: the cell and channel tables, Fisher information,
the hybrid weak-signal test statistic, its asymptotic ROC theory, and the
cell centroids of the reconstruction baseline.

``NetworkKernels`` is the locally most powerful test (LMPT) of one fleet:
it sums the received-level scores of the quantized sensors and
``y / sigma_n2`` over the analog sensors, and divides by the square root
of the fleet's Fisher information.  ``experiments.run_roc`` scores each
block of trials' level counts with ``level_scores`` and hands the sums,
with its analog sums, to ``NetworkKernels.statistic``.

All kernels are evaluated at amplitude zero, where the locally optimal
statistic lives.  Thresholds scale with the noise deviation ``sigma_n``,
scores with ``1 / sigma_n`` and information with ``1 / sigma_n2``, so the
cell tables and the information sum work for unit noise only, and the
quantized-sensor score is divided by ``sigma_n`` once (its information by
``sigma_n2``): the summed score has variance exactly equal to the
Fisher information at any noise level; see the variance-identity tests.
"""

from __future__ import annotations

import logging
import math
from statistics import NormalDist

import numpy as np

from .model import QuantizerSpec, distance_matrix, gaussian_pdf, gaussian_upper_tail

__all__ = [
    "NetworkKernels",
    "bsc_kernel",
    "cell_tables",
    "received_information",
    "threshold_for_pfa",
    "theoretical_pd",
    "reconstruction_table",
]

logger = logging.getLogger(__name__)


def cell_tables(z) -> tuple[np.ndarray, np.ndarray]:
    """Unit-noise cell probabilities and score weights, indexed by ``level - 1``.

    ``z`` is one sorted vector of thresholds in units of the noise
    deviation, or rows of them; the tables run along the last axis.  Each
    probability comes from the upper tails on its cell's own side of zero,
    one tail per edge, so no two numbers close to 1 are subtracted and
    cells far in the lower tail keep their relative precision.  The score
    weights ``pdf(z[j-1]) - pdf(z[j])`` telescope to zero; divided by the
    cell probability they are the amplitude-derivative of the log cell
    probability at zero, for unit noise.
    """
    rows = np.asarray(z, dtype=float)
    # Edges run along the first axis here, so that each neighbour slice is
    # one contiguous block: numpy loops over a last axis of a few entries
    # element group by element group.  The tables go back to the caller's
    # layout at the end; every element is computed as in that layout.
    z = np.empty((rows.shape[-1] + 2,) + rows.shape[:-1])
    z[0], z[-1] = -np.inf, np.inf
    z[1:-1] = rows.transpose(-1, *range(rows.ndim - 1))
    # The tails at the infinite edges are exactly 0; only the interior
    # thresholds need a tail evaluation.
    tail = np.zeros_like(z)
    tail[1:-1] = gaussian_upper_tail(np.abs(z[1:-1]))
    lo, hi = tail[:-1], tail[1:]
    probs = np.where(z[:-1] >= 0.0, lo - hi, np.where(z[1:] <= 0.0, hi - lo, 1.0 - lo - hi))
    dens = gaussian_pdf(z)
    scores = dens[:-1] - dens[1:]
    back = (*range(1, rows.ndim), 0)
    return probs.transpose(back).copy(), scores.transpose(back).copy()


def bsc_kernel(bits: int, p_e: float) -> np.ndarray:
    """Level transition matrix of the binary symmetric channel.

    Entry ``(i, j)`` is the probability of receiving the codeword of level
    ``i`` when level ``j`` was sent: ``p_e**D * (1 - p_e)**(bits - D)`` with
    ``D`` the Hamming distance between the two codewords.  Doubly
    stochastic.
    """
    if not 0.0 <= p_e <= 0.5:
        raise ValueError("p_e must lie in [0, 0.5]")
    dist = distance_matrix(bits)
    return np.power(p_e, dist) * np.power(1.0 - p_e, bits - dist)


def received_information(probs: np.ndarray, scores: np.ndarray, kernel: np.ndarray) -> tuple:
    """Pass cell tables through the channel: ``(received, numerators, information)``.

    ``probs`` and ``scores`` are unit-noise cell tables (one row or rows)
    and ``kernel`` the channel's :func:`bsc_kernel`, or one kernel per row.
    The unit-noise information of a row is ``sum_k numerators[k]**2 /
    received[k]``; received levels of probability 0 contribute nothing.
    The channel sums run level by level, so a row's value does not depend
    on how many rows share the call (a BLAS product rounds one row and a
    batch differently).  Both tables are stacked and pass through the
    kernel together, one sent level at a time, so no temporary is larger
    than the result.
    """
    tables = np.stack((probs, scores))
    # After the stacking axis, give the tables the kernel batch axes they lack.
    tables = tables.reshape((2,) + (1,) * (kernel.ndim - 1 - probs.ndim) + tables.shape[1:])
    sums = tables[..., 0, None] * kernel[..., 0]
    for j in range(1, kernel.shape[-1]):
        sums += tables[..., j, None] * kernel[..., j]
    received, numerators = sums
    live = received > 0.0
    terms = np.where(live, numerators**2 / np.where(live, received, 1.0), 0.0)
    return received, numerators, terms.sum(axis=-1)


class NetworkKernels:
    """The locally most powerful detector of one fleet, read-only across trials.

    The fleet has ``m_q`` sensors that share ``quantizer`` and a channel of
    crossover ``p_e``, and ``m_u`` analog sensors; its ``fisher_info`` adds
    over the sensors.  ``level_scores`` holds one sensor's score for each
    received level, indexed by the level itself (entry 0 is never read), and
    ``received_probs`` the noise-only probability of each received level.
    """

    def __init__(
        self,
        quantizer: QuantizerSpec,
        p_e: float,
        m_q: int,
        m_u: int,
        sigma_n2: float,
    ):
        sigma_n = math.sqrt(sigma_n2)
        probs, scores = cell_tables(np.divide(quantizer.thresholds, sigma_n))
        kernel = bsc_kernel(quantizer.bits, p_e)
        received, numerators, fi = received_information(probs, scores, kernel)
        live = received > 0.0
        if not np.all(live):
            logger.warning(
                "quantizer has %d received levels with zero probability; "
                "their score contribution is defined as 0",
                int(np.count_nonzero(~live)),
            )
        score_table = np.where(live, numerators / np.where(live, received, 1.0), 0.0)
        self.level_scores = np.concatenate(([0.0], score_table / sigma_n))
        self.received_probs = received
        self.sigma_n2 = sigma_n2
        self.fisher_info = float(fi / sigma_n / sigma_n) * m_q + m_u / sigma_n2

    def score_sums(self, levels) -> np.ndarray | float:
        """Sum of the quantized sensors' scores over the last axis of ``levels``."""
        # Indexing gathers the scores into a new contiguous sensor axis, so
        # each trial of a batch is summed in the same order as a single trial.
        return self.level_scores[np.asarray(levels, dtype=np.intp)].sum(axis=-1)

    def statistic(self, score_sums, analog_sums=None) -> np.ndarray | float:
        """Normalized statistic; asymptotically standard normal under the null.

        ``score_sums`` are the quantized sensors' :meth:`score_sums` and
        ``analog_sums`` the sums of the analog observations, one per trial;
        without analog sums only the quantized scores are normalized.
        """
        if self.fisher_info <= 0.0:
            raise ValueError("Fisher information is zero; statistic undefined")
        if analog_sums is not None:
            score_sums = score_sums + analog_sums / self.sigma_n2
        return score_sums / math.sqrt(self.fisher_info)


_STANDARD_NORMAL = NormalDist()


def threshold_for_pfa(p_fa: float) -> float:
    """Decision threshold whose upper-tail probability equals ``p_fa``.

    The quantile is Wichura's AS 241 (``statistics.NormalDist.inv_cdf``),
    within 2 ulp of the exact value over the pfa grids used here.
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie strictly inside (0, 1)")
    return -_STANDARD_NORMAL.inv_cdf(p_fa)


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
    with ``z`` the edges over ``sigma_n`` and ``P(cell)`` from :func:`cell_tables`;
    near-empty cells use their midpoint (see ``_CENTROID_MIN_WIDTH``).  Every
    centroid lies in its cell.  Used by the reconstruction baseline, which
    decodes each received level to its centroid without attempting any
    channel correction.
    """
    z = quantizer.edges() / sigma_n
    lo, hi = z[:-1], z[1:]
    mass, scores = cell_tables(z[1:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = scores / mass
    return np.where(hi - lo < _CENTROID_MIN_WIDTH, 0.5 * (lo + hi), centroid) * sigma_n
