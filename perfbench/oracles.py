"""Reference computations the benchmark checks the program against.

Nothing here imports ``hybriddet``.  Cell probabilities and first moments
come from adaptive quadrature of the Gaussian density, the channel is an
explicit Hamming-weight matrix of the natural binary code, and the Monte
Carlo reference draws its own streams.  Information is derived from first
principles: with ``y ~ N(theta*h, sigma^2)`` and ``E[h] = 1``, the cell
probability ``P_j(theta)`` has derivative ``m_j / sigma^2`` at zero, where
``m_j`` is the cell's first moment under the null.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _density(y: float, sigma: float) -> float:
    z = y / sigma
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z) / sigma


def cell_moments(thresholds, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Null probability ``p_j`` and first moment ``m_j`` of every cell, by quadrature."""
    sigma = math.sqrt(sigma2)
    edges = [-math.inf, *(float(t) for t in thresholds), math.inf]
    probs, moments = [], []
    for lo, hi in zip(edges, edges[1:]):
        p, _ = integrate.quad(_density, lo, hi, args=(sigma,), epsabs=1e-15, epsrel=1e-13)
        m, _ = integrate.quad(lambda y: y * _density(y, sigma), lo, hi, epsabs=1e-15, epsrel=1e-13)
        probs.append(p)
        moments.append(m)
    return np.array(probs), np.array(moments)


def channel_matrix(bits: int, p_e: float) -> np.ndarray:
    """``K[i, j]``: probability of receiving level ``i`` when level ``j`` was sent.

    Levels carry the natural binary code of their zero-based index, and
    each bit flips independently with probability ``p_e``.
    """
    n = 2**bits
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d = bin(i ^ j).count("1")
            out[i, j] = p_e**d * (1.0 - p_e) ** (bits - d)
    return out


def _received(thresholds, p_e: float, sigma2: float):
    """Null probability and first moment of every received level."""
    bits = int(round(math.log2(len(thresholds) + 1)))
    probs, moments = cell_moments(thresholds, sigma2)
    k = channel_matrix(bits, p_e)
    return k @ probs, k @ moments


def information(thresholds, p_e: float, sigma2: float = 1.0) -> float:
    """Fisher information at amplitude zero of one quantized sensor."""
    rp, rm = _received(thresholds, p_e, sigma2)
    live = rp > 0.0
    return float(np.sum(rm[live] ** 2 / rp[live])) / sigma2**2


def score_table(thresholds, p_e: float, sigma2: float = 1.0) -> np.ndarray:
    """Locally optimal score of each received level (derivative of its log-likelihood)."""
    rp, rm = _received(thresholds, p_e, sigma2)
    return np.where(rp > 0.0, rm / np.where(rp > 0.0, rp, 1.0), 0.0) / sigma2


def centroids(thresholds, sigma2: float = 1.0) -> np.ndarray:
    """Null conditional mean of each cell, ``m_j / p_j``."""
    probs, moments = cell_moments(thresholds, sigma2)
    return moments / probs


def upper_tail(x):
    return 0.5 * special.erfc(np.asarray(x) / math.sqrt(2.0))


def gaussian_roc(m: int, theta: float, sigma2: float, sigma_h2: float, eta: float) -> tuple[float, float]:
    """Exact ``(pfa, pd)`` of ``sum(y) / (sigma * sqrt(m)) > eta`` for ``m`` analog samples.

    Under the null each sample is ``N(0, sigma2)``; under the alternative it
    is ``N(theta, sigma2 + theta^2 sigma_h2)``.
    """
    sigma = math.sqrt(sigma2)
    mean1 = m * theta / (sigma * math.sqrt(m))
    sd1 = math.sqrt((sigma2 + theta * theta * sigma_h2) / sigma2)
    return float(upper_tail(eta)), float(upper_tail((eta - mean1) / sd1))


def simulate_roc(
    *,
    seed: int,
    trials: int,
    theta: float,
    sigma2: float,
    sigma_h2: float,
    m_q: int,
    m_u: int,
    p_e: float,
    designs: dict[int, np.ndarray],
    etas,
    block: int = 5000,
) -> dict[str, dict[str, np.ndarray]]:
    """Reference Monte Carlo of the quantized, hybrid and reconstruction detectors.

    ``designs`` maps bit depth to thresholds.  Returns, per detector label
    and hypothesis, the fraction of trials above each threshold in ``etas``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma = math.sqrt(sigma2)
    etas = np.asarray(etas, dtype=float)
    tables = {b: score_table(t, p_e, sigma2) for b, t in designs.items()}
    fi = {b: information(t, p_e, sigma2) for b, t in designs.items()}
    hi_bits = max(designs)
    recon = centroids(designs[hi_bits], sigma2)
    labels = [f"{b}b" for b in sorted(designs)] + [f"{hi_bits}b-fp", f"r-{hi_bits}b-fp"]
    above = {lab: {"h0": np.zeros(etas.size), "h1": np.zeros(etas.size)} for lab in labels}
    for hyp in ("h0", "h1"):
        done = 0
        while done < trials:
            n = min(block, trials - done)
            y = rng.normal(0.0, sigma, (n, m_q + m_u))
            if hyp == "h1":
                y += theta * rng.normal(1.0, math.sqrt(sigma_h2), (n, m_q + m_u))
            analog = y[:, m_q:].sum(axis=1)
            stats = {}
            for b, thr in designs.items():
                sent = np.searchsorted(thr, y[:, :m_q], side="right")
                flips = rng.random((n, m_q, b)) < p_e
                got = sent ^ (flips @ (1 << np.arange(b)))
                score = tables[b][got].sum(axis=1)
                stats[f"{b}b"] = score / math.sqrt(m_q * fi[b])
                if b == hi_bits:
                    hybrid_fi = m_q * fi[b] + m_u / sigma2
                    stats[f"{b}b-fp"] = (score + analog / sigma2) / math.sqrt(hybrid_fi)
                    stats[f"r-{b}b-fp"] = (recon[got].sum(axis=1) + analog) / (sigma * math.sqrt(m_q + m_u))
            for lab, s in stats.items():
                above[lab][hyp] += (s[:, None] > etas[None, :]).sum(axis=0)
            done += n
    return {lab: {h: v / trials for h, v in d.items()} for lab, d in above.items()}
