"""Independent references for the ROC engine in ``experiments.run_roc``.

``per_trial_roc`` is the trial-at-a-time oracle of the engine's draw
contract.  It draws from the same streams as ``run_roc``: block ``b`` of
``ROC_BLOCK`` trials under hypothesis ``h`` uses ``trial_rng(seed, h, b)``
for an ``(n, 2)`` array of standard normals, then the multinomial counts
of the hybrid depth's received levels, then those of the low depth, each
drawn only where a detector reads it.  Each law is the one the contract
names, ``bsc_kernel(q, p_e) @ cell_tables((t - mu_h) / s_h)[0]``, written
out here.  Everything after the draws is done one trial at a time with
Python floats: the sums from their normals, and each score or centroid sum
from the trial's counts, level by level.  The engine must reproduce its
rows exactly.

``physical_roc`` checks the contract's laws from outside it: a Monte
Carlo of the sensors themselves, on streams of its own.  Each sensor's
sample comes from ``simulate_observations``, is quantized by
``quantize_batch``, sent through ``bsc_corrupt_levels`` and scored by
``NetworkKernels.score_sums``; its rates must agree with the engine's
within their sampling error.  ``null_scores`` draws the hybrid detector's
noise-only score sums through the same chain, for the variance identity.

``quantize`` and ``send_level`` are scalar oracles of the chain's
``quantize_batch`` and ``bsc_corrupt_levels``: a bisecting search, and bit
flips on an explicit most-significant-first bit list of the natural binary
codeword.
"""

import math
from bisect import bisect_right

import numpy as np

from hybriddet.detection import (
    NetworkKernels,
    bsc_kernel,
    cell_tables,
    reconstruction_table,
    theoretical_pd,
    threshold_for_pfa,
)
from hybriddet.experiments import ROC_BLOCK, ROC_COLUMNS, RocScenario, Table, _scenario_quantizer
from hybriddet.model import (
    Hypothesis,
    QuantizerSpec,
    SignalParams,
    bsc_corrupt_levels,
    quantize_batch,
    simulate_observations,
    trial_rng,
)


def quantize(y: float, spec: QuantizerSpec) -> int:
    """Level ``i`` with ``t[i-1] <= y < t[i]``; values on a threshold go up."""
    return bisect_right(spec.thresholds, y) + 1


def _to_bits(level, bits):
    """Natural binary codeword of ``level - 1`` as a list of bits, most significant first."""
    v = level - 1
    return [(v >> k) & 1 for k in range(bits - 1, -1, -1)]


def _from_bits(code):
    """Level of a most-significant-first codeword; inverse of ``_to_bits``."""
    v = 0
    for b in code:
        v = (v << 1) | b
    return v + 1


def send_level(level, bits, flips):
    """Level received when ``level`` is sent and the bits marked in ``flips`` flip.

    ``flips[k]`` flips the codeword bit of weight ``2**k``, so the mask is
    reversed against the most-significant-first bit list.
    """
    code = _to_bits(level, bits)
    return _from_bits([b ^ int(f) for b, f in zip(code, flips[::-1])])


def _level_sum(counts, table) -> float:
    """``sum_k counts[k] * table[k]`` in Python floats, in level order."""
    total = float(counts[0]) * float(table[0])
    for count, weight in zip(counts[1:], table[1:]):
        total += float(count) * float(weight)
    return total


class _Fleet:
    """What every detector of ``scenario`` reads, built once: the
    quantizers, kernels and centroid tables, and the noncentralities.

    The labels are spelled here, not read from the scenario's roster, so
    that a wrong roster entry shows up as a mismatch.
    """

    def __init__(self, scenario: RocScenario):
        self.sigma_n = math.sqrt(scenario.sigma_n2)
        theta, m_q, m_u = scenario.theta, scenario.m_quantized, scenario.m_full
        want = set(scenario.detectors)
        self.label_low = f"{scenario.bits_low}b"
        self.label_hybrid_q = f"{scenario.bits_hybrid}b"
        self.label_hybrid = f"{scenario.bits_hybrid}b-fp"
        self.label_reconstruction = f"r-{scenario.bits_hybrid}b-fp"

        self.spec_hybrid = self.spec_low = None
        if {self.label_hybrid_q, self.label_hybrid, self.label_reconstruction} & want:
            self.spec_hybrid = _scenario_quantizer(scenario, scenario.bits_hybrid)
        if self.label_low in want:
            self.spec_low = _scenario_quantizer(scenario, scenario.bits_low)
        self.kernels = {}
        if self.spec_hybrid is not None and m_q:
            self.kernels["hybrid_full"] = NetworkKernels(self.spec_hybrid, scenario.p_e, m_q, m_u, scenario.sigma_n2)
            self.kernels["hybrid_q"] = NetworkKernels(self.spec_hybrid, scenario.p_e, m_q, 0, scenario.sigma_n2)
        if self.spec_low is not None and m_q:
            self.kernels["low"] = NetworkKernels(self.spec_low, scenario.p_e, m_q, 0, scenario.sigma_n2)
        self.lam = {
            "clairvoyant": theta * math.sqrt(scenario.m_total / scenario.sigma_n2),
            "fp": theta * math.sqrt(m_u / scenario.sigma_n2) if m_u else None,
        }
        if "hybrid_full" in self.kernels:
            self.lam[self.label_hybrid] = theta * math.sqrt(self.kernels["hybrid_full"].fisher_info)
            self.lam[self.label_hybrid_q] = theta * math.sqrt(self.kernels["hybrid_q"].fisher_info)
        if "low" in self.kernels:
            self.lam[self.label_low] = theta * math.sqrt(self.kernels["low"].fisher_info)
        self.recon = None
        if self.label_reconstruction in want:
            self.recon = reconstruction_table(self.spec_hybrid, self.sigma_n)
        self.draw_hybrid = "hybrid_full" in self.kernels or self.recon is not None
        self.draw_low = "low" in self.kernels


def _table(scenario: RocScenario, fleet: _Fleet, stats: dict) -> Table:
    """ROC rows from each detector's statistics under H0 and H1."""
    rows = []
    for det in scenario.detectors:
        lam_det = fleet.lam.get(det)
        for pfa in scenario.pfa_grid:
            eta = threshold_for_pfa(pfa)
            pfa_mc = float(np.mean(stats[Hypothesis.H0][det] > eta))
            pd_mc = float(np.mean(stats[Hypothesis.H1][det] > eta))
            stderr = math.sqrt(max(pd_mc * (1.0 - pd_mc), 0.0) / scenario.trials)
            pd_theory = theoretical_pd(lam_det, eta) if lam_det is not None else None
            rows.append((det, float(pfa), float(eta), pd_theory, pfa_mc, pd_mc, stderr))
    return Table(ROC_COLUMNS, rows)


def per_trial_roc(scenario: RocScenario) -> Table:
    """ROC rows of ``scenario``, each trial's sums and statistics made alone."""
    fleet = _Fleet(scenario)
    sigma_n, theta = fleet.sigma_n, scenario.theta
    m_q, m_u = scenario.m_quantized, scenario.m_full
    kernels = fleet.kernels
    means = (0.0, theta)
    deviations = (sigma_n, math.hypot(theta * math.sqrt(scenario.sigma_h2), sigma_n))

    def law(spec, hyp_idx):
        z = (np.asarray(spec.thresholds) - means[hyp_idx]) / deviations[hyp_idx]
        return bsc_kernel(spec.bits, scenario.p_e) @ cell_tables(z)[0]

    stats = {
        hyp: {d: np.empty(scenario.trials) for d in scenario.detectors}
        for hyp in (Hypothesis.H0, Hypothesis.H1)
    }
    for hyp_idx, hyp in enumerate((Hypothesis.H0, Hypothesis.H1)):
        mu, s = means[hyp_idx], deviations[hyp_idx]
        for block, start in enumerate(range(0, scenario.trials, ROC_BLOCK)):
            n = min(ROC_BLOCK, scenario.trials - start)
            rng = trial_rng(scenario.seed, hyp_idx, block)
            normals = rng.standard_normal((n, 2))
            counts_hybrid = counts_low = None
            if fleet.draw_hybrid:
                counts_hybrid = rng.multinomial(m_q, law(fleet.spec_hybrid, hyp_idx), size=n)
            if fleet.draw_low:
                counts_low = rng.multinomial(m_q, law(fleet.spec_low, hyp_idx), size=n)
            for i in range(n):
                t = start + i
                raw = m_q * mu + math.sqrt(m_q) * s * float(normals[i, 0])
                analog = m_u * mu + math.sqrt(m_u) * s * float(normals[i, 1])
                row = stats[hyp]
                for det in scenario.detectors:
                    if det == "clairvoyant":
                        row[det][t] = (raw + analog) / (sigma_n * math.sqrt(scenario.m_total))
                    elif det == "fp":
                        row[det][t] = analog / (sigma_n * math.sqrt(m_u))
                    elif det == fleet.label_low:
                        low = kernels["low"]
                        row[det][t] = low.statistic(_level_sum(counts_low[i], low.level_scores[1:]))
                    elif det == fleet.label_hybrid_q:
                        hybrid_q = kernels["hybrid_q"]
                        row[det][t] = hybrid_q.statistic(_level_sum(counts_hybrid[i], hybrid_q.level_scores[1:]))
                    elif det == fleet.label_hybrid:
                        full = kernels["hybrid_full"]
                        row[det][t] = full.statistic(_level_sum(counts_hybrid[i], full.level_scores[1:]), analog)
                    elif det == fleet.label_reconstruction:
                        restored = _level_sum(counts_hybrid[i], fleet.recon) + analog
                        row[det][t] = restored / (sigma_n * math.sqrt(scenario.m_total))
    return _table(scenario, fleet, stats)


def _sensor_block(params, hypothesis, specs, p_e, n, m_q, m_u, rng):
    """One block of ``n`` trials drawn sensor by sensor: the ``(n, m_q +
    m_u)`` observations, quantized sensors first, and the levels received
    from the quantized sensors at each quantizer of ``specs``."""
    y = simulate_observations(params, hypothesis, n * (m_q + m_u), rng).reshape(n, m_q + m_u)
    levels = [bsc_corrupt_levels(quantize_batch(y[:, :m_q], spec), spec.bits, p_e, rng) for spec in specs]
    return y, levels


def physical_roc(scenario: RocScenario) -> Table:
    """ROC rows of ``scenario`` from a Monte Carlo of every sensor.

    Block ``b`` under hypothesis ``h`` draws from ``trial_rng(seed, h, b,
    1)``, a stream ``run_roc`` never uses.
    """
    fleet = _Fleet(scenario)
    params = SignalParams(scenario.theta, scenario.sigma_n2, scenario.sigma_h2)
    sigma_n, kernels = fleet.sigma_n, fleet.kernels
    m_q, m_u = scenario.m_quantized, scenario.m_full
    norm = sigma_n * math.sqrt(scenario.m_total)
    drawn = ((fleet.spec_hybrid, fleet.draw_hybrid), (fleet.spec_low, fleet.draw_low))
    specs = [spec for spec, draw in drawn if draw]
    stats = {hyp: {d: [] for d in scenario.detectors} for hyp in (Hypothesis.H0, Hypothesis.H1)}
    for hyp_idx, hyp in enumerate((Hypothesis.H0, Hypothesis.H1)):
        for block, start in enumerate(range(0, scenario.trials, ROC_BLOCK)):
            n = min(ROC_BLOCK, scenario.trials - start)
            rng = trial_rng(scenario.seed, hyp_idx, block, 1)
            y, levels = _sensor_block(params, hyp, specs, scenario.p_e, n, m_q, m_u, rng)
            by_bits = {spec.bits: got for spec, got in zip(specs, levels)}
            analog = y[:, m_q:].sum(axis=1)
            for det in scenario.detectors:
                if det == "clairvoyant":
                    value = y.sum(axis=1) / norm
                elif det == "fp":
                    value = analog / (sigma_n * math.sqrt(m_u))
                elif det == fleet.label_low:
                    low = kernels["low"]
                    value = low.statistic(low.score_sums(by_bits[fleet.spec_low.bits]))
                elif det == fleet.label_hybrid_q:
                    hybrid_q = kernels["hybrid_q"]
                    value = hybrid_q.statistic(hybrid_q.score_sums(by_bits[fleet.spec_hybrid.bits]))
                elif det == fleet.label_hybrid:
                    full = kernels["hybrid_full"]
                    value = full.statistic(full.score_sums(by_bits[fleet.spec_hybrid.bits]), analog)
                else:
                    value = (fleet.recon[by_bits[fleet.spec_hybrid.bits] - 1].sum(axis=1) + analog) / norm
                stats[hyp][det].append(value)
    stats = {hyp: {det: np.concatenate(parts) for det, parts in row.items()} for hyp, row in stats.items()}
    return _table(scenario, fleet, stats)


def null_scores(
    quantizer: QuantizerSpec, p_e: float, m_q: int, m_u: int, sigma_n2: float, trials: int, seed: int
) -> np.ndarray:
    """Hybrid score sums of ``trials`` noise-only trials, drawn sensor by sensor.

    The fleet is ``m_q`` sensors sharing ``quantizer`` over a channel of
    crossover ``p_e``, then ``m_u`` analog sensors.  Block ``b`` of
    ``ROC_BLOCK`` trials draws from ``trial_rng(seed, 0, b)`` through the
    physical chain of ``physical_roc``; the hybrid detector's statistics
    are scaled back by the square root of the Fisher information.
    """
    params = SignalParams(0.0, sigma_n2, 0.0)
    kernels = NetworkKernels(quantizer, p_e, m_q, m_u, sigma_n2)
    out = np.empty(trials)
    for block, start in enumerate(range(0, trials, ROC_BLOCK)):
        n = min(ROC_BLOCK, trials - start)
        rng = trial_rng(seed, 0, block)
        y, (levels,) = _sensor_block(params, Hypothesis.H0, [quantizer], p_e, n, m_q, m_u, rng)
        stats = kernels.statistic(kernels.score_sums(levels), y[:, m_q:].sum(axis=1))
        out[start : start + n] = stats * math.sqrt(kernels.fisher_info)
    return out
