"""Independent references for the ROC engine in ``experiments.run_roc``.

``per_trial_roc`` is the trial-at-a-time oracle.  It draws from the same
streams as ``run_roc``: block ``b`` of ``ROC_BLOCK`` trials under
hypothesis ``h`` uses ``trial_rng(seed, h, b)`` for its observations, then
its hybrid flip mask, then its low-rate flip mask.  Everything after the
draws is done one trial at a time with the scalar code below: a bisecting
``quantize``, and ``send_level``, which flips bits of an explicit
most-significant-first bit list of the natural binary codeword.  It shares neither
``quantize_batch`` nor ``bsc_corrupt_levels`` with the engine, and the
engine must reproduce its rows exactly.

``null_scores`` is not an oracle: it replays the engine's own calls to
give the hybrid detector's noise-only score sums, which the acceptance
suite's variance identity is checked on.
"""

import math
from bisect import bisect_right

import numpy as np

from hybriddet.detection import (
    NetworkKernels,
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


def _received(y_q, spec, flips):
    """Levels at the fusion center for one trial's quantized samples."""
    levels = [
        send_level(quantize(float(y), spec), spec.bits, flips[i])
        for i, y in enumerate(y_q)
    ]
    return np.array(levels, dtype=np.int64)


def per_trial_roc(scenario: RocScenario) -> Table:
    """ROC rows of ``scenario``, each trial quantized, sent and scored alone."""
    sigma_n = math.sqrt(scenario.sigma_n2)
    params = SignalParams(scenario.theta, scenario.sigma_n2, scenario.sigma_h2)
    m_q, m_u = scenario.m_quantized, scenario.m_full
    want = set(scenario.detectors)
    # The labels are spelled here, not read from the scenario's roster, so
    # that a wrong roster entry shows up as a mismatch.
    label_low = f"{scenario.bits_low}b"
    label_hybrid_q = f"{scenario.bits_hybrid}b"
    label_hybrid = f"{scenario.bits_hybrid}b-fp"
    label_reconstruction = f"r-{scenario.bits_hybrid}b-fp"

    spec_hybrid = spec_low = None
    if {label_hybrid_q, label_hybrid, label_reconstruction} & want:
        spec_hybrid = _scenario_quantizer(scenario, scenario.bits_hybrid)
    if label_low in want:
        spec_low = _scenario_quantizer(scenario, scenario.bits_low)
    kernels = {}
    lam = {}
    if spec_hybrid is not None and m_q:
        kernels["hybrid_full"] = NetworkKernels(spec_hybrid, scenario.p_e, m_q, m_u, scenario.sigma_n2)
        kernels["hybrid_q"] = NetworkKernels(spec_hybrid, scenario.p_e, m_q, 0, scenario.sigma_n2)
    if spec_low is not None and m_q:
        kernels["low"] = NetworkKernels(spec_low, scenario.p_e, m_q, 0, scenario.sigma_n2)
    lam["clairvoyant"] = params.theta * math.sqrt(scenario.m_total / scenario.sigma_n2)
    lam["fp"] = params.theta * math.sqrt(m_u / scenario.sigma_n2) if m_u else None
    if "hybrid_full" in kernels:
        lam[label_hybrid] = params.theta * math.sqrt(kernels["hybrid_full"].fisher_info)
        lam[label_hybrid_q] = params.theta * math.sqrt(kernels["hybrid_q"].fisher_info)
    if "low" in kernels:
        lam[label_low] = params.theta * math.sqrt(kernels["low"].fisher_info)

    recon = None
    if label_reconstruction in want:
        recon = reconstruction_table(spec_hybrid, sigma_n)

    stats = {
        hyp: {d: np.empty(scenario.trials) for d in scenario.detectors}
        for hyp in (Hypothesis.H0, Hypothesis.H1)
    }
    draw_hybrid = "hybrid_full" in kernels or recon is not None
    draw_low = "low" in kernels

    def flip_mask(rng, n, bits):
        if scenario.p_e == 0:  # nothing is drawn on an error-free channel
            return np.zeros((n, m_q, bits), dtype=bool)
        return rng.random((n, m_q, bits)) < scenario.p_e

    for hyp_idx, hyp in enumerate((Hypothesis.H0, Hypothesis.H1)):
        for block, start in enumerate(range(0, scenario.trials, ROC_BLOCK)):
            n = min(ROC_BLOCK, scenario.trials - start)
            rng = trial_rng(scenario.seed, hyp_idx, block)
            y_block = simulate_observations(params, hyp, n * scenario.m_total, rng).reshape(
                n, scenario.m_total)
            flips_hybrid = flip_mask(rng, n, scenario.bits_hybrid) if draw_hybrid else None
            flips_low = flip_mask(rng, n, scenario.bits_low) if draw_low else None
            for i in range(n):
                t = start + i
                y = y_block[i]
                y_q, y_u = y[:m_q], y[m_q:]
                levels_hybrid = levels_low = None
                if draw_hybrid:
                    levels_hybrid = _received(y_q, spec_hybrid, flips_hybrid[i])
                if draw_low:
                    levels_low = _received(y_q, spec_low, flips_low[i])
                row = stats[hyp]
                for det in scenario.detectors:
                    if det == "clairvoyant":
                        row[det][t] = y.sum() / (sigma_n * math.sqrt(scenario.m_total))
                    elif det == "fp":
                        row[det][t] = float(y_u.sum() / (sigma_n * math.sqrt(y_u.size)))
                    elif det == label_low:
                        low = kernels["low"]
                        row[det][t] = float(low.statistic(low.score_sums(levels_low)))
                    elif det == label_hybrid_q:
                        hybrid_q = kernels["hybrid_q"]
                        row[det][t] = float(hybrid_q.statistic(hybrid_q.score_sums(levels_hybrid)))
                    elif det == label_hybrid:
                        full = kernels["hybrid_full"]
                        row[det][t] = float(full.statistic(full.score_sums(levels_hybrid), y_u.sum()))
                    elif det == label_reconstruction:
                        restored = recon[levels_hybrid - 1].sum() + y_u.sum()
                        row[det][t] = restored / (sigma_n * math.sqrt(scenario.m_total))

    rows = []
    for det in scenario.detectors:
        lam_det = lam.get(det)
        for pfa in scenario.pfa_grid:
            eta = threshold_for_pfa(pfa)
            pfa_mc = float(np.mean(stats[Hypothesis.H0][det] > eta))
            pd_mc = float(np.mean(stats[Hypothesis.H1][det] > eta))
            stderr = math.sqrt(max(pd_mc * (1.0 - pd_mc), 0.0) / scenario.trials)
            pd_theory = theoretical_pd(lam_det, eta) if lam_det is not None else None
            rows.append((det, float(pfa), float(eta), pd_theory, pfa_mc, pd_mc, stderr))
    return Table(ROC_COLUMNS, rows)


def null_scores(
    quantizer: QuantizerSpec, p_e: float, m_q: int, m_u: int, sigma_n2: float, trials: int, seed: int
) -> np.ndarray:
    """Hybrid score sums of ``trials`` noise-only trials.

    The fleet is ``m_q`` sensors sharing ``quantizer`` over a channel of
    crossover ``p_e``, then ``m_u`` analog sensors, as in ``run_roc``.
    Block ``b`` of ``ROC_BLOCK`` trials draws from ``trial_rng(seed, 0, b)``
    and makes the calls, in the order, that ``run_roc`` makes for its
    hybrid detector under H0, and scales that detector's statistics back by
    the square root of the Fisher information.
    """
    params = SignalParams(0.0, sigma_n2, 0.0)
    kernels = NetworkKernels(quantizer, p_e, m_q, m_u, sigma_n2)
    m_total = m_q + m_u
    out = np.empty(trials)
    for block, start in enumerate(range(0, trials, ROC_BLOCK)):
        n = min(ROC_BLOCK, trials - start)
        rng = trial_rng(seed, 0, block)
        y = simulate_observations(params, Hypothesis.H0, n * m_total, rng).reshape(n, m_total)
        sent = quantize_batch(y[:, :m_q], quantizer)
        levels = bsc_corrupt_levels(sent, quantizer.bits, p_e, rng)
        stats = kernels.statistic(kernels.score_sums(levels), y[:, m_q:].sum(axis=1))
        out[start : start + n] = stats * math.sqrt(kernels.fisher_info)
    return out
