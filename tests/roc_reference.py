"""Trial-at-a-time ROC simulation, kept as the oracle for ``run_roc``.

It draws from the same streams as ``run_roc``: block ``b`` of
``ROC_BLOCK`` trials under hypothesis ``h`` uses ``trial_rng(seed, h, b)``
for its observations, then its hybrid flip mask, then its low-rate flip
mask.  Everything after the draws is done one trial at a time with the
scalar reference code: the bisecting ``quantize``, bit flips applied to
``Codeword`` objects, and each detector scored on its own.  The block
engine must reproduce its rows exactly.
"""

import math

import numpy as np

from hybriddet.detection import (
    network_kernels,
    reconstruction_table,
    theoretical_pd,
    threshold_for_pfa,
)
from hybriddet.experiments import ROC_BLOCK, ROC_COLUMNS, RocScenario, Table, _scenario_thresholds
from hybriddet.model import (
    ChannelSpec,
    Codeword,
    FullPrecisionSensor,
    Hypothesis,
    NetworkConfig,
    QuantizedSensor,
    QuantizerSpec,
    SignalParams,
    codeword_to_level,
    level_to_codeword,
    quantize,
    simulate_observations,
    trial_rng,
)


def _fleet(scenario, bits, thresholds, n_quantized, n_full):
    params = SignalParams(scenario.theta, scenario.sigma_n2, scenario.sigma_h2)
    quantizer = QuantizerSpec(bits, thresholds)
    sensors = tuple(QuantizedSensor(quantizer, ChannelSpec(scenario.p_e)) for _ in range(n_quantized))
    sensors += tuple(FullPrecisionSensor() for _ in range(n_full))
    return NetworkConfig(params, sensors, l0=scenario.l0)


def _received(y_q, spec, flips, mapping):
    """Levels at the fusion center for one trial's quantized samples.

    ``flips[i, k]`` flips the bit of weight ``2**k`` of sensor ``i``'s
    codeword; ``Codeword`` lists its bits most significant first.
    """
    levels = []
    for i, y in enumerate(y_q):
        code = level_to_codeword(quantize(float(y), spec), spec.bits, mapping)
        code = Codeword(tuple(b ^ int(f) for b, f in zip(code.bits, flips[i][::-1])))
        levels.append(codeword_to_level(code, mapping))
    return np.array(levels, dtype=np.int64)


def per_trial_roc(scenario: RocScenario) -> Table:
    """ROC rows of ``scenario``, each trial quantized, sent and scored alone."""
    thr_hybrid, thr_low = _scenario_thresholds(scenario)
    sigma_n = math.sqrt(scenario.sigma_n2)
    params = SignalParams(scenario.theta, scenario.sigma_n2, scenario.sigma_h2)
    m_q, m_u = scenario.m_quantized, scenario.m_full
    want = set(scenario.detectors)

    kernels = {}
    lam = {}
    if {scenario.label_hybrid_q, scenario.label_hybrid, scenario.label_reconstruction} & want and m_q:
        kernels["hybrid_full"] = network_kernels(
            _fleet(scenario, scenario.bits_hybrid, thr_hybrid, m_q, m_u), scenario.mapping)
        kernels["hybrid_q"] = network_kernels(
            _fleet(scenario, scenario.bits_hybrid, thr_hybrid, m_q, 0), scenario.mapping)
    if scenario.label_low in want and m_q:
        kernels["low"] = network_kernels(
            _fleet(scenario, scenario.bits_low, thr_low, m_q, 0), scenario.mapping)
    lam["clairvoyant"] = params.theta * math.sqrt(scenario.m_total / scenario.sigma_n2)
    lam["fp"] = params.theta * math.sqrt(m_u / scenario.sigma_n2) if m_u else None
    if "hybrid_full" in kernels:
        lam[scenario.label_hybrid] = params.theta * math.sqrt(kernels["hybrid_full"].fisher_info)
        lam[scenario.label_hybrid_q] = params.theta * math.sqrt(kernels["hybrid_q"].fisher_info)
    if "low" in kernels:
        lam[scenario.label_low] = params.theta * math.sqrt(kernels["low"].fisher_info)

    spec_hybrid = QuantizerSpec(scenario.bits_hybrid, thr_hybrid)
    spec_low = QuantizerSpec(scenario.bits_low, thr_low)
    recon = None
    if scenario.label_reconstruction in want:
        recon = reconstruction_table(spec_hybrid, sigma_n)

    stats = {
        hyp: {d: np.empty(scenario.trials) for d in scenario.detectors}
        for hyp in (Hypothesis.H0, Hypothesis.H1)
    }
    empty = np.zeros(0)
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
                    levels_hybrid = _received(y_q, spec_hybrid, flips_hybrid[i], scenario.mapping)
                if draw_low:
                    levels_low = _received(y_q, spec_low, flips_low[i], scenario.mapping)
                row = stats[hyp]
                for det in scenario.detectors:
                    if det == "clairvoyant":
                        row[det][t] = y.sum() / (sigma_n * math.sqrt(scenario.m_total))
                    elif det == "fp":
                        row[det][t] = float(y_u.sum() / (sigma_n * math.sqrt(y_u.size)))
                    elif det == scenario.label_low:
                        row[det][t] = float(kernels["low"].statistic(levels_low, empty))
                    elif det == scenario.label_hybrid_q:
                        row[det][t] = float(kernels["hybrid_q"].statistic(levels_hybrid, empty))
                    elif det == scenario.label_hybrid:
                        row[det][t] = float(kernels["hybrid_full"].statistic(levels_hybrid, y_u))
                    elif det == scenario.label_reconstruction:
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
