"""Trial-at-a-time ROC simulation, kept as the oracle for ``run_roc``.

This is the Monte Carlo loop ``run_roc`` used before it switched to blocks
of trials: one generator per ``(seed, hypothesis, trial)``, the same
draws in the same order, and each detector evaluated on its own for every
trial.  The block engine must reproduce its rows exactly.
"""

import math

import numpy as np

from hybriddet.detection import (
    network_kernels,
    reconstruction_table,
    theoretical_pd,
    threshold_for_pfa,
)
from hybriddet.experiments import ROC_COLUMNS, RocScenario, Table, _scenario_thresholds
from hybriddet.model import (
    ChannelSpec,
    FullPrecisionSensor,
    Hypothesis,
    NetworkConfig,
    QuantizedSensor,
    QuantizerSpec,
    SignalParams,
    bsc_corrupt_levels,
    quantize_batch,
    simulate_observations,
    trial_rng,
)


def _fleet(scenario, bits, thresholds, n_quantized, n_full):
    params = SignalParams(scenario.theta, scenario.sigma_n2, scenario.sigma_h2)
    quantizer = QuantizerSpec(bits, thresholds)
    sensors = tuple(QuantizedSensor(quantizer, ChannelSpec(scenario.p_e)) for _ in range(n_quantized))
    sensors += tuple(FullPrecisionSensor() for _ in range(n_full))
    return NetworkConfig(params, sensors, l0=scenario.l0)


def per_trial_roc(scenario: RocScenario) -> Table:
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

    recon = None
    if scenario.label_reconstruction in want:
        recon = reconstruction_table(QuantizerSpec(scenario.bits_hybrid, thr_hybrid), sigma_n)

    stats = {
        hyp: {d: np.empty(scenario.trials) for d in scenario.detectors}
        for hyp in (Hypothesis.H0, Hypothesis.H1)
    }
    empty = np.zeros(0)
    for hyp_idx, hyp in enumerate((Hypothesis.H0, Hypothesis.H1)):
        for t in range(scenario.trials):
            rng = trial_rng(scenario.seed, hyp_idx, t)
            y = simulate_observations(params, hyp, scenario.m_total, rng)
            y_q, y_u = y[:m_q], y[m_q:]
            levels_hybrid = levels_low = None
            if "hybrid_full" in kernels or recon is not None:
                sent = quantize_batch(y_q, QuantizerSpec(scenario.bits_hybrid, thr_hybrid))
                levels_hybrid = bsc_corrupt_levels(
                    sent, scenario.bits_hybrid, scenario.p_e, rng, scenario.mapping)
            if "low" in kernels:
                sent = quantize_batch(y_q, QuantizerSpec(scenario.bits_low, thr_low))
                levels_low = bsc_corrupt_levels(
                    sent, scenario.bits_low, scenario.p_e, rng, scenario.mapping)
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
