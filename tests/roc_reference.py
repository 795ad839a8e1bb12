"""Independent references for the ROC engine in ``experiments.run_roc``.

``per_trial_roc`` is the trial-at-a-time oracle.  It draws from the same
streams as ``run_roc``: block ``b`` of ``ROC_BLOCK`` trials under
hypothesis ``h`` uses ``trial_rng(seed, h, b)`` for its observations, then
its hybrid flip mask, then its low-rate flip mask.  Everything after the
draws is done one trial at a time with the scalar code below: a bisecting
``quantize``, and ``send_level``, which flips bits of an explicit
most-significant-first bit list with its own Gray code.  It shares neither
``quantize_batch`` nor ``bsc_corrupt_levels`` with the engine, and the
engine must reproduce its rows exactly.

``null_scores`` is not an oracle: it replays the engine's own calls to
give the hybrid detector's unnormalized noise-only scores, which the
acceptance suite's variance identity is checked on.
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


def quantize(y: float, spec: QuantizerSpec) -> int:
    """Level ``i`` with ``t[i-1] <= y < t[i]``; values on a threshold go up."""
    return bisect_right(spec.thresholds, y) + 1


def _to_bits(level, bits, mapping):
    """Codeword of ``level`` as a list of bits, most significant first."""
    v = level - 1
    if mapping == "gray":
        v ^= v >> 1
    return [(v >> k) & 1 for k in range(bits - 1, -1, -1)]


def _from_bits(code, mapping):
    """Level of a most-significant-first codeword; inverse of ``_to_bits``."""
    v = 0
    for b in code:
        v = (v << 1) | b
    if mapping == "gray":
        g, v = v, 0
        while g:
            v ^= g
            g >>= 1
    return v + 1


def send_level(level, bits, flips, mapping):
    """Level received when ``level`` is sent and the bits marked in ``flips`` flip.

    ``flips[k]`` flips the codeword bit of weight ``2**k``, so the mask is
    reversed against the most-significant-first bit list.
    """
    code = _to_bits(level, bits, mapping)
    return _from_bits([b ^ int(f) for b, f in zip(code, flips[::-1])], mapping)


def _fleet(scenario, quantizer, n_quantized, n_full):
    params = SignalParams(scenario.theta, scenario.sigma_n2, scenario.sigma_h2)
    sensors = tuple(QuantizedSensor(quantizer, ChannelSpec(scenario.p_e)) for _ in range(n_quantized))
    sensors += tuple(FullPrecisionSensor() for _ in range(n_full))
    return NetworkConfig(params, sensors, l0=scenario.l0)


def _received(y_q, spec, flips, mapping):
    """Levels at the fusion center for one trial's quantized samples."""
    levels = [
        send_level(quantize(float(y), spec), spec.bits, flips[i], mapping)
        for i, y in enumerate(y_q)
    ]
    return np.array(levels, dtype=np.int64)


def per_trial_roc(scenario: RocScenario) -> Table:
    """ROC rows of ``scenario``, each trial quantized, sent and scored alone."""
    sigma_n = math.sqrt(scenario.sigma_n2)
    params = SignalParams(scenario.theta, scenario.sigma_n2, scenario.sigma_h2)
    m_q, m_u = scenario.m_quantized, scenario.m_full
    want = set(scenario.detectors)

    spec_hybrid = spec_low = None
    if {scenario.label_hybrid_q, scenario.label_hybrid, scenario.label_reconstruction} & want:
        spec_hybrid = _scenario_quantizer(scenario, scenario.bits_hybrid, scenario.thresholds_hybrid)
    if scenario.label_low in want:
        spec_low = _scenario_quantizer(scenario, scenario.bits_low, scenario.thresholds_low)
    kernels = {}
    lam = {}
    if spec_hybrid is not None and m_q:
        kernels["hybrid_full"] = NetworkKernels(_fleet(scenario, spec_hybrid, m_q, m_u), scenario.mapping)
        kernels["hybrid_q"] = NetworkKernels(_fleet(scenario, spec_hybrid, m_q, 0), scenario.mapping)
    if spec_low is not None and m_q:
        kernels["low"] = NetworkKernels(_fleet(scenario, spec_low, m_q, 0), scenario.mapping)
    lam["clairvoyant"] = params.theta * math.sqrt(scenario.m_total / scenario.sigma_n2)
    lam["fp"] = params.theta * math.sqrt(m_u / scenario.sigma_n2) if m_u else None
    if "hybrid_full" in kernels:
        lam[scenario.label_hybrid] = params.theta * math.sqrt(kernels["hybrid_full"].fisher_info)
        lam[scenario.label_hybrid_q] = params.theta * math.sqrt(kernels["hybrid_q"].fisher_info)
    if "low" in kernels:
        lam[scenario.label_low] = params.theta * math.sqrt(kernels["low"].fisher_info)

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


def null_scores(config: NetworkConfig, trials: int, seed: int) -> np.ndarray:
    """Unnormalized hybrid scores of ``trials`` noise-only trials.

    Block ``b`` of ``ROC_BLOCK`` trials draws from ``trial_rng(seed, 0, b)``
    and makes the calls, in the order, that ``run_roc`` makes for its
    hybrid detector under H0, so dividing by the square root of the Fisher
    information gives that detector's statistics.  Like ``run_roc``'s
    fleets, every quantized sensor must share one quantizer and channel.
    """
    if len(set(config.quantized)) != 1:
        raise ValueError("null_scores needs quantized sensors that share one quantizer and channel")
    sensor = config.quantized[0]
    kernels = NetworkKernels(config)
    m_q, m_total = config.m_q, config.m_total
    out = np.empty(trials)
    for block, start in enumerate(range(0, trials, ROC_BLOCK)):
        n = min(ROC_BLOCK, trials - start)
        rng = trial_rng(seed, 0, block)
        y = simulate_observations(config.params, Hypothesis.H0, n * m_total, rng).reshape(n, m_total)
        sent = quantize_batch(y[:, :m_q], sensor.quantizer)
        levels = bsc_corrupt_levels(sent, sensor.quantizer.bits, sensor.channel.crossover, rng)
        out[start : start + n] = kernels.unnormalized_scores(levels, y[:, m_q:])
    return out
