"""Distributed weak-signal detection with hybrid quantized and
full-precision sensor reporting.

Subpackages cover the data plane (:mod:`hybriddet.model`), fusion-center
detection kernels (:mod:`hybriddet.detection`), per-sensor quantizer
design (:mod:`hybriddet.design`), network bandwidth allocation solved
exactly by a dynamic program over sensors and bits spent
(:mod:`hybriddet.allocation`), and reproducible experiment runners with a CLI
(:mod:`hybriddet.experiments`, :mod:`hybriddet.cli`).
"""

from .model import (
    DEFAULT_MAPPING,
    GRAY,
    NATURAL,
    Hypothesis,
    QuantizerSpec,
    SignalParams,
    bsc_corrupt_levels,
    gaussian_pdf,
    gaussian_upper_tail,
    quantize_batch,
    simulate_observations,
    trial_rng,
)
from .detection import (
    LikelihoodKernels,
    bsc_kernel,
    likelihood_kernels,
    theoretical_pd,
    threshold_for_pfa,
)
from .design import (
    DesignProblem,
    DesignResult,
    PsoSettings,
    design_bgda,
    design_objective,
    design_pso,
    fi_landscape,
    objective_gradient,
    optimized_cells,
    optimized_thresholds,
)
from .allocation import (
    AllocationInfeasibleError,
    AllocationResult,
    BudgetMode,
    ErrorHistogram,
    FiTable,
    Sense,
    allocate,
    build_fi_table,
    categorize_errors,
    validate_allocation,
)

__version__ = "0.1.0"
