"""Rate-distortion bounds and zero-delay coding for vector Gauss-Markov sources.

The package computes, for a source x_{t+1} = A x_t + B w_t under a
mean-squared-error target D:

* the minimal causal information rate (bits/vector/step) and its optimizing
  covariance pair, via determinant maximization (:func:`zdrd.solver.nrdf`);
* a feedback test-channel realization with per-dimension rate allocation
  (:mod:`zdrd.realization`);
* achievable operational rates from subtractive-dithered quantization with
  joint memoryless entropy coding (:mod:`zdrd.coding`);
* distortion sweeps and CSV reports via presets or JSON configs
  (:mod:`zdrd.experiments`, ``zdrd`` CLI).
"""

from .coding import (
    CodingResult,
    SeedBundle,
    run_coding_experiment,
    theoretical_upper_bound,
)
from .errors import (
    AlphabetOverflow,
    BadDistortion,
    ConfigParse,
    DimensionMismatch,
    EigenFailure,
    InfeasibleModel,
    NotPD,
    NotPSD,
    OrderViolation,
    SolverDivergence,
    ZdrdError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    list_presets,
    preset_config,
    run_experiment,
)
from .realization import (
    ChannelRun,
    RealizationScheme,
    build_realization,
    joint_diagonalize,
    run_awgn_channel,
    waterfill_factors,
)
from .solver import NrdfSolution, nrdf, scalar_ar1_nrdf
from .source_model import (
    GaussMarkovSource,
    StabilityReport,
    Trajectory,
    augment_ar,
    d_max,
    new_source,
    simulate,
    source_from_dict,
    stability_report,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetOverflow",
    "BadDistortion",
    "ChannelRun",
    "CodingResult",
    "ConfigParse",
    "DimensionMismatch",
    "EigenFailure",
    "ExperimentConfig",
    "ExperimentReport",
    "GaussMarkovSource",
    "InfeasibleModel",
    "NotPD",
    "NotPSD",
    "NrdfSolution",
    "OrderViolation",
    "RealizationScheme",
    "SeedBundle",
    "SolverDivergence",
    "StabilityReport",
    "Trajectory",
    "ZdrdError",
    "augment_ar",
    "build_realization",
    "d_max",
    "joint_diagonalize",
    "list_presets",
    "new_source",
    "nrdf",
    "preset_config",
    "run_awgn_channel",
    "run_coding_experiment",
    "run_experiment",
    "scalar_ar1_nrdf",
    "simulate",
    "source_from_dict",
    "stability_report",
    "theoretical_upper_bound",
    "waterfill_factors",
]
