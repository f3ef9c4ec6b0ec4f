"""Gaussian-mixture approximations to multimodal posteriors.

The pipeline locates posterior modes by Sobol-seeded multistart descent,
builds a local Gaussian at each distinct mode from the regularized inverse
Hessian, and fits the mixture weights by nonnegative least squares, which
also yields an estimate of the normalizing constant. The resulting mixture
can warm-start stochastic variational refinement.
"""

from .density import (
    GaussianComponent,
    MixtureModel,
    SinhArcsinhMixture,
    UnnormalizedTarget,
    eval_gradient,
    eval_hessian,
    eval_log_density,
    mixture_from_dict,
    mixture_to_dict,
)
from .gola import GolaConfig, GolaReport, LocalMinimum, run_gola
from .metrics import DivergenceEstimate, dice_overlap, jsd_normalized, kl_mc
from .sensibench import FactorSpec, SensitivityResult, robustness_study
from .vi import ViConfig, ViTrace, random_cold_start, refine

__version__ = "0.1.0"

__all__ = [
    "DivergenceEstimate",
    "FactorSpec",
    "GaussianComponent",
    "GolaConfig",
    "GolaReport",
    "LocalMinimum",
    "MixtureModel",
    "SensitivityResult",
    "SinhArcsinhMixture",
    "UnnormalizedTarget",
    "ViConfig",
    "ViTrace",
    "dice_overlap",
    "eval_gradient",
    "eval_hessian",
    "eval_log_density",
    "jsd_normalized",
    "kl_mc",
    "mixture_from_dict",
    "mixture_to_dict",
    "random_cold_start",
    "refine",
    "robustness_study",
    "run_gola",
]
