"""surfimpute: Gaussian-process imputation of missing values in 1-D
surface-profile measurements, with stationary spectral-mixture and
non-stationary generalized-spectral-mixture covariance models,
simulators, mask generators, classical baselines, and evaluation.

The package root holds the entry points the command line and the
studies use; kernels, inference internals and the optimizer live in
their submodules.
"""

from .errors import (
    ConfigError,
    CoverageError,
    EmptyDatasetError,
    FitFailureError,
    GridMismatchError,
    InsufficientFeaturesError,
    MustImputeFirstError,
    NoProfileElementsError,
    NothingToImputeError,
    NotPositiveDefiniteError,
    SurfImputeError,
)
from .profile import Grid1D, Profile, make_grid, profile_from_arrays, rq, rsm
from .optimize import OptConfig
from .gp import GPModel, ImputationResult, fit_se, fit_sm, impute
from .gsm import GsmModel, fit_gsm, make_gsm_model
from .baselines import (
    impute_constant,
    impute_idw,
    impute_median_filter,
    impute_nn_mean,
)
from .synthesis import (
    ChirpConfig,
    TurnedSimConfig,
    mask_gradient,
    mask_smallest_width_dales,
    simulate_chirp,
    simulate_turned,
)
from .evaluate import EvalReport, evaluate
from .io import (
    parse_config,
    read_posterior_csv,
    read_profile_csv,
    write_posterior_csv,
    write_profile_csv,
)
from .plotting import render_svg, write_svg

__version__ = "0.1.0"

__all__ = [
    # errors
    "ConfigError",
    "CoverageError",
    "EmptyDatasetError",
    "FitFailureError",
    "GridMismatchError",
    "InsufficientFeaturesError",
    "MustImputeFirstError",
    "NoProfileElementsError",
    "NothingToImputeError",
    "NotPositiveDefiniteError",
    "SurfImputeError",
    # profiles and roughness
    "Grid1D",
    "Profile",
    "make_grid",
    "profile_from_arrays",
    "rq",
    "rsm",
    # fitting and imputation
    "OptConfig",
    "GPModel",
    "ImputationResult",
    "fit_se",
    "fit_sm",
    "impute",
    "GsmModel",
    "fit_gsm",
    "make_gsm_model",
    # baselines
    "impute_constant",
    "impute_idw",
    "impute_median_filter",
    "impute_nn_mean",
    # simulators and masks
    "ChirpConfig",
    "TurnedSimConfig",
    "mask_gradient",
    "mask_smallest_width_dales",
    "simulate_chirp",
    "simulate_turned",
    # evaluation and plotting
    "EvalReport",
    "evaluate",
    "render_svg",
    "write_svg",
    # files
    "parse_config",
    "read_posterior_csv",
    "read_profile_csv",
    "write_posterior_csv",
    "write_profile_csv",
]
