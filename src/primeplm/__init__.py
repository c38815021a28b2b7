"""Additive partially linear models with arbitrarily missing covariates.

Missing spline-basis rows and linear covariate values are imputed by
Nadaraya-Watson averages over partial donors (units observing a superset
of the target's covariates), then the full model is fit by least squares;
a jackknife model-averaging variant combines single-nonlinear-covariate
candidate fits with cross-validated simplex weights.
"""

from .dataset import (
    ModelStructure,
    NormalizationMap,
    ObservationTable,
    build_pattern_index,
    complete_case_subset,
    load_csv,
    load_structure,
    minmax_normalize,
    write_csv,
)
from .kernel_impute import (
    ImputationDiagnostics,
    KernelConfig,
    draw_directions,
    impute,
)
from .model_averaging import (
    AveragedFit,
    CvMatrix,
    build_candidates,
    build_cv_matrix,
    cc_design,
    cv_weights,
    fit_prime_ma,
    predict_averaged,
)
from .prime_fit import (
    DesignMatrix,
    FitDiagnostics,
    PrimeFit,
    assemble_design,
    estimate_g,
    fit_cc,
    fit_mean_impute,
    fit_prime,
    load_fit,
    predict,
    save_fit,
    solve_least_squares,
)
from .simulation import (
    MR_PARAMS_60,
    MR_PARAMS_85,
    SIM_COLUMNS,
    SIM_STRUCTURE,
    TRUE_BETA,
    MetricsReport,
    MethodMetrics,
    ReplicationRecord,
    ScenarioConfig,
    apply_missing_scenario1,
    apply_missing_scenario2,
    gen_covariates,
    gen_errors,
    run_study,
    sigma_for_r2,
    true_mean,
)
from .spline import SplineSpec, basis_matrix, make_spec

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dataset
    "ModelStructure", "ObservationTable", "NormalizationMap",
    "load_structure", "load_csv", "write_csv", "build_pattern_index",
    "complete_case_subset", "minmax_normalize",
    # spline
    "SplineSpec", "make_spec", "basis_matrix",
    # kernel imputation
    "KernelConfig", "ImputationDiagnostics", "draw_directions", "impute",
    # fitting
    "DesignMatrix", "FitDiagnostics", "PrimeFit", "assemble_design",
    "solve_least_squares", "fit_prime", "fit_cc", "fit_mean_impute",
    "predict", "estimate_g", "save_fit", "load_fit",
    # model averaging
    "CvMatrix", "AveragedFit", "build_candidates", "cc_design",
    "build_cv_matrix", "cv_weights", "predict_averaged", "fit_prime_ma",
    # simulation
    "TRUE_BETA", "MR_PARAMS_60", "MR_PARAMS_85", "SIM_COLUMNS", "SIM_STRUCTURE",
    "ScenarioConfig", "MethodMetrics", "ReplicationRecord", "MetricsReport",
    "gen_covariates", "true_mean", "sigma_for_r2", "gen_errors",
    "apply_missing_scenario1", "apply_missing_scenario2", "run_study",
]
