"""Kernel feature selection by minimizing a conditional-covariance criterion.

Selects the m most predictive features by optimizing continuously relaxed
feature weights against the regularized quadratic form
Tr[Y^T (G_w + n*eps*I)^(-1) Y], with exact, soft-penalty and low-rank
(random Fourier feature) objective variants.
"""

__version__ = "0.1.0"

from .bench import (
    BenchmarkReport,
    derive_seed,
    median_rank,
    pearson_baseline,
    run_benchmark,
)
from .dataio import (
    LabeledDataset,
    StandardizationInfo,
    canonical_class_labels,
    load_csv,
    save_dataset_csv,
    save_result,
    standardize,
)
from .errors import (
    CsvParseError,
    DegenerateDataError,
    InvalidDataError,
    InvalidLabelError,
    InvalidParameterError,
    NumericalError,
    SelectionError,
    SubsetGuardError,
)
from .kernels import (
    GramMatrix,
    KernelSpec,
    center,
    median_bandwidth,
    weighted_gaussian_gram,
    weighted_linear_gram,
)
from .objective import (
    ObjectiveConfig,
    ObjectiveValue,
    exact_objective,
    low_rank_equivalent_value,
    low_rank_objective,
    soft_penalty_objective,
)
from .optimizer import (
    OptimizerConfig,
    SelectionResult,
    dataset_response,
    optimize,
    project,
    ranking_from_weights,
    round_to_subset,
)
from .oracle import SubsetScore, exhaustive_argmin, subset_score
from .random_features import (
    LinearFeatureMap,
    RandomFeatureMap,
    centered_embed,
    draw_map,
    embed,
)
from .synthdata import (
    gen_additive_regression,
    gen_binary_ring,
    gen_xor_4class,
    generate,
)

__all__ = [
    "BenchmarkReport", "derive_seed", "median_rank", "pearson_baseline",
    "run_benchmark",
    "LabeledDataset", "StandardizationInfo", "canonical_class_labels",
    "load_csv", "save_dataset_csv", "save_result", "standardize",
    "CsvParseError", "DegenerateDataError", "InvalidDataError",
    "InvalidLabelError", "InvalidParameterError", "NumericalError",
    "SelectionError", "SubsetGuardError",
    "GramMatrix", "KernelSpec", "center", "median_bandwidth",
    "weighted_gaussian_gram", "weighted_linear_gram",
    "ObjectiveConfig", "ObjectiveValue", "exact_objective",
    "low_rank_equivalent_value", "low_rank_objective",
    "soft_penalty_objective",
    "OptimizerConfig", "SelectionResult",
    "dataset_response", "optimize", "project", "ranking_from_weights",
    "round_to_subset",
    "SubsetScore", "exhaustive_argmin", "subset_score",
    "LinearFeatureMap", "RandomFeatureMap", "centered_embed", "draw_map",
    "embed",
    "gen_additive_regression", "gen_binary_ring",
    "gen_xor_4class", "generate",
]
