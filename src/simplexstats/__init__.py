"""Two-sample inference for compositional data under Dirichlet and nested
Dirichlet models.

The package splits into small layers:

- ``numerics``: special functions and distribution tails, self-contained.
- ``composition``: datasets on the simplex, validation, log-ratio transforms.
- ``dirichlet``: the flat model: density, sampling, maximum likelihood,
  Fisher information.
- ``nested``: tree-structured models: parsing, decomposition, fitting,
  delta-method standard errors.
- ``inference``: two-sample likelihood-ratio tests, a log-ratio Hotelling
  baseline, uniformity screening, mean-difference confidence intervals.
- ``treesearch``: enumeration, correlation screening, and selection of
  nesting trees.
- ``simulate``: Monte Carlo error-rate studies with per-replicate seeding.
- ``report`` / ``ternary`` / ``cli``: CSV input, result documents, SVG
  plots, and the command line front end.
"""

from .composition import CompositionDataset, SufficientStats, sample_correlation
from .dirichlet import DirichletParams
from .errors import (
    DegenerateDataError,
    DimensionMismatchError,
    DomainError,
    EmptyGroupError,
    InputError,
    MissingColumnError,
    NonConvergenceError,
    NotNormalizedError,
    NumericalError,
    SimplexStatsError,
    TooFewComponentsError,
    TreeFormatError,
    TreeStructureError,
    ZeroComponentError,
)
from .inference import (
    MaugardResult,
    MeanDifferenceCI,
    TestReport,
    clr_hotelling_test,
    maugard_procedure,
    one_sample_uniformity_test,
    pairwise_mean_cis,
    two_sample_dirichlet_lrt,
    two_sample_ndd_lrt,
)
from .nested import NddParams, NestingTree, flat_tree, parse_tree, render_tree
from .simulate import DirichletLRT, MaugardProcedure, NddLRT, SimResult, SimSpec, run_power_study, run_type1_study
from .treesearch import enumerate_trees, filter_impossible, select_tree

__version__ = "0.1.0"

__all__ = [
    "CompositionDataset",
    "DegenerateDataError",
    "DimensionMismatchError",
    "DirichletLRT",
    "DirichletParams",
    "DomainError",
    "EmptyGroupError",
    "InputError",
    "MaugardProcedure",
    "MaugardResult",
    "MeanDifferenceCI",
    "MissingColumnError",
    "NddLRT",
    "NddParams",
    "NestingTree",
    "NonConvergenceError",
    "NotNormalizedError",
    "NumericalError",
    "SimResult",
    "SimSpec",
    "SimplexStatsError",
    "SufficientStats",
    "TestReport",
    "TooFewComponentsError",
    "TreeFormatError",
    "TreeStructureError",
    "ZeroComponentError",
    "__version__",
    "clr_hotelling_test",
    "enumerate_trees",
    "filter_impossible",
    "flat_tree",
    "maugard_procedure",
    "one_sample_uniformity_test",
    "pairwise_mean_cis",
    "parse_tree",
    "render_tree",
    "run_power_study",
    "run_type1_study",
    "sample_correlation",
    "select_tree",
    "two_sample_dirichlet_lrt",
    "two_sample_ndd_lrt",
]
