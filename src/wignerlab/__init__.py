"""Numerics for the limiting laws of diagonal matrix elements of functions
of real symmetric Wigner random matrices, with seeded Monte Carlo verification."""

__version__ = "0.1.0"

from .ensembles import (
    EnsembleSpec,
    EntryDistribution,
    SymmetricMatrix,
    entry_cf,
    make_entry_distribution,
    sample_matrix,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    empirical_cf,
    gaussian_limit_test,
    lemma_decay_experiment,
    phi_entries,
    run_entry_experiment,
)
from .limits import (
    LimitPrediction,
    cov_limit_wigner,
    limit_cf,
    limit_cumulants,
    var_limit,
)
from .semicircle import (
    TestFunction,
    gaussian_damped,
    monomial,
    polynomial,
    sc_integral,
    tabulated,
    v_of_t,
)
from .spectral import (
    eigh,
    lanczos_jacobi,
    lemma_statistics,
    matrix_function_entry,
    power_moments,
)

__all__ = [
    "EnsembleSpec",
    "EntryDistribution",
    "ExperimentConfig",
    "ExperimentResult",
    "LimitPrediction",
    "SymmetricMatrix",
    "TestFunction",
    "cov_limit_wigner",
    "eigh",
    "empirical_cf",
    "entry_cf",
    "gaussian_damped",
    "gaussian_limit_test",
    "lanczos_jacobi",
    "lemma_decay_experiment",
    "lemma_statistics",
    "limit_cf",
    "limit_cumulants",
    "make_entry_distribution",
    "matrix_function_entry",
    "monomial",
    "phi_entries",
    "polynomial",
    "power_moments",
    "run_entry_experiment",
    "sample_matrix",
    "sc_integral",
    "tabulated",
    "v_of_t",
    "var_limit",
]
