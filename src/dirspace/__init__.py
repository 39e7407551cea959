"""Numerical probes for Hankel- and Cesaro-type operators on the Dirichlet space."""

from .coeffspace import (
    TaylorPoly,
    dirichlet_inner,
    evaluate,
    kernel_coeffs,
    normalized_kernel_coeffs,
    space_norm,
)
from .criteria import (
    ClassifyConfig,
    ClassReport,
    classify,
    dirichlet_membership,
    double_sum_ratio,
    rkt_probe,
    widom_profile,
    widom_tail,
)
from .measures import MeasureSpec, classify_measure
from .operators import (
    cesaro_apply,
    cesaro_rkt_norm,
    hankel_apply,
    section_matrix,
    tail_section_norm,
    top_singular_value,
)
from .stochastic import (
    DistTag,
    RngSpec,
    fourth_moment_exact_rademacher,
    fourth_moment_mc,
    random_tail_experiment,
    sample_symbol,
)
from .symbols import SymbolSeq

__version__ = "0.1.0"

__all__ = [
    "TaylorPoly",
    "SymbolSeq",
    "MeasureSpec",
    "DistTag",
    "RngSpec",
    "ClassifyConfig",
    "ClassReport",
    "space_norm",
    "dirichlet_inner",
    "evaluate",
    "kernel_coeffs",
    "normalized_kernel_coeffs",
    "hankel_apply",
    "cesaro_apply",
    "section_matrix",
    "top_singular_value",
    "tail_section_norm",
    "cesaro_rkt_norm",
    "widom_tail",
    "widom_profile",
    "classify",
    "rkt_probe",
    "dirichlet_membership",
    "double_sum_ratio",
    "classify_measure",
    "sample_symbol",
    "fourth_moment_exact_rademacher",
    "fourth_moment_mc",
    "random_tail_experiment",
    "__version__",
]
