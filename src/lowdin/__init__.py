"""Democratic orthogonalization toolkit.

Symmetric and canonical orthogonalization of a full-column-rank set of
vectors, with polar decomposition, reduced SVD, and raw-SSCP principal
component analysis all derived from the same Hermitian
eigendecomposition of the metric matrix (``factorize``), plus the
analytic conversions between the bases.
"""

from .decompositions import (
    Factorization,
    PolarFactors,
    SvdFactors,
    canonical_from_symmetric,
    factorize,
    polar_decompose,
    reconstruct_polar,
    reconstruct_svd,
    reduced_svd,
    symmetric_from_canonical,
    symmetric_from_svd,
)
from .errors import (
    DimensionMismatch,
    LinalgError,
    NegativeEigenvalue,
    NoConvergence,
    NotHermitian,
    NotUnitary,
    SingularMetric,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    HermitianEigen,
    ToleranceConfig,
    apply_phase_convention,
    as_matrix,
    gram_metric,
    hermitian_eigen,
    hermitian_power,
    max_abs,
)
from .matrixio import (
    EmptyMatrix,
    MatrixFileError,
    ParseError,
    RaggedRows,
    format_matrix,
    parse_matrix_file,
    parse_matrix_text,
    write_matrix_file,
)
from .ortho import (
    Method,
    OrthonormalBasis,
    OrthonormalityReport,
    canonical_orthogonalize,
    orthogonalize_general,
    require_unitary,
    symmetric_orthogonalize,
    verify_orthonormal,
)
from .pca import (
    EquivalenceReport,
    SscpResult,
    compare_spectra,
    gram_sscp_eigenvalue_check,
    principal_components,
    projection_square_sums,
    sscp_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCES",
    "DimensionMismatch",
    "EmptyMatrix",
    "EquivalenceReport",
    "Factorization",
    "HermitianEigen",
    "LinalgError",
    "MatrixFileError",
    "Method",
    "NegativeEigenvalue",
    "NoConvergence",
    "NotHermitian",
    "NotUnitary",
    "OrthonormalBasis",
    "OrthonormalityReport",
    "ParseError",
    "PolarFactors",
    "RaggedRows",
    "SingularMetric",
    "SscpResult",
    "SvdFactors",
    "ToleranceConfig",
    "apply_phase_convention",
    "as_matrix",
    "canonical_from_symmetric",
    "canonical_orthogonalize",
    "compare_spectra",
    "factorize",
    "format_matrix",
    "gram_metric",
    "gram_sscp_eigenvalue_check",
    "hermitian_eigen",
    "hermitian_power",
    "max_abs",
    "orthogonalize_general",
    "parse_matrix_file",
    "parse_matrix_text",
    "polar_decompose",
    "principal_components",
    "projection_square_sums",
    "reconstruct_polar",
    "reconstruct_svd",
    "reduced_svd",
    "require_unitary",
    "sscp_matrix",
    "symmetric_from_canonical",
    "symmetric_from_svd",
    "symmetric_orthogonalize",
    "verify_orthonormal",
    "write_matrix_file",
]
