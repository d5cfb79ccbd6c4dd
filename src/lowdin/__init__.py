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
    hermitian_eigen,
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
    canonical_orthogonalize,
    require_unitary,
    symmetric_orthogonalize,
    verify_orthonormal,
)
from .pca import SscpResult, principal_components, projection_square_sums

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCES",
    "DimensionMismatch",
    "EmptyMatrix",
    "Factorization",
    "HermitianEigen",
    "LinalgError",
    "MatrixFileError",
    "Method",
    "NoConvergence",
    "NotHermitian",
    "NotUnitary",
    "OrthonormalBasis",
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
    "factorize",
    "format_matrix",
    "hermitian_eigen",
    "max_abs",
    "parse_matrix_file",
    "parse_matrix_text",
    "polar_decompose",
    "principal_components",
    "projection_square_sums",
    "reconstruct_polar",
    "reconstruct_svd",
    "reduced_svd",
    "require_unitary",
    "symmetric_from_canonical",
    "symmetric_from_svd",
    "symmetric_orthogonalize",
    "verify_orthonormal",
    "write_matrix_file",
]
