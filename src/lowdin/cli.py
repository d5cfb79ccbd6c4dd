"""Command line front end.

Reads a matrix from a delimited text file, runs one of the
decompositions or checks, writes the factor matrices as
``<command>_<factor>.<ext>`` files plus a ``report.json``, and exits 0
only if every residual clears its tolerance.  Exit status 2 flags an
input or usage problem, 3 a numerical failure (singular metric, no
convergence), and 1 a run whose residuals missed the configured
tolerances.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .decompositions import factorize, symmetric_from_svd
from .errors import LinalgError, SingularMetric
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig
from .matrixio import MatrixFileError, parse_matrix_file, write_matrix_file
from .pca import _require_tall, compare_spectra, principal_components

COMMANDS = ("symmetric", "canonical", "polar", "svd", "pca", "verify", "relations")

# Pass/fail bounds for residuals that have no ToleranceConfig field: the
# analytic relations are exact identities up to a few ulps, the spectral
# and projection-sum matches hold to roundoff amplified by conditioning.
RELATION_TOL = 1e-12
PROJECTION_SUM_TOL = 1e-9
GRAM_SSCP_TOL = 1e-9


@dataclass
class RunConfig:
    """Everything one CLI invocation needs."""

    command: str
    input_path: Path
    output_dir: Path = Path(".")
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES
    output_precision: int = 17
    format: str = "csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not 1 <= self.output_precision <= 17:
            raise ValueError("output precision must be between 1 and 17")
        if self.format not in ("csv", "tsv"):
            raise ValueError(f"unknown format {self.format!r}")


@dataclass
class VerificationReport:
    """Machine-readable outcome written to ``report.json``."""

    command: str
    rows: int
    cols: int
    residuals: dict
    eigenvalues: list
    singular_values: list
    condition_estimate: float | None
    passed: bool
    elapsed_ms: float
    error: dict | None = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "rows": self.rows,
            "cols": self.cols,
            "residuals": {k: _json_number(v) for k, v in sorted(self.residuals.items())},
            "eigenvalues": [_json_number(v) for v in self.eigenvalues],
            "singular_values": [_json_number(v) for v in self.singular_values],
            "condition_estimate": _json_number(self.condition_estimate),
            "pass": self.passed,
            "elapsed_ms": self.elapsed_ms,
            "error": self.error,
        }


def _json_number(value):
    if value is None:
        return None
    value = float(value)
    if math.isfinite(value):
        return value
    return "inf" if value > 0 else ("-inf" if value < 0 else "nan")


def _tolerance_for(name: str, cfg: ToleranceConfig) -> float:
    return {
        "orthonormality": cfg.orthonormality_tol,
        "polar_reconstruction": cfg.reconstruction_tol,
        "svd_reconstruction": cfg.reconstruction_tol,
        "relation_lambda_phi_u": RELATION_TOL,
        "relation_phi_w_udagger": RELATION_TOL,
        "projection_sum_gap": PROJECTION_SUM_TOL,
        "gram_sscp_gap": GRAM_SSCP_TOL,
    }[name]


@dataclass
class _CommandOutput:
    residuals: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    eigenvalues: list = field(default_factory=list)
    singular_values: list = field(default_factory=list)
    condition: float | None = None


# Each command reports some of Factorization.residuals (the per-basis
# orthonormality ones as their worst, "orthonormality") and writes the
# file <command>_<view> for each of its views.
_COMMANDS = {
    "symmetric": (("phi_orthonormality",), ("Phi",)),
    "canonical": (("lambda_orthonormality",), ("Lambda",)),
    "polar": (("phi_orthonormality", "polar_reconstruction"), ("Phi", "H")),
    "svd": (("lambda_orthonormality", "svd_reconstruction"), ("W", "sigma", "Udagger")),
    "pca": (("projection_sum_gap",), ("components", "scores")),
    "relations": (
        (
            "phi_orthonormality",
            "lambda_orthonormality",
            "relation_lambda_phi_u",
            "relation_phi_w_udagger",
        ),
        ("Phi", "Lambda", "U", "Lambda_from_Phi", "Phi_from_Lambda", "Phi_from_svd"),
    ),
    "verify": ((), ()),  # naming no residual selects every one
}

# Views of the factorization f and, for pca, the SSCP components s.
_VIEWS = {
    "Phi": lambda f, s: f.phi.matrix,
    "Lambda": lambda f, s: f.lam.matrix,
    "U": lambda f, s: f.eigen.eigenvectors,
    "H": lambda f, s: f.polar.positive,
    "W": lambda f, s: f.svd.left,
    "sigma": lambda f, s: f.svd.singular_values,
    "Udagger": lambda f, s: f.svd.right.conj().T,
    "Lambda_from_Phi": lambda f, s: f.phi.matrix @ f.eigen.eigenvectors,
    "Phi_from_Lambda": lambda f, s: f.lam.matrix @ f.eigen.eigenvectors.conj().T,
    "Phi_from_svd": lambda f, s: symmetric_from_svd(f.svd).matrix,
    "components": lambda f, s: s.components,
    "scores": lambda f, s: s.component_scores,
}


def _solve(command: str, v: np.ndarray, cfg: ToleranceConfig):
    """The one metric factorization, plus the SSCP solve for pca and verify.

    The order fixes which error a command reports: pca diagonalizes
    S = V·V† first and verify M first, and both refuse a wide V before
    their second solve.
    """
    if command == "pca":
        s = principal_components(v, cfg)
        _require_tall(*v.shape)
        return factorize(v, cfg), s
    f = factorize(v, cfg)
    if command != "verify":
        return f, None
    _require_tall(*v.shape)
    return f, principal_components(v, cfg)


def _outputs(command: str, v: np.ndarray, cfg: ToleranceConfig) -> _CommandOutput:
    names, views = _COMMANDS[command]
    f, s = _solve(command, v, cfg)
    values = f.residuals(*names)
    bases = [r for name, r in values.items() if name.endswith("_orthonormality")]
    out = _CommandOutput(
        residuals={n: r for n, r in values.items() if not n.endswith("_orthonormality")},
        files={f"{command}_{view}": _VIEWS[view](f, s) for view in views},
        eigenvalues=list(f.eigen.eigenvalues),
        condition=f.eigen.condition_estimate(),
    )
    if bases:
        out.residuals["orthonormality"] = max(bases)
    if s is not None:
        out.residuals["gram_sscp_gap"] = compare_spectra(
            f.eigen.eigenvalues, s.eigen.eigenvalues, cfg
        ).max_relative_gap
    if command == "pca":
        out.eigenvalues = list(s.component_scores)
    if command in ("svd", "relations", "verify"):
        out.singular_values = list(f.svd.singular_values)
    if command == "svd":
        # The svd report gives σ alone, and its condition from σ², not d.
        sigma = f.svd.singular_values
        smallest = float(sigma[-1])
        out.eigenvalues = []
        out.condition = (float(sigma[0]) / smallest) ** 2 if smallest > 0.0 else math.inf
    return out


def _describe_error(exc: Exception) -> dict:
    info = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("eigenvalue_index", "eigenvalue", "condition", "sweeps", "off_norm"):
        value = getattr(exc, attr, None)
        if value is not None:
            info[attr] = _json_number(value) if isinstance(value, float) else value
    return info


def run(config: RunConfig) -> int:
    """Execute one command and write its factor files and report."""
    started = time.perf_counter()
    try:
        matrix = parse_matrix_file(config.input_path, config.format)
    except (MatrixFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cfg = config.tolerances
    error = None
    out = _CommandOutput()
    try:
        out = _outputs(config.command, matrix, cfg)
    except LinalgError as exc:
        error = _describe_error(exc)
        if isinstance(exc, SingularMetric):
            out.condition = exc.condition

    passed = error is None and all(
        residual <= _tolerance_for(name, cfg)
        for name, residual in out.residuals.items()
    )

    config.output_dir.mkdir(parents=True, exist_ok=True)
    extension = config.format
    for name, values in out.files.items():
        write_matrix_file(
            config.output_dir / f"{name}.{extension}",
            values,
            fmt=config.format,
            precision=config.output_precision,
        )
    report = VerificationReport(
        command=config.command,
        rows=matrix.shape[0],
        cols=matrix.shape[1],
        residuals=out.residuals,
        eigenvalues=out.eigenvalues,
        singular_values=out.singular_values,
        condition_estimate=out.condition,
        passed=passed,
        elapsed_ms=round((time.perf_counter() - started) * 1000.0, 3),
        error=error,
    )
    report_path = config.output_dir / "report.json"
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    if error is not None:
        print(f"error: {error['type']}: {error['message']}", file=sys.stderr)
        return 3
    return 0 if passed else 1


def _precision_arg(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 17:
        raise argparse.ArgumentTypeError("precision must be between 1 and 17")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdin",
        description="Orthogonalize a matrix and verify the derived factorizations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "symmetric": "symmetric orthogonalization Phi = V M^(-1/2)",
        "canonical": "canonical orthogonalization Lambda = V U d^(-1/2)",
        "polar": "polar decomposition V = Phi M^(1/2)",
        "svd": "reduced singular value decomposition V = W diag(sigma) U†",
        "pca": "principal components of the SSCP matrix V V†",
        "verify": "run every factorization and report all residuals",
        "relations": "emit Phi by three routes and check the inter-basis identities",
    }
    for name in COMMANDS:
        sub = subparsers.add_parser(name, help=descriptions[name])
        sub.add_argument("--input", required=True, help="matrix file to read")
        sub.add_argument(
            "--output-dir", default=".", help="directory for factor files and report.json"
        )
        sub.add_argument("--format", choices=("csv", "tsv"), default="csv")
        sub.add_argument(
            "--precision",
            type=_precision_arg,
            default=17,
            help="significant digits in output files (17 = shortest round trip)",
        )
        sub.add_argument("--tol-hermiticity", type=float, default=None)
        sub.add_argument("--tol-orthonormality", type=float, default=None)
        sub.add_argument("--tol-reconstruction", type=float, default=None)
        sub.add_argument("--rank-tol", type=float, default=None)
        sub.add_argument("--tol-eigen-convergence", type=float, default=None)
        sub.add_argument("--max-sweeps", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "hermiticity_tol": args.tol_hermiticity,
        "orthonormality_tol": args.tol_orthonormality,
        "reconstruction_tol": args.tol_reconstruction,
        "rank_tol": args.rank_tol,
        "eigen_convergence_tol": args.tol_eigen_convergence,
        "max_sweeps": args.max_sweeps,
    }
    try:
        tolerances = ToleranceConfig(
            **{k: v for k, v in overrides.items() if v is not None}
        )
        config = RunConfig(
            command=args.command,
            input_path=Path(args.input),
            output_dir=Path(args.output_dir),
            tolerances=tolerances,
            output_precision=args.precision,
            format=args.format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
