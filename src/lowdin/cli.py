"""Command line front end.

Reads a matrix from a delimited text file, runs one of the
decompositions or checks, writes the factor matrices as
``<command>_<factor>.<ext>`` files plus a ``report.json``, and exits 0
only if every residual clears its tolerance.  Exit status 2 flags an
input or usage problem, an output path that cannot be written among
them, 3 a numerical failure (singular metric, no convergence,
overflow), and 1 a run whose residuals missed their fixed bounds.  A
run that gets past argument parsing writes ``report.json``, with
``error`` filled in when it failed, unless the output directory cannot
be made or ``report.json`` cannot be written there.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path
from typing import NamedTuple, NoReturn

from .decompositions import factorize
from .errors import LinalgError
from .linalg import ToleranceConfig
from .matrixio import MatrixFileError, parse_matrix_file, write_matrix_file

class Command(NamedTuple):
    """One CLI command, as a view of ``factorize``'s ``Factorization``.

    ``residuals`` names entries of ``Factorization.residuals`` (none
    names every one), each checked against its ``Factorization.bounds``
    entry; the per-basis orthonormality ones are reported as their
    worst, ``orthonormality``.  Each of ``views`` is written as
    ``<command>_<view>``.  Every command reports the same spectrum: the
    metric eigenvalues d, the singular values σ and cond(M).
    """

    help: str
    residuals: tuple = ()
    views: tuple = ()


COMMANDS = {
    "symmetric": Command(
        "symmetric orthogonalization Phi = V M^(-1/2)", ("phi_orthonormality",), ("Phi",)
    ),
    "canonical": Command(
        "canonical orthogonalization Lambda = V U d^(-1/2)",
        ("lambda_orthonormality",),
        ("Lambda",),
    ),
    "polar": Command(
        "polar decomposition V = Phi M^(1/2)",
        ("phi_orthonormality", "polar_reconstruction"),
        ("Phi", "H"),
    ),
    "svd": Command(
        "reduced singular value decomposition V = W diag(sigma) U†",
        ("lambda_orthonormality", "svd_reconstruction"),
        ("W", "sigma", "Udagger"),
    ),
    "pca": Command(
        "principal components of the SSCP matrix V V†",
        ("lambda_orthonormality", "projection_sum_gap", "sscp_eigenpair"),
        ("components", "scores"),
    ),
    "verify": Command("run every factorization and report all residuals"),
    "relations": Command(
        "emit Phi, Lambda, U and the basis conversions; check Lambda = Phi U",
        ("phi_orthonormality", "lambda_orthonormality", "relation_lambda_phi_u"),
        ("Phi", "Lambda", "U", "Lambda_from_Phi", "Phi_from_Lambda", "Phi_from_svd"),
    ),
}


# Views of a Factorization f, each a cached attribute or its transpose;
# S = V·V†'s components are Λ phase-fixed and its scores are d.  Both
# ``Phi_from_*`` files are Φ itself: ``symmetric_from_svd`` builds Φ once,
# as W·U† with W = Λ, so it is also Λ·U†.
_VIEWS = {
    "Phi": lambda f: f.phi.matrix,
    "Lambda": lambda f: f.lam.matrix,
    "U": lambda f: f.eigen.eigenvectors,
    "H": lambda f: f.polar.positive,
    "W": lambda f: f.svd.left,
    "sigma": lambda f: f.svd.singular_values,
    "Udagger": lambda f: f.svd.right.conj().T,
    "Lambda_from_Phi": lambda f: f.lambda_from_phi,
    "Phi_from_Lambda": lambda f: f.phi.matrix,
    "Phi_from_svd": lambda f: f.phi.matrix,
    "components": lambda f: f.components,
    "scores": lambda f: f.eigen.eigenvalues,
}

# Exit status per exception: an unreadable or malformed input file is 2;
# a numerical failure is 3, including an eigenvalue of V†V that leaves
# the float64 range.
_EXIT_CODES = {
    MatrixFileError: 2,
    OSError: 2,
    UnicodeError: 2,
    LinalgError: 3,
    OverflowError: 3,
}


def _json_number(value):
    if value is None:
        return None
    value = float(value)
    if math.isfinite(value):
        return value
    return "inf" if value > 0 else ("-inf" if value < 0 else "nan")


def _describe_error(exc: Exception) -> dict:
    info = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("eigenvalue_index", "eigenvalue", "condition", "sweeps", "off_norm"):
        value = getattr(exc, attr, None)
        if value is not None:
            info[attr] = _json_number(value) if isinstance(value, float) else value
    return info


def run(args: argparse.Namespace, cfg: ToleranceConfig) -> int:
    """Execute one parsed command line and write its factor files and report.

    ``args`` is what ``_build_parser`` parsed, so the command and format
    are already valid.  Each factor file holds the shortest round-trip
    decimals of its array, so it parses back to exactly the array whose
    residuals the report certifies.
    """
    started = time.perf_counter()
    command = COMMANDS[args.command]
    output_dir = Path(args.output_dir)
    report = {
        "command": args.command,
        "rows": None,
        "cols": None,
        "residuals": {},
        "eigenvalues": [],
        "singular_values": [],
        "condition_estimate": None,
        "error": None,
    }
    files = {}
    code = 0
    try:
        v = parse_matrix_file(args.input, args.format)
        report["rows"], report["cols"] = v.shape
        f = factorize(v, cfg)
        values = f.residuals(*command.residuals)
        files = {f"{args.command}_{view}": _VIEWS[view](f) for view in command.views}
        report.update(
            eigenvalues=[_json_number(x) for x in f.eigen.eigenvalues],
            singular_values=[_json_number(x) for x in f.sigma],
            condition_estimate=_json_number(f.condition),
        )
    except tuple(_EXIT_CODES) as exc:
        code = next(c for kind, c in _EXIT_CODES.items() if isinstance(exc, kind))
        report["error"] = _describe_error(exc)
        report["condition_estimate"] = _json_number(getattr(exc, "condition", None))
    else:
        bases = [r for name, r in values.items() if name.endswith("_orthonormality")]
        residuals = {n: r for n, r in values.items() if not n.endswith("_orthonormality")}
        if bases:
            residuals["orthonormality"] = max(bases)
        report["residuals"] = {n: _json_number(r) for n, r in residuals.items()}
        bounds = f.bounds(*values)
        if not all(r <= bounds[n] for n, r in values.items()):
            code = 1

    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        written = {}  # id of each array -> the file it was formatted into
        for name, matrix in files.items():
            path = output_dir / f"{name}.{args.format}"
            if id(matrix) in written:  # another view of the same array: same bytes
                shutil.copyfile(written[id(matrix)], path)
                continue
            write_matrix_file(path, matrix, fmt=args.format)
            written[id(matrix)] = path
    except OSError as exc:
        # An output path that cannot be written is a usage error, unless
        # the run already failed for another reason, which stays reported.
        if report["error"] is None:
            code, report["error"] = 2, _describe_error(exc)
    report["pass"] = code == 0
    report["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    try:
        (output_dir / "report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:  # no directory to write it in, or report.json is not a file
        if report["error"] is None:
            code, report["error"] = 2, _describe_error(exc)
    if report["error"] is not None:
        print(f"error: {report['error']['type']}: {report['error']['message']}", file=sys.stderr)
    return code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    epilog = "commands:\n" + "\n".join(
        f"  {name:<11} {command.help}" for name, command in COMMANDS.items()
    )
    parser = argparse.ArgumentParser(
        prog="lowdin",
        usage="%(prog)s COMMAND --input INPUT [options]",
        description="Orthogonalize a matrix and verify the derived factorizations.\n\n"
        "An n x m input V is rank deficient, and the run exits 3 with SingularMetric,\n"
        "when a singular value of V is at most max(n, m)·ε·σ_max, the rule of\n"
        "numpy.linalg.matrix_rank.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND", help="one of the below")
    parser.add_argument("--input", required=True, help="matrix file to read")
    parser.add_argument(
        "--output-dir", default=".", help="directory for factor files and report.json"
    )
    parser.add_argument(
        "--format", choices=("csv", "tsv"), default="csv", help="input and output files (default: csv)"
    )
    parser.add_argument(
        "--max-sweeps",
        type=int,
        default=ToleranceConfig.max_sweeps,
        help=f"Jacobi sweep limit, an integer >= 1 (default: {ToleranceConfig.max_sweeps}); "
        "exit 3 with NoConvergence if a pair still fails the solver's relative "
        "test after that many sweeps",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ToleranceConfig(max_sweeps=args.max_sweeps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args, cfg)


def console() -> NoReturn:
    """Program entry of ``lowdin`` and ``python -m lowdin.cli``.

    Runs ``main``, flushes stdout and stderr and ends the process with
    ``os._exit``, skipping interpreter teardown: the garbage collection
    passes over numpy's and lowdin's objects and the module clean-up,
    about 14 ms of a 126 ms ``verify`` process.  They buy nothing, as
    every file ``main`` writes is closed before it returns.  atexit
    handlers do not run.  An exception that escapes ``main``, and
    argparse's ``SystemExit`` (``--help``, a bad flag), take the normal
    exit path.
    """
    status = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when its descriptor was closed at start
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    console()
