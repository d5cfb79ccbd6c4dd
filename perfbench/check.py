"""Independent checks of every op's outputs, made outside its timed window.

References come from ``numpy.linalg.svd`` of the generated input, never
from lowdin.  Each op ends in one of three states:

* ``ok``: the outputs meet the README contract and agree with the
  reference (orthonormality within ``orthonormality_tol``, everything
  else within ``reconstruction_tol``);
* ``known``: the op failed exactly the way the documented seed defects
  fail (ROADMAP baseline): accuracy lost through V†V by no more than the
  Gram-route error model m·ε·cond(V†V), whether the CLI noticed it
  (exit 1) or not; exit 2 without ``report.json`` on malformed files; a
  traceback on ``1e999`` or on 1e200·I;
* ``wrong``: anything else, such as a silently wrong factor or an exit
  code that no input class explains.

``known`` and ``wrong`` ops both count as failed; only ``wrong`` ops make
the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import Op, parse_text

EPS = float(np.finfo(float).eps)

# README exit-status table, per hostile input class.
_EXPECTED_EXIT = {
    "bad_token": {2},
    "ragged_row": {2},
    "overflow_token": {2},
    "rank_deficient": {3},
    "huge_identity": {0, 3},  # valid input: exact factors, or a reported numerical error
}
# How each hostile class fails at the seed: (exit code, traceback, report.json written).
_SEED_DEFECT = {
    "bad_token": (2, False, False),
    "ragged_row": (2, False, False),
    "overflow_token": (1, True, False),
    "huge_identity": (1, True, False),
}


@dataclass(frozen=True)
class Verdict:
    status: str  # "ok", "known" or "wrong"
    resid: float | None = None  # worst independent residual, if factors came back
    exit_code: int | None = None
    traceback: bool = False
    report_missing: bool = False
    detail: str = ""


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def orthonormality(z) -> float:
    return max_abs(z.conj().T @ z - np.eye(z.shape[1]))


def relative_gap(a, b) -> float:
    """max|a − b| / (1 + max|b|), the README's reconstruction measure."""
    a = np.asarray(a).reshape(np.shape(b))
    return max_abs(a - b) / (1.0 + max_abs(b))


def span_gap(z, v) -> float:
    return relative_gap(z @ (z.conj().T @ v), v)


class Reference:
    """σ, Φ = U_ref·Vh_ref and H = Vh_ref†·diag(σ)·Vh_ref from numpy's SVD."""

    def __init__(self, v):
        u, s, vh = np.linalg.svd(v, full_matrices=False)
        self.v = v
        self.sigma = s
        self.phi = u @ vh
        self.h = (vh.conj().T * s) @ vh
        metric_cond = (s[0] / s[-1]) ** 2 if s[-1] > 0.0 else np.inf
        # Orthonormality and residuals computed through V†V lose up to
        # about m·ε·cond(V†V): the documented accuracy defect of the seed.
        self.gram_route_bound = v.shape[1] * EPS * metric_cond


def _verdict(residuals: dict, ref: Reference, **fields) -> Verdict:
    """``residuals`` maps a name to (value, tolerance)."""
    resid = max(value for value, _ in residuals.values())
    missed = sorted(name for name, (value, tol) in residuals.items() if not value <= tol)
    if not missed:
        status = "ok"
    else:
        status = "known" if resid <= ref.gram_route_bound else "wrong"
    return Verdict(status, resid, detail=",".join(missed), **fields)


def check_library(op: Op, result, error: Exception | None, cfg) -> Verdict:
    """Check a solve-single result: an OrthonormalBasis or SvdFactors."""
    if error is not None:
        return Verdict("wrong", detail=f"{type(error).__name__}: {error}")
    ref = Reference(op.matrix)
    if op.command == "svd":
        z, u, sigma = result.left, result.right, result.singular_values
    else:
        eigen = result.source_eigen
        z, u = result.matrix, eigen.eigenvectors
        sigma = np.sqrt(np.maximum(eigen.eigenvalues, 0.0))
    phi = z if op.command == "symmetric" else z @ u.conj().T
    return _verdict(
        {
            "orthonormality": (orthonormality(z), cfg.orthonormality_tol),
            "phi": (relative_gap(phi, ref.phi), cfg.reconstruction_tol),
            "sigma": (relative_gap(sigma, ref.sigma), cfg.reconstruction_tol),
        },
        ref,
    )


def _factor_residuals(op: Op, ref: Reference, outdir: Path, report: dict, cfg) -> dict:
    ext = op.fmt

    def load(name):
        return parse_text((outdir / f"{name}.{ext}").read_text(encoding="utf-8"), ext)

    otol, rtol = cfg.orthonormality_tol, cfg.reconstruction_tol
    v = ref.v
    c = op.command
    if c == "symmetric":
        phi = load("symmetric_Phi")
        return {"orthonormality": (orthonormality(phi), otol), "phi": (relative_gap(phi, ref.phi), rtol)}
    if c == "canonical":
        lam = load("canonical_Lambda")
        return {
            "orthonormality": (orthonormality(lam), otol),
            "span": (span_gap(lam, v), rtol),
            "sigma": (relative_gap(np.linalg.norm(v.conj().T @ lam, axis=0), ref.sigma), rtol),
        }
    if c == "polar":
        phi, h = load("polar_Phi"), load("polar_H")
        return {
            "orthonormality": (orthonormality(phi), otol),
            "phi": (relative_gap(phi, ref.phi), rtol),
            "h": (relative_gap(h, ref.h), rtol),
        }
    if c == "svd":
        w, sigma, udag = load("svd_W"), load("svd_sigma")[:, 0], load("svd_Udagger")
        return {
            "orthonormality": (orthonormality(w), otol),
            "sigma": (relative_gap(sigma, ref.sigma), rtol),
            "reconstruction": (relative_gap((w * sigma) @ udag, v), rtol),
            "phi": (relative_gap(w @ udag, ref.phi), rtol),
        }
    if c == "pca":
        comps, scores = load("pca_components"), load("pca_scores")[:, 0]
        return {
            "orthonormality": (orthonormality(comps), otol),
            "span": (span_gap(comps, v), rtol),
            "scores": (relative_gap(scores, ref.sigma**2), rtol),
        }
    if c == "relations":
        phi, lam = load("relations_Phi"), load("relations_Lambda")
        return {
            "orthonormality": (max(orthonormality(phi), orthonormality(lam)), otol),
            "phi": (relative_gap(phi, ref.phi), rtol),
            "span": (span_gap(lam, v), rtol),
            "phi_from_lambda": (relative_gap(load("relations_Phi_from_Lambda"), ref.phi), rtol),
            "phi_from_svd": (relative_gap(load("relations_Phi_from_svd"), ref.phi), rtol),
            "lambda_from_phi": (relative_gap(load("relations_Lambda_from_Phi"), lam), rtol),
            "u_unitary": (orthonormality(load("relations_U")), otol),
        }
    # verify writes no factor files; its report carries the spectrum.
    return {
        "sigma": (relative_gap(np.array(report["singular_values"], dtype=float), ref.sigma), rtol),
        "eigenvalues": (relative_gap(np.array(report["eigenvalues"], dtype=float), ref.sigma**2), rtol),
    }


def check_cli(op: Op, exit_code: int, traceback: bool, outdir: Path, cfg) -> Verdict:
    """Check one CLI run from its exit code, ``report.json`` and factor files."""
    report_path = outdir / "report.json"
    try:
        report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.is_file() else None
    except ValueError:
        return Verdict("wrong", exit_code=exit_code, traceback=traceback, detail="report.json is not JSON")
    fields = dict(exit_code=exit_code, traceback=traceback, report_missing=report is None)
    expected = _EXPECTED_EXIT.get(op.hostile, {0})
    clean = exit_code in expected and not traceback and report is not None
    if op.hostile is not None and not (clean and exit_code == 0):
        if clean:
            return Verdict("ok", **fields)
        seed_defect = (exit_code, traceback, report is not None)
        status = "known" if _SEED_DEFECT.get(op.hostile) == seed_defect else "wrong"
        return Verdict(status, detail=f"exit {exit_code}", **fields)
    # Exit 1 (a residual missed its tolerance) still writes every factor.
    missed_own_check = exit_code == 1 and not traceback and report is not None
    if not clean and not missed_own_check:
        return Verdict("wrong", detail=f"exit {exit_code}", **fields)
    ref = Reference(op.matrix)
    try:
        residuals = _factor_residuals(op, ref, outdir, report, cfg)
        if missed_own_check:
            # Counted as missed whatever its value; float() reads "inf" and "nan".
            reported = [float(value) for value in report["residuals"].values()]
            worst = max(reported) if all(r == r for r in reported) else np.inf
            residuals["reported_by_cli"] = (worst, -np.inf)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Verdict("wrong", detail=f"unreadable output: {exc}", **fields)
    return _verdict(residuals, ref, **fields)
