#!/usr/bin/env python3
"""Byte-compare every CLI output of two lowdin checkouts.

Writes a corpus of 165 inputs to WORK/corpus: the test fixtures, 120
random real and complex V (n <= 40, wide V among them, cond(V†V) up to
1e12) and fifteen hostile files (a bad token, a ragged row, an
overflowing token, 1e200·I, 1e160·I, 1e-200·I, [[1e300, 1], [1, 1e-300]],
a rank-deficient, a zero, a 1 x 1, a row and a column matrix, and three
V whose d is subnormal or underflows: 1e-160·I, a tall 3 x 2 V of
entries near 1e-158 and [[1e-170], [1e-170]]), all csv, plus tsv copies
of the fixtures and of the first 20 random inputs.  Every command runs
once on every input, with the ``--format`` its suffix names: 1155 runs
in all.  Outputs are compared,
not solver work: the sweeps a change saves or costs show in
``ACCURACY.json``'s ``sweeps_total`` and in the ``sweeps_total`` row of
CI's output-drift step.
Each checkout runs the corpus in its own interpreter, with its own
``src`` first on ``PYTHONPATH`` and without writing bytecode into it,
and stores the factor files, ``report.json`` (with ``elapsed_ms``
zeroed) and the exit status of every run under WORK/old and WORK/new.
The two trees are then compared file by file.  A run whose exit status changed can write a
different set of factor files; files found in one tree only are listed
by run directory, and the files both trees hold are still compared.  For
the factor files that differ it prints the worst entrywise
|new - old| / max|old|; for the ``report.json`` files that differ, the
worst |new - old| and |new - old| / |old| of each numeric report key
(each residual, d, σ, ``error.off_norm`` and so on, list positions
merged); and it counts the runs whose exit status changed.

Exits 0 when both trees hold the same files, all byte-identical, and 1
otherwise.  Give the same checkout twice to check that runs are
deterministic.

Usage:
    python scripts/compare_outputs.py OLD NEW WORK
"""

import filecmp
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

HOSTILE = {
    "badtoken": "1,2\n3,x\n",
    "ragged": "1,2\n3\n",
    "inf": "1e999,0\n0,1\n",
    "big": "1e200,0\n0,1e200\n",
    "big_d": "1e160,0\n0,1e160\n",
    "tiny": "1e-200,0\n0,1e-200\n",
    "tiny_d": "1e-170\n1e-170\n",
    "graded": "1e300,1\n1,1e-300\n",
    "subnormal_d": "1e-160,0\n0,1e-160\n",
    "subnormal_d_tall": "1e-158,2e-158\n3e-158,-1e-158\n5e-158,1e-158\n",
    "rankdef": "1,2\n2,4\n",
    "zero": "0,0\n0,0\n",
    "scalar": "5\n",
    "row": "1,2,3\n",
    "col": "1\n2\n3\n",
}

# Runs inside each checkout's interpreter: argv is the corpus and the output tree.
RUNNER = r'''
import contextlib, io, json, sys
from pathlib import Path
from lowdin import cli
corpus, out = Path(sys.argv[1]), Path(sys.argv[2])
for path in sorted(corpus.iterdir()):
    for command in cli.COMMANDS:
        d = out / path.name / command
        d.mkdir(parents=True)
        argv = [command, "--input", str(path), "--output-dir", str(d), "--format", path.suffix[1:]]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        (d / "exit").write_text(f"{code}\n")
        report = d / "report.json"
        if report.exists():
            r = json.loads(report.read_text()); r["elapsed_ms"] = 0
            report.write_text(json.dumps(r, indent=2, sort_keys=True) + "\n")
'''


def matrix_text(v):
    """V in the CLI's csv grammar, every entry as its shortest round-trip repr."""

    def token(z):
        if z.imag == 0:
            return repr(z.real)
        return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"

    return "".join(",".join(token(complex(z)) for z in row) + "\n" for row in v)


def write_corpus(fixtures: Path, corpus: Path) -> None:
    corpus.mkdir(parents=True)
    for f in fixtures.glob("*.csv"):
        body = f.read_bytes()
        (corpus / f.name).write_bytes(body)
        (corpus / f"{f.stem}.tsv").write_bytes(body.replace(b",", b"\t"))
    rng = np.random.default_rng(20261018)
    for i in range(120):
        cplx, kind = i % 2 == 1, i % 6
        n = int(rng.integers(20, 41)) if i < 12 else int(rng.integers(1, 10))
        m = int(rng.integers(2, 9)) if i < 12 else int(rng.integers(1, n + 1))
        if kind == 5:  # wide
            n, m = max(1, m - 1), m + int(rng.integers(1, 3))
        cond = 10.0 ** rng.uniform(0, 12)

        def draw(r, c):
            g = rng.standard_normal((r, c))
            return g + 1j * rng.standard_normal((r, c)) if cplx else g

        q1, q2, k = np.linalg.qr(draw(n, n))[0], np.linalg.qr(draw(m, m))[0], min(n, m)
        s = np.geomspace(1.0, cond**-0.5, k) * 10.0 ** rng.uniform(-3, 3)
        u = rng.uniform(-1, 1, (n, m)) + (1j * rng.uniform(-1, 1, (n, m)) if cplx else 0)
        v = (q1[:, :k] * s) @ q2[:k, :] if kind in (0, 1, 2, 5) else u
        text = matrix_text(v)
        (corpus / f"r{i:03d}.csv").write_text(text)
        if i < 20:
            (corpus / f"r{i:03d}.tsv").write_text(text.replace(",", "\t"))
    for name, body in HOSTILE.items():
        (corpus / f"h_{name}.csv").write_text(body)


def run_checkout(root: Path, corpus: Path, out: Path) -> None:
    path = os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-c", RUNNER, str(corpus), str(out)], env=env, check=True)


def read_factor(path: Path) -> np.ndarray:
    """A factor file the CLI wrote (csv or tsv, ``a+bi`` tokens) as a complex array."""
    delimiter = "\t" if path.suffix == ".tsv" else ","
    rows = [line.split(delimiter) for line in path.read_text().splitlines() if line]
    return np.array([[complex(t[:-1] + "j" if t.endswith("i") else t) for t in row] for row in rows])


def relative_drift(a: Path, b: Path) -> float:
    """max|new - old| / max|old| between two factor files; inf if the shapes differ."""
    old, new = read_factor(a), read_factor(b)
    if old.shape != new.shape:
        return float("inf")
    scale = float(np.max(np.abs(old), initial=0.0))
    drift = float(np.max(np.abs(new - old), initial=0.0))
    return drift / scale if scale > 0.0 else (0.0 if drift == 0.0 else float("inf"))


def differing_keys(a: Path, b: Path) -> list:
    """Top-level keys whose values differ between two report.json files."""
    x, y = json.loads(a.read_text()), json.loads(b.read_text())
    return sorted(k for k in x.keys() | y.keys() if x.get(k) != y.get(k))


def numeric_leaves(value, path=""):
    """(path, number) for every int or float leaf of a parsed report.json."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numeric_leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from numeric_leaves(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def report_drift(a: Path, b: Path) -> dict:
    """Per report key, the worst |new - old| and |new - old| / |old| over its numbers.

    Numbers are paired by their full path; the key drops list positions,
    so every eigenvalue counts under ``eigenvalues``.  A relative drift
    from 0 is inf.
    """
    old, new = (dict(numeric_leaves(json.loads(p.read_text()))) for p in (a, b))
    worst = {}
    for path in old.keys() & new.keys():
        x, y = old[path], new[path]
        if x == y:
            continue
        absolute = abs(y - x)
        relative = absolute / abs(x) if x else math.inf
        key = re.sub(r"\[\d+\]", "", path)
        entry = worst.setdefault(key, [0.0, 0.0])
        entry[0], entry[1] = max(entry[0], absolute), max(entry[1], relative)
    return worst


def compare_trees(old: Path, new: Path) -> int:
    """Compare two output trees and print the summary; 1 if they differ in any way, else 0."""
    trees = {"old": old, "new": new}
    files = {side: sorted(p.relative_to(t) for p in t.rglob("*") if p.is_file())
             for side, t in trees.items()}
    codes = [(old / p).read_text().strip() for p in files["old"] if p.name == "exit"]
    print(f"{len(codes)} runs, {len(files['old'])} files; "
          f"exit/outcome counts {dict(sorted(Counter(codes).items()))}")
    old_files, new_files = set(files["old"]), set(files["new"])
    one_sided = defaultdict(list)  # run directory -> "old|new only: name"
    for side, only in (("old", old_files - new_files), ("new", new_files - old_files)):
        for p in sorted(only):
            one_sided[p.parent].append(f"{side} only: {p.name}")
    if one_sided:
        print(f"file sets differ: {sum(map(len, one_sided.values()))} files in one tree only, "
              f"in {len(one_sided)} run directories")
        for run, names in sorted(one_sided.items()):
            print(f"  {run}: {', '.join(names)}")
    differ = [p for p in sorted(old_files & new_files)
              if not filecmp.cmp(old / p, new / p, shallow=False)]
    print(f"differing files: {len(differ)}")
    kinds = Counter(f"{p.parts[-2]}/{p.name}" for p in differ)
    for kind, count in sorted(kinds.items()):
        print(f"  {kind}: {count}")
    keys = Counter(k for p in differ if p.name == "report.json"
                   for k in differing_keys(old / p, new / p))
    if keys:
        print(f"  report.json keys that differ: {dict(sorted(keys.items()))}")
    drift = {}  # report key -> [reports, worst |new - old|, worst |new - old| / |old|]
    for p in differ:
        if p.name == "report.json":
            for key, (absolute, relative) in report_drift(old / p, new / p).items():
                entry = drift.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1], entry[2] = max(entry[1], absolute), max(entry[2], relative)
    if drift:
        print("worst numeric drift in report.json, per key:")
        for key, (count, absolute, relative) in sorted(drift.items()):
            print(f"  {key}: {count} reports, |new - old| {absolute:.2e}, "
                  f"|new - old| / |old| {relative:.2e}")
    factors = [p for p in differ if p.suffix in (".csv", ".tsv")]
    if factors:
        drift, worst = max((relative_drift(old / p, new / p), p) for p in factors)
        print(f"worst entrywise |new - old| / max|old| over {len(factors)} differing factor files: "
              f"{drift:.2e} ({worst})")
    print(f"changed exit codes: {sum(1 for p in differ if p.name == 'exit')}")
    return 1 if differ or one_sided else 0


def main() -> int:
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    old, new, work = (Path(a).resolve() for a in sys.argv[1:4])
    corpus, sides = work / "corpus", {"old": old, "new": new}
    if any((work / p).exists() for p in ("corpus", *sides)):
        print(f"error: {work} already holds a comparison; give a new WORK", file=sys.stderr)
        return 2
    write_corpus(old / "tests" / "fixtures", corpus)
    for side, root in sides.items():
        run_checkout(root, corpus, work / side)
    print(f"{sum(1 for _ in corpus.iterdir())} inputs")
    return compare_trees(work / "old", work / "new")


if __name__ == "__main__":
    raise SystemExit(main())
