"""Reading and writing matrices as delimited text files.

One matrix row per line, comma (csv) or tab (tsv) delimited.  Blank
lines and lines starting with ``#`` are skipped.  Each token is a real
decimal or a complex literal ``a+bi`` / ``a-bi`` with no spaces and an
``i`` suffix, e.g. ``1.5``, ``-2e-3``, ``0+1i``, ``3.25-0.5i``.  A token
whose value overflows float64, such as ``1e999``, is a parse error.

Every value is written as the shortest decimal that reads back as the
same float64 (``repr``), so ``parse(write(A)) == A`` exactly: a factor
file holds exactly the array whose residuals its report certifies.  A
UTF-8 byte-order mark at the start of a file is skipped.

``parse_token`` is the one definition of the grammar and of the errors.
A row is converted by the builtin ``float`` or ``complex`` when, on the
characters it holds, the builtin accepts exactly that grammar
(``_parse_rows``); any other file is parsed token by token
(``_parse_tokens``), which raises the error with its line and column.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

_DEC = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(rf"^(?P<re>[+-]?{_DEC})(?:(?P<im>[+-]{_DEC})i)?$")

_DELIMITERS = {"csv": ",", "tsv": "\t"}

# Per delimiter: the characters of a row that ``float`` converts token by
# token, and the form, under ``re.ASCII``, of a whole row plus one more
# delimiter that ``complex`` converts token by token once each ``i`` is a
# ``j``.  Within these, a builtin accepts exactly the tokens ``_TOKEN_RE``
# matches (with ASCII digits, and blanks other than the delimiter around
# them) and gives them the same values.  ``re`` compiles a form on first
# use and caches it, so a process that reads no complex row skips that.
_REAL_CHARS = {d: frozenset("0123456789.eE+- \t" + d) for d in _DELIMITERS.values()}
_COMPLEX_TOKEN = rf"[+-]?{_DEC}(?:[+-]{_DEC}i)?"
_COMPLEX_ROWS = {
    d: rf"(?:{pad}{_COMPLEX_TOKEN}{pad}{d})+" for d, pad in ((",", "[ \t]*"), ("\t", " *"))
}


class MatrixFileError(Exception):
    """Base class for matrix file format problems."""


class ParseError(MatrixFileError):
    """A token does not match the number grammar or is not finite."""

    def __init__(self, line, column, token):
        super().__init__(f"line {line}, column {column}: bad token {token!r}")
        self.line = line
        self.column = column
        self.token = token


class RaggedRows(MatrixFileError):
    """Two rows have different lengths."""

    def __init__(self, line, expected, found):
        super().__init__(
            f"line {line}: row has {found} entries, earlier rows have {expected}"
        )
        self.line = line
        self.expected = expected
        self.found = found


class EmptyMatrix(MatrixFileError):
    """The file contains no data rows."""


def delimiter_for(fmt: str) -> str:
    try:
        return _DELIMITERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}, expected one of {sorted(_DELIMITERS)}")


def parse_token(token: str) -> complex:
    """The value of one token; ValueError if it is malformed or not finite."""
    match = _TOKEN_RE.match(token)
    if match is None:
        raise ValueError(f"bad numeric token {token!r}")
    real = float(match.group("re"))
    imag_text = match.group("im")
    imag = float(imag_text) if imag_text is not None else 0.0
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise ValueError(f"numeric token {token!r} overflows float64")
    return complex(real, imag)


def parse_matrix_text(text: str, fmt: str = "csv") -> np.ndarray:
    """Parse delimited text into a complex matrix.

    Raises ParseError (with line and 1-based token column), RaggedRows,
    or EmptyMatrix.
    """
    delimiter = delimiter_for(fmt)
    matrix = _parse_rows(text, delimiter)
    return matrix if matrix is not None else _parse_tokens(text, delimiter)


def _data_lines(text: str):
    """(line number, line) of each line that is neither blank nor a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def _parse_rows(text: str, delimiter: str):
    """The matrix ``_parse_tokens`` returns, by whole-row conversions, or None.

    A row whose characters are all digits, ``. e E + -``, blanks or the
    delimiter goes through ``map(float, ...)``; a row with an ``i`` must
    match the grammar as a whole, one regex match, and goes through
    ``map(complex, ...)``.  One ``isfinite`` covers the whole array.
    None means some row needs the per-token path: another character, a
    token the builtin rejects, a ragged row, no row at all, or a value
    that is not finite.
    """
    real_chars = _REAL_CHARS[delimiter]
    complex_row = _COMPLEX_ROWS[delimiter]
    values = []
    width = None
    for _, line in _data_lines(text):
        tokens = line.split(delimiter)
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            return None
        if "i" in line:
            if re.fullmatch(complex_row, line + delimiter, re.ASCII) is None:
                return None
            values += map(complex, line.replace("i", "j").split(delimiter))
        elif real_chars.issuperset(line):
            try:
                values += map(float, tokens)
            except ValueError:
                return None
        else:
            return None
    if width is None:
        return None
    matrix = np.array(values, dtype=np.complex128).reshape(-1, width)
    return matrix if np.isfinite(matrix).all() else None


def _parse_tokens(text: str, delimiter: str) -> np.ndarray:
    """``parse_matrix_text`` one ``parse_token`` at a time: the reference.

    Rows are checked in order, each for its length before its tokens, so
    the first problem in the file is the one raised.
    """
    rows = []
    width = None
    for lineno, line in _data_lines(text):
        tokens = [tok.strip() for tok in line.split(delimiter)]
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise RaggedRows(line=lineno, expected=width, found=len(tokens))
        row = []
        for column, token in enumerate(tokens, start=1):
            try:
                row.append(parse_token(token))
            except ValueError:
                raise ParseError(line=lineno, column=column, token=token) from None
        rows.append(row)
    if not rows:
        raise EmptyMatrix("no data rows in matrix file")
    return np.array(rows, dtype=np.complex128)


def parse_matrix_file(path, fmt: str = "csv") -> np.ndarray:
    # utf-8-sig drops the byte-order mark spreadsheet "CSV UTF-8" exports
    # start with; a mark anywhere else stays part of its token.
    return parse_matrix_text(Path(path).read_text(encoding="utf-8-sig"), fmt)


def format_matrix(a, fmt: str = "csv") -> str:
    """Render a matrix (1-D input becomes a column) as delimited text.

    Each part is its shortest round-trip ``repr``.  An entry with a zero
    imaginary part (either sign) is written as its real part alone; any
    other as ``a+bi`` or ``a-bi``.  The rows are built from ``tolist()``
    of the real and imaginary parts, so an entry costs the formatting of
    its parts and no Python call besides.
    """
    delimiter = delimiter_for(fmt)
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got ndim={arr.ndim}")
    if not np.any(arr.imag):
        lines = [delimiter.join(map(repr, row)) for row in arr.real.tolist()]
    else:
        lines = [
            delimiter.join(
                [
                    repr(x) if y == 0.0 else f"{x!r}{'+' if y > 0.0 else '-'}{abs(y)!r}i"
                    for x, y in zip(xs, ys)
                ]
            )
            for xs, ys in zip(arr.real.tolist(), arr.imag.tolist())
        ]
    return "\n".join(lines) + "\n"


def write_matrix_file(path, a, fmt: str = "csv") -> None:
    Path(path).write_text(format_matrix(a, fmt), encoding="utf-8", newline="\n")
