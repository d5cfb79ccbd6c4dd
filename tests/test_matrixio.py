"""Matrix file grammar, round trips, and error reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdin.matrixio import (
    EmptyMatrix,
    ParseError,
    RaggedRows,
    _parse_rows,
    _parse_tokens,
    delimiter_for,
    format_matrix,
    parse_matrix_file,
    parse_matrix_text,
    parse_token,
    write_matrix_file,
)
from oracles import format_matrix_by_entry

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestParse:
    def test_identity_csv(self):
        assert np.array_equal(parse_matrix_text("1,0\n0,1\n"), np.eye(2))

    def test_shear(self):
        assert np.array_equal(
            parse_matrix_text("1,1\n0,1\n"), np.array([[1.0, 1.0], [0.0, 1.0]])
        )

    def test_complex_literal(self):
        out = parse_matrix_text("0+1i,0\n0,0\n")
        assert np.array_equal(out, np.array([[1j, 0.0], [0.0, 0.0]]))

    def test_negative_imaginary(self):
        assert parse_token("3.25-0.5i") == complex(3.25, -0.5)

    def test_exponent_literals(self):
        assert parse_token("1e-05") == 1e-05
        assert parse_token("-2.5e+10+3.5e-2i") == complex(-2.5e10, 3.5e-2)

    def test_tsv(self):
        out = parse_matrix_text("1\t2\n3\t4\n", fmt="tsv")
        assert np.array_equal(out, np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\n1,0\n\n# another\n0,1\n"
        assert np.array_equal(parse_matrix_text(text), np.eye(2))

    def test_whitespace_around_tokens(self):
        assert np.array_equal(
            parse_matrix_text(" 1 , 2 \n 3 , 4 \n"), np.array([[1.0, 2.0], [3.0, 4.0]])
        )

    def test_parse_error_coordinates(self):
        with pytest.raises(ParseError) as excinfo:
            parse_matrix_text("1,0\n0,oops\n")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 2
        assert excinfo.value.token == "oops"

    @pytest.mark.parametrize("token", ["1e999", "-1e999", "1+1e999i", "0-2e400i"])
    def test_rejects_non_finite_values(self, token):
        with pytest.raises(ParseError) as excinfo:
            parse_matrix_text(f"1,0\n0,{token}\n")
        assert (excinfo.value.line, excinfo.value.column) == (2, 2)
        assert excinfo.value.token == token

    def test_rejects_bare_i(self):
        with pytest.raises(ParseError):
            parse_matrix_text("1i,0\n")

    def test_rejects_inner_spaces_in_complex(self):
        with pytest.raises(ParseError):
            parse_matrix_text("1 + 2i,0\n")

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows) as excinfo:
            parse_matrix_text("1,2\n3\n")
        assert excinfo.value.line == 2
        assert excinfo.value.expected == 2
        assert excinfo.value.found == 1

    def test_empty_file(self):
        with pytest.raises(EmptyMatrix):
            parse_matrix_text("# only a comment\n\n")

    def test_line_numbers_count_skipped_lines(self):
        with pytest.raises(ParseError) as excinfo:
            parse_matrix_text("# header\n\n1,x\n")
        assert excinfo.value.line == 3


# Tokens next to the grammar's edges: each is accepted or rejected by
# ``parse_token``, and the row conversions must agree with it either way.
NEAR_MISSES = [
    "1e999", "-1e999", "0-2e400i", "1+1e999i", "2.5i", "+2i", "1+i", "i", "1 + 2i", "1 +2i",
    "1+ 2i", "1_0", "inf", "-inf", "nan", "\u0661", "1+\u0662i", "\xa01.5\xa0", "\xa0",
    "", " ", "1e+5i", "1+2e-3i", "1.+.5i", "1..", "1+2i5", "1j", "1+2j", "(1+2i)", ".", "e5",
    "1e", "+", "-0", "1-0i", "-0-0i", "+.5e-3", "1E5", "0x10", "1,5", "#1", "1\t2", "\t1\t",
]
_real_tokens = st.floats(allow_nan=False, width=64).map(repr)
# The imaginary sign is read off repr, so -0.0 is written "-0.0i".
_complex_tokens = st.tuples(finite_floats, finite_floats).map(
    lambda z: f"{z[0]!r}{'-' if repr(z[1])[0] == '-' else '+'}{abs(z[1])!r}i"
)
_tokens = st.one_of(
    _real_tokens,
    _complex_tokens,
    st.sampled_from(NEAR_MISSES),
    st.tuples(st.sampled_from(["", " ", "\t", "  "]), _complex_tokens | _real_tokens).map(
        lambda pt: pt[0] + pt[1] + pt[0]
    ),
)


@st.composite
def _token_soups(draw):
    """Delimited text of valid and near-miss tokens, mostly rectangular."""
    fmt = draw(st.sampled_from(["csv", "tsv"]))
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 6 + ["ragged", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        elif kind == "comment":
            lines.append("# 1,2 i")
        else:
            count = width if kind == "row" else draw(st.integers(1, 5))
            tokens = draw(st.lists(_tokens, min_size=count, max_size=count))
            lines.append(delimiter_for(fmt).join(tokens))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"])), fmt


def _outcome(parse, *args):
    """The bits and shape parsed, or the exception type and its fields."""
    try:
        a = parse(*args)
    except (ParseError, RaggedRows, EmptyMatrix) as exc:
        return type(exc), vars(exc), str(exc)
    return a.dtype, a.shape, a.tobytes()


class TestRowConversionsMatchTokenGrammar:
    """``parse_matrix_text`` against its per-token reference, ``_parse_tokens``."""

    @settings(max_examples=400, deadline=None)
    @given(_token_soups())
    def test_same_bits_or_same_error(self, soup):
        text, fmt = soup
        expected = _outcome(_parse_tokens, text, delimiter_for(fmt))
        assert _outcome(parse_matrix_text, text, fmt) == expected
        fast = _parse_rows(text, delimiter_for(fmt))
        assert fast is None or _outcome(lambda: fast) == expected

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    @pytest.mark.parametrize("token", NEAR_MISSES)
    def test_each_near_miss_in_a_valid_file(self, token, fmt):
        d = delimiter_for(fmt)
        text = f"1{d}2.5-3i\n-0{d}{token}\n4e-3{d}.5\n"
        assert _outcome(parse_matrix_text, text, fmt) == _outcome(_parse_tokens, text, d)

    def test_written_files_take_the_row_path(self):
        rng = np.random.default_rng(3)
        for fmt in ("csv", "tsv"):
            real = rng.standard_normal((9, 4))
            for a in (real, real - 1j * rng.random((9, 4))):
                text = format_matrix(a, fmt=fmt)
                fast = _parse_rows(text, delimiter_for(fmt))
                assert fast is not None and fast.tobytes() == a.astype(np.complex128).tobytes()

    def test_overflow_before_a_later_bad_token_is_reported_first(self):
        with pytest.raises(ParseError) as excinfo:
            parse_matrix_text("1,2\n1e999,3\n4,x\n")
        assert (excinfo.value.line, excinfo.value.column, excinfo.value.token) == (2, 1, "1e999")


class TestFormat:
    def test_real_shortest_round_trip(self):
        assert format_matrix([[0.1]]) == "0.1\n"
        assert format_matrix([[1.0]]) == "1.0\n"
        assert format_matrix([[-1e-05]]) == "-1e-05\n"
        assert format_matrix([[1.0 / 3.0]]) == "0.3333333333333333\n"

    def test_complex_rendering(self):
        assert format_matrix([[complex(1.5, 2.0)]]) == "1.5+2.0i\n"
        assert format_matrix([[complex(1.5, -2.0)]]) == "1.5-2.0i\n"
        assert format_matrix([[complex(0.0, 1.0)]]) == "0.0+1.0i\n"

    def test_zero_imaginary_written_as_real(self):
        assert format_matrix([[complex(3.0, 0.0)]]) == "3.0\n"
        assert format_matrix([[complex(3.0, -0.0)]]) == "3.0\n"

    def test_vector_becomes_column(self):
        assert format_matrix(np.array([3.0, 2.0])) == "3.0\n2.0\n"

    def test_tsv_delimiter(self):
        out = format_matrix(np.eye(2), fmt="tsv")
        assert out == "1.0\t0.0\n0.0\t1.0\n"


# Values whose text is easy to get wrong: signed zeros, subnormals, the
# ends of the float64 range and numbers with no short exact decimal.
AWKWARD = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
           0.1, -1.0 / 3.0, 123456.789, 1e-05, 2.5, 1e16, 9.999999e22]


def _awkward_arrays():
    rng = np.random.default_rng(5)
    values = np.array(AWKWARD)
    real = rng.choice(values, (4, 5))
    imag = rng.choice(values, (4, 5))
    return {
        "real": real,
        "complex": real + 1j * imag,
        "all_real_complex": real.astype(np.complex128),
        "negative_zero_imag": real + 1j * np.copysign(0.0, -np.ones_like(real)),
        "vector": values,
        "complex_vector": values + 1j * values[::-1],
        "row": values[None, :] - 1j * values[None, :],
        "random": rng.standard_normal((6, 3)) * 10.0 ** rng.integers(-30, 30, (6, 3))
        + 1j * rng.standard_normal((6, 3)),
        "empty": np.zeros((0, 3)),
    }


class TestFormatMatrixAgainstPerEntryOracle:
    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    @pytest.mark.parametrize("name", sorted(_awkward_arrays()))
    def test_byte_identical(self, name, fmt):
        a = _awkward_arrays()[name]
        assert format_matrix(a, fmt) == format_matrix_by_entry(a, fmt)

    @settings(max_examples=100, deadline=None)
    @given(
        real=st.lists(finite_floats, min_size=6, max_size=6),
        imag=st.lists(finite_floats, min_size=6, max_size=6),
    )
    def test_any_finite_complex_matrix_byte_identical(self, real, imag):
        a = (np.array(real) + 1j * np.array(imag)).reshape(3, 2)
        assert format_matrix(a) == format_matrix_by_entry(a)

    def test_rejects_more_than_two_dimensions(self):
        with pytest.raises(ValueError):
            format_matrix(np.zeros((2, 2, 2)))

    def test_one_entry_matrices(self):
        for value in AWKWARD + [complex(1.5, -0.0), complex(-0.0, 2.5), complex(3.0, -1e-300)]:
            assert format_matrix([[value]]) == format_matrix_by_entry([[value]])


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, starts a file."""

    BOM = "\ufeff".encode()

    @pytest.mark.parametrize(
        "text, fmt",
        [
            ("1,0.5\n-2e-3,3.25-0.5i\n", "csv"),
            ("1\t2\n3\t4\n", "tsv"),
            ("# exported\n1,2\n", "csv"),
            ("\n1.5\n", "csv"),
        ],
    )
    def test_a_leading_mark_parses_as_the_file_without_it(self, tmp_path, text, fmt):
        plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
        plain.write_bytes(text.encode())
        marked.write_bytes(self.BOM + text.encode())
        got, expected = parse_matrix_file(marked, fmt), parse_matrix_file(plain, fmt)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("1,2\n\ufeff3,4\n", 2, 1),
            ("1,\ufeff2\n3,4\n", 1, 2),
            ("\ufeff1,2\n", 1, 1),  # a second mark after the one skipped
        ],
    )
    def test_a_mark_anywhere_else_is_a_parse_error(self, tmp_path, text, line, column):
        path = tmp_path / "m.csv"
        path.write_bytes(self.BOM + text.encode())
        with pytest.raises(ParseError) as excinfo:
            parse_matrix_file(path)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)
        assert "\ufeff" in excinfo.value.token


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        a = np.array([[1.25, -3.5e-7], [0.0, 12345.678]])
        write_matrix_file(path, a)
        assert np.array_equal(parse_matrix_file(path), a)

    def test_complex_file_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        a = np.array([[1.0 + 2.0j, -0.5j], [3.0, -1.0 - 1e-12j]])
        write_matrix_file(path, a, fmt="tsv")
        assert np.array_equal(parse_matrix_file(path, fmt="tsv"), a)

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    @pytest.mark.parametrize("name", sorted(set(_awkward_arrays()) - {"empty"}))
    def test_awkward_file_parses_back_exactly(self, tmp_path, name, fmt):
        # Signed zeros, subnormals and the float64 extremes survive the file.
        a = _awkward_arrays()[name]
        a = a.reshape(len(a), -1)
        path = tmp_path / f"m.{fmt}"
        write_matrix_file(path, a, fmt)
        parsed = parse_matrix_file(path, fmt)
        assert parsed.shape == a.shape and np.array_equal(parsed, a)
        assert np.array_equal(np.signbit(parsed.real), np.signbit(a.real))

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=1, max_size=12),
        cols=st.integers(1, 4),
    )
    def test_any_finite_real_matrix_round_trips(self, values, cols):
        rows = len(values)
        a = np.array([[v] * cols for v in values])
        assert rows * cols == a.size
        parsed = parse_matrix_text(format_matrix(a))
        assert np.array_equal(parsed, a.astype(complex))

    @settings(max_examples=100, deadline=None)
    @given(
        real=st.lists(finite_floats, min_size=4, max_size=4),
        imag=st.lists(finite_floats, min_size=4, max_size=4),
    )
    def test_any_finite_complex_matrix_round_trips(self, real, imag):
        a = (np.array(real) + 1j * np.array(imag)).reshape(2, 2)
        parsed = parse_matrix_text(format_matrix(a))
        assert np.array_equal(parsed, a)
