"""Matrix file grammar, round trips, and error reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdin.matrixio import (
    EmptyMatrix,
    ParseError,
    RaggedRows,
    format_matrix,
    format_value,
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


class TestFormat:
    def test_real_shortest_round_trip(self):
        assert format_value(0.1) == "0.1"
        assert format_value(1.0) == "1.0"
        assert format_value(-1e-05) == "-1e-05"

    def test_complex_rendering(self):
        assert format_value(complex(1.5, 2.0)) == "1.5+2.0i"
        assert format_value(complex(1.5, -2.0)) == "1.5-2.0i"
        assert format_value(complex(0.0, 1.0)) == "0.0+1.0i"

    def test_zero_imaginary_written_as_real(self):
        assert format_value(complex(3.0, 0.0)) == "3.0"
        assert format_value(complex(3.0, -0.0)) == "3.0"

    def test_reduced_precision(self):
        assert format_value(1.0 / 3.0, precision=3) == "0.333"

    def test_vector_becomes_column(self):
        assert format_matrix(np.array([3.0, 2.0])) == "3.0\n2.0\n"

    def test_tsv_delimiter(self):
        out = format_matrix(np.eye(2), fmt="tsv")
        assert out == "1.0\t0.0\n0.0\t1.0\n"


# Values whose text is easy to get wrong: signed zeros, subnormals, the
# ends of the float64 range and numbers that round at low precision.
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
    @pytest.mark.parametrize("precision", [1, 6, 17])
    @pytest.mark.parametrize("name", sorted(_awkward_arrays()))
    def test_byte_identical(self, name, precision, fmt):
        a = _awkward_arrays()[name]
        assert format_matrix(a, precision, fmt) == format_matrix_by_entry(a, precision, fmt)

    @settings(max_examples=100, deadline=None)
    @given(
        real=st.lists(finite_floats, min_size=6, max_size=6),
        imag=st.lists(finite_floats, min_size=6, max_size=6),
        precision=st.sampled_from([1, 6, 17]),
    )
    def test_any_finite_complex_matrix_byte_identical(self, real, imag, precision):
        a = (np.array(real) + 1j * np.array(imag)).reshape(3, 2)
        assert format_matrix(a, precision) == format_matrix_by_entry(a, precision)

    def test_rejects_more_than_two_dimensions(self):
        with pytest.raises(ValueError):
            format_matrix(np.zeros((2, 2, 2)))

    def test_format_value_is_a_one_entry_matrix(self):
        for value in AWKWARD + [complex(1.5, -0.0), complex(-0.0, 2.5), complex(3.0, -1e-300)]:
            assert format_value(value) + "\n" == format_matrix_by_entry([[value]])


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

    def test_reduced_precision_is_lossy_but_parses(self):
        a = np.array([[1.0 / 3.0]])
        parsed = parse_matrix_text(format_matrix(a, precision=5))
        assert parsed[0, 0].real == pytest.approx(1.0 / 3.0, abs=1e-5)
