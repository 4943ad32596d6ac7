import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equilib import GridError, StabilityError, SupportError, io

GOLDEN = (
    "x,f,mask\n"
    "0,0.10000000000000001,1\n"
    "1,-0,0\n"
    "2,nan,1\n"
    "3,-inf,0\n"
    "4,4.9406564584124654e-324,0\n"
    "5,1.7976931348623157e+308,1\n"
)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64),
                               b[~nan].view(np.int64)))


def test_write_table_golden_bytes(tmp_path):
    path = tmp_path / "t.csv"
    f = [0.1, -0.0, np.nan, -np.inf, 5e-324, 1.7976931348623157e308]
    mask = np.array([True, False, True, False, False, True])
    io.write_table(path, {"x": np.arange(6.0), "f": f, "mask": mask})
    assert path.read_bytes() == GOLDEN.encode()
    table = io.read_table(path)
    assert _same_bits(table["f"], f)
    assert np.array_equal(table["mask"], mask)


@pytest.mark.parametrize("slice_rows", [1, 3, 7])
def test_golden_bytes_in_row_slices(tmp_path, monkeypatch, slice_rows):
    monkeypatch.setattr(io, "_SLICE_ROWS", slice_rows)
    test_write_table_golden_bytes(tmp_path)


@given(data=arrays(np.float64,
                   st.tuples(st.integers(1, 40), st.integers(1, 4))),
       slice_rows=st.sampled_from([1, 3, 7, io._SLICE_ROWS]))
@settings(max_examples=100, deadline=None)
def test_table_round_trip_is_bit_exact(tmp_path_factory, data, slice_rows):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    names = ("f", "U", "U_tilde", "E_s")[:data.shape[1]]
    columns = {"x": np.arange(data.shape[0], dtype=float)}
    columns.update((name, data[:, j]) for j, name in enumerate(names))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_SLICE_ROWS", slice_rows)
        io.write_table(path, columns)
    table = io.read_table(path)
    assert list(table) == list(columns)
    for name, values in columns.items():
        assert _same_bits(table[name], values)


# rows 1 below a multiple of the slice, at one and 1 past one, with the
# special values and a mask in the last slice
@pytest.mark.parametrize("slice_rows, rows", [
    (1, 8), (1, 9), (1, 10), (3, 8), (3, 9), (3, 10), (7, 13), (7, 14),
    (7, 15)])
def test_write_table_same_bytes_in_any_slice(tmp_path, monkeypatch,
                                              slice_rows, rows):
    f = np.linspace(-1.0, 1.0, rows) / 3.0
    f[-5:] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    columns = {"x": np.arange(rows, dtype=float), "f": f,
               "U": -f[::-1], "mask": np.arange(rows) % 3 == 0}
    whole, sliced = tmp_path / "whole.csv", tmp_path / "sliced.csv"
    io.write_table(whole, columns)
    monkeypatch.setattr(io, "_SLICE_ROWS", slice_rows)
    io.write_table(sliced, columns)
    assert sliced.read_bytes() == whole.read_bytes()
    table = io.read_table(sliced)
    for name, values in columns.items():
        assert _same_bits(table[name], values)


def _table_peaks(path, rows):
    """Traced peaks of write_table and of read_table beyond its arrays."""
    columns = {"x": np.arange(rows, dtype=float)}
    tracemalloc.start()
    try:
        io.write_table(path, columns)
        write = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        table = io.read_table(path)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(a.nbytes for a in table.values())
    return write, read - result, result


def test_table_memory_does_not_grow_with_rows(tmp_path, monkeypatch):
    # whole-text formatting and parsing peaked ~4x higher at 4x the rows
    monkeypatch.setattr(io, "_SLICE_ROWS", 1024)
    write, read, _ = _table_peaks(tmp_path / "n.csv", 4 * 1024)
    write4, read4, result4 = _table_peaks(tmp_path / "4n.csv", 16 * 1024)
    assert write4 < 1.1 * write
    # np.loadtxt grows its result a quarter at a time, so up to a quarter
    # of the result may be spare while it parses
    assert read4 < 1.1 * read + result4 / 4


# ---------------------------------------------------------------------------
# The writer against Python's own '%.17g' and '%d'


def _percent_bytes(columns):
    """The table as '%.17g' (and '%d' for the mask) write it, cell by cell."""
    names = list(columns)
    cols = [np.asarray(columns[n]).astype(int if n == "mask" else float)
            .tolist() for n in names]
    row = ",".join("%d" if n == "mask" else "%.17g" for n in names) + "\n"
    return (",".join(names) + "\n"
            + "".join(row % cells for cells in zip(*cols))).encode()


def _assert_writes_percent(path, columns):
    io.write_table(path, columns)
    assert path.read_bytes() == _percent_bytes(columns)


def _floats(*values):
    values = np.array(values, dtype=float)
    return np.concatenate([values, -values])


def test_writer_matches_percent_on_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(2002).integers(
        0, 2 ** 64, 1_000_000, dtype=np.uint64, endpoint=False)
    values = np.concatenate([bits.view(np.float64),
                             _floats(np.inf, np.nan, 0.0)])
    assert np.isnan(values).sum() > 100
    half = values.size // 2
    _assert_writes_percent(tmp_path / "t.csv", {
        "f": values[:half], "U": values[half:],
        "mask": np.isnan(values[:half])})


@given(data=arrays(np.float64, st.integers(1, 300), elements=st.floats()))
@settings(max_examples=100, deadline=None)
def test_writer_matches_percent_on_any_floats(tmp_path_factory, data):
    _assert_writes_percent(tmp_path_factory.mktemp("p") / "t.csv",
                           {"f": data, "mask": np.isfinite(data)})


def test_writer_matches_percent_on_special_values(tmp_path):
    _assert_writes_percent(tmp_path / "t.csv", {"f": _floats(
        0.0, np.inf, np.nan, 5e-324, 2.2250738585072009e-308,
        2.2250738585072014e-308, 1.7976931348623157e308)})


def test_writer_matches_percent_on_powers_of_ten(tmp_path):
    tens = np.array([float(f"1e{k}") for k in range(-320, 309)])
    _assert_writes_percent(tmp_path / "t.csv", {"f": _floats(
        *tens, *np.nextafter(tens, 0.0), *np.nextafter(tens, np.inf))})


def _around(*values, ulps=3):
    """Each value and its neighbours up to ulps away."""
    out = []
    for value in values:
        below = above = value
        out.append(value)
        for _ in range(ulps):
            below, above = np.nextafter(below, 0.0), np.nextafter(above,
                                                                  np.inf)
            out += [below, above]
    return _floats(*out)


def test_writer_matches_percent_at_the_g_switches(tmp_path):
    # '%g' writes X in [-4, 16] in fixed notation and the rest with an
    # exponent, X counted after rounding to 17 digits
    _assert_writes_percent(tmp_path / "t.csv", {"f": _around(
        1e-4, 1e-5, 9.99999999999999912e-05, 9.99999999999999912e-06,
        1e16, 1e17, 9999999999999998.0, 99999999999999984.0,
        0.000123456789012345678, 0.0000123456789012345678,
        1234567890123456.7, 12345678901234567.0, 123456789012345678.0)})


def test_writer_matches_percent_where_digits_round_up(tmp_path):
    # doubles below a power of ten that round up to it at 17 digits
    near = [v for k in range(-323, 309)
            for v in (float(f"1e{k}"), np.nextafter(float(f"1e{k}"), 0.0))
            if Fraction(v) < Fraction(10) ** k
            and Fraction("%.17g" % v) == Fraction(10) ** k]
    assert len(near) >= 10
    _assert_writes_percent(tmp_path / "t.csv", {"f": _floats(*near)})


def _is_tie(value):
    """True where value lies halfway between two 17-digit decimals."""
    x = int(("%.16e" % value).split("e")[1])
    return (Fraction(value) * Fraction(10) ** (16 - x)).denominator == 2


def test_writer_rounds_dyadic_ties_half_to_even(tmp_path, monkeypatch):
    # 18-digit dyadic values such as 131073 / 131072 = 1.00000762939453125
    # sit on a tie of '%.17g': each product is flagged as within 1e-9 of a
    # half, and '%.17g' itself writes the flagged cells, whatever digits
    # the product gave
    ties = [(2 ** 17 + k) / 2 ** 17 * 10.0 ** s for k in range(1, 40, 2)
            for s in (0, 1, 5)]
    assert 131073 / 131072 in ties and all(map(_is_tie, ties))
    values = np.array(ties)
    assert set(io._digits(io._Tables(), values)[2]) == set(range(len(ties)))
    digits = io._digits

    def spoiled(t, a):
        n, x, flagged = digits(t, a)
        n[flagged] += 1
        return n, x, flagged

    monkeypatch.setattr(io, "_digits", spoiled)
    _assert_writes_percent(tmp_path / "t.csv", {"f": _floats(*ties)})


def test_read_table_accepts_crlf(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,f\r\n0,1.5\r\n1,-2\r\n")
    table = io.read_table(path)
    assert list(table) == ["x", "f"]
    assert table["x"].tolist() == [0.0, 1.0]
    assert table["f"].tolist() == [1.5, -2.0]


@pytest.mark.parametrize("text, message", [
    ("", "empty table"),
    ("x,f", "no rows"),
    ("x,f\n", "no rows"),
    ("x,f\n\n\n", "no rows"),
    ("x,f\n  \n", "no rows"),
    ("x,f\n  \n0,1\n1,2\n", "malformed"),
    ("x,f\n0,1\n1,a\n", "malformed"),
    ('x,f\n0,"1"\n1,2\n', "malformed"),
    ("x,f\n0,0_3\n1,2\n", "malformed"),
    ("x,f\n0,1\n1\n", "malformed"),
    ("x,f\n0,1\n1,2,3\n", "malformed"),
    ("x,f\n0\n1\n", "ragged"),
    ("x,f,U\n0,1\n1,2\n", "ragged"),
    ("x,g\n0,1\n1,2\n", "unknown column"),
    ("x,x\n0,1\n1,2\n", "repeated column"),
    ("x,f\n0,1\nnan,2\n2,3\n", "non-finite"),
    ("x,f\n0,1\n1,2\ninf,3\n", "non-finite"),
])
def test_read_table_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(io.FormatError, match=message):
            io.read_table(path)


# a table whose U_tilde and E_c cells are not all numbers
BAD_E_C = "x,f,U_tilde,E_c\n0,0.25,1.5,abc\n1,0.5,,2\n2,0.25,\u20ac,-1\n"


def test_read_table_parses_every_column_by_default(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(BAD_E_C, encoding="utf-8")
    with pytest.raises(io.FormatError, match="malformed"):
        io.read_table(path)
    with pytest.raises(io.FormatError, match="malformed"):
        io.read_table(path, ("x", "f", "U_tilde", "E_c", "U"))


@pytest.mark.parametrize("columns", [("x", "f"), ("f", "x", "U", "mask")])
def test_read_table_parses_only_the_columns_asked_for(tmp_path, columns):
    path = tmp_path / "t.csv"
    path.write_text(BAD_E_C, encoding="utf-8")
    table = io.read_table(path, columns)
    assert list(table) == ["x", "f"]
    assert table["x"].tolist() == [0.0, 1.0, 2.0]
    assert table["f"].tolist() == [0.25, 0.5, 0.25]
    path.write_text("f,x\n0.5,1\n")  # one row, in header order
    table = io.read_table(path, ("x", "f"))
    assert {k: v.tolist() for k, v in table.items()} == {"f": [0.5],
                                                         "x": [1.0]}


@pytest.mark.parametrize("text, message", [
    ("x,f,E_c\n0,1\n1,2,3\n", "ragged rows"),
    ("x,f,E_c\n0,1,3\n1,2\n", "ragged rows"),
    ("x,f,E_c\n0,1,3\n1,2,3,4\n", "ragged rows"),
    ("x,f,E_c\n0,1,3\n1,a,3\n", "malformed"),
    ("x,f,E_c\nnan,1,3\n1,2,3\n", "non-finite"),
])
def test_read_table_checks_the_width_of_skipped_columns(tmp_path, text,
                                                        message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(io.FormatError) as info:
        io.read_table(path, ("x", "f"))
    assert message in str(info.value) and "usecols" not in str(info.value)


def test_read_table_skips_blank_lines_before_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,f\n\n\n0,1.5\n1,-2\n")
    table = io.read_table(path)
    assert table["x"].tolist() == [0.0, 1.0]
    assert table["f"].tolist() == [1.5, -2.0]


# a byte that is not UTF-8 where the header is read, where the blank-line
# scan reads past the first 8 KiB and where np.loadtxt does
@pytest.mark.parametrize("data", [
    b"x,\xff\n0,1\n1,2\n",
    b"x,f\n" + b"\n" * 10_000 + b"0,\xff\n",
    b"x,f\n" + b"".join(b"%d,1\n" % i for i in range(3000)) + b"0,\xff\n",
], ids=["header", "blank_scan", "loadtxt"])
def test_read_table_rejects_non_utf8(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(io.FormatError, match="not UTF-8"):
        io.read_table(path)


@pytest.mark.parametrize("columns", [
    {},
    {"x": [0.0, 1.0, 2.0], "f": [1.0, 2.0]},
    {"x": [0.0, 1.0], "f": [1.0, 2.0, 3.0]},
    {"x": [[0.0, 1.0]]},
    {"x": 1.0},
])
def test_write_table_rejects_ragged_columns(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(io.FormatError, match="1-D and of equal length"):
        io.write_table(path, columns)
    assert not path.exists()


def test_write_table_rejects_unknown_column(tmp_path):
    with pytest.raises(io.FormatError, match="unknown table column"):
        io.write_table(tmp_path / "t.csv", {"x": [0.0], "g": [1.0]})


def test_read_table_keeps_samples_in_file_order(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x\n2\n0\n0\n1\n")
    assert io.read_table(path)["x"].tolist() == [2.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("x", [[0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 1.5],
                               [3.0, 2.0, 1.0]],
                         ids=["tie", "step_back", "reversed"])
def test_grid_from_x_rejects_non_increasing_x(x):
    with pytest.raises(io.FormatError, match="not strictly increasing"):
        io.grid_from_x(np.array(x))


def test_grid_from_x_rejects_uneven_spacing():
    with pytest.raises(io.FormatError, match="not uniformly spaced"):
        io.grid_from_x(np.array([0.0, 0.5, 1.5]))


@pytest.mark.parametrize("x", [[0.0, 0.5, 2.0], [0.5, 1.5, 2.5],
                               [0.0, 2.0, 4.0]],
                         ids=["uneven", "half_integers", "step_2"])
def test_grid_from_x_forced_lattice_needs_consecutive_integers(x):
    with pytest.raises(io.FormatError, match="consecutive integers"):
        io.grid_from_x(np.array(x), "lattice")
    assert io.grid_from_x(np.array([3.0, 4.0, 5.0]), "lattice").lower == 3.0


# ---------------------------------------------------------------------------
# Polynomial expressions


@pytest.mark.parametrize("text, coeffs", [
    ("x", (0.0, 1.0)),
    ("2x + 0.5x**3 - 1", (-1.0, 2.0, 0.0, 0.5)),
    ("x^2 - x", (0.0, -1.0, 1.0)),
    ("-3 * x", (0.0, -3.0)),
])
def test_parse_polynomial(text, coeffs):
    assert io.parse_polynomial(text).coeffs == coeffs


@pytest.mark.parametrize("text", ["", "x + sin(x)", "x2", "2x3", "x x",
                                  "1 2", "x^2 x"])
def test_parse_polynomial_rejects_malformed(text):
    with pytest.raises(io.FormatError):
        io.parse_polynomial(text)


# ---------------------------------------------------------------------------
# JSON specs


def test_tabulated_spec_csv_must_be_a_string():
    # open() accepts an int as a file descriptor; the spec must not
    for csv in (5, None, ["u.csv"]):
        with pytest.raises(io.FormatError, match="csv must be"):
            io.parse_potential({"family": "tabulated", "csv": csv})


def test_tabulated_spec_names_a_missing_x_column(tmp_path):
    path = tmp_path / "u.csv"
    io.write_table(path, {"U": [0.0, 1.0, 2.0]})
    with pytest.raises(io.FormatError, match="needs an 'x' column"):
        io.parse_potential({"family": "tabulated", "csv": str(path)})


def test_family_spec_rejects_a_field_of_another_family():
    for value in (5, None):
        with pytest.raises(io.FormatError, match=r"no fields \['n'\]"):
            io.parse_potential({"family": "normal", "n": value})


def test_dump_json_rejects_non_finite_before_opening(tmp_path):
    path = tmp_path / "out.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            io.dump_json(path, {"kind": "x", "value": value})
        assert not path.exists()


SIM = {"kind": "sim_config", "potential": {"family": "normal"},
       "grid": {"grid_kind": "continuous", "lower": -3.0, "upper": 3.0,
                "n_points": 11},
       "dt": 0.01, "n_steps": 10, "burn_in": 1, "n_chains": 1, "seed": 1}


@pytest.mark.parametrize("change, message", [
    ({"dt": "a"}, "dt must be positive and finite"),
    ({"dt": [1]}, "dt must be positive and finite"),
    ({"grid": dict(SIM["grid"], lower="a")}, "lower must be a finite real"),
    ({"potential": {"family": "normal", "mu": "a"}}, "mu must be"),
])
def test_parse_sim_config_maps_bad_values(change, message):
    # the constructor of the part that holds the field raises its own error
    error = {"dt": StabilityError, "grid": GridError,
             "potential": SupportError}[next(iter(change))]
    with pytest.raises(error, match=message):
        io.parse_sim_config(dict(SIM, **change))


def test_parse_sim_config_keeps_library_errors():
    # StabilityError is a ValueError; it must not become a FormatError
    with pytest.raises(StabilityError):
        io.parse_sim_config(dict(SIM, dt=-1.0))
    config = io.parse_sim_config(SIM)
    assert config.n_steps == 10 and config.grid.n_points == 11


def test_parse_sim_config_reports_missing_field():
    obj = dict(SIM)
    del obj["seed"]
    with pytest.raises(io.FormatError, match="missing field 'seed'"):
        io.parse_sim_config(obj)
