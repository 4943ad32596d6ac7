import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equilib import StabilityError, SupportError, io

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


@given(data=arrays(np.float64,
                   st.tuples(st.integers(1, 40), st.integers(1, 4))))
@settings(max_examples=100, deadline=None)
def test_table_round_trip_is_bit_exact(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    names = ("f", "U", "U_tilde", "E_s")[:data.shape[1]]
    columns = {"x": np.arange(data.shape[0], dtype=float)}
    columns.update((name, data[:, j]) for j, name in enumerate(names))
    io.write_table(path, columns)
    table = io.read_table(path)
    assert list(table) == list(columns)
    for name, values in columns.items():
        assert _same_bits(table[name], values)


def test_read_table_accepts_crlf(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,f\r\n0,1.5\r\n1,-2\r\n")
    table = io.read_table(path)
    assert list(table) == ["x", "f"]
    assert table["x"].tolist() == [0.0, 1.0]
    assert table["f"].tolist() == [1.5, -2.0]


@pytest.mark.parametrize("text, message", [
    ("", "empty table"),
    ("x,f\n", "no rows"),
    ("x,f\n\n\n", "no rows"),
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


SIM = {"kind": "sim_config", "potential": {"family": "normal"},
       "grid": {"grid_kind": "continuous", "lower": -3.0, "upper": 3.0,
                "n_points": 11},
       "dt": 0.01, "n_steps": 10, "burn_in": 1, "n_chains": 1, "seed": 1}


@pytest.mark.parametrize("change, message", [
    ({"dt": "a"}, "sim_config: bad field value"),
    ({"dt": [1]}, "sim_config: bad field value"),
    ({"grid": dict(SIM["grid"], lower="a")}, "grid spec: bad field value"),
    ({"potential": {"family": "normal", "mu": "a"}}, "mu must be"),
])
def test_parse_sim_config_maps_bad_values(change, message):
    with pytest.raises(io.FormatError if "bad" in message else SupportError,
                       match=message):
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
