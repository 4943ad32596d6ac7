import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import equilib
from equilib import Grid, Normal, cli, decompose_samples, io
from equilib.catalog import FAMILIES, make_family


def run(*argv):
    return cli.main([str(a) for a in argv])


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_uniform(tmp_path):
    out = tmp_path / "u.csv"
    assert run("catalog", "--family", "uniform", "--n", 8, "--out", out) == 0
    table = io.read_table(out)
    assert list(table) == ["x", "f", "U_tilde", "E_c"]
    assert np.allclose(table["f"], 0.125)
    assert np.allclose(table["U_tilde"], np.log(8.0))
    assert np.allclose(table["E_c"], 0.0)


def test_catalog_normal_explicit_grid(tmp_path):
    out = tmp_path / "n.csv"
    assert run("catalog", "--family", "normal", "--mu", 0, "--sigma", 1,
               "--lower", -5, "--upper", 5, "--points", 101,
               "--out", out) == 0
    table = io.read_table(out)
    assert table["x"].size == 101
    i = 50  # x = 0
    assert table["f"][i] == pytest.approx(1.0 / np.sqrt(2 * np.pi),
                                          abs=1e-15)
    assert np.allclose(table["E_c"], -table["x"])


def test_catalog_bad_parameter_exits_2(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert run("catalog", "--family", "gamma", "--alpha", -1, "--beta", 1,
               "--out", out) == 2
    assert "error:" in capsys.readouterr().err


def test_catalog_missing_parameter_exits_2(tmp_path):
    out = tmp_path / "g.csv"
    assert run("catalog", "--family", "exponential", "--out", out) == 2


def test_catalog_normal_underflowing_sigma_exits_2(tmp_path, capsys):
    assert run("catalog", "--family", "normal", "--sigma", "1e-320",
               "--out", tmp_path / "n.csv") == 2
    assert "sigma" in capsys.readouterr().err


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("mu", ["0", "1.5"])
def test_catalog_normal_subnormal_sigma_squared_exits_2(tmp_path, capsys,
                                                         mu):
    # sigma**2 = 1e-320 is subnormal and 1 / sigma**2 overflows: this run
    # wrote f = 0, U_tilde = inf and E_c = -inf (inf, inf below mu) and
    # exited 0
    out = tmp_path / "n.csv"
    assert run("catalog", "--family", "normal", "--sigma", "1e-160", "--mu",
               mu, "--lower", 1, "--upper", 2, "--points", 5,
               "--out", out) == 2
    assert _one_line_error(capsys)
    assert not out.exists()


def test_catalog_normal_far_tail_is_quiet(tmp_path, capsys):
    # sigma**2 is normal but (x - mu)**2 / sigma**2 is not: f = 0 at every
    # point and U_tilde and E_c +-inf past the first row, which this run
    # wrote with exit 0, first after two overflow warnings and then quietly
    out = tmp_path / "n.csv"
    assert run("catalog", "--family", "normal", "--sigma", "1e-150",
               "--lower", 1, "--upper", "1e160", "--points", 5,
               "--out", out) == 3
    assert capsys.readouterr().err == ZERO_MASS
    assert not out.exists()


ZERO_MASS = "error: density has zero or non-finite mass (0.0) on this grid\n"


# the density underflows to f = 0 at every point of the grid, which these
# runs wrote with exit 0
@pytest.mark.parametrize("args", [
    ["normal", "--sigma", "1e-3", "--lower", 10, "--upper", 20,
     "--points", 5],
    ["poisson", "--lam", 3, "--grid-kind", "lattice", "--lower", 1000,
     "--upper", 1010, "--points", 11],
], ids=["normal", "poisson"])
def test_catalog_zero_mass_exits_3(tmp_path, capsys, args):
    out = tmp_path / "t.csv"
    assert run("catalog", "--family", *args, "--out", out) == 3
    assert capsys.readouterr().err == ZERO_MASS
    assert not out.exists()


@pytest.mark.parametrize("family, params, grid", [
    ("normal", ["--mu", "nan"], ["--lower", 0.5, "--upper", 3]),
    ("exponential", ["--a", "inf"], ["--lower", 0.5, "--upper", 3]),
    ("poisson", ["--lam", "inf"],
     ["--grid-kind", "lattice", "--lower", 0, "--upper", 10]),
    ("gamma", ["--alpha", "inf", "--beta", 1], ["--lower", 0.5, "--upper", 3]),
    ("linear-constant", ["--a", "nan", "--b", 1],
     ["--lower", 0.5, "--upper", 3]),
    ("linear_constant", ["--a", 1, "--b=-inf"],
     ["--lower", 0.5, "--upper", 3]),
])
def test_catalog_non_finite_parameter_exits_2(tmp_path, capsys, family,
                                              params, grid):
    out = tmp_path / "x.csv"
    assert run("catalog", "--family", family, *params, *grid,
               "--points", 11, "--out", out) == 2
    assert _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--family", "normal", "--n", 5],
    ["--family", "poisson", "--lam", 3, "--mu", 2],
])
def test_catalog_flag_of_another_family_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "c.csv"
    assert run("catalog", *argv, "--out", out) == 2
    assert _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["catalog", "--family", "normal", "--mu", "-1e3", "--lower", "-1.005e3",
     "--upper", "-9.95e2", "--points", 11],
    ["maxent", "--u", "x", "--moment", 0.5, "--lower", "-1e-05",
     "--upper", 10, "--points", 101],
])
def test_exponent_notation_negatives_are_values(tmp_path, argv):
    # '%.17g' writes such numbers; argparse alone reads them as options
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 0
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["catalog", "--family", "bogus"],
    ["catalog", "--family", "normal", "--mu", "-1e3", "-1e3", "--out", "n"],
    ["simulate", "--config"],
    ["transform"],
])
def test_usage_error_is_one_line_exit_2(capsys, argv):
    assert run(*argv) == 2
    assert _one_line_error(capsys)


def test_catalog_poisson_huge_lambda_exits_2(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert run("catalog", "--family", "poisson", "--lam", "1e300",
               "--out", out) == 2
    assert _one_line_error(capsys)
    assert not out.exists()


def test_catalog_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # Poisson(1e12)'s default lattice needs ~8 TB; stand in for the failed
    # allocation instead of attempting it
    def no_memory(grid):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                          "shape (1000010000001,) and data type float64")

    monkeypatch.setattr(Grid, "points", property(no_memory))
    out = tmp_path / "p.csv"
    assert run("catalog", "--family", "poisson", "--lam", "1e12",
               "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory (Unable to allocate")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    # nor fractions, decimal, concurrent or logging, and it builds none of
    # the table writer's constants: they are built on the first write
    src = Path(equilib.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, equilib.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'fractions', 'decimal', "
            "'concurrent', 'logging')), equilib.io._TABLES)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[] None"


FAMILY_PARAMS = {
    "uniform": {"n": 8},
    "exponential": {"a": 2.0},
    "normal": {"mu": 0.5, "sigma": 2.0},
    "linear_constant": {"a": 1.0, "b": 2.0},
    "linear-constant": {"a": 1.0, "b": 2.0},
    "poisson": {"lam": 3.0},
    "gamma": {"alpha": 2.0, "beta": 1.5},
}


def _cli_family(tmp_path, monkeypatch, family, params):
    built = []

    def spy(name, given):
        built.append(make_family(name, given))
        return built[-1]

    monkeypatch.setattr(cli, "make_family", spy)
    flags = [str(a) for k, v in params.items() for a in (f"--{k}", v)]
    assert run("catalog", "--family", family, *flags,
               "--out", tmp_path / "c.csv") == 0
    return built[0]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_catalog_and_json_specs_build_the_same_family(tmp_path, monkeypatch,
                                                      family):
    assert set(FAMILY_PARAMS) == set(FAMILIES)
    params = FAMILY_PARAMS[family]
    from_cli = _cli_family(tmp_path, monkeypatch, family, params)
    spec = io.parse_potential(dict(params, kind="potential", family=family))
    assert from_cli == spec == FAMILIES[family](**params)
    assert type(from_cli) is FAMILIES[family]


def test_catalog_and_json_normal_defaults_agree(tmp_path, monkeypatch):
    from_cli = _cli_family(tmp_path, monkeypatch, "normal", {})
    assert from_cli == io.parse_potential({"family": "normal"}) \
        == Normal(0.0, 1.0)


def test_uniform_lattice_n_from_cli_and_json(tmp_path, monkeypatch):
    from_cli = _cli_family(tmp_path, monkeypatch, "uniform", {"n": 8})
    assert from_cli == io.parse_potential({"family": "uniform", "n": 8})


@pytest.mark.parametrize("n", [2.5, "8"])
def test_transform_uniform_non_integer_n_exits_2(tmp_path, capsys, n):
    path = write_json(tmp_path / "u.json",
                      {"kind": "potential", "family": "uniform", "n": n})
    assert run("transform", "--in", path, "--to", "density",
               "--out", tmp_path / "f.csv") == 2
    err = capsys.readouterr().err
    assert "n must be" in err and err.count("\n") == 1


def test_transform_tabulated_csv_must_be_a_path(tmp_path, capsys):
    path = write_json(tmp_path / "t.json",
                      {"kind": "potential", "family": "tabulated", "csv": 5})
    assert run("transform", "--in", path, "--to", "density",
               "--lower", 0, "--upper", 1, "--points", 5,
               "--out", tmp_path / "f.csv") == 2
    assert _one_line_error(capsys)


# ---------------------------------------------------------------------------
# transform


NORMAL_SPEC = {"kind": "potential", "family": "normal",
               "mu": 0.0, "sigma": 1.0}


def test_transform_roundtrip_potential_density_potential(tmp_path):
    spec = write_json(tmp_path / "pot.json", NORMAL_SPEC)
    dens = tmp_path / "density.csv"
    back = tmp_path / "back.csv"
    assert run("transform", "--in", spec, "--to", "density",
               "--out", dens) == 0
    assert run("transform", "--in", dens, "--to", "potential",
               "--out", back) == 0
    table = io.read_table(back)
    x = table["x"]
    expected = x ** 2 / 2 + 0.5 * np.log(2 * np.pi)
    ok = table["mask"] == 0
    assert np.max(np.abs(table["U_tilde"][ok] - expected[ok])) <= 1e-9


def test_transform_density_to_stochastic_intensity(tmp_path):
    spec = write_json(tmp_path / "pot.json", NORMAL_SPEC)
    dens = tmp_path / "density.csv"
    out = tmp_path / "es.csv"
    assert run("transform", "--in", spec, "--to", "density",
               "--out", dens) == 0
    assert run("transform", "--in", dens, "--to", "intensity",
               "--out", out) == 0
    table = io.read_table(out)
    ok = (table["mask"] == 0) & (np.abs(table["x"]) < 3)
    # E_s = -f'/f = x for the standard normal, up to O(h^2) differencing
    assert np.max(np.abs(table["E_s"][ok] - table["x"][ok])) < 1e-3


def test_transform_keeps_the_normal_tails(tmp_path):
    # on the default grid, -8..8, f falls to 1e-14 of its peak; every point
    # has an intensity, within the end stencils' 170 h^2 of E_s + E_c = 0
    # (test_potential.py::test_normal_intensity_is_x)
    table, out = tmp_path / "n.csv", tmp_path / "es.csv"
    assert run("catalog", "--family", "normal", "--out", table) == 0
    assert run("transform", "--in", table, "--to", "intensity",
               "--out", out) == 0
    es = io.read_table(out)
    assert not es["mask"].any()
    h = Normal().default_grid().spacing
    assert np.max(np.abs(es["E_s"] - es["x"])) < 170.0 * h ** 2


def test_transform_potential_to_causal_intensity(tmp_path):
    spec = write_json(tmp_path / "pot.json",
                      {"kind": "potential", "family": "exponential", "a": 2.0})
    out = tmp_path / "ec.csv"
    assert run("transform", "--in", spec, "--to", "intensity",
               "--out", out) == 0
    table = io.read_table(out)
    assert np.allclose(table["E_c"], -2.0)


def test_transform_tabulated_potential_csv(tmp_path):
    src = tmp_path / "u.csv"
    x = np.linspace(-2, 2, 401)
    io.write_table(src, {"x": x, "U": x ** 2 / 2})
    out = tmp_path / "f.csv"
    assert run("transform", "--in", src, "--to", "density", "--out", out) == 0
    table = io.read_table(out)
    # normalization over the truncated interval, not the closed form
    g = io.grid_from_x(table["x"])
    assert g.quadrature(table["f"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("to", ["density", "potential", "intensity"])
def test_transform_tabulated_spec_takes_the_table_grid(tmp_path, to):
    # without grid args a tabulated JSON spec is its table, grid included
    table = tmp_path / "u.csv"
    x = np.linspace(-2, 2, 41)
    io.write_table(table, {"x": x, "U": np.cos(x) + x ** 2 / 2})
    spec = write_json(tmp_path / "u.json", {"kind": "potential",
                                            "family": "tabulated",
                                            "csv": str(table)})
    outputs = []
    for src in (table, spec):
        out = tmp_path / "out.csv"
        assert run("transform", "--in", src, "--to", to, "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_transform_rejects_bad_spec(tmp_path):
    spec = write_json(tmp_path / "pot.json",
                      {"kind": "potential", "family": "normal", "mu": 0.0,
                       "sigma": 1.0, "extra": 7})
    assert run("transform", "--in", spec, "--to", "density",
               "--out", tmp_path / "f.csv") == 2


def test_transform_missing_file_exits_2(tmp_path):
    assert run("transform", "--in", tmp_path / "nope.csv", "--to", "density",
               "--out", tmp_path / "f.csv") == 2


def test_transform_one_row_table_exits_2(tmp_path, capsys):
    src = tmp_path / "u.csv"
    io.write_table(src, {"x": [0.5], "U": [1.0]})
    assert run("transform", "--in", src, "--to", "density",
               "--out", tmp_path / "f.csv") == 2
    assert "at least 3 rows" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"family": "polynomial", "coeffs": ["a", 1]},
    {"family": "polynomial", "coeffs": "x"},
    {"family": "polynomial", "coeffs": "12"},
    {"family": "normal", "sigma": "1"},
    {"family": "normal", "sigma": 1e-320},
    {"family": "normal", "mu": 10 ** 400},
    {"family": "polynomial", "coeffs": [True, "2"]},
    {"family": "pearson", "a": 0, "b0": "1", "b1": 0, "b2": 0},
    {"family": "pearson", "a": True, "b0": 1, "b1": 0, "b2": 0},
    {"family": "pearson", "a": 0, "b0": 1, "b1": 0, "b2": 0, "sign": "up"},
    {"family": "polynomial", "coeffs": 5},
    {"family": "polynomial", "coeffs": None},
    {"family": "normal", "mu": None, "sigma": None},
])
def test_transform_bad_spec_value_exits_2(tmp_path, capsys, spec):
    out = tmp_path / "f.csv"
    path = write_json(tmp_path / "pot.json", dict(spec, kind="potential"))
    assert run("transform", "--in", path, "--to", "density",
               "--lower", -1, "--upper", 1, "--points", 11,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


OVERFLOWING_SPECS = {
    "polynomial": {"family": "polynomial", "coeffs": [0, 1e308, 1e308]},
    "pearson": {"family": "pearson", "a": 0, "b0": 1e-320, "b1": 0, "b2": 0},
}


@pytest.mark.parametrize("name", OVERFLOWING_SPECS)
def test_transform_all_masked_intensity_exits_2(tmp_path, capsys, name):
    # E_c overflows at every point: one line, no float warning, no table
    out = tmp_path / "e.csv"
    path = write_json(tmp_path / "pot.json",
                      dict(OVERFLOWING_SPECS[name], kind="potential"))
    assert run("transform", "--in", path, "--to", "intensity",
               "--lower", 1, "--upper", 2, "--points", 5, "--out", out) == 2
    assert capsys.readouterr().err == \
        "error: all points masked: E_c is undefined on this grid\n"
    assert not out.exists()


@pytest.mark.parametrize("to", ["potential", "density"])
@pytest.mark.parametrize("name", OVERFLOWING_SPECS)
def test_transform_overflowing_potential_fails_in_one_line(tmp_path, capsys,
                                                           name, to):
    # the tabulated U is not finite (polynomial) or its density grows
    # toward a wall (Pearson): the error, and no float warning before it
    out = tmp_path / "u.csv"
    path = write_json(tmp_path / "pot.json",
                      dict(OVERFLOWING_SPECS[name], kind="potential"))
    assert run("transform", "--in", path, "--to", to, "--lower", 1,
               "--upper", 2, "--points", 5, "--out", out) in (2, 3)
    assert _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("to, column", [("potential", "U_tilde"),
                                        ("intensity", "E_s")])
def test_transform_all_masked_density_table_exits_2(tmp_path, capsys, to,
                                                    column):
    # a pmf of 5e-301 everywhere lies below the density floor at every point
    src, out = tmp_path / "f.csv", tmp_path / "out.csv"
    io.write_table(src, {"x": [0.0, 1e300, 2e300], "f": [1.0, 1.0, 1.0]})
    assert run("transform", "--in", src, "--to", to, "--out", out) == 2
    assert capsys.readouterr().err == \
        f"error: all points masked: {column} is undefined on this grid\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, column, values", [
    (["--to", "density"], "f", [1.0, 0.0, 0.0]),
    (["--to", "potential"], "U_tilde", [0.0, 1e308, np.inf]),
    (["--grid-kind", "continuous", "--to", "intensity"], "E_c", None),
], ids=["density", "potential", "intensity"])
def test_transform_potential_past_the_float_range(tmp_path, capsys, argv,
                                                  column, values):
    # U - min U overflows to inf, the correctly rounded value, and
    # e^-inf = 0; E_c overflows at every point.  Each run warned first.
    src, out = tmp_path / "u.csv", tmp_path / "out.csv"
    io.write_table(src, {"x": [0.0, 1.0, 2.0], "U": [-1e308, 0.0, 1e308]})
    code = run("transform", "--in", src, *argv, "--out", out)
    err = capsys.readouterr().err
    if values is None:
        assert code == 2 and not out.exists()
        assert err == f"error: all points masked: {column} is undefined " \
                      "on this grid\n"
    else:
        assert code == 0 and err == ""
        assert io.read_table(out)[column].tolist() == values


@pytest.mark.parametrize("grid", [
    ["--lower", "-1e308", "--upper", "1e308", "--points", 5],
    ["--lower", 1, "--upper", "1.0000000000000002", "--points", 5],
    ["--grid-kind", "lattice", "--lower", 9007199254740992,
     "--upper", 9007199254740996, "--points", 5],
], ids=["overflow", "one-ulp", "lattice"])
def test_catalog_grid_of_indistinct_points_exits_2(tmp_path, capsys, grid):
    out = tmp_path / "n.csv"
    assert run("catalog", "--family", "normal", *grid, "--out", out) == 2
    assert _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    ("0,0.2\nnan,0.3\n2,0.3\n3,0.2\n", "x column has non-finite"),
    ("0,0.2\n1,inf\n2,0.3\n3,0.2\n", "f column has non-finite"),
    ("0,0.2\n1,nan\n2,0.3\n3,0.2\n", "f column has non-finite"),
])
def test_transform_non_finite_table_exits_2(tmp_path, capsys, body, message):
    src = tmp_path / "f.csv"
    src.write_text("x,f\n" + body)
    assert run("transform", "--in", src, "--to", "potential",
               "--out", tmp_path / "u.csv") == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


def test_transform_zero_mass_table_exits_3(tmp_path, capsys):
    src = tmp_path / "f.csv"
    src.write_text("x,f\n0,0\n1,0\n2,0\n3,0\n")
    out = tmp_path / "u.csv"
    assert run("transform", "--in", src, "--to", "potential",
               "--out", out) == 3
    err = capsys.readouterr().err
    assert "zero or non-finite mass" in err and err.count("\n") == 1
    assert not out.exists()


def _catalog_with_bad_cell(tmp_path):
    """A catalog table and a copy whose first E_c cell is 'abc'."""
    clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
    assert run("catalog", "--family", "gamma", "--alpha", 3, "--beta", 2,
               "--lower", 0.1, "--upper", 30, "--points", 301,
               "--out", clean) == 0
    header, first, *rest = clean.read_text().splitlines(keepends=True)
    assert header == "x,f,U_tilde,E_c\n"
    dirty.write_text(header + first.rsplit(",", 1)[0] + ",abc\n"
                     + "".join(rest))
    return clean, dirty


@pytest.mark.parametrize("to", ["density", "potential", "intensity"])
def test_transform_never_parses_the_columns_it_does_not_read(tmp_path, to):
    # transform reads x and f alone: U_tilde and E_c need a cell per row,
    # not a number
    outputs = []
    for src in _catalog_with_bad_cell(tmp_path):
        out = tmp_path / f"{src.stem}_{to}.csv"
        assert run("transform", "--in", src, "--to", to, "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("edit", [
    lambda row: row.rsplit(",", 1)[0] + "\n",
    lambda row: row.rstrip("\n") + ",1\n",
], ids=["short", "long"])
@pytest.mark.parametrize("at", [0, 150])
def test_transform_ragged_row_exits_2_in_one_line(tmp_path, capsys, edit, at):
    clean, _ = _catalog_with_bad_cell(tmp_path)
    header, *rows = clean.read_text().splitlines(keepends=True)
    rows[at] = edit(rows[at])
    src, out = tmp_path / "ragged.csv", tmp_path / "e.csv"
    src.write_text(header + "".join(rows))
    assert run("transform", "--in", src, "--to", "intensity",
               "--out", out) == 2
    assert capsys.readouterr().err == f"error: {src}: ragged rows\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", [
    ["--lower", 0, "--upper", 3, "--points", 4],
    ["--points", 4],
    ["--lower", 0, "--grid-kind", "lattice"],
], ids=["all", "points", "lower"])
def test_transform_table_rejects_grid_args_exits_2(tmp_path, capsys, grid):
    src = tmp_path / "f.csv"
    src.write_text("x,f\n0,0.2\n1,0.3\n2,0.3\n3,0.2\n")
    out = tmp_path / "u.csv"
    assert run("transform", "--in", src, "--to", "potential", *grid,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert "comes from its x column" in err and err.count("\n") == 1
    assert not out.exists()


def test_transform_table_grid_kind_forces_the_kind(tmp_path):
    # consecutive integers read as a lattice, whose forward difference is
    # masked at the last point; a continuous grid has a one-sided one there
    src = tmp_path / "f.csv"
    src.write_text("x,f\n0,0.2\n1,0.3\n2,0.3\n3,0.2\n")
    last_masked = []
    for kind in ([], ["--grid-kind", "continuous"]):
        out = tmp_path / "es.csv"
        assert run("transform", "--in", src, "--to", "intensity", *kind,
                   "--out", out) == 0
        last_masked.append(io.read_table(out)["mask"][-1])
    assert last_masked == [1, 0]


def test_transform_forced_lattice_needs_consecutive_integers(tmp_path,
                                                             capsys):
    # the end points and the count fit a lattice, which wrote x = 0, 1, 2
    src, out = tmp_path / "t.csv", tmp_path / "u.csv"
    src.write_text("x,f\n0,0.2\n0.5,0.3\n2,0.5\n")
    assert run("transform", "--in", src, "--grid-kind", "lattice", "--to",
               "potential", "--out", out) == 2
    assert capsys.readouterr().err == \
        "error: a lattice's x column must be consecutive integers\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["catalog", "--family", "normal"],
    ["transform", "--in", "pot.json", "--to", "density"],
], ids=["catalog", "transform"])
def test_grid_kind_without_bounds_exits_2(tmp_path, capsys, monkeypatch,
                                          argv):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "pot.json", NORMAL_SPEC)
    out = tmp_path / "out.csv"
    assert run(*argv, "--grid-kind", "lattice", "--out", out) == 2
    err = capsys.readouterr().err
    assert "--grid-kind needs" in err and err.count("\n") == 1
    assert not out.exists()


def test_transform_non_string_family_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "p.json",
                      {"kind": "potential", "family": ["normal"]})
    assert run("transform", "--in", path, "--to", "density",
               "--out", tmp_path / "f.csv") == 2
    err = capsys.readouterr().err
    assert "string 'family'" in err and err.count("\n") == 1


def test_transform_pearson_paper_sign_exits_3(tmp_path):
    spec = write_json(tmp_path / "pearson.json",
                      {"kind": "potential", "family": "pearson", "a": 0.0,
                       "b0": 1.0, "b1": 0.0, "b2": 0.0, "sign": "paper"})
    assert run("transform", "--in", spec, "--to", "density",
               "--lower", -8, "--upper", 8, "--points", 801,
               "--out", tmp_path / "f.csv") == 3


def test_transform_pearson_spec_on_a_lattice(tmp_path):
    # ln f(x+1) - ln f(x) is the intensity at x: an exact lattice pair
    params = {"a": 0.5, "b0": 2.0, "b1": 0.1, "b2": 0.0}
    spec = write_json(tmp_path / "pearson.json",
                      dict(params, kind="potential", family="pearson"))
    tables = {}
    for to in ("density", "intensity"):
        out = tmp_path / f"{to}.csv"
        assert run("transform", "--in", spec, "--to", to, "--lower", -6,
                   "--upper", 6, "--points", 13, "--grid-kind", "lattice",
                   "--out", out) == 0
        tables[to] = io.read_table(out)
    x, e_c = tables["intensity"]["x"], tables["intensity"]["E_c"]
    assert np.array_equal(e_c, equilib.PearsonPotential(**params).intensity(x))
    assert np.max(np.abs(np.diff(np.log(tables["density"]["f"]))
                         - e_c[:-1])) <= 1e-12


@pytest.mark.parametrize("command", ["transform", "maxent"])
def test_potential_spec_of_another_kind_exits_2(tmp_path, capsys, command):
    path = write_json(tmp_path / "g.json", {"kind": "sim_config",
                                            "family": "normal", "mu": 0.5})
    out = tmp_path / "out"
    flag, rest = (("--in", ["--to", "density"]) if command == "transform"
                  else ("--u", ["--moment", 0.5]))
    assert run(command, flag, path, *rest, "--lower", -3, "--upper", 3,
               "--points", 61, "--out", out) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: expected a potential spec\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# maxent


def test_maxent_recovers_rate(tmp_path, capsys):
    out = tmp_path / "sol.json"
    table = tmp_path / "sol.csv"
    assert run("maxent", "--u", "x", "--moment", 0.5,
               "--lower", 0, "--upper", 40, "--points", 80001,
               "--out", out, "--table", table) == 0
    sol = json.loads(out.read_text())
    assert sol["converged"] is True
    assert sol["lambda"] == pytest.approx(2.0, abs=1e-6)
    printed = capsys.readouterr().out
    assert printed.startswith("lambda = ")
    csv_table = io.read_table(table)
    assert {"x", "f", "U_tilde"} <= set(csv_table)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_maxent_json_is_strict_when_k_overflows(tmp_path, capsys):
    # lambda * min u passes 709, so k = 1/Omega itself would be inf
    out = tmp_path / "sol.json"
    assert run("maxent", "--u", "x + 1000", "--moment", 1000.05,
               "--lower", 0, "--upper", 10, "--points", 1001,
               "--out", out) == 0
    assert capsys.readouterr().err == ""
    sol = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert "k" not in sol and np.isfinite(sol["log_k"]) and sol["log_k"] > 709


def test_maxent_from_samples(tmp_path):
    rng = np.random.default_rng(12)
    samples = rng.exponential(0.5, 20_000)
    path = tmp_path / "samples.csv"
    io.write_table(path, {"x": np.sort(samples)})
    out = tmp_path / "sol.json"
    assert run("maxent", "--u", "x", "--samples", path,
               "--lower", 0, "--upper", 40, "--points", 4001,
               "--out", out) == 0
    sol = json.loads(out.read_text())
    # lambda = 1/mean up to sampling noise
    assert sol["lambda"] == pytest.approx(2.0, rel=0.05)
    assert sol["target_moment"] == pytest.approx(np.mean(samples))


def test_maxent_reads_x_and_u_alone_of_a_u_table(tmp_path):
    x = np.linspace(-4, 4, 801)
    clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
    io.write_table(clean, {"x": x, "f": np.exp(-x * x / 2), "U": x * x / 2,
                           "E_c": -x})
    header, *rows = clean.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    dirty.write_text(header + "\n" + "".join(
        f"{x},abc,{u},?\n" for x, _, u, _ in cells))
    outputs = []
    for u in (clean, dirty):
        out = tmp_path / f"{u.stem}.json"
        assert run("maxent", "--u", u, "--moment", 0.4, "--lower", -4,
                   "--upper", 4, "--points", 801, "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_maxent_reads_x_alone_of_a_samples_file(tmp_path):
    samples = np.random.default_rng(8).standard_normal(300)
    clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
    io.write_table(clean, {"x": samples})
    dirty.write_text("x,f\n" + "".join(f"{v!r},?\n"
                                        for v in samples.tolist()))
    outputs = []
    for path in (clean, dirty):
        out = tmp_path / f"{path.stem}.json"
        assert run("maxent", "--u", "x^2", "--samples", path, "--lower", -8,
                   "--upper", 8, "--points", 1601, "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_maxent_infeasible_exits_3(tmp_path, capsys):
    assert run("maxent", "--u", "x", "--moment", 100.0,
               "--lower", 0, "--upper", 10, "--points", 101,
               "--out", tmp_path / "sol.json") == 3
    assert "error:" in capsys.readouterr().err


def test_maxent_samples_in_any_order(tmp_path):
    samples = np.random.default_rng(5).standard_normal(500)
    outputs = []
    for name, x in (("sorted", np.sort(samples)), ("shuffled", samples)):
        path = tmp_path / f"{name}.csv"
        io.write_table(path, {"x": x})
        out = tmp_path / f"{name}.json"
        assert run("maxent", "--u", "x^2", "--samples", path,
                   "--lower", -8, "--upper", 8, "--points", 1601,
                   "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flags", [
    ("--moment", "0.5", "--tol", "nan"),
    ("--moment", "0.5", "--tol", "-1"),
    ("--moment", "0.5", "--tol", "0"),
    ("--moment", "0.5", "--tol", "inf"),
    ("--moment", "0.5", "--max-iter", "0"),
    ("--moment", "0.5", "--max-iter", "-2"),
    ("--moment", "nan"),
    ("--moment", "inf"),
    ("--moment", "0.5", "--lambda-init", "nan"),
], ids=" ".join)
def test_maxent_bad_solver_parameter_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "sol.json"
    assert run("maxent", "--u", "x", *flags, "--lower", 0, "--upper", 10,
               "--points", 101, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_maxent_samples_of_pearson_u_exits_2(tmp_path, capsys):
    # a Pearson potential is an integral on a grid, with no value at a sample
    u = write_json(tmp_path / "u.json",
                   {"kind": "potential", "family": "pearson",
                    "a": 0, "b0": 1, "b1": 0, "b2": 0})
    samples = tmp_path / "s.csv"
    io.write_table(samples, {"x": np.linspace(-1, 1, 50)})
    out = tmp_path / "sol.json"
    assert run("maxent", "--u", u, "--samples", samples, "--lower", -3,
               "--upper", 3, "--points", 61, "--out", out) == 2
    err = capsys.readouterr().err
    assert "--moment" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("u,samples,message", [
    # u overflows at a sample inside its domain
    ("x^2", [1.0, 2.0, 1e200, 1e300], "u is not finite at the sample "
                                      "x = 1e+200"),
    # u is finite, but its sum overflows
    ("x", [1e308, 1e308], "the sample mean of u exceeds the float range"),
], ids=["u", "mean"])
def test_maxent_far_samples_exit_2_quietly(tmp_path, capsys, u, samples,
                                           message):
    path = tmp_path / "s.csv"
    io.write_table(path, {"x": np.array(samples)})
    out = tmp_path / "sol.json"
    assert run("maxent", "--u", u, "--samples", path, "--lower", 0,
               "--upper", 3, "--points", 31, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_maxent_bad_expression_exits_2(tmp_path):
    assert run("maxent", "--u", "x + sin(x)", "--moment", 0.5,
               "--lower", 0, "--upper", 10, "--points", 101,
               "--out", tmp_path / "sol.json") == 2


def test_maxent_requires_grid(tmp_path):
    assert run("maxent", "--u", "x", "--moment", 0.5,
               "--out", tmp_path / "sol.json") == 2


@pytest.mark.parametrize("argv", [
    ["maxent", "--u", "x", "--moment", 0.5, "--out", "out"],
    ["maxent", "--u", "x", "--moment", 0.5, "--lower", 0, "--upper", 1,
     "--out", "out"],
    ["decompose", "--samples", "s.csv", "--out", "out"],
    ["decompose", "--samples", "s.csv", "--grid-kind", "continuous",
     "--points", 11, "--out", "out"],
], ids=["maxent", "maxent-points", "decompose", "decompose-bounds"])
def test_grid_bounds_are_required(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    io.write_table("s.csv", {"x": np.linspace(0, 1, 200)})
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the following arguments are required: ")
    assert err.count("\n") == 1
    assert not Path("out").exists()


def test_maxent_u_past_the_float_range_exits_2(tmp_path, capsys):
    # max u - min u overflows: the range check took an inf margin and
    # exited 3, "outside attainable range (-1.5e+308, 1.5e+308)"
    out = tmp_path / "sol.json"
    assert run("maxent", "--u", "1e308x", "--moment", 0, "--lower", -1.5,
               "--upper", 1.5, "--points", 5, "--out", out) == 2
    assert capsys.readouterr().err == \
        "error: u spans more than the float range on this grid\n"
    assert not out.exists()


@pytest.mark.parametrize("target", [("--moment", 0.3),
                                    ("--samples", "s.csv")],
                         ids=["moment", "samples"])
def test_maxent_tabulated_u_matches_its_polynomial(tmp_path, monkeypatch,
                                                   target):
    # (x - 1)^2 as a table, a tabulated spec and an expression: the same u
    # on the grid, and at samples on its points, so the same bytes
    monkeypatch.chdir(tmp_path)
    x = np.linspace(0.0, 2.0, 5)
    io.write_table("u.csv", {"x": x, "U": (x - 1.0) ** 2})
    write_json(tmp_path / "u.json", {"kind": "potential",
                                     "family": "tabulated", "csv": "u.csv"})
    io.write_table("s.csv", {"x": [0.0, 0.5, 0.5, 1.0, 2.0]})
    outputs = set()
    for u in ("u.csv", "u.json", "1 - 2x + x^2"):
        assert run("maxent", "--u", u, *target, "--lower", 0, "--upper", 2,
                   "--points", 5, "--out", "m.json", "--table", "m.csv") == 0
        outputs.add((Path("m.json").read_bytes(),
                     Path("m.csv").read_bytes()))
    assert len(outputs) == 1


def test_maxent_sample_outside_the_table_exits_2(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    x = np.linspace(0.0, 2.0, 5)
    io.write_table("u.csv", {"x": x, "U": (x - 1.0) ** 2})
    io.write_table("s.csv", {"x": [0.5, 2.5]})
    assert run("maxent", "--u", "u.csv", "--samples", "s.csv", "--lower", 0,
               "--upper", 2, "--points", 5, "--out", "m.json") == 2
    assert capsys.readouterr().err == \
        "error: evaluation point outside tabulated domain\n"
    assert not Path("m.json").exists()


# ---------------------------------------------------------------------------
# simulate


SIM_CONFIG = {
    "kind": "sim_config",
    "potential": {"family": "normal", "mu": 0.0, "sigma": 1.0},
    "grid": {"grid_kind": "continuous", "lower": -6.0, "upper": 6.0,
             "n_points": 49},
    "dt": 5e-3, "n_steps": 20000, "burn_in": 2000, "n_chains": 4, "seed": 42,
}


def test_gamma_shape_one_on_a_grid_from_zero(tmp_path):
    # E_c(0) = -1/beta: a finite intensity table and a stable simulation
    out = tmp_path / "g.csv"
    assert run("catalog", "--family", "gamma", "--alpha", 1, "--beta", 2,
               "--lower", 0, "--upper", 10, "--points", 11,
               "--out", out) == 0
    assert io.read_table(out)["E_c"].tolist() == [-0.5] * 11
    cfg = dict(SIM_CONFIG, n_steps=2000, burn_in=200,
               potential={"family": "gamma", "alpha": 1.0, "beta": 2.0},
               grid={"grid_kind": "continuous", "lower": 0.0, "upper": 10.0,
                     "n_points": 11})
    assert run("simulate", "--config", write_json(tmp_path / "cfg.json", cfg),
               "--out", tmp_path / "res.json") == 0


def test_simulate_reproducible_bytes(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", SIM_CONFIG)
    outs, hists = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"res_{tag}.json"
        hist = tmp_path / f"hist_{tag}.csv"
        assert run("simulate", "--config", cfg, "--out", out,
                   "--hist", hist) == 0
        outs.append(out.read_bytes())
        hists.append(hist.read_bytes())
    assert outs[0] == outs[1]
    assert hists[0] == hists[1]
    res = json.loads(outs[0])
    assert res["rng_algorithm"] == "philox4x64"
    assert res["tv_distance"] < 0.1
    assert "tv_distance = " in capsys.readouterr().out


# --hist SHA-256s pinned across versions of the step: a run whose chunks
# run clear (the first reflected) and one whose every chunk reflects; both
# drifts use only +, - and x, so a last-bit change in a position moves a
# count only where it crosses a bin edge
GOLDEN_HIST = {
    "double_well": (
        {"family": "polynomial", "coeffs": [1.0, 0.0, -1.0, 0.0, 0.25]},
        {"lower": -4.0, "upper": 4.0, "n_points": 161}, 3000, 32,
        "43aec0f392159da79598bf46fc3ee74e4310d30bcd8b4739f330fd06fd4597b5"),
    "exponential": (
        {"family": "exponential", "a": 1.0},
        {"lower": 0.0, "upper": 12.0, "n_points": 49}, 1000, 128,
        "a0d735f6462b2164f3c63e7572af322981ec50b603b822b60304a4b13c01eb84"),
}


@pytest.mark.parametrize("name", GOLDEN_HIST)
def test_simulate_hist_bytes_are_pinned(tmp_path, name):
    potential, grid, n_steps, n_chains, digest = GOLDEN_HIST[name]
    cfg = {"kind": "sim_config", "potential": potential,
           "grid": {"grid_kind": "continuous", **grid}, "dt": 5e-3,
           "n_steps": n_steps, "burn_in": n_steps // 10,
           "n_chains": n_chains, "seed": 7}
    hist = tmp_path / "hist.csv"
    assert run("simulate", "--config", write_json(tmp_path / "cfg.json", cfg),
               "--out", tmp_path / "res.json", "--hist", hist) == 0
    assert hashlib.sha256(hist.read_bytes()).hexdigest() == digest


def test_simulate_high_potential_floor_runs_quietly(tmp_path, capsys):
    # U = 800 + x^2: the statistical sum is e^-800 times a finite sum
    cfg = dict(SIM_CONFIG, n_steps=2000, burn_in=200,
               potential={"family": "polynomial", "coeffs": [800, 0, 1]})
    out = tmp_path / "res.json"
    assert run("simulate", "--config", write_json(tmp_path / "cfg.json", cfg),
               "--out", out) == 0
    assert capsys.readouterr().err == ""
    json.loads(out.read_text(), parse_constant=_reject_constant)


def test_simulate_unstable_config_exits_2(tmp_path):
    cfg = dict(SIM_CONFIG, dt=0.25)
    path = write_json(tmp_path / "cfg.json", cfg)
    assert run("simulate", "--config", path, "--out",
               tmp_path / "res.json") == 2


def test_simulate_undefined_causal_intensity_exits_2(tmp_path, capsys):
    # U = 1e308 x^2 is finite on [-1, 1], but U' = 2e308 x overflows
    cfg = dict(SIM_CONFIG,
               potential={"family": "polynomial", "coeffs": [0, 0, 1e308]},
               grid={"grid_kind": "continuous", "lower": -1.0, "upper": 1.0,
                     "n_points": 49})
    out = tmp_path / "res.json"
    assert run("simulate", "--config", write_json(tmp_path / "cfg.json", cfg),
               "--out", out) == 2
    assert capsys.readouterr().err == \
        "error: causal intensity is undefined on the grid\n"
    assert not out.exists()


def test_simulate_out_of_memory_in_the_worker_exits_2(tmp_path, capsys,
                                                    monkeypatch):
    # the kicks are drawn on a worker thread; its error reaches the caller
    class NoKicks(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            raise MemoryError("Unable to allocate the kicks")

    monkeypatch.setattr(np.random, "Generator", NoKicks)
    threads = threading.active_count()
    out = tmp_path / "res.json"
    assert run("simulate", "--config",
               write_json(tmp_path / "cfg.json", SIM_CONFIG),
               "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory (Unable to allocate the "
                          "kicks)")
    assert err.count("\n") == 1
    assert not out.exists()
    assert threading.active_count() == threads


@pytest.mark.parametrize("change", [
    {"dt": "a"},
    {"n_steps": "a"},
    {"grid": dict(SIM_CONFIG["grid"], n_points="a")},
    {"dt": True},
])
def test_simulate_non_numeric_field_exits_2(tmp_path, capsys, change):
    out = tmp_path / "res.json"
    path = write_json(tmp_path / "cfg.json", dict(SIM_CONFIG, **change))
    assert run("simulate", "--config", path, "--out", out) == 2
    err = capsys.readouterr().err
    # SimConfig and Grid check their numeric fields themselves
    expected = ("dt must be positive and finite" if "dt" in change
                else "must be an integer")
    assert expected in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("bound", [{"lower": "-6"}, {"upper": True},
                                   {"lower": 10 ** 400}],
                         ids=["string", "bool", "huge_int"])
def test_simulate_non_real_grid_bound_exits_2(tmp_path, capsys, bound):
    out = tmp_path / "res.json"
    cfg = dict(SIM_CONFIG, grid=dict(SIM_CONFIG["grid"], **bound))
    path = write_json(tmp_path / "cfg.json", cfg)
    assert run("simulate", "--config", path, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{next(iter(bound))} must be a finite real number" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field", ["potential", "grid"])
def test_simulate_non_object_spec_exits_2(tmp_path, capsys, field):
    path = write_json(tmp_path / "cfg.json", dict(SIM_CONFIG, **{field: 5}))
    assert run("simulate", "--config", path, "--out",
               tmp_path / "res.json") == 2
    err = capsys.readouterr().err
    assert "must be a JSON object" in err and err.count("\n") == 1


@pytest.mark.parametrize("change", [
    {"n_chains": 2.5},
    {"n_steps": 100.9},
    {"grid": dict(SIM_CONFIG["grid"], n_points=11.7)},
    {"seed": 1.5},
    {"burn_in": True},
], ids=["n_chains", "n_steps", "n_points", "seed", "burn_in"])
def test_simulate_non_integer_count_exits_2(tmp_path, capsys, change):
    out = tmp_path / "res.json"
    path = write_json(tmp_path / "cfg.json", dict(SIM_CONFIG, **change))
    assert run("simulate", "--config", path, "--out", out) == 2
    err = capsys.readouterr().err
    assert "must be an integer" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field, kind", [("potential", "sim_config"),
                                         ("grid", "potential")])
def test_simulate_nested_spec_of_another_kind_exits_2(tmp_path, capsys,
                                                     field, kind):
    out = tmp_path / "res.json"
    cfg = dict(SIM_CONFIG, **{field: dict(SIM_CONFIG[field], kind=kind)})
    assert run("simulate", "--config", write_json(tmp_path / "cfg.json", cfg),
               "--out", out) == 2
    err = capsys.readouterr().err
    assert f"the {field} spec has kind '{kind}'" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_nested_spec_may_name_its_own_kind(tmp_path):
    cfg = dict(SIM_CONFIG, n_steps=200, burn_in=20,
               potential=dict(SIM_CONFIG["potential"], kind="potential"),
               grid=dict(SIM_CONFIG["grid"], kind="grid"))
    assert run("simulate", "--config", write_json(tmp_path / "cfg.json", cfg),
               "--out", tmp_path / "res.json") == 0


@pytest.mark.parametrize("n_chains", [2 ** 60, 2 ** 63, 2 ** 64])
def test_simulate_too_many_chains_exits_2(tmp_path, capsys, n_chains):
    # rejected by SimConfig before a single chain is allocated
    out = tmp_path / "res.json"
    path = write_json(tmp_path / "cfg.json", dict(SIM_CONFIG,
                                                  n_chains=n_chains))
    assert run("simulate", "--config", path, "--out", out) == 2
    err = capsys.readouterr().err
    assert "n_chains must be below 2**60" in err and err.count("\n") == 1
    assert not out.exists()


def test_simulate_unknown_field_exits_2(tmp_path):
    cfg = dict(SIM_CONFIG, extra=1)
    path = write_json(tmp_path / "cfg.json", cfg)
    assert run("simulate", "--config", path, "--out",
               tmp_path / "res.json") == 2


# ---------------------------------------------------------------------------
# decompose


def test_decompose_standard_normal(tmp_path, capsys):
    rng = np.random.default_rng(3)
    path = tmp_path / "samples.csv"
    io.write_table(path, {"x": np.sort(rng.standard_normal(50_000))})
    out = tmp_path / "dec.csv"
    report = tmp_path / "report.json"
    assert run("decompose", "--samples", path, "--estimator", "kernel",
               "--bandwidth", 0.2, "--lower", -5, "--upper", 5,
               "--points", 501, "--out", out, "--report", report) == 0
    rep = json.loads(report.read_text())
    assert 0.9 <= rep["intensity_slope"] <= 1.1
    table = io.read_table(out)
    assert {"x", "f", "U_tilde", "E_s", "mask"} <= set(table)
    assert "intensity_slope = " in capsys.readouterr().out


@pytest.mark.parametrize("seed", [1, 7, 3601])
def test_decompose_mask_survives_transform(tmp_path, seed):
    # the kernel estimate zeroes its own round-off, the far tails' cells
    # at or below 1e-12 of its peak, so the transform's 1e-300 floor masks
    # the table it reads back exactly where decompose did
    rng = np.random.default_rng(seed)
    samples, dec, es = (tmp_path / name for name in ("s.csv", "dec.csv",
                                                     "es.csv"))
    io.write_table(samples, {"x": rng.normal(1.0, 0.7, 10_000)})
    assert run("decompose", "--samples", samples, "--lower", -2.5,
               "--upper", 4.5, "--points", 2001, "--out", dec) == 0
    assert run("transform", "--in", dec, "--to", "intensity",
               "--out", es) == 0
    mask = io.read_table(dec)["mask"]
    assert 0 < mask.sum() < mask.size
    assert io.read_table(es)["mask"].tolist() == mask.tolist()


def test_decompose_too_few_samples_exits_2(tmp_path):
    path = tmp_path / "samples.csv"
    io.write_table(path, {"x": np.linspace(0, 1, 20)})
    assert run("decompose", "--samples", path, "--lower", -1, "--upper", 2,
               "--points", 101, "--out", tmp_path / "dec.csv") == 2


def test_decompose_tied_samples(tmp_path):
    path = tmp_path / "samples.csv"
    io.write_table(path, {"x": np.random.default_rng(4).poisson(4.0, 500)})
    assert run("decompose", "--samples", path, "--lower", -2, "--upper", 15,
               "--points", 171, "--out", tmp_path / "dec.csv") == 0


def test_decompose_far_outliers_are_quiet(tmp_path, capsys):
    # +-1e308 overflow np.std and each outlier's KDE grid coordinate; both
    # runs wrote their tables after overflow warnings
    samples = np.random.default_rng(8).standard_normal(200)
    path = tmp_path / "s.csv"
    io.write_table(path, {"x": np.append(samples, [1e308, -1e308])})
    grid = ["--lower", -3, "--upper", 3, "--points", 101]
    # Silverman's rule: the inf std loses to IQR / 1.34
    report = tmp_path / "r.json"
    assert run("decompose", "--samples", path, *grid, "--out",
               tmp_path / "a.csv", "--report", report) == 0
    q75, q25 = np.percentile(np.append(samples, [1e308, -1e308]), [75, 25])
    bandwidth = 0.9 * ((q75 - q25) / 1.34) * 202 ** -0.2
    assert json.loads(report.read_text())["estimator"] == \
        f"kernel(bandwidth={bandwidth:g})"
    # a given bandwidth: the outliers are dropped from the estimate, whose
    # normalization cancels the count
    out = tmp_path / "b.csv"
    assert run("decompose", "--samples", path, "--bandwidth", 0.3, *grid,
               "--out", out) == 0
    expected = decompose_samples(samples, Grid("continuous", -3, 3, 101),
                                 bandwidth=0.3).density_estimate.values
    assert np.allclose(io.read_table(out)["f"], expected, rtol=1e-14, atol=0)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_decompose_non_positive_bins_exits_2(tmp_path, capsys, bins):
    path = tmp_path / "samples.csv"
    io.write_table(path, {"x": np.linspace(-1, 1, 200)})
    out = tmp_path / "dec.csv"
    assert run("decompose", "--samples", path, "--estimator", "histogram",
               "--bins", bins, "--lower", -2, "--upper", 2, "--points", 101,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert "bins must be an integer >= 1" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("bandwidth", ["0", "-0.1", "nan", "inf"])
def test_decompose_invalid_bandwidth_exits_2(tmp_path, capsys, bandwidth):
    path = tmp_path / "samples.csv"
    io.write_table(path, {"x": np.linspace(-1, 1, 200)})
    assert run("decompose", "--samples", path, "--bandwidth", bandwidth,
               "--lower", -2, "--upper", 2, "--points", 101,
               "--out", tmp_path / "dec.csv") == 2
    assert "bandwidth must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--bins", 7],
    ["--estimator", "histogram", "--bandwidth", 0.3],
])
def test_decompose_option_of_the_other_estimator_exits_2(tmp_path, capsys,
                                                         flags):
    path = tmp_path / "samples.csv"
    io.write_table(path, {"x": np.linspace(-1, 1, 200)})
    out = tmp_path / "dec.csv"
    assert run("decompose", "--samples", path, *flags, "--lower", -2,
               "--upper", 2, "--points", 101, "--out", out) == 2
    assert _one_line_error(capsys)
    assert not out.exists()


# ---------------------------------------------------------------------------
# input that is not UTF-8

@pytest.mark.parametrize("name, data, argv", [
    ("f.csv", b"x,f\xff\n0,0.2\n1,0.3\n2,0.3\n",
     ["transform", "--to", "potential", "--in"]),
    ("f.csv", b"x,f\n0,0.2\n1,0.3\xff\n2,0.3\n",
     ["transform", "--to", "potential", "--in"]),
    ("pot.json", b'{"kind": "potential", "family": "normal\xff"}',
     ["transform", "--to", "density", "--in"]),
    ("samples.csv", b"x\n0.1\n-0.2\xff\n0.3\n",
     ["decompose", "--lower", -2, "--upper", 2, "--points", 101,
      "--samples"]),
], ids=["table_header", "table_body", "spec", "samples"])
def test_non_utf8_input_exits_2(tmp_path, capsys, name, data, argv):
    src = tmp_path / name
    src.write_bytes(data)
    out = tmp_path / "out.csv"
    assert run(*argv, src, "--out", out) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# a failed command leaves no output file


def _two_output_argv(tmp_path, command):
    """argv of a command whose first output is first.* and whose second
    output goes to a missing directory."""
    samples = tmp_path / "samples.csv"
    io.write_table(samples, {"x": np.linspace(-1, 1, 200)})
    missing = tmp_path / "missing"
    cfg = dict(SIM_CONFIG, n_steps=200, burn_in=20)
    return {
        "maxent": ["maxent", "--u", "x", "--moment", 0.5, "--lower", 0,
                   "--upper", 10, "--points", 101, "--out",
                   tmp_path / "first.json", "--table", missing / "t.csv"],
        "simulate": ["simulate", "--config",
                     write_json(tmp_path / "cfg.json", cfg), "--out",
                     tmp_path / "first.json", "--hist", missing / "h.csv"],
        "decompose": ["decompose", "--samples", samples, "--lower", -2,
                      "--upper", 2, "--points", 101, "--out",
                      tmp_path / "first.csv", "--report", missing / "r.json"],
    }[command]


@pytest.mark.parametrize("command", ["maxent", "simulate", "decompose"])
def test_failed_second_output_removes_the_first(tmp_path, capsys, command):
    argv = _two_output_argv(tmp_path, command)
    assert run(*argv) == 2
    assert _one_line_error(capsys)
    assert not list(tmp_path.glob("first.*"))
    # with the directory there, both outputs are written
    (tmp_path / "missing").mkdir()
    assert run(*argv) == 0
    assert len(list(tmp_path.glob("first.*"))) == 1
    assert len(list((tmp_path / "missing").iterdir())) == 1


@pytest.mark.parametrize("command", ["catalog", "maxent"])
def test_cleanup_removes_a_partly_written_output(tmp_path, capsys,
                                                 monkeypatch, command):
    # the table's second slice of rows fails after the first was written
    cells, calls = io._cells, []

    def failing(v):
        calls.append(v.size)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate the cells")
        return cells(v)

    monkeypatch.setattr(io, "_cells", failing)
    argv = {
        "catalog": ["catalog", "--family", "normal", "--out",
                    tmp_path / "n.csv"],
        "maxent": ["maxent", "--u", "x", "--moment", 0.5, "--lower", 0,
                   "--upper", 10, "--points", 2001, "--out",
                   tmp_path / "m.json", "--table", tmp_path / "t.csv"],
    }[command]
    assert run(*argv) == 2
    assert _one_line_error(capsys)
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def test_cleanup_keeps_a_file_whose_open_failed(tmp_path, monkeypatch):
    out = tmp_path / "t.csv"
    out.write_text("x\n1\n")

    def failing_open(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(out))

    monkeypatch.setattr(io, "open", failing_open, raising=False)
    with pytest.raises(PermissionError):
        io.write_table(out, {"x": np.arange(3.0)})
    with pytest.raises(PermissionError):
        io.dump_json(out, {"kind": "report"})
    assert out.read_text() == "x\n1\n"


def test_cleanup_never_removes_a_symlink(tmp_path, capsys):
    # the first output is a link to the null device; the second fails
    link = tmp_path / "link"
    link.symlink_to(os.devnull)
    assert run("maxent", "--u", "x", "--moment", 0.5, "--lower", 0,
               "--upper", 10, "--points", 101, "--out", link, "--table",
               tmp_path / "missing" / "t.csv") == 2
    assert _one_line_error(capsys)
    assert link.is_symlink() and os.readlink(link) == os.devnull


# ---------------------------------------------------------------------------
# one parser per process


def _valid_argv(tmp_path, command):
    (tmp_path / "missing").mkdir(exist_ok=True)
    return _two_output_argv(tmp_path, command)


def test_parser_is_built_once(tmp_path, capsys):
    parser = cli.build_parser()
    assert run(*_valid_argv(tmp_path, "decompose")) == 0
    assert run("transform") == 2
    assert run(*_valid_argv(tmp_path, "maxent")) == 0
    assert cli.build_parser() is parser


# each usage error, then a valid call of a subcommand: a mutually
# exclusive pair, a missing required group, a bad choice, a missing value
# and an unknown subcommand
@pytest.mark.parametrize("bad,command", [
    (["maxent", "--u", "x", "--moment", 0.5, "--samples", "s.csv",
      "--out", "m.json"], "maxent"),
    (["maxent", "--u", "x", "--out", "m.json"], "maxent"),
    (["decompose", "--samples", "s.csv", "--estimator", "box", "--out",
      "d.csv"], "decompose"),
    (["simulate", "--config"], "simulate"),
    (["bogus"], "decompose"),
])
def test_usage_error_leaves_the_parser_usable(tmp_path, capsys, bad,
                                              command):
    parser = cli.build_parser()
    assert run(*bad) == 2
    assert _one_line_error(capsys)
    assert run(*_valid_argv(tmp_path, command)) == 0
    assert cli.build_parser() is parser


@pytest.mark.parametrize("command,name", [
    ("decompose", "decompose_samples"),
    ("simulate", "simulate"),
])
def test_patched_library_function_is_called(tmp_path, monkeypatch, command,
                                            name):
    # the parser maps a subcommand to cmd_*, which looks the library
    # function up when it runs, so a spy set after the first call sees it
    argv = _valid_argv(tmp_path, command)
    assert run(*argv) == 0
    calls, original = [], getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert run(*argv) == 0
    assert calls == [name]
