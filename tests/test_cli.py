import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import equilib
from equilib import Grid, Normal, cli, io
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
    src = Path(equilib.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, equilib.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


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


def test_maxent_bad_expression_exits_2(tmp_path):
    assert run("maxent", "--u", "x + sin(x)", "--moment", 0.5,
               "--lower", 0, "--upper", 10, "--points", 101,
               "--out", tmp_path / "sol.json") == 2


def test_maxent_requires_grid(tmp_path):
    assert run("maxent", "--u", "x", "--moment", 0.5,
               "--out", tmp_path / "sol.json") == 2


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
