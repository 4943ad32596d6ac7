"""The CLI contract as a property: ``simulate``, and ``catalog`` into
``transform``.

Every input ends in exit 0, 2 or 3.  A failure prints exactly one
``error: ...`` line and writes no output file; a success writes strict
JSON (no NaN or Infinity) and a histogram that is not all NaN.  Configs
are drawn from the ``SimConfig`` fields and the ``SPECS`` registry of
potential specs (the families, Pearson with either sign and polynomial
coefficients), with at most one field broken per config, and stay within
64 chains x 200 steps so that the module runs in seconds.

Every table that ``catalog`` writes is a density to ``transform``, which
maps it to a potential, an intensity and a density of mass 1 with exit 0
and nothing on stderr; the intensity is undefined (exit 2) exactly where f
has no run of points above the 1e-300 floor as long as the difference
rule reads, 2 on a lattice and 3 on a continuous grid.  The
families' fields are drawn over ordinary and extreme values (a subnormal
Gamma shape, masses that underflow or overflow) on grids of at most 41
points.  Every warning is an error.
"""

import contextlib
import dataclasses
import io as stdio
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equilib import cli, io
from equilib.catalog import FAMILIES, SPECS

JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(0, 3), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                                 max_size=1))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _spec_field(field, positive):
    if field.name == "coeffs":
        return st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5)
    if field.name == "sign":
        return st.sampled_from(["standard", "paper"])
    if field.type == "int":
        return st.integers(1, 20)
    return st.floats(0.1, 5.0) if positive else st.floats(-2.0, 2.0)


@st.composite
def potentials(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    cls = SPECS[name]
    spec = {"family": name}
    for field in dataclasses.fields(cls):
        if field.default is dataclasses.MISSING or draw(st.booleans()):
            spec[field.name] = draw(_spec_field(
                field, field.name in getattr(cls, "_positive", ())))
    return spec


@st.composite
def bad_potentials(draw):
    spec = draw(potentials())
    how = draw(st.sampled_from(["junk", "family", "field", "value"]))
    if how == "junk":
        return draw(JUNK)
    if how == "family":
        return dict(spec, family=draw(st.one_of(st.just("nope"), JUNK)))
    if how == "field":
        return dict(spec, extra=1)
    name = draw(st.sampled_from(sorted(set(spec) - {"family"}) or ["mu"]))
    return dict(spec, **{name: draw(st.one_of(JUNK, NON_FINITE,
                                              st.floats(-5.0, 0.0)))})


@st.composite
def grids(draw):
    lower = draw(st.integers(-5, 1))
    n_points = draw(st.integers(3, 101))
    if draw(st.integers(0, 3)) == 3:  # a lattice: simulate needs a line
        return {"grid_kind": "lattice", "lower": lower,
                "upper": lower + n_points - 1, "n_points": n_points}
    return {"grid_kind": "continuous",
            "lower": draw(st.just(lower) | st.floats(-5.0, 1.0)),
            "upper": draw(st.integers(2, 10) | st.floats(1.5, 10.0)),
            "n_points": n_points}


@st.composite
def bad_grids(draw):
    spec = draw(grids())
    name = draw(st.sampled_from(sorted(spec) + ["extra", "missing"]))
    if name == "extra":
        return dict(spec, extra=1)
    if name == "missing":
        return {k: v for k, v in spec.items() if k != "grid_kind"}
    bad = {"grid_kind": st.one_of(st.just("torus"), JUNK),
           "lower": st.one_of(JUNK, NON_FINITE, st.floats(10.0, 20.0)),
           "upper": st.one_of(JUNK, NON_FINITE, st.floats(-10.0, -5.0)),
           "n_points": st.one_of(JUNK, st.integers(-2, 2),
                                 st.floats(3.5, 9.5))}[name]
    return dict(spec, **{name: draw(bad)})


BAD = {
    "potential": bad_potentials(),
    "grid": bad_grids(),
    "dt": st.one_of(JUNK, NON_FINITE, st.floats(-1.0, 0.0), st.just(1.0)),
    "n_steps": st.one_of(JUNK, st.integers(-3, 0), st.just(50.5)),
    "burn_in": st.one_of(JUNK, st.integers(-3, -1), st.integers(200, 300)),
    # too many chains must fail before anything is allocated
    "n_chains": st.one_of(JUNK, st.integers(-3, 0), st.just(2.5),
                          st.sampled_from([2 ** 60, 2 ** 63, 2 ** 64,
                                           10 ** 30])),
    "seed": st.one_of(JUNK, st.integers(-(2 ** 70), -1),
                      st.integers(2 ** 64, 2 ** 70), st.just(1.5)),
}


@st.composite
def sim_configs(draw):
    n_steps = draw(st.integers(1, 200))
    config = {
        "kind": "sim_config",
        "potential": draw(potentials()),
        "grid": draw(grids()),
        "dt": draw(st.floats(1e-4, 0.05)),
        "n_steps": n_steps,
        "burn_in": draw(st.integers(0, n_steps - 1)),
        "n_chains": draw(st.integers(1, 64)),
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
    }
    broken = draw(st.none() | st.sampled_from(["extra"] + sorted(BAD)))
    if broken == "extra":
        config["extra"] = 1
    elif broken is not None:
        config[broken] = draw(BAD[broken])
    return config


VALID = {
    "kind": "sim_config", "potential": {"family": "normal"},
    "grid": {"grid_kind": "continuous", "lower": -4, "upper": 4,
             "n_points": 33},
    "dt": 0.01, "n_steps": 100, "burn_in": 10, "n_chains": 16, "seed": 7,
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _main(*argv):
    """Exit code and stderr of ``cli.main(argv)``, every warning an error."""
    err = stdio.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(stdio.StringIO()):
        warnings.simplefilter("error")
        code = cli.main([str(arg) for arg in argv])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sim_configs())
@example(VALID)
@example(dict(VALID, grid={"grid_kind": "lattice", "lower": 0, "upper": 8,
                           "n_points": 9}))
@example(dict(VALID, n_chains=2 ** 60))
@example(dict(VALID, potential={"family": "pearson", "a": 0.5, "b0": 2.0,
                                "b1": 0.0, "b2": 0.25, "sign": "standard"}))
@example(dict(VALID, n_chains=2 ** 64))
def test_simulate_honours_the_cli_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out, hist = (os.path.join(tmp, name) for name in
                           ("sim.json", "result.json", "hist.csv"))
        with open(path, "w") as fh:
            json.dump(config, fh)
        code, err = _main("simulate", "--config", path, "--out", out,
                          "--hist", hist)
        if code != 0:
            assert code in (2, 3)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not os.path.exists(out) and not os.path.exists(hist)
            return
        assert err == ""
        with open(out) as fh:
            result = json.load(fh, parse_constant=_reject_constant)
        assert result["kind"] == "sim_result"
        assert result["n_samples_used"] == config["n_chains"] * (
            config["n_steps"] - config["burn_in"])
        assert not np.isnan(io.read_table(hist)["f"]).all()


# a field of every family: ordinary values, any sign, and the extremes
FIELD_VALUES = st.one_of(st.floats(0.01, 100.0), st.floats(-10.0, 10.0),
                         st.sampled_from([5e-324, 1e-300, 1e-30, 1e30]))


@st.composite
def catalog_argvs(draw):
    """``catalog`` flags of a family with drawn fields on a small grid."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    argv = ["--family", name]
    for field in dataclasses.fields(FAMILIES[name]):
        if field.default is dataclasses.MISSING or draw(st.booleans()):
            value = draw(st.integers(1, 40) if field.type == "int"
                         else FIELD_VALUES)
            argv.append(f"--{field.name}={value!r}")
    n_points = draw(st.integers(3, 41))
    if draw(st.booleans()):
        lower = draw(st.integers(0, 5))
        return argv + ["--grid-kind", "lattice", "--lower", lower,
                       "--upper", lower + n_points - 1, "--points", n_points]
    lower = draw(st.floats(0.01, 5.0))
    return argv + ["--lower", lower, "--upper",
                   lower + draw(st.floats(0.5, 30.0)), "--points", n_points]


UNRESOLVED = "error: all points masked: E_s is undefined on this grid\n"


STEEP_LATTICE = ["--family", "exponential", "--grid-kind", "lattice",
                 "--lower", 0, "--upper", 2, "--points", 3]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(catalog_argvs())
# its f is subnormal: the table's mass is taken over its largest value
@example(["--family", "gamma", "--alpha", "5e-324", "--beta", "1"])
# f falls by e^28 a step: exact, so E_s is defined (28 at x = 0)
@example(STEEP_LATTICE + ["--a=28"])
# f(1) = e^-1e30 underflows to 0: no two neighbours above the floor
@example(STEEP_LATTICE + ["--a=1e+30"])
def test_transform_accepts_every_catalog_table(argv):
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "t.csv")
        code, err = _main("catalog", *argv, "--out", table)
        if code != 0:
            assert code in (2, 3)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not os.path.exists(table)
            return
        assert err == ""
        results = {to: _main("transform", "--in", table, "--to", to, "--out",
                             os.path.join(tmp, f"{to}.csv"))
                   for to in ("potential", "intensity", "density")}
        f, grid = io.read_grid_table(os.path.join(tmp, "density.csv"))
        assert abs(grid.quadrature(f["f"]) - 1.0) <= 1e-9
        # E_s needs as many neighbours above the floor as its rule reads
        reach = 2 if grid.kind == "lattice" else 3
        runs = np.convolve(f["f"] > 1e-300, np.ones(reach, int), "valid")
        assert results == {
            "potential": (0, ""), "density": (0, ""), "intensity": (
                (0, "") if np.any(runs == reach) else (2, UNRESOLVED))}


def test_transform_reads_every_step_of_a_steep_exact_table(tmp_path):
    # ln f(0) - ln f(1) = 28 exactly, though f falls by 1.4e12 a step
    table, out = tmp_path / "e.csv", tmp_path / "e_i.csv"
    assert _main("catalog", *STEEP_LATTICE, "--a", 28, "--out", table) == (
        0, "")
    assert _main("transform", "--in", table, "--to", "intensity",
                 "--out", out) == (0, "")
    written = io.read_table(out)
    assert written["mask"].tolist() == [0, 0, 1]
    assert abs(written["E_s"][0] - 28.0) <= 1e-13 * 28.0
    assert abs(written["E_s"][1] - 28.0) <= 1e-13 * 28.0


def test_transform_rescales_an_overflowing_mass(tmp_path):
    # the quadrature of f = 1e308 overflows; that of f / max f is 3
    src, out = tmp_path / "f.csv", tmp_path / "d.csv"
    src.write_text("x,f\n0,1e308\n1,1e308\n2,1e308\n")
    assert _main("transform", "--in", src, "--to", "density",
                 "--out", out) == (0, "")
    assert io.read_table(out)["f"].tolist() == [1 / 3] * 3


def test_decompose_pads_only_for_the_samples_it_bins(tmp_path):
    # +-1e308 are 1e308 off the grid, beyond 8 bandwidths of 1e300: they
    # are not binned, and no longer size the padded grid
    samples, out = tmp_path / "s.csv", tmp_path / "d.csv"
    io.write_table(samples, {"x": np.concatenate(
        [np.linspace(0.005, 0.995, 200), [1e308, -1e308]])})
    assert _main("decompose", "--samples", samples, "--lower", -1,
                 "--upper", 1, "--points", 101, "--bandwidth", 1e300,
                 "--out", out) == (0, "")
    f = io.read_table(out)["f"]
    assert np.ptp(f) <= 1e-12 * np.max(f)


def test_decompose_on_a_grid_near_the_float_limit_is_one_line(tmp_path):
    # kept - upper and samples.size * mass overflowed, and the estimate
    # read as zero mass; every density value is below the 1e-300 floor
    samples, out = tmp_path / "s.csv", tmp_path / "d.csv"
    io.write_table(samples, {"x": np.concatenate(
        [np.linspace(-1.69e308, -1.61e308, 200), [1.7e308]])})
    assert _main("decompose", "--samples", samples, "--lower", -1.7e308,
                 "--upper", -1.6e308, "--points", 11, "--out", out) == (
        2, "error: too few usable points in the fit region\n")
    assert not out.exists()


FLOAT_MAX = 1.7976931348623157e308
NO_FIT = "error: too few usable points in the fit region\n"
TOO_BIG = "error: padded grid of inf points is too big\n"
ZERO_MASS = "error: density has zero or non-finite mass (0.0) on this grid\n"


@pytest.mark.parametrize("argv, expected", [
    # samples.size * width overflowed, and the estimate read as zero mass
    (["decompose", "--estimator", "histogram", "--lower", -1e308,
      "--upper", 4.5, "--points", 101], (2, NO_FIT)),
    # the padded size reached int() as inf, or np.arange past any size
    (["decompose", "--lower", 1e-5, "--upper", 3, "--points", 101,
      "--bandwidth", 1e308], (2, TOO_BIG)),
    (["decompose", "--lower", -3, "--upper", 3, "--points", 11,
      "--bandwidth", 1e308], (2, TOO_BIG)),
    # linspace's last i * step overflowed before it was set to the bound
    (["catalog", "--family", "exponential", "--a", 1e-300, "--lower", 0,
      "--upper", FLOAT_MAX, "--points", 4], (0, "")),
    (["decompose", "--estimator", "histogram", "--lower", 0,
      "--upper", FLOAT_MAX, "--points", 2001], (2, NO_FIT)),
    # math.lgamma raised OverflowError
    (["catalog", "--family", "gamma", "--alpha", 1e308, "--beta", 2,
      "--lower", 1, "--upper", 4.5, "--points", 5],
     (2, "error: ln Gamma(alpha) overflows a float\n")),
    # -x ln(lam) + ln Gamma(x + 1) was -inf + inf, NaN with a warning
    (["catalog", "--family", "poisson", "--lam", 1e300, "--lower", 4.5,
      "--upper", FLOAT_MAX, "--points", 3], (3, ZERO_MASS)),
    # f' overflowed where f is 1e300: E_s was inf at every point
    (["transform", "--to", "intensity", "--in",
      ["catalog", "--family", "exponential", "--a", 1e300]], (0, "")),
], ids=["histogram-width", "kernel-pad-inf", "kernel-pad-huge",
        "catalog-linspace", "histogram-linspace", "gamma-lgamma",
        "poisson-inf-minus-inf", "intensity-of-1e300"])
def test_float_limit_inputs_end_in_one_line(tmp_path, argv, expected):
    # 150 N(0, 1) draws and one sample at each float limit
    samples, out = tmp_path / "s.csv", tmp_path / "o.csv"
    io.write_table(samples, {"x": np.concatenate(
        [np.random.default_rng(3).standard_normal(150), [1e308, -1e308]])})
    if argv[0] == "decompose":
        argv = argv + ["--samples", samples]
    if isinstance(argv[-1], list):  # the table of a catalog run
        table = tmp_path / "t.csv"
        assert _main(*argv[-1], "--out", table) == (0, "")
        argv = argv[:-1] + [table]
    assert _main(*argv, "--out", out) == expected
    assert out.exists() == (expected[0] == 0)
    if argv[0] == "transform":
        assert np.isfinite(io.read_table(out)["E_s"]).all()


def _maxent(tmp_path, u, moment):
    out = tmp_path / "m.json"
    assert _main("maxent", "--u", u, "--moment", moment, "--lower", -1,
                 "--upper", 1, "--points", 101, "--out", out) == (0, "")
    with open(out) as fh:
        solution = json.load(fh, parse_constant=_reject_constant)
    assert solution["converged"], solution
    return solution["lambda"]


def test_maxent_solves_where_u_spans_beyond_2_to_the_512(tmp_path):
    # Var[u] overflowed, so every Newton step was 0; u = 1e300 x is x in
    # units of 1e-300, and lambda scales by the same
    lam = _maxent(tmp_path, "1e300x", 1e299)
    assert math.isclose(lam * 1e300, _maxent(tmp_path, "x", 0.1),
                        rel_tol=1e-12)
    assert abs(_maxent(tmp_path, "1e160x", 0) * 1e160) < 1e-12
