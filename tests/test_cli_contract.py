"""The CLI contract as a property: ``simulate``.

Every input ends in exit 0, 2 or 3.  A failure prints exactly one
``error: ...`` line and writes no output file; a success writes strict
JSON (no NaN or Infinity) and a histogram that is not all NaN.  Configs
are drawn from the ``SimConfig`` fields and the ``SPECS`` registry of
potential specs (the families, Pearson with either sign and polynomial
coefficients), with at most one field broken per config, and stay within
64 chains x 200 steps so that the module runs in seconds.
"""

import contextlib
import dataclasses
import io as stdio
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equilib import cli, io
from equilib.catalog import SPECS

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
        err = stdio.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(stdio.StringIO()):
            warnings.simplefilter("error")
            code = cli.main(["simulate", "--config", path, "--out", out,
                             "--hist", hist])
        err = err.getvalue()
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
