"""The CLI in fresh interpreters: ``python -W error -m equilib.cli``.

Every call is a new process, so a warning at import or at run time is an
error and two runs of one seed share no state.  The module needs NumPy and
pytest alone, so it also runs where SciPy is not installed.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equilib

SRC = Path(equilib.__file__).resolve().parents[1]


def _start(tmp_path, argv):
    return subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "equilib.cli", *map(str, argv)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def cli(tmp_path, *argvs):
    """Run each argv in its own fresh interpreter, side by side in tmp_path."""
    procs = [_start(tmp_path, argv) for argv in argvs]
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err


def cli_error(tmp_path, argv) -> str:
    """Run argv in a fresh interpreter that must exit 2 with one stderr
    line; return that line."""
    proc = _start(tmp_path, argv)
    _, err = proc.communicate()
    assert proc.returncode == 2 and err.count("\n") == 1, err
    return err


def test_subnormal_gamma_shape_runs_without_warnings(tmp_path):
    # the default grid's exact tail is plain float math: no NumPy warning
    proc = _start(tmp_path, ["catalog", "--family", "gamma", "--alpha",
                             "5e-324", "--beta", "1", "--out", "g.csv"])
    _, err = proc.communicate()
    assert proc.returncode == 0 and err == ""
    assert (tmp_path / "g.csv").exists()


def _reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_maxent_json_is_strict_where_k_overflows(tmp_path):
    # k = 1/Omega overflows here: no RuntimeWarning, and strict JSON
    cli(tmp_path, ["maxent", "--u", "x + 1000", "--moment", "1000.05",
                   "--lower", "0", "--upper", "10", "--points", "1001",
                   "--out", "m.json"])
    sol = json.loads((tmp_path / "m.json").read_text(),
                     parse_constant=_reject)
    assert math.isfinite(sol["log_k"]), sol


def test_negative_exponent_notation_is_a_value(tmp_path):
    cli(tmp_path, ["catalog", "--family", "normal", "--mu", "-1e3",
                   "--lower", "-1.005e3", "--upper", "-9.95e2",
                   "--points", "11", "--out", "n.csv"])
    assert (tmp_path / "n.csv").exists()


@pytest.mark.parametrize("name, data", [
    ("f.csv", b"x,f\n0,0.2\n1,0.3\xff\n2,0.3\n"),
    ("pot.json", b'{"kind": "potential", "family": "normal\xff"}'),
], ids=["table", "spec"])
def test_non_utf8_input_is_one_line_exit_2(tmp_path, name, data):
    (tmp_path / name).write_bytes(data)
    assert "not UTF-8" in cli_error(tmp_path, ["transform", "--in", name,
                                               "--to", "density",
                                               "--out", "out.csv"])
    assert not (tmp_path / "out.csv").exists()


def _polynomial(*coeffs):
    return {"kind": "potential", "family": "polynomial", "coeffs": coeffs}


BASE = {"kind": "sim_config",
        "grid": {"kind": "grid", "grid_kind": "continuous",
                 "lower": -4.0, "upper": 4.0, "n_points": 161},
        "dt": 0.005, "n_steps": 2000, "burn_in": 200, "n_chains": 4,
        "seed": 7}
DOUBLE_WELL = _polynomial(1.0, 0.0, -1.0, 0.0, 0.25)
LONG_RUN = {"n_steps": 10000, "burn_in": 1000, "n_chains": 128}

# name: (potential, grid and run fields over BASE, bound on tv_distance)
SIM_CONFIGS = {
    "double_well": (DOUBLE_WELL, {}, {}, None),
    # more chains than BLOCK_ELEMENTS (65 536): one-step blocks, all
    # chains drawing from one stream
    "wide": (DOUBLE_WELL, {},
             {"n_steps": 3, "burn_in": 0, "n_chains": 140000}, None),
    # a linear potential: constant drift, where Horner must not start from
    # x; drift scaled by x instead gives TV ~0.12
    "linear": (_polynomial(0.0, 1.5),
               {"lower": 0.0, "upper": 10.0, "n_points": 201}, LONG_RUN,
               0.03),
    # a family drift (Exponential's unchecked scaled_intensity) with most
    # of the mass at the lower wall, where chains reflect often
    "exponential": ({"kind": "potential", "family": "exponential", "a": 1.0},
                    {"lower": 0.0, "upper": 12.0, "n_points": 241},
                    LONG_RUN, 0.04),
    # a family drift that switches between clear and reflected chunks: 61
    # of its 157 chunks run clear first and 6 of those are redone reflected
    "gamma": ({"kind": "potential", "family": "gamma", "alpha": 5.0,
               "beta": 1.0}, {"lower": 0.5, "upper": 20.0}, LONG_RUN, None),
}


@pytest.mark.parametrize("name", SIM_CONFIGS)
def test_two_interpreters_one_seed_same_hist_bytes(name, tmp_path):
    potential, grid, run, tv_bound = SIM_CONFIGS[name]
    config = {**BASE, **run, "potential": potential,
              "grid": {**BASE["grid"], **grid}}
    (tmp_path / "sim.json").write_text(json.dumps(config))
    cli(tmp_path, *(["simulate", "--config", "sim.json", "--out", f"r{i}.json",
                     "--hist", f"h{i}.csv"] for i in (1, 2)))
    assert (tmp_path / "h1.csv").read_bytes() == \
        (tmp_path / "h2.csv").read_bytes()
    if tv_bound is not None:
        tv = json.loads((tmp_path / "r1.json").read_text())["tv_distance"]
        assert tv < tv_bound, tv
