"""Workload inputs, the CLI calls that make one op, and the op's checks.

Each workload is built from a seed before any timing starts: it writes its
input files into a work directory and fixes the argv lists of one op.
``check`` reads the op's outputs with the benchmark's own parsers (never
with ``equilib.io``), raises ``CheckFailed`` on anything wrong and returns
the op's ``result_err``.

Why each workload, and the layer it is meant to stress:

* ``langevin`` -- ``simulate``: the Euler-Maruyama step loop does nearly
  all the work and holds chains x steps float64 arrays.
* ``decompose`` -- ``diagnostics``: the direct O(samples x points) kernel
  density estimate dominates time and memory.
* ``pipeline`` -- ``io``: CSV writes and reads of large tables, beside the
  only calls to ``catalog`` tabulation, the transforms and ``maxent``, on
  both grid kinds.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import special, stats


class CheckFailed(Exception):
    """An op's output is missing, malformed or inaccurate."""


def _num(value) -> str:
    return repr(float(value))


def read_table(path, columns, rows):
    """Parse a CSV table and check its header, row count and NaN columns."""
    path = Path(path)
    try:
        with path.open() as fh:
            header = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable table ({exc})") from None
    if header != list(columns):
        raise CheckFailed(f"{path.name}: header {header}, want {columns}")
    if data.shape != (rows, len(columns)):
        raise CheckFailed(f"{path.name}: shape {data.shape}, want "
                          f"({rows}, {len(columns)})")
    table = {name: data[:, j] for j, name in enumerate(columns)}
    for name, values in table.items():
        if not np.isfinite(values).any():
            raise CheckFailed(f"{path.name}: column {name} is all NaN")
    return table


def read_json(path, kind):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{Path(path).name}: unreadable JSON ({exc})") \
            from None
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise CheckFailed(f"{Path(path).name}: not a {kind} document")
    return obj


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _trapezoid(values, h):
    return h * (values.sum() - 0.5 * (values[0] + values[-1]))


class Workload:
    name = ""
    layer = ""          # the layer expected to hold the largest time share

    def __init__(self, workdir: Path, seed: int):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.commands = []   # argv lists, run in order; together one op
        self.outputs = []    # files an op writes, removed before each op

    def path(self, name) -> str:
        return str(self.dir / name)

    def inputs(self) -> dict:
        """Generated input files by name, as bytes, and the op's argv."""
        files = {p.name: p.read_bytes() for p in sorted(self.dir.iterdir())
                 if str(p) not in self.outputs}
        files["argv"] = json.dumps(self.commands).replace(str(self.dir), "")
        return files

    def check(self) -> float:
        raise NotImplementedError


class Langevin(Workload):
    """128 chains on the double well U = (x^2 - 2)^2 / 4 over [-4, 4].

    The Philox seed in the config is fixed: tv_distance is dominated by
    Monte Carlo noise, whose spread from one stream to the next is larger
    than any bound a regression guard could use.  The workload seed moves
    the burn-in within a 64-step window instead, so each seed is a
    distinct input and result_err still tracks the simulator.
    """

    name = "langevin"
    layer = "simulate"
    SIM_SEED = 2002
    COEFFS = (1.0, 0.0, -1.0, 0.0, 0.25)
    LOWER, UPPER, POINTS = -4.0, 4.0, 161
    DT = 5e-3

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed)
        chains, steps = (8, 400) if tiny else (128, 10_000)
        self.tv_limit = 0.5 if tiny else 0.05
        config = {
            "kind": "sim_config",
            "potential": {"kind": "potential", "family": "polynomial",
                          "coeffs": list(self.COEFFS)},
            "grid": {"kind": "grid", "grid_kind": "continuous",
                     "lower": self.LOWER, "upper": self.UPPER,
                     "n_points": self.POINTS},
            "dt": self.DT,
            "n_steps": steps,
            "burn_in": steps // 10 + int(self.rng.integers(0, 64)),
            "n_chains": chains,
            "seed": self.SIM_SEED,
        }
        with open(self.path("sim.json"), "w") as fh:
            json.dump(config, fh)
        self.result, self.hist = self.path("result.json"), self.path("hist.csv")
        self.outputs = [self.result, self.hist]
        self.commands = [["simulate", "--config", self.path("sim.json"),
                          "--out", self.result, "--hist", self.hist]]
        self.hist_digest = None
        x = np.linspace(self.LOWER, self.UPPER, self.POINTS)
        weight = np.exp(-np.polynomial.polynomial.polyval(x, self.COEFFS))
        self.h = (self.UPPER - self.LOWER) / (self.POINTS - 1)
        self.target = weight / _trapezoid(weight, self.h)

    def check(self):
        result = read_json(self.result, "sim_result")
        tv = result.get("tv_distance")
        _require(isinstance(tv, float) and math.isfinite(tv),
                 "tv_distance missing or not finite")
        table = read_table(self.hist, ["x", "f"], self.POINTS)
        f = table["f"]
        _require((f >= 0).all(), "histogram density is negative")
        _require(abs(_trapezoid(f, self.h) - 1.0) < 1e-9,
                 "histogram density does not integrate to 1")
        own_tv = 0.5 * _trapezoid(np.abs(f - self.target), self.h)
        _require(abs(own_tv - tv) <= 1e-9,
                 f"reported tv_distance {tv} != recomputed {own_tv}")
        digest = hashlib.sha256(Path(self.hist).read_bytes()).hexdigest()
        if self.hist_digest is None:
            self.hist_digest = digest
        _require(digest == self.hist_digest,
                 "same seed gave a different --hist output")
        _require(tv < self.tv_limit, f"tv_distance {tv} >= {self.tv_limit}")
        return tv


class Decompose(Workload):
    """Kernel decomposition of N(1, 0.7^2) samples on 2001 points.

    The samples are stratified (one seeded draw in each of N equal-
    probability strata), so result_err measures the estimator's bias, not
    the luck of the draw, and stays steady from seed to seed.
    """

    name = "decompose"
    layer = "diagnostics"
    MU, SIGMA = 1.0, 0.7
    LOWER, UPPER = -2.5, 4.5

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed)
        n, self.points = (500, 201) if tiny else (10_000, 2001)
        self.err_limit = 0.25 if tiny else 0.05
        u = (np.arange(n) + self.rng.random(n)) / n
        samples = self.MU + self.SIGMA * special.ndtri(u)
        np.savetxt(self.path("samples.csv"), samples, fmt="%.17g",
                   header="x", comments="")
        self.out, self.report = self.path("dec.csv"), self.path("dec.json")
        self.outputs = [self.out, self.report]
        self.commands = [[
            "decompose", "--samples", self.path("samples.csv"),
            "--estimator", "kernel", "--lower", _num(self.LOWER),
            "--upper", _num(self.UPPER), "--points", str(self.points),
            "--out", self.out, "--report", self.report]]

    def check(self):
        table = read_table(self.out, ["x", "f", "U_tilde", "E_s", "mask"],
                           self.points)
        _require((table["f"] >= 0).all(), "density estimate is negative")
        report = read_json(self.report, "decomposition_report")
        slope = report.get("intensity_slope")
        _require(isinstance(slope, float) and math.isfinite(slope),
                 "intensity_slope missing or not finite")
        err = abs(slope * self.SIGMA ** 2 - 1.0)
        _require(err < self.err_limit,
                 f"intensity slope error {err} >= {self.err_limit}")
        return err


class Pipeline(Workload):
    """catalog -> transform on a Gamma table and a Poisson lattice, then maxent.

    The seed jitters the family parameters and the target moment slightly,
    which keeps the op's cost and result_err steady across seeds.
    """

    name = "pipeline"
    layer = "io"
    GAMMA_LOWER, GAMMA_UPPER = 1e-3, 60.0
    MAXENT_UPPER = 40.0

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed)
        self.gamma_points, self.lattice_points, self.maxent_points = (
            (1001, 400, 2001) if tiny else (12_501, 5000, 20_001))
        self.alpha = 3.0 + self.rng.uniform(-0.01, 0.01)
        self.beta = 2.0 + self.rng.uniform(-0.01, 0.01)
        self.lam = (100.0 if tiny else 2000.0) + float(self.rng.integers(-5, 6))
        self.moment = 0.5 + self.rng.uniform(-0.005, 0.005)
        with open(self.path("u.json"), "w") as fh:
            json.dump({"kind": "potential", "family": "polynomial",
                       "coeffs": [0.0, 1.0]}, fh)
        p = self.path
        self.outputs = [p(n) for n in ("gamma.csv", "gamma_u.csv",
                                       "gamma_e.csv", "poisson.csv",
                                       "poisson_e.csv", "maxent.json",
                                       "maxent.csv")]
        self.commands = [
            ["catalog", "--family", "gamma", "--alpha", _num(self.alpha),
             "--beta", _num(self.beta), "--lower", _num(self.GAMMA_LOWER),
             "--upper", _num(self.GAMMA_UPPER),
             "--points", str(self.gamma_points), "--out", p("gamma.csv")],
            ["transform", "--in", p("gamma.csv"), "--to", "potential",
             "--out", p("gamma_u.csv")],
            ["transform", "--in", p("gamma.csv"), "--to", "intensity",
             "--out", p("gamma_e.csv")],
            ["catalog", "--family", "poisson", "--lam", _num(self.lam),
             "--grid-kind", "lattice", "--lower", "0",
             "--upper", str(self.lattice_points - 1),
             "--points", str(self.lattice_points), "--out", p("poisson.csv")],
            ["transform", "--in", p("poisson.csv"), "--to", "intensity",
             "--out", p("poisson_e.csv")],
            ["maxent", "--u", p("u.json"), "--moment", _num(self.moment),
             "--lower", "0", "--upper", _num(self.MAXENT_UPPER),
             "--points", str(self.maxent_points), "--out", p("maxent.json"),
             "--table", p("maxent.csv")],
        ]
        self.interior = stats.gamma.ppf([0.01, 0.99], self.alpha,
                                        scale=self.beta)
        self.err_limit = 0.05 if tiny else 1e-2

    def check(self):
        p = self.path
        gamma = read_table(p("gamma.csv"), ["x", "f", "U_tilde", "E_c"],
                           self.gamma_points)
        gamma_u = read_table(p("gamma_u.csv"), ["x", "U_tilde", "mask"],
                             self.gamma_points)
        gamma_e = read_table(p("gamma_e.csv"), ["x", "E_s", "mask"],
                             self.gamma_points)
        live = gamma_u["mask"] == 0
        _require(live.any(), "gamma potential is masked everywhere")
        _require(np.max(np.abs(gamma_u["U_tilde"][live]
                               - gamma["U_tilde"][live])) < 1e-3,
                 "transformed gamma potential departs from the catalog")
        lo, hi = self.interior
        x = gamma["x"]
        inside = (x >= lo) & (x <= hi) & (gamma_e["mask"] == 0)
        _require(inside.sum() > 10, "no usable interior gamma points")
        gamma_err = float(np.max(np.abs(gamma_e["E_s"][inside]
                                        + gamma["E_c"][inside])))

        poisson = read_table(p("poisson.csv"), ["x", "f", "U_tilde", "E_c"],
                             self.lattice_points)
        poisson_e = read_table(p("poisson_e.csv"), ["x", "E_s", "mask"],
                               self.lattice_points)
        k = poisson_e["x"]
        reach = 5.0 * math.sqrt(self.lam)
        near = (np.abs(k - self.lam) <= reach) & (poisson_e["mask"] == 0)
        _require(near.any(), "poisson intensity is masked near the mode")
        # a one-sided log-difference and the digamma intensity differ by
        # about 1 / (2k), so force balance holds to that order
        balance = np.abs(poisson_e["E_s"][near] + poisson["E_c"][near])
        _require(np.max(balance) < 2.0 / (self.lam - reach),
                 "lattice E_s + E_c departs from zero near the mode")

        solution = read_json(p("maxent.json"), "maxent_solution")
        _require(solution.get("converged") is True, "maxent did not converge")
        lam = solution.get("lambda")
        _require(isinstance(lam, float) and math.isfinite(lam),
                 "lambda missing or not finite")
        read_table(p("maxent.csv"), ["x", "f", "U_tilde"], self.maxent_points)
        # the exponential density with mean m has lambda = 1 / m; the
        # truncation at x = 40 moves it by about e^-80
        lambda_err = abs(lam * self.moment - 1.0)
        err = max(lambda_err, gamma_err)
        _require(err < self.err_limit, f"result_err {err} >= {self.err_limit}")
        return err


WORKLOADS = {cls.name: cls for cls in (Langevin, Decompose, Pipeline)}
