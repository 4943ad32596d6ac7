"""CSV table and JSON spec interchange formats.

Tables are comma-separated with a mandatory header, LF line endings and
floats printed with 17 significant digits so that 64-bit values round-trip
exactly.  Specs are JSON documents tagged by a top-level "kind"; unknown
fields are rejected.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from .catalog import (AnalyticPotential, Exponential, Gamma, LinearConstant,
                      Normal, PearsonParams, PearsonPotential, Poisson,
                      UniformLattice)
from .errors import EquilibError, GridError
from .grid import CONTINUOUS, LATTICE, Grid, build_grid
from .potential import PolynomialPotential, TabulatedPotential

TABLE_COLUMNS = ("x", "f", "U", "U_tilde", "E_s", "E_c", "residual", "mask")


class FormatError(EquilibError):
    """Malformed CSV table or JSON spec."""


# ---------------------------------------------------------------------------
# CSV tables


def _fmt(v) -> str:
    return format(float(v), ".17g")


def write_table(path, columns: dict):
    """Write named columns (subset of TABLE_COLUMNS) as a CSV table."""
    names = list(columns)
    for name in names:
        if name not in TABLE_COLUMNS:
            raise FormatError(f"unknown table column {name!r}")
    arrays = [np.asarray(columns[n]) for n in names]
    n_rows = arrays[0].shape[0]
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for i in range(n_rows):
            row = []
            for name, arr in zip(names, arrays):
                if name == "mask":
                    row.append(str(int(arr[i])))
                else:
                    v = float(arr[i])
                    row.append("nan" if math.isnan(v) else _fmt(v))
            writer.writerow(row)


def read_table(path) -> dict:
    """Read a CSV table back into named float arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty table") from None
        for name in header:
            if name not in TABLE_COLUMNS:
                raise FormatError(f"{path}: unknown column {name!r}")
        rows = list(reader)
    if not rows:
        raise FormatError(f"{path}: table has no rows")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric cell ({exc})") from None
    if data.shape[1] != len(header):
        raise FormatError(f"{path}: ragged rows")
    out = {name: data[:, j] for j, name in enumerate(header)}
    if "x" in out:
        x = out["x"]
        if np.any(np.diff(x) <= 0):
            raise FormatError(f"{path}: x column is not strictly increasing")
    return out


def grid_from_x(x: np.ndarray, kind: str | None = None) -> Grid:
    """Reconstruct the grid from a table's x column.

    Consecutive integers are read as a lattice unless a kind is forced.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        raise FormatError(f"a table needs at least 3 rows, got {x.size}")
    if kind is None:
        integral = np.all(x == np.round(x)) and np.all(np.diff(x) == 1.0)
        kind = LATTICE if integral else CONTINUOUS
    if kind == CONTINUOUS:
        spacing = np.diff(x)
        if np.max(np.abs(spacing - spacing[0])) > 1e-9 * abs(spacing[0]):
            raise FormatError("x column is not uniformly spaced")
    return build_grid(kind, x[0], x[-1], x.size)


# ---------------------------------------------------------------------------
# Polynomial expressions for --u

_TERM = re.compile(
    r"([+-]?)\s*"
    r"(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)\s*\*?\s*)?"
    r"(x(?:\s*(?:\^|\*\*)\s*(\d+))?)?"
)


def parse_polynomial(text: str) -> PolynomialPotential:
    """Parse polynomials like 'x', 'x^2', '2x + 0.5x**3 - 1'."""
    pos = 0
    coeffs: dict[int, float] = {}
    text = text.strip()
    if not text:
        raise FormatError("empty potential expression")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos or (m.group(2) is None
                                           and m.group(3) is None):
            raise FormatError(f"cannot parse potential expression {text!r}")
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) is not None else 1.0
        if m.group(3) is None:
            power = 0
        elif m.group(4) is None:
            power = 1
        else:
            power = int(m.group(4))
        coeffs[power] = coeffs.get(power, 0.0) + sign * coef
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    degree = max(coeffs)
    return PolynomialPotential(tuple(coeffs.get(j, 0.0)
                                     for j in range(degree + 1)))


# ---------------------------------------------------------------------------
# JSON specs

_FAMILY_FIELDS = {
    "uniform": {"n"},
    "exponential": {"a"},
    "normal": {"mu", "sigma"},
    "linear_constant": {"a", "b"},
    "poisson": {"lam"},
    "gamma": {"alpha", "beta"},
    "pearson": {"a", "b0", "b1", "b2", "sign"},
    "tabulated": {"csv"},
    "polynomial": {"coeffs"},
}


def _check_fields(obj: dict, allowed: set, what: str):
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(f"{what}: unknown fields {sorted(unknown)}")
    for key, value in obj.items():
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise FormatError(f"{what}: field {key!r} is not finite")


def parse_grid(obj: dict) -> Grid:
    _check_fields(obj, {"kind", "grid_kind", "lower", "upper", "n_points"},
                  "grid spec")
    try:
        return build_grid(obj["grid_kind"], obj["lower"], obj["upper"],
                          obj["n_points"])
    except KeyError as exc:
        raise FormatError(f"grid spec: missing field {exc}") from None


def parse_potential(obj: dict):
    family = obj.get("family")
    if family not in _FAMILY_FIELDS:
        raise FormatError(f"unknown potential family {family!r}")
    _check_fields(obj, _FAMILY_FIELDS[family] | {"kind", "family"},
                  f"potential spec '{family}'")
    try:
        if family == "uniform":
            return AnalyticPotential(UniformLattice(n=int(obj["n"])))
        if family == "exponential":
            return AnalyticPotential(Exponential(a=obj["a"]))
        if family == "normal":
            return AnalyticPotential(Normal(mu=obj.get("mu", 0.0),
                                            sigma=obj.get("sigma", 1.0)))
        if family == "linear_constant":
            return AnalyticPotential(LinearConstant(a=obj["a"], b=obj["b"]))
        if family == "poisson":
            return AnalyticPotential(Poisson(lam=obj["lam"]))
        if family == "gamma":
            return AnalyticPotential(Gamma(alpha=obj["alpha"],
                                           beta=obj["beta"]))
        if family == "pearson":
            return PearsonPotential(PearsonParams(
                a=obj["a"], b0=obj["b0"], b1=obj["b1"], b2=obj["b2"],
                sign=obj.get("sign", "standard")))
        if family == "polynomial":
            return PolynomialPotential(tuple(obj["coeffs"]))
        # tabulated: CSV with x and U columns
        table = read_table(obj["csv"])
        if "U" not in table:
            raise FormatError(f"{obj['csv']}: tabulated potential needs a "
                              f"'U' column")
        grid = grid_from_x(table["x"])
        return TabulatedPotential(grid=grid, values=table["U"])
    except KeyError as exc:
        raise FormatError(
            f"potential spec '{family}': missing field {exc}") from None


def load_spec(path) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError(f"{path}: spec must be an object with a 'kind'")
    return obj


def dump_json(path, obj: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
