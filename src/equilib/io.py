"""CSV table and JSON spec interchange formats.

Tables are comma-separated with a mandatory header naming columns from
TABLE_COLUMNS, LF line endings (CRLF is read too) and floats printed with
17 significant digits so that 64-bit values round-trip exactly.  Reading
needs distinct column names, one unquoted number per column on every
non-empty line, at least one row and, if there is an x column, a finite x;
anything else is a FormatError.  A grid built from an x column
(``grid_from_x``) also needs x strictly increasing; a samples file may
come in any order.

Specs are JSON documents tagged by a top-level "kind"; unknown fields are
rejected.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import fields
from io import StringIO
from itertools import chain

import numpy as np

from .catalog import FAMILIES, PearsonParams, PearsonPotential, make_family
from .errors import EquilibError, FormatError
from .grid import CONTINUOUS, LATTICE, Grid, build_grid
from .potential import PolynomialPotential, TabulatedPotential
from .simulate import SimConfig

TABLE_COLUMNS = ("x", "f", "U", "U_tilde", "E_s", "E_c", "residual", "mask")


# ---------------------------------------------------------------------------
# CSV tables


def write_table(path, columns: dict):
    """Write equal-length 1-D named columns (of TABLE_COLUMNS) as CSV."""
    names = list(columns)
    for name in names:
        if name not in TABLE_COLUMNS:
            raise FormatError(f"unknown table column {name!r}")
    arrays = [np.asarray(columns[n]) for n in names]
    if not arrays or any(a.ndim != 1 or a.size != arrays[0].size
                         for a in arrays):
        raise FormatError("table columns must be 1-D and of equal length")
    cols = [(a.astype(int) if n == "mask" else a.astype(float)).tolist()
            for n, a in zip(names, arrays)]
    row = ",".join("%d" if n == "mask" else "%.17g" for n in names) + "\n"
    cells = tuple(chain.from_iterable(zip(*cols)))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.write((row * arrays[0].size) % cells)


def read_table(path) -> dict:
    """Read a CSV table back into named float arrays."""
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    if not header:
        raise FormatError(f"{path}: empty table")
    names = header.split(",")
    for name in names:
        if name not in TABLE_COLUMNS:
            raise FormatError(f"{path}: unknown column {name!r}")
    if len(set(names)) != len(names):
        raise FormatError(f"{path}: repeated column name in {header!r}")
    # loadtxt only warns on a body without data; reject it here instead
    if not body.strip():
        raise FormatError(f"{path}: table has no rows")
    try:
        data = np.loadtxt(StringIO(body), delimiter=",", ndmin=2,
                          comments=None)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed table body ({exc})") from None
    if data.shape[1] != len(names):
        raise FormatError(f"{path}: ragged rows")
    out = {name: data[:, j] for j, name in enumerate(names)}
    if "x" in out and not np.isfinite(out["x"]).all():
        raise FormatError(f"{path}: x column has non-finite values")
    return out


def grid_from_x(x: np.ndarray, kind: str | None = None) -> Grid:
    """Reconstruct the grid from a table's x column.

    The x column must be strictly increasing (a samples file need not be).
    Consecutive integers are read as a lattice unless a kind is forced.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        raise FormatError(f"a table needs at least 3 rows, got {x.size}")
    spacing = np.diff(x)
    if np.any(spacing <= 0):
        raise FormatError("x column is not strictly increasing")
    if kind is None:
        integral = np.all(x == np.round(x)) and np.all(spacing == 1.0)
        kind = LATTICE if integral else CONTINUOUS
    if (kind == CONTINUOUS
            and np.max(np.abs(spacing - spacing[0])) > 1e-9 * spacing[0]):
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
        # every term after the first needs its sign: "x2" is not x + 2
        if (m is None or m.end() == pos or (pos > 0 and not m.group(1))
                or (m.group(2) is None and m.group(3) is None)):
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

# fields of the potential specs that are not catalog families (FAMILIES)
_SPEC_FIELDS = {
    "pearson": {"a", "b0", "b1", "b2", "sign"},
    "tabulated": {"csv"},
    "polynomial": {"coeffs"},
}


def _check_fields(obj: dict, allowed: set, what: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(f"{what}: unknown fields {sorted(unknown)}")
    for key, value in obj.items():
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise FormatError(f"{what}: field {key!r} is not finite")


@contextmanager
def _spec_errors(what: str):
    """Report a spec's missing fields and bad values as FormatError."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"{what}: missing field {exc}") from None
    except EquilibError:  # a ValueError too; keep its type and message
        raise
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{what}: bad field value ({exc})") from None


def parse_grid(obj: dict) -> Grid:
    _check_fields(obj, {"kind", "grid_kind", "lower", "upper", "n_points"},
                  "grid spec")
    with _spec_errors("grid spec"):
        return build_grid(obj["grid_kind"], obj["lower"], obj["upper"],
                          obj["n_points"])


def parse_potential(obj: dict):
    if not (isinstance(obj, dict) and isinstance(obj.get("family"), str)):
        raise FormatError("a potential spec must be a JSON object with a "
                          "string 'family'")
    family = obj["family"]
    if family in FAMILIES:
        allowed = {f.name for f in fields(FAMILIES[family])}
    elif family in _SPEC_FIELDS:
        allowed = _SPEC_FIELDS[family]
    else:
        raise FormatError(f"unknown potential family {family!r}")
    what = f"potential spec '{family}'"
    _check_fields(obj, allowed | {"kind", "family"}, what)
    with _spec_errors(what):
        if family in FAMILIES:
            return make_family(family,
                               {k: obj[k] for k in allowed if k in obj})
        if family == "pearson":
            return PearsonPotential(PearsonParams(
                a=obj["a"], b0=obj["b0"], b1=obj["b1"], b2=obj["b2"],
                sign=obj.get("sign", "standard")))
        if family == "polynomial":
            if not isinstance(obj["coeffs"], list):
                raise FormatError(f"{what}: coeffs must be a list")
            return PolynomialPotential(tuple(obj["coeffs"]))
        # tabulated: CSV with x and U columns
        if not isinstance(obj["csv"], str):
            raise FormatError(f"{what}: csv must be a file path string")
        table = read_table(obj["csv"])
        if "U" not in table:
            raise FormatError(f"{obj['csv']}: tabulated potential needs a "
                              f"'U' column")
        grid = grid_from_x(table["x"])
        return TabulatedPotential(grid=grid, values=table["U"])


def parse_sim_config(obj: dict) -> SimConfig:
    _check_fields(obj, {"kind", "potential", "grid", "dt", "n_steps",
                        "burn_in", "n_chains", "seed"}, "sim_config")
    with _spec_errors("sim_config"):
        return SimConfig(
            potential=parse_potential(obj["potential"]),
            grid=parse_grid(obj["grid"]),
            dt=obj["dt"],
            n_steps=obj["n_steps"],
            burn_in=obj["burn_in"],
            n_chains=obj["n_chains"],
            seed=obj["seed"],
        )


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
