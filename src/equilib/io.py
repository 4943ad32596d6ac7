"""CSV table and JSON spec interchange formats.

Tables are comma-separated with a mandatory header naming columns from
TABLE_COLUMNS, LF line endings (CRLF is read too) and floats printed with
17 significant digits so that 64-bit values round-trip exactly.  Reading
needs UTF-8 text, distinct column names, one unquoted number per column on
every non-empty line, at least one row and, if there is an x column, a
finite x; anything else is a FormatError.  A grid built from an x column
(``grid_from_x``) also needs x strictly increasing; a samples file may
come in any order.

Tables stream in row slices: ``write_table`` formats _SLICE_ROWS rows
with each '%' and ``read_table`` hands the open file's lines to
``np.loadtxt``, which parses them one by one, so neither holds the whole
text and memory is O(slice + columns).

Specs are UTF-8 JSON documents tagged by a "kind", which a nested spec may
omit; unknown fields are rejected, and each field is checked by the object
it builds, so a JSON null is a bad value, not the default.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .catalog import make_family
from .errors import EquilibError, FormatError
from .grid import CONTINUOUS, LATTICE, Grid, build_grid
from .potential import PolynomialPotential, TabulatedPotential
from .simulate import SimConfig

TABLE_COLUMNS = ("x", "f", "U", "U_tilde", "E_s", "E_c", "residual", "mask")


# ---------------------------------------------------------------------------
# CSV tables


# rows formatted by one '%': ~16k cells at four columns, a working set
# bounded like simulate.BLOCK_ELEMENTS
_SLICE_ROWS = 4096


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
    kinds = [int if n == "mask" else float for n in names]
    row = ",".join("%d" if n == "mask" else "%.17g" for n in names) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, arrays[0].size, _SLICE_ROWS):
            cols = [a[start:start + _SLICE_ROWS].astype(kind).tolist()
                    for a, kind in zip(arrays, kinds)]
            fh.write((row * len(cols[0]))
                     % tuple(chain.from_iterable(zip(*cols))))


@contextmanager
def _utf8_errors(path):
    """Report text that is not UTF-8 as FormatError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_table(path) -> dict:
    """Read a CSV table back into named float arrays."""
    with open(path, encoding="utf-8") as fh, _utf8_errors(path):
        header = fh.readline().removesuffix("\n")
        if not header:
            raise FormatError(f"{path}: empty table")
        names = header.split(",")
        for name in names:
            if name not in TABLE_COLUMNS:
                raise FormatError(f"{path}: unknown column {name!r}")
        if len(set(names)) != len(names):
            raise FormatError(f"{path}: repeated column name in {header!r}")
        # loadtxt only warns on a body without data; reject it here instead.
        # The lines read up to the first row go to loadtxt too, so it sees
        # the whole body without a seek (a pipe reads as a file does)
        head = []
        for line in fh:
            head.append(line)
            if line.strip():
                break
        else:
            raise FormatError(f"{path}: table has no rows")
        try:
            data = np.loadtxt(chain(head, fh), delimiter=",", ndmin=2,
                              comments=None)
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            raise FormatError(f"{path}: malformed table body ({exc})") \
                from None
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


def read_grid_table(path, kind: str | None = None):
    """Read a table and the grid of its x column (see ``grid_from_x``)."""
    table = read_table(path)
    if "x" not in table:
        raise FormatError(f"{path}: table needs an 'x' column")
    return table, grid_from_x(table["x"], kind)


def read_tabulated_potential(path) -> TabulatedPotential:
    """The potential of a table's U column on the grid of its x column."""
    table, grid = read_grid_table(path)
    if "U" not in table:
        raise FormatError(f"{path}: tabulated potential needs a 'U' column")
    return TabulatedPotential(grid=grid, values=table["U"])


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
        power = 0 if m.group(3) is None else int(m.group(4) or 1)
        coeffs[power] = coeffs.get(power, 0.0) + sign * coef
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    degree = max(coeffs)
    return PolynomialPotential(tuple(coeffs.get(j, 0.0)
                                     for j in range(degree + 1)))


# ---------------------------------------------------------------------------
# JSON specs

def _check_fields(obj: dict, allowed: set, what: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise FormatError(f"{what}: unknown fields {sorted(unknown)}")


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
    """A potential spec: a tabulated CSV, else one of ``catalog.SPECS``."""
    if not (isinstance(obj, dict) and isinstance(obj.get("family"), str)):
        raise FormatError("a potential spec must be a JSON object with a "
                          "string 'family'")
    family = obj["family"]
    what = f"potential spec '{family}'"
    params = {k: v for k, v in obj.items() if k not in ("kind", "family")}
    with _spec_errors(what):
        if family != "tabulated":  # make_family checks the field names
            return make_family(family, params)
        _check_fields(params, {"csv"}, what)
        if not isinstance(obj["csv"], str):
            raise FormatError(f"{what}: csv must be a file path string")
        return read_tabulated_potential(obj["csv"])


def parse_sim_config(obj: dict) -> SimConfig:
    _check_fields(obj, {"kind", "potential", "grid", "dt", "n_steps",
                        "burn_in", "n_chains", "seed"}, "sim_config")
    for name in ("potential", "grid"):  # a nested spec may omit its kind
        spec = obj.get(name)
        if isinstance(spec, dict) and spec.get("kind", name) != name:
            raise FormatError(f"sim_config: the {name} spec has kind "
                              f"{spec['kind']!r}")
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


def load_spec(path, kind: str) -> dict:
    """Read a JSON spec whose "kind" is ``kind``."""
    with open(path, encoding="utf-8") as fh, _utf8_errors(path):
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise FormatError(f"{path}: expected a {kind} spec")
    return obj


def dump_json(path, obj: dict):
    """Write strict JSON; a NaN or infinity raises before the file opens."""
    text = json.dumps(obj, allow_nan=False, indent=2, sort_keys=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")
