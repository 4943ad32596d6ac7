"""CSV table and JSON spec interchange formats.

Tables are comma-separated with a mandatory header naming columns from
TABLE_COLUMNS, LF line endings (CRLF is read too) and floats printed with
17 significant digits so that 64-bit values round-trip exactly.  Reading
needs UTF-8 text, distinct column names, one unquoted number per column on
every non-empty line, at least one row and, if there is an x column, a
finite x; anything else is a FormatError.  A grid built from an x column
(``grid_from_x``) also needs x strictly increasing; a samples file may
come in any order.

Tables stream in row slices, so memory is O(slice + columns):
``read_table`` hands the open file's lines to ``np.loadtxt``, and
``write_table`` writes _SLICE_ROWS rows at a time in the bytes of '%.17g'
(and '%d' for a mask's 0 and 1), by NumPy arithmetic on fixed byte slots
per cell whose blanks it drops.  Each finite nonzero v is written from
N = round(|v| 10**(16 - X)) at its decimal exponent X: Dekker's exact
product of v's mantissa and a double-double 2**e 10**(16 - X), built from
integers once per binary exponent e, gives |v| 10**(16 - X) within 1e-13,
so rint rounds it as '%.17g' does unless its fraction is within 1e-9 of a
half, and '%.17g' itself writes those rare cells.

Specs are UTF-8 JSON documents tagged by a "kind", which a nested spec may
omit; unknown fields are rejected, and each field is checked by the object
it builds, so a JSON null is a bad value, not the default.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import fields
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


# rows formatted at once: ~4k cells, whose temporaries total ~1 MB
_SLICE_ROWS = 1024


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
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for start in range(0, arrays[0].size, _SLICE_ROWS):
            block = np.array([a[start:start + _SLICE_ROWS] for a in arrays],
                             dtype=float)
            cells = _cells(block.T.reshape(-1))
            # a row's last cell ends in "\n", not ","
            cells[5, len(block) - 1::len(block)] -= np.uint64(34 << 40)
            fh.write(cells.T.tobytes().translate(None, b"\0"))


_EMIN, _XMIN = -1073, -324  # the binary and decimal exponents of 5e-324
_TABLES = None  # the _Tables, built on first use


def _split(x):  # Veltkamp's split of doubles into halves of 26 bits
    t = x * 134217729.0
    high = t - (t - x)
    return high, x - high


class _Tables:
    """Scales per binary exponent, built as they are met, and layouts."""

    def __init__(self):
        # per binary exponent e - _EMIN: C as a double-double and X - _XMIN
        # at X = E0 and at E0 + 1, and the least double that rounds to
        # 10**(E0 + 1) or more at 17 digits (NaN until e is met)
        self.scale = np.zeros((3, 2 * 2098))
        self.bound = np.full(2098, np.nan)
        # per X - _XMIN: the digits before the point, kept though zeros;
        # the cell but its sign and digits, + 633 with a point, then 0, nan
        # and inf at 1266 on
        xs = np.arange(_XMIN, 309)
        self.ints = np.where((xs >= 0) & (xs <= 16), xs + 1, 1).astype(np.int8)
        rows = [(b"\0" + b"0." + b"0" * -(x + 1) if -4 <= x < 0 else b"")
                .ljust(40, b"\0") + (b"" if -4 <= x <= 16 else b"e%+03d" % x)
                .ljust(5, b"\0") + b",\0\0" for x in xs.tolist()]
        rows += [b"\0" + text.ljust(44, b"\0") + b",\0\0"
                 for text in (b"0", b"nan", b"inf")]
        layout = np.frombuffer(b"".join(rows), np.uint8).reshape(-1, 48)
        layout = np.insert(layout, len(xs), layout[:len(xs)], axis=0)
        dots = np.flatnonzero((xs < -4) | (xs >= 0))  # slot of digit j: 7 + 2j
        layout[len(xs) + dots, 5 + 2 * self.ints[dots]] = ord(".")
        self.layout = layout.view("<u8").T.copy()
        # N as five groups of four digits, the first "000" and its first
        # digit: 1 + the index of 17 of the k-th group's last nonzero digit,
        # or 0, at 10_000 k + group; its digits as digit and slot bytes;
        # and the mask of the k-th group's bytes kept, by digits kept of 17
        self.groups = 10 ** np.arange(16, -1, -4)[:, None]
        self.offsets = np.arange(0, 50_000, 10_000)[:, None]
        g = np.arange(10_000, dtype=np.int16)
        zeros = sum((g % 10 ** j == 0 for j in (1, 2, 3)), np.int8(0))
        self.last = ((4 * np.arange(5, dtype=np.int8)[:, None] + 1 - zeros)
                     * (g > 0)).ravel()
        self.digits = (g[:, None] // np.array([1000, 100, 10, 1], np.int16)
                       % 10 + ord("0")).astype("<u2").view("<u8").ravel()
        index = (4 * np.arange(5)[:, None] - 3 + np.arange(4))[:, None]
        kept = (index >= 0) & (index < np.arange(18)[:, None])
        self.kept = (kept << np.arange(0, 64, 16)).sum(2, dtype="<u8") * 255

    def add_scales(self, exponents):
        for e in exponents:
            e0 = math.floor((e - 1) * math.log10(2))  # 10**e0 <= 2**(e - 1)
            for row, k in enumerate((16 - e0, 15 - e0), 2 * (e - _EMIN)):
                num = 2 ** max(e, 0) * 10 ** max(k, 0)
                den = 2 ** max(-e, 0) * 10 ** max(-k, 0)
                p, q = (hi := num / den).as_integer_ratio()  # rounds right
                self.scale[:, row] = (hi, (num * q - p * den) / (den * q),
                                      e0 + row % 2 - _XMIN)
            num = (2 * 10 ** 17 - 1) * 10 ** max(e0 - 16, 0)  # / den:
            den = 2 * 10 ** max(16 - e0, 0)  # (1e17 - 1/2) 10**(e0 - 16)
            p, q = (bound := num / den).as_integer_ratio()
            self.bound[e - _EMIN] = (math.nextafter(bound, math.inf)
                                     if p * den < num * q else bound)


def _digits(t, a):
    """N, X - _XMIN and the near-ties of the finite positive floats a."""
    m, e = np.frexp(a)
    e -= _EMIN
    if math.isnan((bound := t.bound.take(e)).max()):
        t.add_scales(set((e[np.isnan(bound)] + _EMIN).tolist()))
        bound = t.bound.take(e)
    hi, lo, x = t.scale.take(2 * e + (a >= bound), axis=1)
    (mh, ml), (hh, hl) = _split(m), _split(hi)
    p = m * hi  # Dekker: m * hi = p + the sum of the next four products
    lo = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * lo
    n = p.astype(np.int64)
    n += (r := np.rint(lo)).astype(np.int64)
    lo -= r
    return n, x.astype(np.int16), np.flatnonzero(
        np.abs(lo, out=lo) > 0.5 - 1e-9)


def _cells(v):
    """The '%.17g' text of each float in v, as (6, v.size) cell words."""
    global _TABLES
    t = _TABLES = _TABLES or _Tables()
    a = np.abs(v)
    odd = ~((a > 0) & (a < math.inf))  # 0, nan and inf have rows of their own
    if special := odd.any():
        np.copyto(a, 1.0, where=odd)
    n, x, ties = _digits(t, a)
    quads = n // t.groups % 10_000
    # digits kept: through the last nonzero one and the integer part
    keep = t.last.take(quads + t.offsets).max(axis=0)
    np.maximum(keep, t.ints.take(x), out=keep)
    x += (keep > t.ints.take(x)) * np.int16(t.ints.size)
    if special:
        x[odd] = 2 * t.ints.size + np.isnan(v[odd]) + 2 * np.isinf(v[odd])
        keep[odd] = 0
    out = t.layout.take(x, axis=1)
    quads = t.digits.take(quads)
    quads &= t.kept.take(keep, axis=1)
    out[:5] += quads
    out[0] += (np.signbit(v) & ~np.isnan(v)) * np.uint64(ord("-"))
    for j in ties:  # '%.17g' itself settles the near-ties
        out[:, j] = np.frombuffer((b"%.17g" % v[j]).ljust(45, b"\0")
                                  + b",\0\0", "<u8")
    return out


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
    names = [f.name for f in fields(SimConfig)]
    _check_fields(obj, {"kind", *names}, "sim_config")
    nested = {"potential": parse_potential, "grid": parse_grid}
    for name in nested:  # a nested spec may omit its kind
        spec = obj.get(name)
        if isinstance(spec, dict) and spec.get("kind", name) != name:
            raise FormatError(f"sim_config: the {name} spec has kind "
                              f"{spec['kind']!r}")
    with _spec_errors("sim_config"):  # the first missing field in order
        return SimConfig(**{name: nested[name](obj[name]) if name in nested
                            else obj[name] for name in names})


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
