"""Command-line front end.

Subcommands: catalog, transform, maxent, simulate, decompose.  Output is
machine readable (see io.py) and deterministic: randomness enters only by
explicit seeds, and no BLAS build, thread count or stride moves a byte.

Exit codes: 0 success, 2 input/precondition error, 3 infeasible problem.
A command that fails removes every regular file it wrote, a partly written
one included, and never a symlink, device or FIFO.
The parser is built once per process, on the first ``main``.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import fields

import numpy as np

from . import io
from .catalog import FAMILIES, _Family, make_family
from .diagnostics import decompose_samples, fit_linear_intensity
from .errors import (EquilibError, MomentRangeError, NonNormalizableError)
from .grid import CONTINUOUS, LATTICE, Grid, build_grid
from .maxent import MaxEntProblem, sample_u_moment, solve_maxent
from .potential import (EquilibriumDensity, TabulatedPotential,
                        causal_intensity, normalize, normalized_potential,
                        potential_of_density, stochastic_intensity)
from .simulate import simulate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")

# every catalog family's fields, one flag each
_FAMILY_FIELDS = {f.name: f.type for cls in FAMILIES.values()
                  for f in fields(cls)}


def _add_grid_args(parser, required=False):
    parser.add_argument("--lower", type=float, required=required)
    parser.add_argument("--upper", type=float, required=required)
    parser.add_argument("--points", type=int, required=required)
    parser.add_argument("--grid-kind", choices=[CONTINUOUS, LATTICE])


def _grid_from_args(args) -> Grid | None:
    bounds = (args.lower, args.upper, args.points)
    if bounds == (None, None, None):
        if args.grid_kind is not None:
            raise io.FormatError("--grid-kind needs --lower, --upper and "
                                 "--points")
        return None
    if None in bounds:
        raise io.FormatError("--lower, --upper and --points go together")
    return build_grid(args.grid_kind or CONTINUOUS, args.lower, args.upper,
                      args.points)


def _write_outputs(*outputs):
    """Write each ``(write, path, content)`` whose path is set, in order; if
    one fails, remove those already written before re-raising."""
    written = []
    try:
        for write, path, content in outputs:
            if path is not None:
                write(path, content)
                written.append(path)
    except BaseException:
        for path in written:
            io.remove_written(path)
        raise


# ---------------------------------------------------------------------------
# catalog


def cmd_catalog(args) -> int:
    family = make_family(args.family, {
        name: getattr(args, name) for name in _FAMILY_FIELDS
        if getattr(args, name) is not None})
    grid = _grid_from_args(args)
    if grid is None:
        grid = family.default_grid()
    x = grid.points
    with np.errstate(over="ignore"):  # +-inf far out on a narrow family
        u = family.normalized_potential(x)
        columns = {"x": x, "f": np.exp(-u), "U_tilde": u,
                   "E_c": family.intensity(x)}
    EquilibriumDensity.from_table(grid, columns["f"])  # raises if no mass
    io.write_table(args.out, columns)
    return EXIT_OK


# ---------------------------------------------------------------------------
# transform


def _load_transform_input(args):
    """Return ('potential', spec, grid) or ('density', density)."""
    path = args.infile
    if path.endswith(".json"):
        spec = io.parse_potential(io.load_spec(path, "potential"))
        grid = _grid_from_args(args)
        if grid is None and isinstance(spec, TabulatedPotential):
            grid = spec.grid
        elif grid is None and isinstance(spec, _Family):
            grid = spec.default_grid()
        elif grid is None:
            raise io.FormatError("this potential needs explicit grid args")
        return "potential", spec, grid
    if (args.lower, args.upper, args.points) != (None, None, None):
        raise io.FormatError(f"{path}: a table's grid comes from its x "
                             "column; drop --lower, --upper and --points")
    table, grid = io.read_grid_table(path, args.grid_kind, ("x", "f", "U"))
    if "f" in table:
        if not np.isfinite(table["f"]).all():
            raise io.FormatError(f"{path}: f column has non-finite values")
        return "density", EquilibriumDensity.from_table(grid, table["f"]), grid
    if "U" in table:
        spec = TabulatedPotential(grid=grid, values=table["U"])
        return "potential", spec, grid
    raise io.FormatError(f"{path}: need either an f or a U column")


def cmd_transform(args) -> int:
    role, obj, grid = _load_transform_input(args)
    from_density = role == "density"
    if args.to == "density":
        name, table = "f", obj if from_density else normalize(obj, grid)
    elif args.to == "potential":
        name, table = "U_tilde", (potential_of_density(obj) if from_density
                                  else normalized_potential(obj, grid))
    elif from_density:  # intensity: stochastic from a density
        name, table = "E_s", stochastic_intensity(obj)
    else:  # causal from a potential
        name, table = "E_c", causal_intensity(obj, grid)
    if table.mask.all():
        raise io.FormatError(f"all points masked: {name} is undefined on "
                             "this grid")
    columns = {"x": grid.points, name: table.values}
    if args.to != "density":
        columns["mask"] = table.mask
    io.write_table(args.out, columns)
    return EXIT_OK


# ---------------------------------------------------------------------------
# maxent


def _potential_from_arg(text: str):
    if text.endswith(".json"):
        return io.parse_potential(io.load_spec(text, "potential"))
    if text.endswith(".csv"):
        return io.read_tabulated_potential(text)
    return io.parse_polynomial(text)


def _read_samples(path) -> np.ndarray:
    table = io.read_table(path, ("x",))
    if "x" not in table:
        raise io.FormatError(f"{path}: samples file needs an x column")
    return np.asarray(table["x"])


def cmd_maxent(args) -> int:
    u = _potential_from_arg(args.u)
    grid = _grid_from_args(args)
    if args.samples is not None:
        samples = np.sort(_read_samples(args.samples))
        target = sample_u_moment(samples, u)
    else:
        target = args.moment
    problem = MaxEntProblem(u=u, grid=grid, target_moment=target,
                            tol=args.tol, max_iter=args.max_iter)
    solution = solve_maxent(problem)
    _write_outputs((io.dump_json, args.out, {
        "kind": "maxent_solution",
        "lambda": solution.lam,
        "log_k": -solution.density.log_omega,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "target_moment": target,
    }), (io.write_table, args.table, {
        "x": grid.points,
        "f": solution.density.values,
        "U_tilde": solution.normalized_potential.values,
    }))
    print(f"lambda = {solution.lam:.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    config = io.parse_sim_config(io.load_spec(args.config, "sim_config"))
    result = simulate(config)
    _write_outputs((io.dump_json, args.out, {
        "kind": "sim_result",
        "tv_distance": result.tv_distance,
        "n_samples_used": result.n_samples_used,
        "seed": result.seed,
        "rng_algorithm": result.rng_algorithm,
    }), (io.write_table, args.hist, {"x": config.grid.points,
                                     "f": result.histogram.values}))
    print(f"tv_distance = {result.tv_distance:.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    samples = _read_samples(args.samples)
    grid = _grid_from_args(args)
    report = decompose_samples(samples, grid, estimator=args.estimator,
                               bins=args.bins, bandwidth=args.bandwidth)
    slope, intercept = fit_linear_intensity(report)
    _write_outputs((io.write_table, args.out, {
        "x": grid.points,
        "f": report.density_estimate.values,
        "U_tilde": report.normalized_potential.values,
        "E_s": report.stochastic_intensity.values,
        "mask": report.mask,
    }), (io.dump_json, args.report, {
        "kind": "decomposition_report",
        "estimator": report.estimator,
        "n_out_of_range": report.n_out_of_range,
        "trim_interval": list(report.trim_interval),
        "intensity_slope": slope,
        "intensity_intercept": intercept,
    }))
    print(f"intensity_slope = {slope:.17g}")
    print(f"intensity_intercept = {intercept:.17g}")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one line and exit code 2, through ``main``."""
        raise io.FormatError(message)


def _glue_negative_values(argv):
    """``--lower -1e3`` -> ``--lower=-1e3``: argparse reads '-1e3' as an
    option.  Every long option but --help takes a value."""
    out = []
    for arg in argv:
        if (out and out[-1][:2] == "--" and "=" not in out[-1]
                and out[-1] != "--help" and _NEGATIVE.fullmatch(arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="equilib",
        description="Potentials, equilibrium densities and intensities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="tabulate a closed-form family")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    # unset flags take the defaults; a flag the family lacks is an error
    for name, kind in _FAMILY_FIELDS.items():
        aliases = ["--lambda"] if name == "lam" else []
        p.add_argument(f"--{name}", *aliases,
                       type=int if kind == "int" else float)
    _add_grid_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("transform",
                       help="map between potential, density and intensity")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--to", required=True,
                   choices=["density", "potential", "intensity"])
    _add_grid_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("maxent", help="solve the u-moment MaxEnt problem")
    p.add_argument("--u", required=True,
                   help="polynomial expression, .json spec or .csv table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--moment", type=float)
    group.add_argument("--samples")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100)
    _add_grid_args(p, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--table")
    p.set_defaults(func=cmd_maxent)

    p = sub.add_parser("simulate",
                       help="verify Boltzmann equilibrium by dynamics")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hist")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose",
                       help="split samples into stochastic/causal parts")
    p.add_argument("--samples", required=True)
    p.add_argument("--estimator", choices=["kernel", "histogram"],
                   default="kernel")
    p.add_argument("--bins", type=int)
    p.add_argument("--bandwidth", type=float)
    _add_grid_args(p, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_glue_negative_values(argv))
        return args.func(args)
    except (MomentRangeError, NonNormalizableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (EquilibError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # e.g. the default lattice of a huge Poisson lambda
        print(f"error: out of memory ({str(exc) or 'allocation failed'}); "
              "pass a smaller explicit grid", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
