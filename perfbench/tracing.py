"""Spans and counts recorded around the calls into each equilib layer.

The tracer replaces public functions at the places where the program looks
them up (``equilib.cli.<name>``, ``equilib.io.*``, the module globals that
``maxent``, ``simulate`` and ``diagnostics`` call, ``Grid.quadrature`` and
the catalog family methods) with wrappers that record a span: name, start,
end, parent and op.  Nothing inside the program is edited; ``uninstall``
puts every original back.  A name that a later version of the program no
longer has is skipped, so the tracer keeps working across refactors.

A span opened while the innermost open span has the same name is not
recorded (a family's ``density`` calling its own ``normalized_potential``
is one catalog evaluation), and neither are its counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
import tracemalloc

POTENTIAL_FUNCTIONS = ("normalize", "normalized_potential",
                       "potential_of_density", "stochastic_intensity",
                       "causal_intensity", "density_from_intensity")
POTENTIAL_SITES = ("cli", "maxent", "simulate", "diagnostics", "potential",
                   "catalog")
IO_SPANS = {"write_table": "io.write_table", "read_table": "io.read_table",
            "load_spec": "io.json", "dump_json": "io.json",
            "parse_potential": "io.parse", "parse_grid": "io.parse",
            "parse_polynomial": "io.parse", "grid_from_x": "io.parse"}
FAMILY_CLASSES = ("UniformLattice", "Exponential", "Normal", "LinearConstant",
                  "Poisson", "Gamma", "AnalyticPotential")
FAMILY_METHODS = ("potential", "normalized_potential", "intensity", "density",
                  "values_on", "intensity_on", "at")

LAYERS = ("cli", "io", "simulate", "diagnostics", "maxent", "potential",
          "grid", "catalog")

# per-layer metric name -> unit; the order is the order they are printed in
PER_LAYER_UNITS = {
    "simulate.run_s": "s",
    "simulate.chain_steps": "count",
    "simulate.chain_steps_per_s": "1/s",
    "simulate.peak_alloc_mb": "MB",
    "diagnostics.decompose_s": "s",
    "diagnostics.kde_evals": "count",
    "diagnostics.kde_evals_per_s": "1/s",
    "diagnostics.fit_s": "s",
    "diagnostics.peak_alloc_mb": "MB",
    "io.write_table_s": "s",
    "io.read_table_s": "s",
    "io.rows_written": "count",
    "io.rows_read": "count",
    "io.bytes_written": "B",
    "io.write_rows_per_s": "1/s",
    "io.read_rows_per_s": "1/s",
    "io.json_s": "s",
    "maxent.solve_s": "s",
    "maxent.iterations": "count",
    "maxent.moment_evals": "count",
    "potential.normalize_s": "s",
    "potential.normalize_calls": "count",
    "potential.transform_s": "s",
    "potential.masked_points": "count",
    "grid.quadrature_s": "s",
    "grid.quadrature_calls": "count",
    "catalog.eval_s": "s",
    "catalog.eval_calls": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans = []      # [name, parent, op, start, end]
        self.counts = []     # one dict of counters per op
        self.op = -1
        self._stack = []     # (span index, name) of the open spans
        self._patched = []   # (owner, attr, original, owned)

    # -- recording ---------------------------------------------------------

    def begin_op(self):
        self.op += 1
        self.counts.append({})

    def count(self, key, amount):
        ops = self.counts[self.op]
        ops[key] = ops.get(key, 0) + amount

    def span(self, name, fn, *args, hook=None, **kwargs):
        """Call fn inside a span; hook(tracer, args, kwargs, result) counts."""
        if self._stack and self._stack[-1][1] == name:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        record = [name, parent, self.op, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append((index, name))
        try:
            result = fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr, name, hook=None):
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.span(name, original, *args, hook=hook, **kwargs)

        owned = attr in vars(owner)
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original, owned))

    def install(self):
        from equilib import catalog, cli, grid, io

        # equilib/__init__ rebinds some module names (equilib.simulate is
        # the function), so look the modules up by their full names
        modules = {site: importlib.import_module(f"equilib.{site}")
                   for site in POTENTIAL_SITES}
        self.wrap(cli, "simulate", "simulate.run", hook=_count_chain_steps)
        self.wrap(cli, "decompose_samples", "diagnostics.decompose",
                  hook=_count_kde_evals)
        self.wrap(cli, "fit_linear_intensity", "diagnostics.fit")
        self.wrap(cli, "solve_maxent", "maxent.solve", hook=_count_iterations)
        self.wrap(cli, "sample_u_moment", "maxent.sample_moment")
        for site, module in modules.items():
            for fn in POTENTIAL_FUNCTIONS:
                if fn == "normalize":
                    hook = (_count_normalize_in_maxent if site == "maxent"
                            else _count_normalize)
                else:
                    hook = _count_masked
                self.wrap(module, fn, f"potential.{fn}", hook=hook)
        for fn, name in IO_SPANS.items():
            hook = {"write_table": _count_written,
                    "read_table": _count_read}.get(fn)
            self.wrap(io, fn, name, hook=hook)
        self.wrap(grid.Grid, "quadrature", "grid.quadrature",
                  hook=_count_quadrature)
        for cls_name in FAMILY_CLASSES:
            cls = getattr(catalog, cls_name, None)
            for method in FAMILY_METHODS if cls is not None else ():
                self.wrap(cls, method, "catalog.eval", hook=_count_eval)

    def uninstall(self):
        for owner, attr, original, owned in reversed(self._patched):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def _per_op(self):
        """Per op: inclusive time by span name and self time by layer."""
        child_time = [0.0] * len(self.spans)
        for name, parent, op, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        ops = [({}, dict.fromkeys(LAYERS, 0.0)) for _ in self.counts]
        for i, (name, parent, op, start, end) in enumerate(self.spans):
            inclusive, self_time = ops[op]
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            layer = name.split(".")[0]
            self_time[layer] += (end - start) - child_time[i]
        return ops

    def layer_metrics(self):
        """Median over ops of every span-derived per-layer metric."""
        rows = []
        for (incl, self_time), counts in zip(self._per_op(), self.counts):
            def t(*names):
                return sum(incl.get(n, 0.0) for n in names)

            def c(key):
                return counts.get(key, 0)

            transforms = [f"potential.{fn}" for fn in POTENTIAL_FUNCTIONS
                          if fn != "normalize"]
            row = {
                "simulate.run_s": t("simulate.run"),
                "simulate.chain_steps": c("chain_steps"),
                "diagnostics.decompose_s": t("diagnostics.decompose"),
                "diagnostics.kde_evals": c("kde_evals"),
                "diagnostics.fit_s": t("diagnostics.fit"),
                "io.write_table_s": t("io.write_table"),
                "io.read_table_s": t("io.read_table"),
                "io.rows_written": c("rows_written"),
                "io.rows_read": c("rows_read"),
                "io.bytes_written": c("bytes_written"),
                "io.json_s": t("io.json"),
                "maxent.solve_s": t("maxent.solve"),
                "maxent.iterations": c("iterations"),
                "maxent.moment_evals": c("moment_evals"),
                "potential.normalize_s": t("potential.normalize"),
                "potential.normalize_calls": c("normalize_calls"),
                "potential.transform_s": t(*transforms),
                "potential.masked_points": c("masked_points"),
                "grid.quadrature_s": t("grid.quadrature"),
                "grid.quadrature_calls": c("quadrature_calls"),
                "catalog.eval_s": t("catalog.eval"),
                "catalog.eval_calls": c("eval_calls"),
                "cli.self_s": self_time["cli"],
            }
            row["simulate.chain_steps_per_s"] = _rate(
                row["simulate.chain_steps"], row["simulate.run_s"])
            row["diagnostics.kde_evals_per_s"] = _rate(
                row["diagnostics.kde_evals"], row["diagnostics.decompose_s"])
            row["io.write_rows_per_s"] = _rate(row["io.rows_written"],
                                               row["io.write_table_s"])
            row["io.read_rows_per_s"] = _rate(row["io.rows_read"],
                                              row["io.read_table_s"])
            rows.append(row)
        return {key: statistics.median(row[key] for row in rows)
                for key in rows[0]}

    def self_time_shares(self):
        """Share of all traced op time that each layer spends in itself."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for _, self_time in self._per_op():
            for layer, value in self_time.items():
                totals[layer] += value
        whole = sum(totals.values())
        return {layer: value / whole for layer, value in totals.items()}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "op", "start", "end"],
                       "spans": self.spans, "counts": self.counts}, fh)


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def _count_chain_steps(tracer, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    tracer.count("chain_steps", config.n_chains * config.n_steps)


def _count_kde_evals(tracer, args, kwargs, result):
    samples, grid = args[0], args[1]
    estimator = args[2] if len(args) > 2 else kwargs.get("estimator", "kernel")
    if estimator == "kernel":
        tracer.count("kde_evals", len(samples) * grid.n_points)


def _count_iterations(tracer, args, kwargs, result):
    tracer.count("iterations", result.iterations)


def _count_normalize(tracer, args, kwargs, result):
    tracer.count("normalize_calls", 1)


def _count_normalize_in_maxent(tracer, args, kwargs, result):
    tracer.count("normalize_calls", 1)
    if any(name == "maxent.solve" for _, name in tracer._stack):
        tracer.count("moment_evals", 1)


def _count_masked(tracer, args, kwargs, result):
    mask = getattr(result, "mask", None)
    if mask is not None:
        tracer.count("masked_points", int(mask.sum()))


def _count_written(tracer, args, kwargs, result):
    path = args[0]
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    tracer.count("rows_written", len(next(iter(columns.values()))))
    tracer.count("bytes_written", os.path.getsize(path))


def _count_read(tracer, args, kwargs, result):
    tracer.count("rows_read", len(next(iter(result.values()))))


def _count_quadrature(tracer, args, kwargs, result):
    tracer.count("quadrature_calls", 1)


def _count_eval(tracer, args, kwargs, result):
    tracer.count("eval_calls", 1)


class AllocProbe:
    """Peak traced allocation inside simulate and decompose_samples.

    Runs in a pass of its own, because tracemalloc slows every allocation
    and would inflate the span times.
    """

    TARGETS = {"simulate": "simulate.peak_alloc_mb",
               "decompose_samples": "diagnostics.peak_alloc_mb"}

    def __init__(self):
        self.peak_mb = dict.fromkeys(self.TARGETS.values(), 0.0)
        self._patched = []

    def _wrap(self, owner, attr, key):
        original = getattr(owner, attr, None)
        if original is None:
            return
        probe = self

        @functools.wraps(original)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                probe.peak_mb[key] = max(probe.peak_mb[key], peak / 2 ** 20)

        setattr(owner, attr, measured)
        self._patched.append((owner, attr, original))

    def __enter__(self):
        from equilib import cli
        for attr, key in self.TARGETS.items():
            self._wrap(cli, attr, key)
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False
