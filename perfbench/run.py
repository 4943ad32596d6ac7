"""Closed-loop benchmark of the equilib CLI workflows.

    python3 perfbench/run.py --workload {langevin,decompose,pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``
there.  Each workload is one client calling ``equilib.cli.main(argv)``
in-process, one op after another, on inputs generated from ``--seed``
before timing starts.  Every op's outputs are checked.  The last line of
standard output is one JSON object; the lines before it repeat the metrics
for a reader, with the environment they were measured in.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures the
per-layer metrics: ops under the span tracer, alternating with untraced
ops that are the base of the tracing overhead, then one op under
tracemalloc.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# median wall time of SpeedProbe on the machine the bounds were set on:
# 2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11, NumPy 2.4
REF_PROBE_S = 0.008

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "result_err": "1",
}


class SpeedProbe:
    """A fixed slice of interpreter, small-array and large-array NumPy work.

    The host's speed drifts by a quarter or more from one minute to the
    next under other tenants' load, which no run length here averages
    out.  Timing this probe beside every measurement and scaling the
    measurement by REF_PROBE_S / probe time reports it in seconds at the
    reference speed; the raw figures are printed too.  The probe writes
    its large arrays in place: fresh pages would make it time the host's
    page faults, which the ops pay only a small share of.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.block = rng.normal(size=(1001, 256))
        self.out = np.empty_like(self.block)
        self.steps = rng.normal(size=(200, 128))
        self.grid = np.linspace(-4.0, 4.0, 161)
        self.drift = -self.grid ** 3
        self.times = []

    def __call__(self):
        np = self.np
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        x = np.zeros(128)
        for step in self.steps:
            x = x + 5e-3 * np.interp(x, self.grid, self.drift) + 0.1 * step
            y = np.mod(x + 4.0, 16.0)
            x = np.minimum(y, 16.0 - y) - 4.0
        np.multiply(self.block, self.block, out=self.out)
        np.multiply(self.out, -0.5, out=self.out)
        np.exp(self.out, out=self.out).sum(axis=1)
        self.times.append(time.perf_counter() - start)

    def scale(self, raw):
        """Scale raw[i] by the probes timed just before and after it."""
        pairs = zip(raw, self.times[-len(raw) - 1:], self.times[-len(raw):])
        return [r * 2.0 * REF_PROBE_S / (a + b) for r, a, b in pairs]


def measure_setup(probes, speed):
    """Wall times for a fresh interpreter to import equilib.cli.

    One discarded run first, so that every measured one finds the
    bytecode cache written.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-c", "import equilib.cli"]
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    times = []
    speed()
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        speed()
    return times


class Client:
    """Runs ops of one workload and keeps their latencies and failures."""

    def __init__(self, workload, main):
        self.workload = workload
        self.main = main
        self.latencies = []
        self.errors = []
        self.attempted = 0
        self.failures = []

    def call(self, argv):
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(out):
                code = self.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, not a dead client
            code = 1
            out.write(traceback.format_exc())
        return code, out.getvalue()

    def op(self, record=True):
        """One op: the workload's CLI calls back to back, then the checks."""
        from workloads import CheckFailed
        for path in self.workload.outputs:
            Path(path).unlink(missing_ok=True)
        self.attempted += 1
        failure = None
        start = time.perf_counter()
        for argv in self.workload.commands:
            code, text = self.call(argv)
            if code != 0:
                failure = f"{argv[0]} exited {code}: {text.strip()[-500:]}"
                break
        latency = time.perf_counter() - start
        if failure is None:
            try:
                err = self.workload.check()
            except CheckFailed as exc:
                failure = str(exc)
        if failure is not None:
            self.failures.append(failure)
        elif record:
            self.errors.append(err)
        if record:
            self.latencies.append(latency)
        return latency

    def loop(self, seconds, speed=None):
        """Run ops for about `seconds`, timing `speed` around each one."""
        deadline = time.perf_counter() + seconds
        if speed is not None:
            speed()
        while True:
            self.op()
            if speed is not None:
                speed()
            if time.perf_counter() >= deadline:
                return


def tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(client, seconds, tiny):
    speed = SpeedProbe()
    raw_setup = measure_setup(2 if tiny else SETUP_PROBES, speed)
    setup = speed.scale(raw_setup)
    client.op(record=False)  # let lazy imports and caches settle
    client.loop(seconds, speed)
    lat = speed.scale(client.latencies)
    value, pct, beyond = tail(lat)
    ok = len(client.errors)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (client.attempted - len(client.failures)) / client.attempted,
        "result_err": statistics.median(client.errors) if client.errors
        else None,
    }
    notes = [f"times are seconds at the reference speed; probe median "
             f"{statistics.median(speed.times)!r} s against {REF_PROBE_S} s",
             f"raw setup_s {statistics.median(raw_setup)!r} s, raw "
             f"latency_p50_s {statistics.median(client.latencies)!r} s, raw "
             f"latency_tail_s {tail(client.latencies)[0]!r} s",
             f"latency_tail_s is p{pct:.1f} of {len(lat)} ops "
             f"({beyond} beyond it)",
             f"fail_ratio = {len(client.failures) / client.attempted!r} "
             f"({len(client.failures)} of {client.attempted} ops)"]
    return metrics, END_TO_END_UNITS, notes


def per_layer(client, seconds, trace_path):
    from tracing import PER_LAYER_UNITS, AllocProbe, Tracer

    client.op(record=False)
    tracer = Tracer()
    cli_main = client.main
    untraced, traced = [], []
    # untraced and traced ops alternate, so that the host's drifting speed
    # cancels out of the tracing overhead
    deadline = time.perf_counter() + 0.9 * seconds
    while True:
        untraced.append(client.op(record=False))
        client.main = lambda argv: tracer.span("cli.main", cli_main, argv)
        tracer.install()
        try:
            tracer.begin_op()
            traced.append(client.op(record=False))
        finally:
            tracer.uninstall()
            client.main = cli_main
        if time.perf_counter() >= deadline:
            break
    tracer.dump(trace_path)

    with AllocProbe() as alloc:
        client.op(record=False)

    metrics = tracer.layer_metrics()
    metrics.update(alloc.peak_mb)
    metrics["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced, untraced))
    shares = tracer.self_time_shares()
    top = max(shares, key=shares.get)
    notes = ["self-time share: " + ", ".join(
        f"{layer} {share:.3f}" for layer, share in
        sorted(shares.items(), key=lambda kv: -kv[1]))]
    if top == client.workload.layer:
        notes.append(f"largest layer: {top}, as expected")
    else:
        notes.append(f"largest layer MISMATCH: {top}, expected "
                     f"{client.workload.layer}")
    notes.append(f"{len(untraced)} untraced and {len(traced)} traced ops; "
                 f"spans in {trace_path.relative_to(ROOT)}")
    return {k: metrics[k] for k in PER_LAYER_UNITS}, PER_LAYER_UNITS, notes


def environment():
    import numpy
    import scipy
    caps = ", ".join(f"{k}={os.environ[k]}" for k in THREAD_CAPS)
    return [f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}",
            f"thread caps: {caps}"]


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test input sizes")
    return parser.parse_args(argv)


def main(argv=None):
    # the caps must be in place before NumPy is first imported
    for key in THREAD_CAPS:
        os.environ[key] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    if not (SRC / "equilib" / "cli.py").is_file():
        print(f"error: no equilib sources under {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.tiny)
        from equilib.cli import main as cli_main
        client = Client(workload, cli_main)
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
            metrics, units, notes = per_layer(client, args.seconds,
                                              trace_path)
        else:
            metrics, units, notes = end_to_end(client, args.seconds,
                                               args.tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for line in environment() + notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for failure in client.failures[:5]:
        print(f"failed op: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
