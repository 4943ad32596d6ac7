"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, traced and untraced; that a different seed changes the
generated inputs but not the set of metrics; and that corrupted outputs
are counted as failed ops.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}\n"
                             f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(spec, workload):
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace, units in wanted.items():
        names = None
        for seed in (1, 2):
            result = run_bench(workload, seed, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (workload, trace, got)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            if names is not None:
                assert names == set(got), "metric set depends on the seed"
            names = set(got)


def corrupt_csv_column(path):
    lines = Path(path).read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[-1] = "nan"
    Path(path).write_text("\n".join([lines[0]] + [",".join(r)
                                                  for r in rows]) + "\n")


def truncate(path):
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(lines[:len(lines) // 2]) + "\n")


def perturb_json(path, key):
    obj = json.loads(Path(path).read_text())
    obj[key] = obj[key] * 1.5
    Path(path).write_text(json.dumps(obj))


def perturb_last_digit(path):
    text = Path(path).read_text()
    i = len(text.rstrip()) - 1
    Path(path).write_text(text[:i] + str((int(text[i]) + 1) % 10)
                          + text[i + 1:])


def check_corruption(work):
    """Each corruption of a good op's output must make the op fail."""
    from run import Client
    from workloads import WORKLOADS
    from equilib.cli import main as cli_main

    corruptions = {
        "langevin": [("hist.csv", corrupt_csv_column),
                     ("hist.csv", truncate),
                     ("hist.csv", perturb_last_digit),
                     ("result.json", lambda p: perturb_json(p,
                                                            "tv_distance"))],
        "decompose": [("dec.csv", corrupt_csv_column),
                      ("dec.csv", truncate),
                      ("dec.json", lambda p: perturb_json(p,
                                                          "intensity_slope"))],
        "pipeline": [("gamma_e.csv", corrupt_csv_column),
                     ("poisson_e.csv", truncate),
                     ("maxent.json", lambda p: perturb_json(p, "lambda")),
                     ("maxent.csv", truncate)],
    }
    for name, cases in corruptions.items():
        workload = WORKLOADS[name](work / name, 1, tiny=True)
        client = Client(workload, cli_main)
        client.op()
        assert not client.failures, client.failures
        check = workload.check
        for filename, corrupt in cases:
            def corrupt_then_check():
                corrupt(workload.path(filename))
                return check()
            workload.check = corrupt_then_check
            client.op()
            assert len(client.failures) == client.attempted - 1, \
                f"{name}: corrupting {filename} went unnoticed"
            client.failures.clear()
            client.attempted = 1
        workload.check = check


def check_seed_changes_inputs(work):
    from workloads import WORKLOADS
    for name, cls in WORKLOADS.items():
        first = cls(work / f"{name}-a", 1, tiny=True).inputs()
        second = cls(work / f"{name}-b", 2, tiny=True).inputs()
        again = cls(work / f"{name}-c", 1, tiny=True).inputs()
        assert first == again, f"{name}: same seed, different inputs"
        assert first != second, f"{name}: seed does not change the inputs"


def main():
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    try:
        check_seed_changes_inputs(work)
        print("ok: a seed fixes the inputs and another seed changes them")
        check_corruption(work)
        print("ok: corrupted outputs count as failed ops")
        for workload in (w["name"] for w in spec["workloads"]):
            check_metrics(spec, workload)
            print(f"ok: {workload} emits every metric with its unit")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
