"""Self-test of the benchmark at tiny sizes; takes a few seconds.

    python3 bench/selftest.py

Runs every workload untraced and traced (the traced run twice), in this
process, and checks each result line against BENCHMARK.json: the keys, the
metric names and units, finite values, no failed problem, per-layer counts
that repeat exactly between runs, and the layers each workload must reach.
Then checks that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per-layer metrics that must be non-zero in a traced run of each workload
REACHED = {
    "circle-clusters": ["cli.main.s", "experiments.write.bytes", "svgplot.write.bytes",
                        "optim.particle_descent.iters", "energy.pair_energy.pairs",
                        "quartic.minimize_quartic.calls", "quartic.moments.atoms"],
    "small-sweeps": ["quartic.minimize_quartic.calls", "quartic.moments.calls",
                     "optim.marginal_sweep.solves", "energy.marginal_value.calls"],
    "generic-costs": ["optim.generic.s", "optim.generic.starts", "optim.generic.nfev",
                      "energy.marginal_grad.calls", "core.sqdist.calls"],
}


def _run(argv: list[str], failures: list[str]) -> str:
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        failures.append(f"{' '.join(argv)}: exit code {code}")
    return out.getvalue()


def _check_result(label: str, text: str, spec: list, failures: list[str]) -> dict:
    try:
        result = json.loads(text.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        failures.append(f"{label}: last line is not JSON ({exc})")
        return {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: keys {sorted(result)}")
        return {}
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        failures.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], float) and math.isfinite(m["value"])):
            failures.append(f"{label}: {name} = {m['value']!r}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _check_bare_directory(failures: list[str]) -> None:
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "bench"))
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-sweeps",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures: list[str] = []
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "5", "--seconds", "0.2", "--size", "tiny"]
        text = _run(base + ["--trace", "0"], failures)
        _check_result(f"{name} untraced", text, spec["end_to_end"], failures)
        traced = []
        for _ in range(2):
            text = _run(base + ["--trace", "1"], failures)
            traced.append(_check_result(f"{name} traced", text, spec["per_layer"], failures))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for metric, unit in units.items():
            if unit not in ("s", "us") and len({t.get(metric) for t in traced}) != 1:
                failures.append(f"{name}: {metric} differs between traced runs: "
                                f"{[t.get(metric) for t in traced]}")
        for metric in REACHED[name]:
            if not traced[0].get(metric):
                failures.append(f"{name}: traced run did not reach {metric}")
    _check_bare_directory(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
