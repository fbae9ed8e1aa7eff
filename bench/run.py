"""planmds benchmark: three solver workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout; planmds is imported from ./src:

    python3 bench/run.py --workload small-sweeps --seed 1 --seconds 30 --trace 0

Workloads (the reason for each is in BENCHMARK.json):
    circle-clusters  one seed of the circle-clusters experiment via `planmds experiment`
    small-sweeps     50 small qmds problems (n 6-16, m in {2, 3}, d = m + 1) swept to convergence
    generic-costs    one 60-point cloud swept once under quadratic-ip, kernel-ip, elastic, qsammon

The benchmark builds the inputs from --seed, repeats whole passes of the
workload for about --seconds, and checks every problem's outputs (see
workloads.py).  A problem that raises, exits non-zero, fails a check, or
hashes differently from its first pass counts as failed.

--trace 0 prints the end-to-end metrics: run_s (median pass time), setup_s
(median of three set-ups: imports, input generation and one untimed tiny
pass, each in a fresh interpreter but the first), solve_s.p50/.p80 (over
problems, of each problem's median time), final_stress and particle_stress
(summed over problems; particle descent runs on the same problem from the
same start), peak_rss_mb.
--trace 1 spends half the time on untraced passes and half on traced ones
and prints the per-layer metrics of tracing.py, including trace.overhead_s,
then (as plain lines) the share of the traced pass each layer group takes.

Every human-readable line goes first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A record with
provenance, pass times with their min and max, layer shares and errors goes
to .bench_out/, and the spans of a traced run to
.bench_out/<workload>-seed<seed>-spans.npz.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("circle-clusters", "small-sweeps", "generic-costs")
SETUP_PROBES = 2   # fresh-interpreter set-ups measured besides this process's own

# End-to-end metrics and their units, as in BENCHMARK.json.
E2E_METRICS = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("solve_s.p50", "s"),
    ("solve_s.p80", "s"),
    ("final_stress", "stress"),
    ("particle_stress", "stress"),
    ("peak_rss_mb", "MB"),
]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: minute inputs for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time, and exit")
    return p.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads(nproc: int) -> None:
    """At most nproc BLAS threads; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= nproc):
            os.environ[var] = str(nproc)


def _set_up(args):
    """Import numpy, scipy.optimize and planmds from ./src; build the workload.

    Then solve the tiny variant of the workload once, untimed, so that what
    a process does on its first solve only (lazy imports, first-call costs
    of about a second in L-BFGS) counts here and not in the first pass.
    """
    if not os.path.isfile(os.path.join(SRC, "planmds", "__init__.py")):
        raise SystemExit(f"error: no planmds sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    import planmds
    if not os.path.abspath(planmds.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: planmds imported from {planmds.__file__}, not {SRC}")
    import workloads
    make = workloads.WORKLOADS[args.workload]
    tiny = make(args.seed, True, ROOT)
    if args.size == "tiny":
        return tiny
    for problem in tiny.problems:
        try:
            tiny.solve(problem)
        except Exception:
            # the timed passes solve it again and count the failure
            traceback.print_exc()
    return make(args.seed, False, ROOT)


def _setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    seconds: float = 0.0
    solve_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _run_pass(wl, first: dict, errors: list[str]) -> Pass:
    """One pass over every problem; `first` keeps each problem's first outcome."""
    p = Pass()
    for k, problem in enumerate(wl.problems):
        p.attempted += 1
        try:
            solved = wl.solve(problem)
            p.seconds += solved.pass_s
            p.solve_s.append(solved.solve_s)
            digest = wl.digest(solved)
            if k not in first:
                first[k] = (digest, solved, wl.check(problem, solved))
            problem_errors = (first[k][2] if digest == first[k][0]
                              else ["outputs hash differently from the first pass"])
        except Exception:
            problem_errors = [traceback.format_exc()]
        if problem_errors:
            p.failed += 1
            errors.extend(f"problem {k}: {e}" for e in problem_errors)
    return p


def _measure(wl, seconds: float, first: dict, errors: list[str], tracer=None) -> list[Pass]:
    """Whole passes until the next one would end after `seconds` (at least one).

    A pass with a failed problem ends the measurement: its times mean little,
    and a program that fails fast would otherwise repeat the failure for the
    whole run.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id = len(passes)
        passes.append(_run_pass(wl, first, errors))
        typical = statistics.median(p.seconds for p in passes)
        if passes[-1].failed or time.perf_counter() - start + typical > seconds:
            return passes


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(args, wl, nproc: int) -> dict:
    import numpy
    import scipy

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "openblas": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": nproc,
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "inputs": wl.sizes,
    }


def _min_max(values) -> list[float] | None:
    """[min, max] of a run's samples, so later runs can judge its timing spread."""
    values = list(values)
    return [min(values), max(values)] if values else None


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    nproc = _nproc()
    _limit_blas_threads(nproc)
    wl = _set_up(args)
    own_setup = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    probes = 0 if args.size == "tiny" else SETUP_PROBES
    setup_samples = [own_setup] + [_setup_probe(args) for _ in range(probes)]

    import tracing

    os.makedirs(OUT, exist_ok=True)
    errors: list[str] = []
    first: dict = {}
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = _measure(wl, budget, first, errors)
    traced, tracer, mismatches = [], None, []
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = _measure(wl, budget, first, errors, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    shares = {}
    if args.trace:
        values, mismatches = tracing.layer_metrics(tracer, list(range(len(traced))))
        traced_s = statistics.median(p.seconds for p in traced)
        values["trace.overhead_s"] = traced_s - statistics.median(p.seconds for p in plain)
        shares = tracing.layer_shares(values, traced_s)
        errors.extend(mismatches)
        units = tracing.LAYER_METRICS
    else:
        solved = [first[k][1] for k in sorted(first)]
        # each problem's median time over the passes, then percentiles over problems
        per_problem = [statistics.median(times) for times in
                       zip(*(p.solve_s for p in plain if len(p.solve_s) == len(wl.problems)))]
        values = {
            "run_s": statistics.median(p.seconds for p in plain),
            "setup_s": statistics.median(setup_samples),
            "solve_s.p50": _quantile(per_problem, 50) if per_problem else 0.0,
            "solve_s.p80": _quantile(per_problem, 80) if per_problem else 0.0,
            "final_stress": sum(s.final_stress for s in solved),
            "particle_stress": sum(s.particle_stress for s in solved),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_METRICS

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + (1 if mismatches else 0)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units}
    record = {
        "provenance": _provenance(args, wl, nproc),
        "setup_samples_s": setup_samples,
        "pass_s": [p.seconds for p in plain],
        "pass_s_min_max": _min_max(p.seconds for p in plain),
        "traced_pass_s": [p.seconds for p in traced],
        "traced_pass_s_min_max": _min_max(p.seconds for p in traced),
        "setup_s_min_max": _min_max(setup_samples),
        "layer_shares_of_traced_pass": shares,
        "failed_frac": failed / attempted,
        "errors": errors,
        "metrics": metrics,
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.save(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.npz"))

    for err in errors:
        print(f"FAILED {err}", file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    for group, share in shares.items():
        print(f"{'share of traced pass: ' + group:45s} {share:.3f}")
    print(f"{'failed_frac':45s} {failed / attempted:.6g} ({failed} of {attempted} problems)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
