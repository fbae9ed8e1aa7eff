"""Layer spans for the planmds benchmark, recorded from outside the package.

A traced pass rebinds the functions that one planmds module calls in another
(module globals and class attributes) to wrappers that record one span per
call: name, start, end, parent span, run id, and the work the call did
(elements, atoms, pairs, bytes, ...).  Nothing in the package changes; the
original bindings are restored when the pass ends.  Spans stay in flat
in-memory arrays and are written out once, at the end of the benchmark.

Self time of a span is its duration minus the durations of its direct child
spans; calls are nested and single-threaded, so that is exactly the part of
its interval no child covers.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

# Per-layer metrics, in the order printed: (name, unit).  Units "s"
# and "us" are timings (median over traced passes); every other metric is a
# count or a ratio of counts and must repeat exactly from pass to pass.
LAYER_METRICS = [
    ("core.sqdist.calls", "count"),
    ("core.sqdist.elements", "count"),
    ("core.sqdist.self_s", "s"),
    ("core.profile.calls", "count"),
    ("core.profile.elements", "count"),
    ("core.profile.self_s", "s"),
    ("core.bytes_computed", "bytes"),
    ("energy.pair_energy.calls", "count"),
    ("energy.pair_energy.pairs", "count"),
    ("energy.pair_energy.self_s", "s"),
    ("energy.marginal_value.calls", "count"),
    ("energy.marginal_value.atoms", "count"),
    ("energy.marginal_value.self_s", "s"),
    ("energy.marginal_grad.calls", "count"),
    ("energy.marginal_grad.self_s", "s"),
    ("quartic.minimize_quartic.calls", "count"),
    ("quartic.minimize_quartic.self_s", "s"),
    ("quartic.minimize_quartic.us_per_call", "us"),
    ("quartic.moments.calls", "count"),
    ("quartic.moments.atoms", "count"),
    ("quartic.moments.self_s", "s"),
    ("quartic.quartic_at.self_s", "s"),
    ("optim.particle_descent.s", "s"),
    ("optim.particle_descent.iters", "count"),
    ("optim.particle_descent.energy_evals", "count"),
    ("optim.particle_descent.armijo_accept_ratio", "ratio"),
    ("optim.marginal_sweep.s", "s"),
    ("optim.marginal_sweep.self_s", "s"),
    ("optim.marginal_sweep.sweeps", "count"),
    ("optim.marginal_sweep.solves", "count"),
    ("optim.marginal_sweep.accept_ratio", "ratio"),
    ("optim.generic.s", "s"),
    ("optim.generic.starts", "count"),
    ("optim.generic.nfev", "count"),
    ("optim.generic.win_ratio", "ratio"),
    ("optim.generic.scipy_self_s", "s"),
    ("experiments.write.s", "s"),
    ("experiments.write.bytes", "bytes"),
    ("svgplot.write.s", "s"),
    ("svgplot.write.bytes", "bytes"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]

TIME_UNITS = ("s", "us")
WIN_TOL = 1e-9   # a multi-start start "wins" when it ties the solve's best to this relative tolerance

# Groups of layer timings whose share of the traced pass time a traced run
# reports, to show which layer does the work on each workload.  The kernels
# are self times; the optimizers include their callees, so groups overlap.
SHARES = {
    "quartic.minimize_quartic.self": ["quartic.minimize_quartic.self_s"],
    "energy_core_kernels.self": ["core.sqdist.self_s", "core.profile.self_s",
                                 "energy.pair_energy.self_s", "energy.marginal_value.self_s",
                                 "energy.marginal_grad.self_s", "quartic.moments.self_s",
                                 "quartic.quartic_at.self_s"],
    "optim.generic": ["optim.generic.s"],
    "optim.marginal_sweep": ["optim.marginal_sweep.s"],
    "optim.particle_descent": ["optim.particle_descent.s"],
    "writers": ["experiments.write.s", "svgplot.write.s"],
}


class Tracer:
    """Spans of the traced passes, as parallel flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.aux = array("d")
        self.run_id = 0
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.work.append(0.0)
        self.aux.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, end: float, work: float = 0.0, aux: float = 0.0) -> None:
        self.end[idx] = end
        self.work[idx] = work
        self.aux[idx] = aux
        self._stack.pop()

    def arrays(self) -> dict:
        # copies, so that the arrays can still grow afterwards
        return {key: np.array(getattr(self, key))
                for key in ("name", "parent", "run", "start", "end", "work", "aux")}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _traced(tracer: Tracer, name: str, fn, measure):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, time.perf_counter())
            raise
        end = time.perf_counter()
        if measure is None:
            tracer.close(idx, end)
        else:
            tracer.close(idx, end, *measure(args, kwargs, out))
        return out

    return wrapper


class Patches:
    """Attribute rebindings, undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def rebind_everywhere(self, original, value) -> None:
        """Point every planmds module global bound to `original` at `value`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "planmds" or modname.startswith("planmds.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _elements(args, kwargs, out):
    return float(np.size(out)), 0.0


def _atoms(args, kwargs, out):
    return float(len(args[1])), 0.0


def _pairs(args, kwargs, out):
    mass2 = kwargs.get("mass2", args[6] if len(args) > 6 else None)
    k1 = len(args[2])
    return float(k1 * (k1 if mass2 is None else len(mass2))), 0.0


def _sweeps(args, kwargs, out):
    return float(out[1].n_sweeps), 0.0


def _file_bytes(path_index: int):
    def measure(args, kwargs, out):
        return float(os.path.getsize(args[path_index])), 0.0
    return measure


def _scipy_result(args, kwargs, res):
    return float(res.nfev), float(res.fun)


# (module, attribute, span name, work measure): functions one planmds module
# calls in another.  Every planmds global bound to the function is rebound.
_FUNCTIONS = [
    ("planmds.core", "_sqdist_matrix", "core.sqdist", _elements),
    ("planmds.energy", "_pair_energy", "energy.pair_energy", _pairs),
    ("planmds.energy", "_marginal_value_arrays", "energy.marginal_value", _atoms),
    ("planmds.energy", "_marginal_grad_arrays", "energy.marginal_grad", _atoms),
    ("planmds.quartic", "minimize_quartic", "quartic.minimize_quartic", None),
    ("planmds.quartic", "moments_from_arrays", "quartic.moments", _atoms),
    ("planmds.quartic", "quartic_at", "quartic.quartic_at", None),
    ("planmds.optim", "particle_descent", "optim.particle_descent", _sweeps),
    ("planmds.optim", "marginal_sweep", "optim.marginal_sweep", _sweeps),
    ("planmds.optim", "_solve_marginal_arrays", "optim.solve", None),
    ("planmds.optim", "_generic_solution", "optim.generic", None),
    ("planmds.experiments", "run_experiment", "experiments.run", None),
    ("planmds.experiments", "save_embedding_csv", "experiments.write", _file_bytes(0)),
    ("planmds.svgplot", "scatter_svg", "svgplot.write", _file_bytes(0)),
    ("planmds.svgplot", "levelset_svg", "svgplot.write", _file_bytes(0)),
    ("planmds.cli", "main", "cli.main", None),
]

# (module, class, method, span name, work measure).
_METHODS = [
    ("planmds.optim", "_SweepState", "replace_atom", "optim.move", None),
    ("planmds.optim", "_SweepState", "split_atom", "optim.move", None),
    ("planmds.core", "PointCloud", "save_csv", "experiments.write", _file_bytes(1)),
    ("planmds.optim", "IterationTrace", "save_csv", "experiments.write", _file_bytes(1)),
    ("planmds.experiments", "ExperimentReport", "to_json", "experiments.write", _file_bytes(1)),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Record spans into `tracer` for the duration of the block."""
    import scipy.optimize

    import planmds.core as core

    patches = Patches()
    try:
        for modname, attr, name, measure in _FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            patches.rebind_everywhere(original, _traced(tracer, name, original, measure))
        for modname, clsname, attr, name, measure in _METHODS:
            cls = getattr(sys.modules[modname], clsname)
            patches.set(cls, attr, _traced(tracer, name, cls.__dict__[attr], measure))
        for cls in vars(core).values():
            if (isinstance(cls, type) and issubclass(cls, core.CostFamily)
                    and cls is not core.CostFamily and "profile" in cls.__dict__):
                patches.set(cls, "profile",
                            _traced(tracer, "core.profile", cls.__dict__["profile"], _elements))
        # _generic_solution imports scipy.optimize.minimize at call time.
        patches.set(scipy.optimize, "minimize",
                    _traced(tracer, "scipy.minimize", scipy.optimize.minimize, _scipy_result))
        yield tracer
    finally:
        patches.restore()


def _pass_metrics(arr: dict, names: list[str], run: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    dur = arr["end"] - arr["start"]
    has_parent = arr["parent"] >= 0
    covered = np.bincount(arr["parent"][has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    self_time = dur - covered
    in_run = arr["run"] == run
    ids = {n: i for i, n in enumerate(names)}

    def spans(name):
        return in_run & (arr["name"] == ids.get(name, -1))

    def count(name):
        return float(np.count_nonzero(spans(name)))

    def total(values, name):
        return float(np.sum(values[spans(name)]))

    def children_of(child, parent):
        return spans(child) & np.isin(arr["parent"], np.nonzero(spans(parent))[0])

    out = {}
    for layer in ("core.sqdist", "core.profile"):
        out[f"{layer}.calls"] = count(layer)
        out[f"{layer}.elements"] = total(arr["work"], layer)
        out[f"{layer}.self_s"] = total(self_time, layer)
    out["core.bytes_computed"] = 8.0 * (out["core.sqdist.elements"]
                                        + out["core.profile.elements"])
    out["energy.pair_energy.calls"] = count("energy.pair_energy")
    out["energy.pair_energy.pairs"] = total(arr["work"], "energy.pair_energy")
    out["energy.pair_energy.self_s"] = total(self_time, "energy.pair_energy")
    out["energy.marginal_value.calls"] = count("energy.marginal_value")
    out["energy.marginal_value.atoms"] = total(arr["work"], "energy.marginal_value")
    out["energy.marginal_value.self_s"] = total(self_time, "energy.marginal_value")
    out["energy.marginal_grad.calls"] = count("energy.marginal_grad")
    out["energy.marginal_grad.self_s"] = total(self_time, "energy.marginal_grad")

    calls = count("quartic.minimize_quartic")
    out["quartic.minimize_quartic.calls"] = calls
    out["quartic.minimize_quartic.self_s"] = total(self_time, "quartic.minimize_quartic")
    out["quartic.minimize_quartic.us_per_call"] = (
        1e6 * total(dur, "quartic.minimize_quartic") / calls if calls else 0.0)
    out["quartic.moments.calls"] = count("quartic.moments")
    out["quartic.moments.atoms"] = total(arr["work"], "quartic.moments")
    out["quartic.moments.self_s"] = total(self_time, "quartic.moments")
    out["quartic.quartic_at.self_s"] = total(self_time, "quartic.quartic_at")

    iters = total(arr["work"], "optim.particle_descent")
    evals = float(np.count_nonzero(children_of("core.profile", "optim.particle_descent")))
    out["optim.particle_descent.s"] = total(dur, "optim.particle_descent")
    out["optim.particle_descent.iters"] = iters
    out["optim.particle_descent.energy_evals"] = evals
    # every energy evaluation after the initial one per descent is an Armijo trial
    trials = evals - count("optim.particle_descent")
    out["optim.particle_descent.armijo_accept_ratio"] = iters / trials if trials > 0 else 0.0

    solves = float(np.count_nonzero(children_of("optim.solve", "optim.marginal_sweep")))
    out["optim.marginal_sweep.s"] = total(dur, "optim.marginal_sweep")
    out["optim.marginal_sweep.self_s"] = total(self_time, "optim.marginal_sweep")
    out["optim.marginal_sweep.sweeps"] = total(arr["work"], "optim.marginal_sweep")
    out["optim.marginal_sweep.solves"] = solves
    out["optim.marginal_sweep.accept_ratio"] = (count("optim.move") / solves
                                                if solves else 0.0)

    starts = children_of("scipy.minimize", "optim.generic")
    best = np.full(len(dur), np.inf)
    np.minimum.at(best, arr["parent"][starts], arr["aux"][starts])
    best_of_start = best[arr["parent"][starts]]
    wins = arr["aux"][starts] <= best_of_start + WIN_TOL * (1.0 + np.abs(best_of_start))
    n_starts = float(np.count_nonzero(starts))
    out["optim.generic.s"] = total(dur, "optim.generic")
    out["optim.generic.starts"] = n_starts
    out["optim.generic.nfev"] = float(np.sum(arr["work"][starts]))
    out["optim.generic.win_ratio"] = float(np.count_nonzero(wins)) / n_starts if n_starts else 0.0
    out["optim.generic.scipy_self_s"] = float(np.sum(self_time[starts]))

    for layer in ("experiments.write", "svgplot.write"):
        out[f"{layer}.s"] = total(dur, layer)
        out[f"{layer}.bytes"] = total(arr["work"], layer)
    out["cli.main.s"] = total(dur, "cli.main")
    out["cli.main.self_s"] = total(self_time, "cli.main")
    out["trace.spans"] = float(np.count_nonzero(in_run))
    return out


def layer_metrics(tracer: Tracer, runs: list[int]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over the traced passes `runs`, and any count that differed.

    Timings are the median over the passes; counts come from the first pass
    and every later pass must reproduce them exactly.
    """
    arr = tracer.arrays()
    per_run = [_pass_metrics(arr, tracer.names, r) for r in runs]
    out, mismatches = {}, []
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_run]
        if unit in TIME_UNITS:
            out[name] = float(np.median(values))
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                mismatches.append(f"{name} differs between traced passes: {values}")
    return out, mismatches


def layer_shares(values: dict[str, float], pass_s: float) -> dict[str, float]:
    """Each group of SHARES as a fraction of the (median) traced pass time."""
    return {group: sum(values[m] for m in metrics) / pass_s
            for group, metrics in SHARES.items()}
