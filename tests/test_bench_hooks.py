"""The benchmark's tracer hooks planmds functions and methods by name.

bench/tracing.py rebinds them from outside the package, so renaming or
deleting one in src/ would break a traced benchmark run (`bench/run.py
--trace 1`) without failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("planmds_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_trace_hooks_resolve():
    tracing = _tracing()
    for modname, attr, *_ in tracing._FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr}"
    for modname, clsname, attr, *_ in tracing._METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(vars(cls).get(attr)), f"{modname}.{clsname}.{attr}"


def test_bench_trace_hooks_install_and_restore():
    tracing = _tracing()
    from planmds import optim

    before = optim._SweepState.replace_atom
    with tracing.installed(tracing.Tracer()):
        assert optim._SweepState.replace_atom is not before
    assert optim._SweepState.replace_atom is before


def test_bench_trace_counts_pair_energy_pairs_with_x2():
    # the tracer reads the mass arrays of _pair_energy by position (args[2],
    # args[6]) or as mass2=: a changed signature must not zero its pair count
    from planmds import QMDS, energy

    tracing = _tracing()
    rng = np.random.default_rng(0)
    X, Y, mass = rng.normal(size=(5, 2)), rng.normal(size=(5, 1)), rng.uniform(size=5)
    X2, Y2, mass2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 1)), rng.uniform(size=3)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        energy._pair_energy(X, Y, mass, QMDS(), X2, Y2, mass2)
        energy._pair_energy(X, Y, mass, QMDS(), X2=X2, Y2=Y2, mass2=mass2)
        energy._pair_energy(X, Y, mass, QMDS())
    metrics, _ = tracing.layer_metrics(tracer, [0])
    assert metrics["energy.pair_energy.calls"] == 3
    assert metrics["energy.pair_energy.pairs"] == 5 * 3 + 5 * 3 + 5 * 5


def test_bench_trace_counts_written_bytes(tmp_path):
    # the tracer reads each writer's path by position (a function's first
    # argument, a method's first after self): the bytes it counts must be the
    # sizes of the files written
    import planmds as pm
    from planmds import experiments, svgplot

    tracing = _tracing()
    rng = np.random.default_rng(0)
    cloud = pm.PointCloud(rng.normal(size=(6, 2)))
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(rng.normal(size=(6, 1))))
    trace = pm.IterationTrace()
    trace.add(2.5, 0.0, 0.0)
    trace.add(1.25, 0.125, 1.0)
    report = experiments.ExperimentReport("embed", 0, {"dim": 1}, [{"final_stress": 1.25}])
    paths = [tmp_path / name for name in ("embedding.csv", "cloud.csv", "trace.csv", "report.json")]
    svgs = [tmp_path / name for name in ("scatter.svg", "levelset.svg")]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        experiments.save_embedding_csv(str(paths[0]), cloud, plan)
        cloud.save_csv(str(paths[1]))
        trace.save_csv(str(paths[2]))
        report.to_json(str(paths[3]))
        svgplot.scatter_svg(str(svgs[0]), cloud.points, plan.flat()[2][:, 0], title="scatter")
        svgplot.levelset_svg(str(svgs[1]), [(x, float(x[0]), 1 + (x[1] > 0)) for x in cloud.points], 3)
    metrics, _ = tracing.layer_metrics(tracer, [0])
    assert all(p.stat().st_size > 0 for p in paths + svgs)
    assert metrics["experiments.write.bytes"] == sum(p.stat().st_size for p in paths)
    assert metrics["svgplot.write.bytes"] == sum(p.stat().st_size for p in svgs)
