"""The benchmark's tracer hooks planmds functions and methods by name.

bench/tracing.py rebinds them from outside the package, so renaming or
deleting one in src/ would break a traced benchmark run (`bench/run.py
--trace 1`) without failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
