"""Artifact writers: CSV and SVG text formatted from whole arrays, byte for byte
the text of the per-value formulas in helpers.py."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planmds as pm
from planmds import svgplot
from planmds.core import CHUNK_ROWS, _read_csv, _write_csv
from planmds.experiments import _plan_point_values

from helpers import (random_cloud, random_plan, reference_color_of, reference_csv_text,
                     reference_levelset_svg, reference_scatter_svg)

HOSTILE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 2.2250738585072014e-308,
                     1.7e308, -1.7e308, 1.7976931348623157e308, 0.1, 1 / 3]),
    st.integers(-2 ** 53, 2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _parse(row):
    """A data row's floats; a '#' row keeps its label."""
    if row[0].startswith("#"):
        return [row[0]] + [float(v) for v in row[1:]]
    return [float(v) for v in row]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pool=st.lists(HOSTILE, min_size=1, max_size=12),
       n_rows=st.sampled_from([0, 1, 2, CHUNK_ROWS, CHUNK_ROWS + 1]),
       n_cols=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), with_trailer=st.booleans())
def test_write_csv_bytes_match_per_value_format(tmp_path_factory, pool, n_rows, n_cols, seed,
                                                with_trailer):
    rng = np.random.default_rng(seed)
    rows = [[pool[k] for k in r] for r in rng.integers(len(pool), size=(n_rows, n_cols)).tolist()]
    table = np.array(rows, dtype=float).reshape(n_rows, n_cols)
    header = [f"c{j}" for j in range(n_cols)]
    trailer = ("# stress_zero", [pool[-1]] * (n_cols - 1)) if with_trailer else None
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    _write_csv(path, header, table, trailer)
    want = reference_csv_text(header, rows + ([(trailer[0], *trailer[1])] if trailer else []))
    assert path.read_bytes() == want.encode("utf-8")
    if n_rows == 0 and trailer is None:
        return
    got_header, records = _read_csv(path, lambda h: None, _parse)
    assert got_header == header
    if trailer is not None:
        assert records.pop() == [trailer[0]] + [float(v) for v in trailer[1]]
    assert np.array(records, dtype=float).reshape(n_rows, n_cols).tobytes() == table.tobytes()


def test_oscillation_csv_trailer_matches_per_value_format(tmp_path):
    pairs = [(1, 0.125), (2, -0.0), (8, 1.7e308)]
    path = tmp_path / "oscillation.csv"
    pm.energy.save_oscillation_csv(path, pairs, 5e-324)
    want = reference_csv_text(["n", "stress"], [*pairs, ("# stress_zero", 5e-324)])
    assert path.read_bytes() == want.encode("utf-8")


def _ties():
    """Values t whose ramp channel (1 - frac) * a + frac * b is exactly an odd multiple of 0.5."""
    ramp = [[Fraction(c) for c in stop] for stop in svgplot._RAMP.tolist()]
    ties = []
    for k in range(len(ramp) - 1):
        for j in range(1, 16):
            t = (k + j / 16) / (len(ramp) - 1)
            frac = Fraction(t * (len(ramp) - 1) - k)
            if any(((1 - frac) * a + frac * b) % 1 == Fraction(1, 2)
                   for a, b in zip(ramp[k], ramp[k + 1])):
                ties.append(t)
    return ties


def test_color_ramp_matches_scalar_formula():
    ties = _ties()
    assert len(ties) >= 8
    stops = [k / 8 for k in range(9)]
    outside = [-np.inf, -1e300, -1.0, -5e-324, -0.0, 1.0 + 2 ** -52, 2.0, 1e300, np.inf]
    rng = np.random.default_rng(0)
    t = np.array(ties + stops + outside + rng.uniform(-0.1, 1.1, 500).tolist())
    got = ["#%02x%02x%02x" % tuple(c) for c in svgplot.color_of(t).tolist()]
    assert got == [reference_color_of(v) for v in t]
    with pytest.raises(ValueError):
        svgplot.color_of([0.5, np.nan])


@pytest.mark.parametrize("n, constant, title", [
    (1, True, ""), (7, True, "particle descent, random init"),
    (2 * CHUNK_ROWS + 3, False, "marginal sweep"), (40, False, "")])
def test_scatter_svg_bytes_match_per_point_lines(tmp_path, n, constant, title):
    rng = np.random.default_rng(n)
    points = rng.normal(size=(n, 2)) * [3.0, 0.5]
    values = np.full(n, -0.25) if constant else rng.normal(size=n)
    path = tmp_path / "s.svg"
    svgplot.scatter_svg(path, points, values, title=title)
    assert path.read_bytes() == reference_scatter_svg(points, values, title).encode("utf-8")


@pytest.mark.parametrize("resolution, n, title", [(7, 49, ""), (200, CHUNK_ROWS + 7, "lambda")])
def test_levelset_svg_bytes_match_per_cell_lines(tmp_path, resolution, n, title):
    rng = np.random.default_rng(resolution)
    grid = [(rng.normal(size=2), float(lam), int(count))
            for lam, count in zip(rng.normal(size=n), rng.integers(1, 4, size=n))]
    assert any(count >= 2 for _, _, count in grid)
    path = tmp_path / "l.svg"
    svgplot.levelset_svg(path, grid, resolution, title=title)
    assert path.read_bytes() == reference_levelset_svg(grid, resolution, title).encode("utf-8")


def test_plan_point_values_match_row_formula():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 30, 2)
    plan = random_plan(rng, cloud, 2, max_atoms=3)
    idx, mass, atoms = plan.flat()
    atoms = np.array(atoms)
    atoms[::4, 0] = -0.0    # a -0.0 product is +0.0 after the dot product's sum
    plan = pm.EmbeddingPlan.from_flat(np.bincount(idx), mass, atoms)
    want = [float(m @ a[:, 0]) / float(np.sum(m)) for m, a in zip(plan.row_masses, plan.row_atoms)]
    assert min(len(m) for m in plan.row_masses) == 1 < max(len(m) for m in plan.row_masses)
    assert _plan_point_values(plan).tobytes() == np.array(want).tobytes()
