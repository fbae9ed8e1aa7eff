"""The certified branch and bound for attraction-repulsion (elastic) marginals."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planmds as pm
from planmds import optim
from planmds.core import _plan_arrays
from planmds.optim import minimize_marginal

from helpers import random_cloud, random_plan


def elastic_grid_oracle(plan, cloud, cost, x):
    """Least marginal value over a dense grid, each grid-local minimum refined by L-BFGS-B.

    Every minimizer y has K |y - c|^2 + q0 <= J(y) <= J(c) <= q0 + B, with
    K, c, q0 and B as in optim._generic_solution, so the grid covers the
    cube about c of half-width sqrt(B / K).
    """
    from scipy.optimize import minimize as sp_min

    X, mass, atoms = _plan_arrays(plan, cloud)
    m = atoms.shape[1]
    a = np.sum((X - x) ** 2, axis=1)
    wk, wr = mass * cost.attraction(a), mass * cost.repulsion(a)
    c = wk @ atoms / wk.sum()
    half = math.sqrt(wr.sum() / wk.sum()) + 1e-3
    ticks = np.linspace(-half, half, 20001 if m == 1 else 241)
    grid = np.stack(np.meshgrid(*[ticks] * m, indexing="ij"), axis=-1) + c
    s = np.sum((grid[..., None, :] - atoms) ** 2, axis=-1)
    J = np.sum(wk * s + wr * np.exp(-s), axis=-1)
    # grid points no higher than their axis neighbours (edges padded with +inf)
    padded = np.pad(J, 1, constant_values=np.inf)
    local = np.ones(J.shape, dtype=bool)
    for axis in range(m):
        for shift in (-1, 1):
            local &= J <= np.roll(padded, shift, axis=axis)[(slice(1, -1),) * m]
    best = math.inf
    for y0 in grid[local]:
        res = sp_min(lambda y: pm.marginal_value(plan, cloud, cost, x, y), y0,
                     jac=lambda y: pm.marginal_grad(plan, cloud, cost, x, y), method="L-BFGS-B",
                     options={"ftol": 1e-15, "gtol": 1e-11, "maxiter": 500})
        best = min(best, float(res.fun))
    return best


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.sampled_from([1, 2]),
       sigma=st.floats(0.3, 3.0), beta=st.floats(0.0, 4.0))
def test_certified_value_matches_grid_oracle(seed, n, m, sigma, beta):
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n, 2)
    plan = random_plan(rng, cloud, m)
    cost = pm.Elastic(sigma=sigma, beta=beta)
    x = cloud.points[0]
    sol = minimize_marginal(plan, cloud, cost, x)
    assert sol.certified
    for y in sol.minimizers:
        assert pm.marginal_value(plan, cloud, cost, x, y) <= sol.value + sol.gap
    oracle = elastic_grid_oracle(plan, cloud, cost, x)
    # no point lies below value - gap, and the oracle's value is a point's value
    assert sol.value - sol.gap <= oracle + 1e-12 * (1.0 + abs(oracle))
    assert sol.value <= oracle + sol.gap


def test_zero_repulsion_gives_the_attraction_mean():
    rng = np.random.default_rng(8)
    cloud = random_cloud(rng, 7, 3)
    plan = random_plan(rng, cloud, 2)
    cost = pm.Elastic(sigma=0.7, beta=0.0)
    X, mass, atoms = _plan_arrays(plan, cloud)
    for x in cloud.points[:3]:
        wk = mass * cost.attraction(np.sum((X - x) ** 2, axis=1))
        c = wk @ atoms / wk.sum()
        sol = minimize_marginal(plan, cloud, cost, x)
        assert sol.certified and sol.multiplicity_kind == "unique"
        assert np.allclose(sol.minimizers[0], c, rtol=0.0, atol=1e-12)


def test_far_point_without_attraction_returns_uncertified_promptly():
    # at distance 1e3 every attraction exp(-a / 2 sigma^2) underflows to 0:
    # J = sum wr exp(-s) falls toward 0 away from the atoms and has no minimizer
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 6, 2)
    plan = random_plan(rng, cloud, 2)
    x = np.array([1e3, -1e3])
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = minimize_marginal(plan, cloud, pm.Elastic(), x)
    assert time.perf_counter() - start < 1.0
    assert not sol.certified
    assert np.isfinite(sol.minimizers[0]).all() and math.isfinite(sol.value)


def test_far_point_with_tiny_attraction_returns_a_finite_point():
    # 36 to 40.5 from every source point the attraction exp(-a / 2 sigma^2) is
    # 1e-251 down to subnormal, then 0 at 40.75.  The root cube is then up to
    # 1e150 wide, bound (ii)'s curvature term overflows to -inf and bounds
    # nothing, and bound (i) carries the search; where the cube's half-width
    # itself overflows the best point is returned uncertified
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 6, 2)
    plan = random_plan(rng, cloud, 2)
    cost = pm.Elastic()
    X, mass, atoms = _plan_arrays(plan, cloud)
    weights = []
    for dist in np.arange(36.0, 41.01, 0.25):
        x = np.full(2, dist / math.sqrt(2.0))
        weights.append(math.fsum((mass * cost.attraction(np.sum((X - x) ** 2, axis=1))).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = minimize_marginal(plan, cloud, cost, x)
        assert math.isfinite(sol.value) and np.isfinite(sol.minimizers[0]).all()
        assert sol.value <= min(pm.marginal_value(plan, cloud, cost, x, y) for y in atoms)
        assert sol.certified or weights[-1] < 1e-300
    assert any(0.0 < K < np.finfo(float).tiny for K in weights) and weights[-1] == 0.0


@pytest.mark.parametrize("seed, n, sigma, beta", [(5, 6, 1.0, 1.0), (3, 8, 1.5, 4.0)])
def test_box_budget_returns_the_incumbent_uncertified(monkeypatch, seed, n, sigma, beta):
    from scipy.optimize import minimize as sp_min

    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n, 2)
    plan = random_plan(rng, cloud, 2)
    cost = pm.Elastic(sigma=sigma, beta=beta)
    x = cloud.points[1]
    full = minimize_marginal(plan, cloud, cost, x)
    monkeypatch.setattr(optim, "BOX_BUDGET", 2)
    cut = minimize_marginal(plan, cloud, cost, x)
    assert full.certified and not cut.certified
    assert np.isfinite(cut.minimizers[0]).all()
    assert cut.value >= full.value - full.gap
    # the returned point is the best of Newton steps from every start: a
    # stationary point no higher than a local descent from any atom (in the
    # second case the three best starts lead to a basin 0.56 above the least)
    X, mass, atoms = _plan_arrays(plan, cloud)
    local = min(sp_min(lambda y: pm.marginal_value(plan, cloud, cost, x, y), y,
                       jac=lambda y: pm.marginal_grad(plan, cloud, cost, x, y),
                       method="L-BFGS-B").fun for y in atoms)
    assert cut.value <= local + 1e-9 * (1.0 + abs(local))
    assert np.linalg.norm(pm.marginal_grad(plan, cloud, cost, x, cut.minimizers[0])) <= 1e-8


@pytest.mark.parametrize("m", [1, 2, 3])
def test_box_bounds_hold_at_sampled_points(m):
    # the lower bound of each box is below J, and lam below the Hessian's least
    # eigenvalue, at the corners and at random points of boxes 1e-3 to 4 wide
    # about the atoms
    rng = np.random.default_rng(m)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        J = optim._AttractionRepulsion(rng.normal(size=(k, m)), rng.uniform(0.0, 1.0, k),
                                       rng.uniform(0.0, 5.0, k))
        centre = J.Z[rng.integers(0, k, 40)] + rng.normal(size=(40, m))
        width = 10.0 ** rng.uniform(-3.0, 0.6, size=(40, m))
        lo, hi = centre - width / 2, centre + width / 2
        _, _, lam, lb = J.bounds(lo, hi)
        corners = np.indices((2,) * m).reshape(m, -1).T
        for b in range(40):
            P = np.concatenate([lo[b] + corners * width[b],
                                lo[b] + rng.uniform(size=(200, m)) * width[b]])
            val, _, H = J.evaluate(P)
            tol = 1e-12 * (1.0 + np.abs(val) + J.B)
            assert (val >= lb[b] - tol).all()
            assert (np.linalg.eigvalsh(H)[:, 0] >= lam[b] - tol).all()


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2, 3]), k=st.integers(1, 40),
       repulsion=st.sampled_from([1.0, 1e150]), far=st.sampled_from([1.0, 1e100, 1e154, 1e160]))
def test_values_are_those_of_evaluate(seed, m, k, repulsion, far):
    # the values-only evaluation returns evaluate's values bit for bit, over
    # more rows than one chunk, and raises where evaluate does: with
    # attraction weights at most 1, as a mass times an attraction is, a
    # gradient or Hessian overflows only where a value does, which one row
    # moved out by `far` brings about
    rng = np.random.default_rng(seed)
    J = optim._AttractionRepulsion(rng.normal(size=(k, m)), rng.uniform(0.0, 1.0, k),
                                   repulsion * rng.uniform(0.0, 5.0, k))
    P = 2.0 * rng.normal(size=(J.rows + int(rng.integers(1, 100)), m))
    P[rng.integers(len(P))] *= far
    try:
        expected = J.evaluate(P)[0]
    except pm.NumericalError:
        with pytest.raises(pm.NumericalError):
            J.values(P)
    else:
        assert J.values(P).tobytes() == expected.tobytes()


def test_elastic_sweep_bounds_few_rounds_a_row(monkeypatch):
    # each row's first bounds call gets the 8 x 8 cut of m = 2, and a box
    # that is not pruned is split by halving its two longest sides, so one
    # sweep from PCA bounds a row in few rounds (6.08 a row on average with
    # a 4 x 4 cut and boxes halved along their longest side alone)
    cloud = random_cloud(np.random.default_rng(0), 40, 3)
    plan = pm.plan_from_map(cloud, pm.pca_solve(cloud, 2))
    bounds, solve, rows = optim._AttractionRepulsion.bounds, optim._generic_solution, []

    def counted_bounds(self, lo, hi):
        rows[-1].append(len(lo))
        return bounds(self, lo, hi)

    def counted_solve(*args):
        rows.append([])
        return solve(*args)

    monkeypatch.setattr(optim._AttractionRepulsion, "bounds", counted_bounds)
    monkeypatch.setattr(optim, "_generic_solution", counted_solve)
    pm.marginal_sweep(plan, cloud, pm.Elastic(), pm.DescentConfig(max_sweeps=1))
    assert len(rows) == cloud.n
    assert sum(map(len, rows)) / len(rows) <= 3.5
    assert all(row[0] == 64 for row in rows)


def test_high_dimension_sweep_keeps_memory_bounded():
    # at m = 10 the first cut is the root cube alone (2^10 boxes exceed the
    # m = 3 cut), where 4^10 boxes took about 340 MB before any box was
    # bounded; boxes are bounded and Newton-stepped in tiles, and the energy
    # does not rise
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, 5, 3)
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(rng.normal(size=(5, 10))))
    tracemalloc.start()
    try:
        out, trace = pm.marginal_sweep(plan, cloud, pm.Elastic(), pm.DescentConfig(max_sweeps=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert trace.energies[-1] <= trace.energies[0]
    assert np.isfinite(trace.energies).all()


def test_first_cut_is_at_most_the_m3_cut(monkeypatch):
    # the first bounds call of an m = 10 solve gets at most ROOT_CELLS^3 = 64
    # boxes: none of a first cut is pruned before it is bounded, so a finer
    # one (3^10 = 59049 boxes fit in BOX_BUDGET) costs time and memory for nothing
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, 5, 3)
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(rng.normal(size=(5, 10))))
    bounds, boxes = optim._AttractionRepulsion.bounds, []

    def counted(self, lo, hi):
        boxes.append(len(lo))
        return bounds(self, lo, hi)

    monkeypatch.setattr(optim._AttractionRepulsion, "bounds", counted)
    minimize_marginal(plan, cloud, pm.Elastic(), cloud.points[0])
    assert 1 <= boxes[0] <= optim.ROOT_CELLS ** 3 == 64


def test_symmetric_marginal_has_two_minimizers():
    # both images at 0, so at x = 0 the marginal J(y) = K y^2 + W exp(-y^2),
    # K = 0.5 + 0.5 exp(-2) and W = 0.5 beta |x - 2|^2 = 2, is even in y, and
    # W > K pushes its minimizers off 0 to y^2 = log(W / K)
    cloud = pm.PointCloud([[0.0], [2.0]])
    plan = pm.plan_from_map(cloud, pm.DeterministicMap([[0.0], [0.0]]))
    sol = minimize_marginal(plan, cloud, pm.Elastic(beta=1.0), [0.0])
    y0 = math.sqrt(math.log(2.0 / (0.5 + 0.5 * math.exp(-2.0))))
    assert sol.certified and sol.multiplicity_kind == "finite_multiple"
    assert sorted(float(y[0]) for y in sol.minimizers) == pytest.approx([-y0, y0], abs=1e-9)
    assert float(pm.select_minimizer(sol)[0]) > 0.0


def test_elastic_sweep_runs_without_scipy():
    # planmds imports no scipy: an elastic marginal sweep runs with it blocked
    src = os.path.dirname(os.path.dirname(os.path.abspath(pm.__file__)))
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import numpy as np",
        "import planmds as pm",
        "cloud = pm.PointCloud(np.random.default_rng(0).normal(size=(10, 3)))",
        "plan = pm.plan_from_map(cloud, pm.pca_solve(cloud, 2))",
        "out, trace = pm.marginal_sweep(plan, cloud, pm.Elastic(), pm.DescentConfig(max_sweeps=2))",
        "assert trace.energies[-1] <= trace.energies[0]",
        "assert not any(name == 'scipy' or name.startswith('scipy.') for name in sys.modules"
        " if sys.modules[name] is not None)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

