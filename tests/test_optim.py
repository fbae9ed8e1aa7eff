"""Optimizers: particle descent, marginal sweep, marginal dispatch, PCA."""

from __future__ import annotations

import numpy as np
import pytest

import planmds as pm
from planmds.optim import (
    DescentConfig,
    _generic_solution,
    marginal_sweep,
    minimize_marginal,
    particle_descent,
    pca_solve,
)

from helpers import random_cloud, random_plan


def test_config_validation():
    with pytest.raises(pm.InputError):
        DescentConfig(max_sweeps=0)
    with pytest.raises(pm.InputError):
        DescentConfig(rel_tol=0.0)


def test_particle_descent_two_points():
    cloud = pm.PointCloud([[0.0], [1.0]])
    cfg = DescentConfig(max_sweeps=500, rel_tol=1e-15, seed=1, dim_m=1)
    mapping, trace = particle_descent(cloud, pm.QMDS(), cfg)
    assert abs(abs(mapping.images[0, 0] - mapping.images[1, 0]) - 1.0) < 1e-6
    assert pm.stress_map(cloud, mapping, pm.QMDS()) < 1e-12
    assert trace.final_grad_norm < 1e-8


def test_particle_descent_stationary_at_minimum():
    cloud = pm.PointCloud([[0.0], [1.0]])
    init = pm.DeterministicMap([[0.0], [1.0]])
    cfg = DescentConfig(max_sweeps=50, rel_tol=1e-14, init=init)
    mapping, _ = particle_descent(cloud, pm.QMDS(), cfg)
    assert np.allclose(mapping.images, init.images, atol=1e-12)


def test_particle_descent_energy_nonincreasing():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 15, 2)
    cfg = DescentConfig(max_sweeps=100, rel_tol=1e-12, seed=2, dim_m=1)
    _, trace = particle_descent(cloud, pm.QMDS(), cfg)
    for a, b in zip(trace.energies, trace.energies[1:]):
        assert b <= a + 1e-14


def test_minimize_marginal_quadratic_ip_eigenmap_fixed_point():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 3)) * np.array([2.0, 1.3, 0.7])
    X -= X.mean(axis=0)
    cloud = pm.PointCloud(X)
    C = (X.T * cloud.weights) @ X
    V = np.linalg.eigh(C)[1][:, ::-1][:, :2]
    A = V.T
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(X @ A.T))
    for i in range(5):
        sol = minimize_marginal(plan, cloud, pm.QuadraticIP(), X[i])
        assert np.allclose(sol.minimizers[0], A @ X[i], atol=1e-10)
        assert sol.certified


def test_minimize_marginal_single_atom_sphere():
    cloud = pm.PointCloud([[1.0, 0.0]])
    plan = pm.EmbeddingPlan([(np.array([1.0]), np.array([[2.0, 3.0]]))])
    x = np.array([1.0, 2.0])  # distance 2 from the support point
    sol = minimize_marginal(plan, cloud, pm.QMDS(), x)
    assert sol.multiplicity_kind == "continuum"
    for y in sol.minimizers:
        assert np.linalg.norm(y - [2.0, 3.0]) == pytest.approx(2.0, abs=1e-8)
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_minimize_marginal_generic_cost_best_effort():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 6, 2)
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(rng.normal(size=(6, 1))))
    sol = minimize_marginal(plan, cloud, pm.Elastic(), cloud.points[0],
                            DescentConfig(candidate_budget=6, seed=4))
    assert not sol.certified
    g = pm.marginal_grad(plan, cloud, pm.Elastic(), cloud.points[0], sol.minimizers[0])
    assert np.linalg.norm(g) < 1e-5


@pytest.mark.parametrize("cost", [
    pm.QMDS(), pm.QSammon(), pm.QuadraticIP(), pm.KernelIP(sigma=0.8),
    pm.KernelIP(kernel="polynomial", degree=3, offset=0.5), pm.Elastic(),
], ids=lambda c: c.name + ("-" + c.kernel if isinstance(c, pm.KernelIP) else ""))
def test_minimize_marginal_exact_for_quadratic_profiles(cost):
    # every cost with a quadratic profile gets a certified solve at least as
    # good as the multi-start local search; elastic alone stays best-effort
    rng = np.random.default_rng(11)
    for m in (1, 2):
        cloud = random_cloud(rng, 7, 2)
        plan = random_plan(rng, cloud, m)
        idx, mass, atoms = plan.flat()
        for x in (cloud.points[0], cloud.points[3], rng.normal(size=2)):
            sol = minimize_marginal(plan, cloud, cost, x)
            assert sol.certified == (cost.quadratic_scale is not None)
            value = min(pm.marginal_value(plan, cloud, cost, x, y) for y in sol.minimizers)
            assert sol.value == pytest.approx(value, rel=1e-10, abs=1e-12)
            generic = _generic_solution(cloud.points[idx], mass, atoms, cost, x, DescentConfig())
            assert value <= generic.value + 1e-8 * (1.0 + abs(value))


def test_sweep_collapses_split_row_in_one_sweep():
    cloud = pm.PointCloud([[0.0]])
    plan = pm.EmbeddingPlan([(np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]))])
    out, trace = marginal_sweep(plan, cloud, pm.QMDS(), DescentConfig(max_sweeps=1))
    assert len(out.row_masses[0]) == 1
    assert trace.energies[1] <= trace.energies[0]


def test_sweep_stacked_pair_projection_is_fixed_point():
    cloud = pm.PointCloud([[0.0, 1.0], [0.0, -1.0]])
    plan = pm.plan_from_map(cloud, pm.DeterministicMap([[1.0], [-1.0]]))
    out, trace = marginal_sweep(plan, cloud, pm.QMDS(),
                                DescentConfig(max_sweeps=10, rel_tol=1e-13))
    assert trace.energies[-1] == pytest.approx(trace.energies[0], rel=1e-12, abs=1e-12)
    for row in out.row_atoms:
        assert len(row) == 1
    assert sorted(float(a[0, 0]) for a in out.row_atoms) == pytest.approx([-1.0, 1.0], abs=1e-9)


def test_sweep_monotone_and_supported_on_minimal_graph():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(10, 30))
        cloud = random_cloud(rng, n, 2)
        init = pm.DeterministicMap(rng.normal(size=(n, 1)))
        plan, trace = marginal_sweep(pm.plan_from_map(cloud, init), cloud, pm.QMDS(),
                                     DescentConfig(max_sweeps=300, rel_tol=1e-13))
        for a, b in zip(trace.energies, trace.energies[1:]):
            assert b <= a + 1e-12 * (1 + abs(a))
        assert max(trace.max_delta) <= 1e-12
        sol_cache = {}
        for i in range(n):
            sol = minimize_marginal(plan, cloud, pm.QMDS(), cloud.points[i])
            for y in plan.row_atoms[i]:
                gap = (pm.marginal_value(plan, cloud, pm.QMDS(), cloud.points[i], y)
                       - sol.value)
                assert gap <= 1e-8 * (1 + abs(sol.value))
        assert pm.determinism_report(plan, 1e-10, 1e-10).is_deterministic


def test_sweep_energy_matches_stress_plan():
    # the sweep's energies come from lifted moments unless their rounding bound
    # is too wide, as for a 1-d cloud embedded almost isometrically (energy ~1e-10)
    rng = np.random.default_rng(9)
    for n, d in ((40, 1), (60, 2), (30, 3)):
        cloud = random_cloud(rng, n, d)
        init = pm.DeterministicMap(rng.normal(size=(n, 1)) + 5.0)
        plan, trace = marginal_sweep(pm.plan_from_map(cloud, init), cloud, pm.QMDS(),
                                     DescentConfig(max_sweeps=400, rel_tol=1e-13))
        exact = pm.stress_plan(plan, cloud, pm.QMDS())
        assert trace.energies[-1] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert trace.energies[0] == pytest.approx(
            pm.stress_plan(pm.plan_from_map(cloud, init), cloud, pm.QMDS()), rel=1e-12, abs=0.0)


def test_sweep_quadratic_ip_partial_moves_do_not_increase_energy():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(12, 3))
    X -= X.mean(axis=0)
    cloud = pm.PointCloud(X)
    init = pm.DeterministicMap(rng.normal(size=(12, 2)))
    plan, trace = marginal_sweep(pm.plan_from_map(cloud, init), cloud,
                                 pm.QuadraticIP(),
                                 DescentConfig(max_sweeps=30, rel_tol=1e-12))
    for a, b in zip(trace.energies, trace.energies[1:]):
        assert b <= a + 1e-12 * (1 + abs(a))


def test_pca_solve_examples():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 2)) * np.array([2.0, 1.0])
    X -= X.mean(axis=0)
    cloud = pm.PointCloud(X)
    mapping = pca_solve(cloud, 1)
    corr = np.corrcoef(mapping.images[:, 0], X[:, 0])[0, 1]
    assert abs(corr) > 0.99

    full = pca_solve(cloud, 2)
    assert pm.stress_map(cloud, full, pm.QuadraticIP()) < 1e-20
    with pytest.raises(pm.InputError):
        pca_solve(cloud, 3)


def test_pca_is_sweep_fixed_point_for_quadratic_ip():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 4)) * np.array([2.0, 1.5, 1.0, 0.5])
    X -= X.mean(axis=0)
    cloud = pm.PointCloud(X)
    mapping = pca_solve(cloud, 2)
    start = pm.plan_from_map(cloud, mapping)
    plan, trace = marginal_sweep(start, cloud, pm.QuadraticIP(),
                                 DescentConfig(max_sweeps=5, rel_tol=1e-13))
    assert trace.energies[-1] <= trace.energies[0] + 1e-12
    assert trace.energies[-1] == pytest.approx(trace.energies[0], abs=1e-10)
