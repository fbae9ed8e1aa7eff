"""Energies, the marginal problem and its derivatives, perturbations."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import planmds as pm
from planmds import energy
from planmds.energy import oscillation_experiment
from planmds.experiments import circle_clusters_analytic_init, circle_clusters_cloud

from helpers import random_cloud, random_plan


def all_costs():
    return [pm.QMDS(), pm.QSammon(), pm.QuadraticIP(), pm.KernelIP(),
            pm.Elastic()]


def test_stress_map_examples():
    cloud = pm.PointCloud([[0.0], [1.0]])
    qmds = pm.QMDS()
    identity = pm.DeterministicMap([[0.0], [1.0]])
    assert pm.stress_map(cloud, identity, qmds) == 0.0
    zero = pm.DeterministicMap([[0.0], [0.0]])
    assert pm.stress_map(cloud, zero, qmds) == pytest.approx(0.5)


def test_stress_map_reflection_symmetry():
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, 12, 3)
    images = rng.normal(size=(12, 2))
    qmds = pm.QMDS()
    a = pm.stress_map(cloud, pm.DeterministicMap(images), qmds)
    b = pm.stress_map(cloud, pm.DeterministicMap(-images), qmds)
    assert a == pytest.approx(b, rel=1e-14)


def test_stress_plan_examples():
    c1 = pm.PointCloud([[0.0]])
    split = pm.EmbeddingPlan([(np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]))])
    assert pm.stress_plan(split, c1, pm.QMDS()) == pytest.approx(8.0)
    single = pm.EmbeddingPlan([(np.array([1.0]), np.array([[2.0]]))])
    assert pm.stress_plan(single, c1, pm.QMDS()) == 0.0


def test_stress_plan_matches_stress_map():
    rng = np.random.default_rng(1)
    for cost in all_costs():
        cloud = random_cloud(rng, 9, 2)
        images = rng.normal(size=(9, 2))
        mapping = pm.DeterministicMap(images)
        a = pm.stress_map(cloud, mapping, cost)
        b = pm.stress_plan(pm.plan_from_map(cloud, mapping), cloud, cost)
        assert b == pytest.approx(a, rel=1e-12)


def test_translation_invariance_n2():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 8, 2)
    plan = random_plan(rng, cloud, 2)
    shift = rng.normal(size=2)
    shifted = pm.EmbeddingPlan(
        [(m, a + shift) for m, a in zip(plan.row_masses, plan.row_atoms)])
    for cost in (pm.QMDS(), pm.QSammon(), pm.Elastic()):
        a = pm.stress_plan(plan, cloud, cost)
        b = pm.stress_plan(shifted, cloud, cost)
        assert b == pytest.approx(a, rel=1e-12)


def test_orthogonal_invariance():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 8, 2)
    plan = random_plan(rng, cloud, 2)
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    rotated = pm.EmbeddingPlan(
        [(m, a @ Q.T) for m, a in zip(plan.row_masses, plan.row_atoms)])
    for cost in all_costs():
        a = pm.stress_plan(plan, cloud, cost)
        b = pm.stress_plan(rotated, cloud, cost)
        assert b == pytest.approx(a, rel=1e-10)


def test_marginal_value_examples():
    cloud = pm.PointCloud([[0.0]])
    plan = pm.EmbeddingPlan([(np.array([1.0]), np.array([[0.0]]))])
    qmds = pm.QMDS()
    assert pm.marginal_value(plan, cloud, qmds, [1.0], [1.0]) == 0.0
    assert pm.marginal_value(plan, cloud, qmds, [1.0], [0.0]) == 1.0


def test_marginal_grad_zero_at_trivial_match():
    cloud = pm.PointCloud([[0.0]])
    plan = pm.EmbeddingPlan([(np.array([1.0]), np.array([[0.0]]))])
    g = pm.marginal_grad(plan, cloud, pm.QMDS(), [1.0], [1.0])
    assert np.allclose(g, 0.0, atol=1e-14)


def test_marginal_grad_matches_finite_differences():
    rng = np.random.default_rng(4)
    h = 1e-5
    for cost in all_costs():
        for _ in range(20):
            cloud = random_cloud(rng, int(rng.integers(2, 7)), 2)
            m = int(rng.integers(1, 4))
            plan = random_plan(rng, cloud, m)
            x = rng.normal(size=2)
            y = rng.normal(size=m)
            g = pm.marginal_grad(plan, cloud, cost, x, y)
            fd = np.array([
                (pm.marginal_value(plan, cloud, cost, x, y + h * e)
                 - pm.marginal_value(plan, cloud, cost, x, y - h * e)) / (2 * h)
                for e in np.eye(m)])
            assert np.abs(g - fd).max() < 1e-6


def test_marginal_hessian_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for cost in all_costs():
        for _ in range(15):
            cloud = random_cloud(rng, int(rng.integers(2, 7)), 2)
            m = int(rng.integers(1, 4))
            plan = random_plan(rng, cloud, m)
            x = rng.normal(size=2)
            y = rng.normal(size=m)
            H = pm.marginal_hessian(plan, cloud, cost, x, y)
            fd = np.column_stack([
                (pm.marginal_grad(plan, cloud, cost, x, y + h * e)
                 - pm.marginal_grad(plan, cloud, cost, x, y - h * e)) / (2 * h)
                for e in np.eye(m)])
            assert np.abs(H - fd).max() < 1e-5


def test_quadratic_ip_hessian_is_constant_moment_matrix():
    rng = np.random.default_rng(6)
    cloud = random_cloud(rng, 6, 2)
    plan = random_plan(rng, cloud, 2)
    _, mass, atoms = plan.flat()
    expected = 2.0 * (atoms.T * mass) @ atoms
    for _ in range(3):
        H = pm.marginal_hessian(plan, cloud, pm.QuadraticIP(),
                                rng.normal(size=2), rng.normal(size=2))
        assert np.allclose(H, expected, atol=1e-12)


def test_stacked_pair_hessian_formula():
    cloud = pm.PointCloud([[0.0, 1.0], [0.0, -1.0]])
    plan = pm.plan_from_map(cloud, pm.DeterministicMap([[1.0], [-1.0]]))
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.normal(size=2)
        y = float(rng.normal())
        H = pm.marginal_hessian(plan, cloud, pm.QMDS(), x, [y])
        psi = float(x @ x) - 2.0
        assert H[0, 0] == pytest.approx(12 * y**2 - 4 * psi, rel=1e-10, abs=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_marginal_derivatives_raise_where_they_overflow():
    # a derivative either raises NumericalError or is finite, and never warns:
    # at the first point t(y, atoms) overflows; at the second, terms of both
    # signs overflow in one sum, which math.fsum rejects with a ValueError
    cases = [([[0.0], [1.0], [2.0]], [[0.0], [1e160], [-1e160]], 0.5, 3e150),
             ([[0.0], [1e200]], [[-1e200], [1e200]], 0.0, 1e200)]
    for points, images, x, y in cases:
        cloud = pm.PointCloud(points)
        plan = pm.plan_from_map(cloud, pm.DeterministicMap(images))
        for cost in all_costs() + [pm.KernelIP(kernel="polynomial", degree=3, offset=0.5)]:
            for derivative in (pm.marginal_grad, pm.marginal_hessian):
                try:
                    value = derivative(plan, cloud, cost, [x], [y])
                except pm.NumericalError:
                    continue
                assert np.isfinite(value).all()
    with np.errstate(over="ignore"), pytest.raises(pm.NumericalError):
        pm.marginal_value(plan, cloud, pm.QMDS(), [x], [y])


def test_perturbation_split_zero():
    rng = np.random.default_rng(8)
    cloud = random_cloud(rng, 4, 2)
    plan = random_plan(rng, cloud, 1)
    split = pm.perturbation_split(plan, cloud, pm.QMDS(), pm.Perturbation({}))
    assert split.linear == 0.0 and split.quadratic == 0.0


def test_needle_linear_term_is_marginal_difference():
    rng = np.random.default_rng(9)
    cloud = random_cloud(rng, 5, 2)
    plan = random_plan(rng, cloud, 2)
    cost = pm.QMDS()
    i = 2
    q = 0.5 * float(plan.row_masses[i][0])
    y_from = plan.row_atoms[i][0]
    y_to = rng.normal(size=2)
    gamma = pm.Perturbation.needle(i, q, y_from, y_to)
    split = pm.perturbation_split(plan, cloud, cost, gamma)
    x = cloud.points[i]
    expected = q * (pm.marginal_value(plan, cloud, cost, x, y_to)
                    - pm.marginal_value(plan, cloud, cost, x, y_from))
    assert split.linear == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_perturbation_identity_against_direct_evaluation():
    rng = np.random.default_rng(10)
    for _ in range(40):
        cloud = random_cloud(rng, int(rng.integers(2, 7)), 2)
        m = int(rng.integers(1, 3))
        plan = random_plan(rng, cloud, m)
        cost = pm.QMDS()
        i = int(rng.integers(0, cloud.n))
        q = 0.5 * float(plan.row_masses[i][0])
        gamma = pm.Perturbation.needle(i, q, plan.row_atoms[i][0], rng.normal(size=m))
        split = pm.perturbation_split(plan, cloud, cost, gamma)
        j0 = pm.stress_plan(plan, cloud, cost)
        for eps in (0.1, 0.5, 1.0):
            j1 = pm.stress_plan(pm.apply_perturbation(plan, gamma, eps), cloud, cost)
            assert abs((j1 - j0) - split.delta(eps)) <= 1e-10 * (1 + abs(j0))


def test_apply_perturbation_examples():
    plan = pm.EmbeddingPlan([(np.array([1.0]), np.array([[0.0]]))])
    gamma = pm.Perturbation.needle(0, 1.0, [0.0], [2.0])
    unchanged = pm.apply_perturbation(plan, gamma, 0.0)
    assert np.allclose(unchanged.row_atoms[0], plan.row_atoms[0])
    full = pm.apply_perturbation(plan, gamma, 1.0)
    assert len(full.row_masses[0]) == 1
    assert full.row_atoms[0][0, 0] == 2.0
    half = pm.apply_perturbation(plan, gamma, 0.5)
    assert sorted(half.row_masses[0]) == [0.5, 0.5]
    with pytest.raises(pm.InputError):
        pm.apply_perturbation(plan, gamma, 2.0)


def test_determinism_report_examples():
    cloud = pm.PointCloud([[0.0], [1.0]])
    det_plan = pm.plan_from_map(cloud, pm.DeterministicMap([[1.0], [2.0]]))
    rep = pm.determinism_report(det_plan, 1e-10, 1e-10)
    assert rep.split_mass_fraction == 0.0
    assert rep.max_spread == 0.0
    assert rep.is_deterministic

    split = pm.EmbeddingPlan([(np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]))])
    rep = pm.determinism_report(split, 1e-10, 1e-10)
    assert rep.split_mass_fraction == pytest.approx(0.5)
    assert rep.max_spread == pytest.approx(2.0)
    assert not rep.is_deterministic
    assert pm.determinism_report(split, 0.6, 2.5).is_deterministic


def test_determinism_report_coincident_spread():
    # rows 0, 2 and 4 are copies of one point: their atoms, pooled, span 5
    cloud = pm.PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 2.0], [-0.0, 0.0]])
    w = cloud.weights
    plan = pm.EmbeddingPlan([
        (w[0] * np.array([0.5, 0.5]), [[0.0, 0.0], [1.0, 1.0]]),
        (w[1] * np.array([0.5, 0.5]), [[0.0, 0.0], [10.0, 0.0]]),   # split, but one copy
        (w[2:3], [[3.0, 0.0]]),
        (w[3:4], [[7.0, 7.0]]),
        (w[4:5], [[0.0, 4.0]]),
    ])
    rep = pm.determinism_report(plan, 1e-10, 1e-10, cloud=cloud)
    assert (rep.coincident_spread, rep.max_spread) == (5.0, 10.0)
    assert pm.determinism_report(plan).coincident_spread is None
    # a map can send copies apart: that spread is reported, not judged
    apart = pm.plan_from_map(cloud, pm.DeterministicMap([[0.0], [1.0], [2.5], [3.0], [0.5]]))
    rep = pm.determinism_report(apart, cloud=cloud)
    assert rep.is_deterministic and rep.coincident_spread == 2.5
    # many copies: the tiled (m = 2) and sorted (m = 1) spreads equal the pairwise maximum
    rng = np.random.default_rng(4)
    for m in (1, 2):
        images = rng.normal(size=(300, m))
        many = pm.PointCloud(np.zeros((300, 1)))
        rep = pm.determinism_report(pm.plan_from_map(many, pm.DeterministicMap(images)), cloud=many)
        pairwise = np.sqrt(np.sum((images[:, None, :] - images[None, :, :]) ** 2, axis=-1))
        assert rep.coincident_spread == np.max(pairwise)


def test_oscillation_zero_amplitude():
    pairs, zero = oscillation_experiment([1, 2, 3], 8, v=0.0)
    for _, s in pairs:
        assert s == pytest.approx(zero, rel=1e-14)


def test_oscillation_improves_on_zero_map():
    # n = 1 is a constant map (identical energy to the zero map); every
    # genuinely oscillating pattern does strictly better on a fine enough grid
    pairs, zero = oscillation_experiment(range(1, 6), 32)
    assert pairs[0][1] == pytest.approx(zero, rel=1e-14)
    for n, s in pairs[1:]:
        assert s < zero


def test_nonconvexity_witness():
    # a linear map with small singular values beats the zero map while J(T) = J(-T)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 2))
    X -= X.mean(axis=0)
    cloud = pm.PointCloud(X)
    A = np.diag([np.sqrt(1.5), 0.5])
    images = X @ A.T
    qmds = pm.QMDS()
    jt = pm.stress_map(cloud, pm.DeterministicMap(images), qmds)
    jm = pm.stress_map(cloud, pm.DeterministicMap(-images), qmds)
    j0 = pm.stress_map(cloud, pm.DeterministicMap(np.zeros_like(images)), qmds)
    assert jt == pytest.approx(jm, rel=1e-12)
    assert jt < j0


def _untiled_pair_energy(X, Y, mass, cost, X2=None, Y2=None, mass2=None):
    """The pairwise energy with one dense matrix per 1024-row block, and one fsum of it."""
    if X2 is None:
        X2, Y2, mass2 = X, Y, mass
    totals = []
    for s in range(0, X.shape[0], 1024):
        e = min(s + 1024, X.shape[0])
        C = cost.profile(cost.base_matrix(X[s:e], X2), cost.t_matrix(Y[s:e], Y2))
        C *= mass[s:e, None]
        C *= mass2[None, :]
        totals.append(math.fsum(C.ravel()))
    return math.fsum(totals)


@pytest.mark.parametrize("cost", all_costs() + [pm.KernelIP("polynomial", degree=3)],
                         ids=lambda c: f"{c.name}-{getattr(c, 'kernel', '')}".rstrip("-"))
def test_tiled_pair_energy_is_bitwise_the_untiled_sum(monkeypatch, cost):
    # d = 4 and m = 3 make the kernel and the IP statistic BLAS products with
    # a real inner sum; K = 1100 and 2300 span more than one block, and the
    # small budget splits even the small blocks into tiles of 8 rows
    rng = np.random.default_rng(12)
    for K, budget in [(1, None), (7, None), (300, None), (1100, None), (2300, None),
                      (7, 1), (300, 1), (300, 2000)]:
        if budget is not None:
            monkeypatch.setattr(energy, "_TILE_ELEMENTS", budget)
        X, Y = rng.normal(size=(K, 4)), rng.normal(size=(K, 3))
        mass = rng.uniform(0.1, 1.0, size=K) / K
        K2 = K // 3 + 1
        X2, Y2, mass2 = rng.normal(size=(K2, 4)), rng.normal(size=(K2, 3)), rng.uniform(size=K2)
        assert energy._pair_energy(X, Y, mass, cost) == _untiled_pair_energy(X, Y, mass, cost)
        assert (energy._pair_energy(X, Y, mass, cost, X2, Y2, mass2)
                == _untiled_pair_energy(X, Y, mass, cost, X2, Y2, mass2))
        monkeypatch.undo()


def test_stress_map_memory_is_bounded():
    # the circle-clusters cloud (K = 2250) and its analytic init; one dense
    # 1024 x 2250 block of pair terms alone would take 18 MB
    cloud = circle_clusters_cloud(1)
    mapping = circle_clusters_analytic_init(cloud, 1000)
    tracemalloc.start()
    try:
        value = pm.stress_map(cloud, mapping, pm.QMDS())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 6.646115911108859
    assert peak <= 8 * 2**20
