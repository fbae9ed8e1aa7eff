"""Optimizers: particle descent, marginal sweep, marginal dispatch, PCA."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planmds as pm
from planmds import core, energy, experiments, optim, quartic
from planmds.core import MERGE_TOL
from planmds.optim import (
    MAX_HALVINGS,
    DescentConfig,
    _dense_objective,
    _SweepState,
    marginal_sweep,
    minimize_marginal,
    particle_descent,
    pca_solve,
)

from helpers import multistart_marginal_oracle, random_cloud, random_plan, serial_particle_descent


def test_config_validation():
    with pytest.raises(pm.InputError):
        DescentConfig(max_sweeps=0)
    with pytest.raises(pm.InputError):
        DescentConfig(rel_tol=0.0)
    for bad in ({"dim_m": 0}, {"dim_m": -1}, {"seed": -1}, {"rel_tol": float("nan")},
                {"max_sweeps": 2.5}, {"max_sweeps": float("inf")}, {"dim_m": 1.5},
                {"seed": 1.5}, {"rel_tol": float("inf")}):
        with pytest.raises(pm.InputError, match=next(iter(bad))):
            DescentConfig(**bad)


@pytest.mark.parametrize("make", [
    lambda cloud: DescentConfig(max_sweeps=True),
    lambda cloud: DescentConfig(seed=False),
    lambda cloud: DescentConfig(dim_m=True),
    lambda cloud: DescentConfig(rel_tol="1e-3"),
    lambda cloud: pca_solve(cloud, 2.0),
    lambda cloud: pca_solve(cloud, True),
], ids=["max_sweeps-bool", "seed-bool", "dim_m-bool", "rel_tol-str", "pca-float-m", "pca-bool-m"])
def test_wrong_types_raise_input_error(make):
    # a bool is an Integral but no count, seed or dimension, and a string is no
    # tolerance: each is an InputError (exit 2), not a TypeError from numpy
    cloud = random_cloud(np.random.default_rng(0), 5, 3)
    with pytest.raises(pm.InputError):
        make(cloud)


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


@pytest.mark.parametrize("cost", [pm.QuadraticIP(), pm.QSammon()], ids=lambda c: c.name)
def test_dense_objective_matches_stress_map_and_marginal_grad(cost):
    # particle descent's objective for every cost without a moment form
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 1.5, size=7)
    cloud = pm.PointCloud(rng.normal(size=(7, 3)), w / w.sum())
    Y = rng.normal(size=(7, 2))
    mapping = pm.DeterministicMap(Y)
    evaluate, max_batch = _dense_objective(cloud, cost)
    assert max_batch == 1
    (value,), gradient = evaluate(Y[None])
    assert value == pytest.approx(pm.stress_map(cloud, mapping, cost), rel=1e-12, abs=0.0)
    plan = pm.plan_from_map(cloud, mapping)
    grad = gradient(0)
    for i in range(cloud.n):
        want = 2.0 * cloud.weights[i] * pm.marginal_grad(plan, cloud, cost, cloud.points[i], Y[i])
        assert np.allclose(grad[i], want, rtol=1e-12, atol=1e-14)


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _descent_matches_serial_ladder(cloud, config, cost=pm.QMDS()):
    """particle_descent against the one-trial-a-build ladder: the same map, trace and error, bit for bit.

    Returns the trial each step accepted, or None when both raised.
    """
    try:
        want_map, want, accepted = serial_particle_descent(cloud, cost, config)
    except pm.NumericalError as exc:
        with pytest.raises(pm.NumericalError) as info:
            particle_descent(cloud, cost, config)
        assert str(info.value) == str(exc)
        return None
    mapping, trace = particle_descent(cloud, cost, config)
    assert mapping.images.tobytes() == want_map.images.tobytes()
    for name in ("energies", "split_mass", "moved_mass"):
        assert _bits(getattr(trace, name)) == _bits(getattr(want, name))
    assert _bits(trace.final_grad_norm) == _bits(want.final_grad_norm)
    return accepted


def _record_batches(monkeypatch) -> list:
    """The number of trial maps of every moment build particle descent makes from now on."""
    sizes, map_objective = [], optim.map_objective

    def recording(*args):
        evaluate, max_batch = map_objective(*args)

        def recorded(Ys):
            sizes.append(len(Ys))
            return evaluate(Ys)

        return recorded, max_batch

    monkeypatch.setattr(optim, "map_objective", recording)
    return sizes


def _descent_problem(seed, n, d, m, offset=0.0, max_sweeps=60, rel_tol=1e-9):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=n)
    cloud = pm.PointCloud(rng.normal(size=(n, d)) + offset, w / w.sum())
    init = pm.DeterministicMap(rng.normal(size=(n, m)) + offset * rng.uniform())
    return cloud, DescentConfig(max_sweeps=max_sweeps, rel_tol=rel_tol, init=init, dim_m=m)


@settings(max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from([0.0, 1.0, 1e3, 1e6]), st.integers(1, 80), st.sampled_from([1e-9, 1e-300]))
@example(5, 7, 1, 1, 0.0, 400, 1e-300)   # ends with MAX_HALVINGS trials failed
@example(0, 1, 2, 2, 1e6, 10, 1e-9)      # one point: the gradient is exactly zero
def test_batched_ladder_is_the_serial_ladder(seed, n, d, m, offset, max_sweeps, rel_tol):
    # the Armijo trials of a step are built in batches, but read one at a time
    cloud, config = _descent_problem(seed, n, d, m, offset, max_sweeps, rel_tol)
    _descent_matches_serial_ladder(cloud, config)


def test_batched_ladder_edge_cases(monkeypatch):
    sizes = _record_batches(monkeypatch)
    # steps past the first batch: an accepted trial deeper than both before it
    accepted = _descent_matches_serial_ladder(*_descent_problem(0, 12, 3, 2, max_sweeps=30))
    assert any(b > max(a, c) >= 1 for c, a, b in zip(accepted, accepted[1:], accepted[2:]))
    assert len(sizes) > len(accepted) + 1 and max(sizes) > 1
    # every trial of the last step fails
    accepted = _descent_matches_serial_ladder(
        *_descent_problem(5, 7, 1, 1, max_sweeps=400, rel_tol=1e-300))
    assert accepted[-1] == MAX_HALVINGS
    # a zero gradient ends the descent before any trial
    accepted = _descent_matches_serial_ladder(*_descent_problem(0, 1, 2, 2))
    assert accepted == []
    # the first trial's energy overflows: the same NumericalError as trial by trial
    cloud, config = _descent_problem(3, 6, 2, 2)
    cloud = pm.PointCloud(cloud.points * 1e40, cloud.weights)
    config.init = pm.DeterministicMap(config.init.images * 1e40)
    assert _descent_matches_serial_ladder(cloud, config) is None
    with pytest.raises(pm.NumericalError, match="non-finite energy at iteration 0"):
        particle_descent(cloud, pm.QMDS(), config)


def test_ladder_builds_one_trial_while_full_steps_pass(monkeypatch):
    # particle descent on circle-clusters accepts eta = 1 at every step: one
    # trial a build, so a large cloud does not pay for trials it never reads
    sizes = _record_batches(monkeypatch)
    cloud = experiments.circle_clusters_cloud(0, 10)
    config = DescentConfig(max_sweeps=3, rel_tol=1e-9, init="random", dim_m=1)
    assert _descent_matches_serial_ladder(cloud, config) == [0, 0, 0]
    assert sizes == [1, 1, 1, 1]


def test_ladder_batches_fit_the_tile(monkeypatch):
    # J n (d + m + 2) features at most, and at least one trial a build
    sizes = _record_batches(monkeypatch)
    cloud, config = _descent_problem(4, 9, 3, 2, max_sweeps=40)
    features = 9 * (3 + 2 + 2)
    for tile in (1, 2 * features, 3 * features):
        monkeypatch.setattr(energy, "_TILE_ELEMENTS", tile)
        sizes.clear()
        _descent_matches_serial_ladder(cloud, config)
        assert max(sizes) == max(1, tile // features)


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


def test_minimize_marginal_generic_cost_elastic_certified():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 6, 2)
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(rng.normal(size=(6, 1))))
    sol = minimize_marginal(plan, cloud, pm.Elastic(), cloud.points[0])
    assert sol.certified
    g = pm.marginal_grad(plan, cloud, pm.Elastic(), cloud.points[0], sol.minimizers[0])
    assert np.linalg.norm(g) < 1e-5


@pytest.mark.parametrize("cost", [
    pm.QMDS(), pm.QSammon(), pm.QuadraticIP(), pm.KernelIP(sigma=0.8),
    pm.KernelIP(kernel="polynomial", degree=3, offset=0.5), pm.Elastic(),
], ids=lambda c: c.name + ("-" + c.kernel if isinstance(c, pm.KernelIP) else ""))
def test_minimize_marginal_exact_for_quadratic_profiles(cost):
    # every cost gets a certified solve at least as good as the multi-start
    # local search: exact for a quadratic profile, a branch and bound for elastic
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        cloud = random_cloud(rng, 7, 2)
        plan = random_plan(rng, cloud, m)
        idx, mass, atoms = plan.flat()
        for x in (cloud.points[0], cloud.points[3], rng.normal(size=2)):
            sol = minimize_marginal(plan, cloud, cost, x)
            assert sol.certified
            value = min(pm.marginal_value(plan, cloud, cost, x, y) for y in sol.minimizers)
            assert sol.value == pytest.approx(value, rel=1e-10, abs=1e-12)
            generic = multistart_marginal_oracle(cloud.points[idx], mass, atoms, cost, x,
                                                 DescentConfig())
            assert value <= generic.value + 1e-8 * (1.0 + abs(value))


@pytest.mark.parametrize("cost", [pm.QSammon(), pm.QMDS()], ids=lambda c: c.name)
def test_minimize_marginal_certifies_a_tiny_cloud(cost):
    # minimizers far below unit scale, where minimize_quartic's absolute
    # tolerances hold only after the solve's power-of-two rescale
    cloud = pm.PointCloud(1e-6 * np.random.default_rng(3).normal(size=(12, 3)))
    for m in (1, 2, 3):
        plan = pm.plan_from_map(cloud, pca_solve(cloud, m))
        for x in cloud.points:
            sol = minimize_marginal(plan, cloud, cost, x)
            assert sol.certified and sol.multiplicity_kind == "unique"


@pytest.mark.parametrize("cost", [pm.QSammon(), pm.QuadraticIP(), pm.KernelIP(), pm.Elastic()],
                         ids=lambda c: c.name)
def test_sweep_and_solve_read_no_profile_derivative(cost, monkeypatch):
    # they read marginal values alone: only marginal_grad and marginal_hessian
    # take a t-derivative of the profile
    def unread(a, t):
        raise AssertionError("profile_dt was read")

    monkeypatch.setattr(cost, "profile_dt", unread)
    cloud = random_cloud(np.random.default_rng(0), 12, 3)
    plan = pm.plan_from_map(cloud, pca_solve(cloud, 2))
    plan, _ = marginal_sweep(plan, cloud, cost, DescentConfig(max_sweeps=2, rel_tol=1e-15))
    minimize_marginal(plan, cloud, cost, cloud.points[0])


PAIRWISE_COSTS = [pm.QSammon(), pm.QuadraticIP(), pm.KernelIP(), pm.Elastic()]


@pytest.mark.parametrize("cost", PAIRWISE_COSTS, ids=lambda c: c.name)
def test_sweep_step_computes_one_base_row(cost, monkeypatch):
    # a step's solve, its certificate value and its gain test share one
    # base(x, X) row: one sweep over the plan of a map with n rows makes n
    rows = []
    base_matrix = cost.base_matrix

    def counted(X1, X2):
        if len(X1) == 1 and len(X2) > 1:
            rows.append(len(X2))
        return base_matrix(X1, X2)

    monkeypatch.setattr(cost, "base_matrix", counted)
    cloud = random_cloud(np.random.default_rng(3), 12, 3)
    plan = pm.plan_from_map(cloud, pca_solve(cloud, 2))
    marginal_sweep(plan, cloud, cost, DescentConfig(max_sweeps=1))
    assert len(rows) == cloud.n


def test_qsammon_step_reads_its_row_quartic_alone(monkeypatch):
    # a qsammon step solves, and values y_old and y_new for its gain test,
    # from its row's own weighted quartic: it builds no plan-wide lifted
    # moments and values no pairwise marginal
    builds, values = [], []
    init, objective = quartic.LiftedMoments.__init__, optim._marginal_objective

    def counted_init(self, *args):
        builds.append(1)
        init(self, *args)

    def counted_objective(*args, **kwargs):
        value = objective(*args, **kwargs)

        def counted(y):
            values.append(1)
            return value(y)

        return counted

    monkeypatch.setattr(quartic.LiftedMoments, "__init__", counted_init)
    monkeypatch.setattr(optim, "_marginal_objective", counted_objective)
    cloud = random_cloud(np.random.default_rng(3), 12, 3)
    plan = pm.plan_from_map(cloud, pca_solve(cloud, 2))
    _, trace = marginal_sweep(plan, cloud, pm.QSammon(), DescentConfig(max_sweeps=1))
    assert trace.moved_mass[1] > 0.0
    assert builds == [] and values == []


@pytest.mark.parametrize("cost", [pm.QuadraticIP(), pm.KernelIP()], ids=lambda c: c.name)
def test_ip_step_reads_its_normal_equations_alone(cost, monkeypatch):
    # an IP step solves its full-rank normal equations by LDL^T and values
    # the solution and y_old from G, r and c0: no pairwise marginal value
    # and no lstsq
    objectives, lstsq_calls = [], []
    objective, lstsq = energy._marginal_objective, np.linalg.lstsq

    def counted_objective(*args, **kwargs):
        objectives.append(1)
        return objective(*args, **kwargs)

    def counted_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return lstsq(*args, **kwargs)

    for module in (optim, energy):
        monkeypatch.setattr(module, "_marginal_objective", counted_objective)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    cloud = random_cloud(np.random.default_rng(3), 12, 3)
    plan = pm.plan_from_map(cloud, pca_solve(cloud, 2))
    _, trace = marginal_sweep(plan, cloud, cost, DescentConfig(max_sweeps=1))
    assert trace.moved_mass[1] > 0.0
    assert objectives == [] and lstsq_calls == []


@pytest.mark.parametrize("cost", [pm.QMDS(), pm.QSammon(), pm.QuadraticIP(), pm.KernelIP(),
                                  pm.KernelIP(kernel="polynomial", degree=3), pm.Elastic()],
                         ids=lambda c: f"{c.name}-{getattr(c, 'kernel', '')}".rstrip("-"))
def test_sweep_reads_a_constant_self_base(cost, monkeypatch):
    # the needle's base(x, x) is the cost's constant where it declares one;
    # only the others compute it, once for each distinct point
    singles = []
    base_matrix = cost.base_matrix

    def counted(X1, X2):
        if len(X1) == 1 and len(X2) == 1:
            singles.append(1)
        return base_matrix(X1, X2)

    monkeypatch.setattr(cost, "base_matrix", counted)
    cloud = random_cloud(np.random.default_rng(3), 12, 3)
    plan = pm.plan_from_map(cloud, pca_solve(cloud, 2))
    marginal_sweep(plan, cloud, cost, DescentConfig(max_sweeps=1))
    assert len(singles) == (0 if cost.self_base is not None else cloud.n)


def _least_squares_term_magnitude(X, mass, atoms, cost, x, y) -> float:
    """fsum of the magnitudes of the terms of J(y) = sum_b w_b (a_b - sum_i y_i y_bi)^2
    expanded, as c0 - 2 y.r + y^T G y expands it: the scale of its rounding."""
    a = energy._base_row(cost, x, X)
    w = mass / cost.quadratic_scale(a)
    return math.fsum(w * (np.abs(a) + np.abs(atoms) @ np.abs(np.asarray(y, dtype=float))) ** 2)


IP_COSTS = [pm.QuadraticIP(), pm.KernelIP(), pm.KernelIP(kernel="polynomial", degree=3, offset=0.5)]


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), k=st.integers(-30, 30),
       cost=st.sampled_from(IP_COSTS),
       layout=st.sampled_from(["random", "single", "collinear", "origin"]))
def test_normal_equations_match_lstsq_and_pairwise_marginal(seed, m, k, cost, layout):
    # an IP row with coordinates scaled by 2^k, its atoms in general
    # position, all at one point, on one line through the origin or all at
    # the origin: the solve's kind is lstsq's rank rule on the same G, its
    # certified minimizer is no worse than a multi-start local search, and
    # J from (G, r, c0) is the pairwise marginal to the rounding of its terms.
    # The line's direction has power-of-two components, so its atoms are
    # collinear in floats too: atoms that are collinear only to rounding
    # give a G of rank m whose least singular value the rank rule drops, and
    # points far along that direction are lower by more than rounding
    rng = np.random.default_rng(seed)
    scale = 2.0 ** k
    cloud = pm.PointCloud(scale * random_cloud(rng, 6, 2).points)
    direction = rng.choice([-1.0, 1.0], size=m) * 2.0 ** rng.integers(-2, 3, size=m)
    rows = []
    for w in cloud.weights:
        q = rng.uniform(0.2, 1.0, size=int(rng.integers(1, 3)))
        atoms = {"random": rng.normal(size=(len(q), m)),
                 "single": np.tile(direction, (len(q), 1)),
                 "collinear": rng.normal(size=(len(q), 1)) * direction,
                 "origin": np.zeros((len(q), m))}[layout]
        rows.append((q / q.sum() * w, scale * atoms))
    plan = pm.EmbeddingPlan(rows)
    idx, mass, atoms = plan.flat()
    X, x = cloud.points[idx], cloud.points[0]
    a = energy._base_row(cost, x, X)
    Aw = atoms.T * (mass / cost.quadratic_scale(a))
    rank = np.linalg.lstsq(Aw @ atoms, Aw @ a, rcond=None)[2]
    sol = optim._solve_marginal_arrays(X, mass, atoms, cost, x)[0]
    assert sol.multiplicity_kind == ("unique" if rank == m else "continuum")
    assert sol.certified
    pairwise = energy._marginal_objective(mass, atoms, cost, a)
    y = pm.select_minimizer(sol)
    tol = 1e-12 * _least_squares_term_magnitude(X, mass, atoms, cost, x, y)
    assert abs(sol.value - pairwise(y)) <= tol
    oracle = multistart_marginal_oracle(X, mass, atoms, cost, x, DescentConfig(seed=seed))
    # a rank-deficient G leaves a line or plane of minimizers, along which
    # the search may end far out, where its value's rounding is larger
    tol = max(tol, 1e-12 * _least_squares_term_magnitude(X, mass, atoms, cost, x,
                                                         oracle.minimizers[0]))
    assert pairwise(y) <= oracle.value + tol
    for y in scale * rng.normal(size=(3, m)):
        _, j_old, _ = optim._solve_marginal_arrays(X, mass, atoms, cost, x, y_old=y.tolist())
        assert abs(j_old - pairwise(y)) <= 1e-12 * _least_squares_term_magnitude(
            X, mass, atoms, cost, x, y)


def _quartic_term_magnitude(X, mass, atoms, cost, x, y) -> float:
    """fsum of the magnitudes of the terms of W J(y) = sum_b w_b (c_b - |u|^2 + 2 u.z_b)^2,
    u = y - ybar, z_b = y_b - ybar and c_b = a_b - |z_b|^2: the scale of its rounding."""
    a = energy._base_row(cost, x, X)
    w = mass / cost.quadratic_scale(a)
    ybar = (w / np.sum(w)) @ atoms
    u, Z = np.asarray(y) - ybar, atoms - ybar
    c = a - np.sum(Z * Z, axis=1)
    return math.fsum(w * (np.abs(c) + u @ u + 2.0 * np.abs(Z @ u)) ** 2)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3), k=st.integers(-30, 30),
       eps=st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_weighted_quartic_matches_pairwise_marginal(seed, m, k, eps):
    # a qsammon row at x = x_0, whose own atom weighs m_0 / eps, with the
    # coordinates scaled by 2^k: the solve's W J(y) is the pairwise marginal
    # to the rounding of the quartic's terms, and its certified minimizer is
    # no worse than a multi-start local search
    rng = np.random.default_rng(seed)
    scale = 2.0 ** k
    cloud = random_cloud(rng, 6, 2)
    cloud = pm.PointCloud(scale * cloud.points)
    rows = []
    for w in cloud.weights:
        q = rng.uniform(0.2, 1.0, size=int(rng.integers(1, 3)))
        rows.append((q / q.sum() * w, scale * rng.normal(size=(len(q), m))))
    plan = pm.EmbeddingPlan(rows)
    cost = pm.QSammon(eps)
    idx, mass, atoms = plan.flat()
    X, x = cloud.points[idx], cloud.points[0]
    for y in scale * rng.normal(size=(3, m)):
        _, wj, _ = optim._solve_marginal_arrays(X, mass, atoms, cost, x, y_old=y.tolist())
        pairwise = energy._marginal_objective(mass, atoms, cost, energy._base_row(cost, x, X))(y)
        assert abs(wj - pairwise) <= 1e-12 * _quartic_term_magnitude(X, mass, atoms, cost, x, y)
    sol = minimize_marginal(plan, cloud, cost, x)
    assert sol.certified
    y = pm.select_minimizer(sol)
    value = pm.marginal_value(plan, cloud, cost, x, y)
    oracle = multistart_marginal_oracle(X, mass, atoms, cost, x, DescentConfig(seed=seed))
    assert value <= oracle.value + 1e-12 * _quartic_term_magnitude(X, mass, atoms, cost, x, y)


def test_overflowing_pair_weights_raise_numerical_error():
    # m / eps overflows for a self pair (a = 0) at eps = 1e-320: an error
    # that names the weights, and no numpy warning
    cost = pm.QSammon(eps=1e-320)
    cloud = random_cloud(np.random.default_rng(0), 12, 3)
    plan = pm.plan_from_map(cloud, pca_solve(cloud, 2))
    with pytest.raises(pm.NumericalError, match="pair weights"):
        marginal_sweep(plan, cloud, cost, DescentConfig(max_sweeps=1))
    with pytest.raises(pm.NumericalError, match="pair weights"):
        minimize_marginal(plan, cloud, cost, cloud.points[0])


@pytest.mark.parametrize("cost", PAIRWISE_COSTS, ids=lambda c: c.name)
def test_particle_descent_builds_one_t_matrix_a_trial(cost, monkeypatch):
    # a trial map's energy and gradient share its t matrix
    trials, t_calls = [], []
    dense_objective, t_matrix = optim._dense_objective, cost.t_matrix

    def counted_objective(cloud, cost):
        evaluate, max_batch = dense_objective(cloud, cost)

        def counted(Ys):
            trials.append(len(Ys))
            return evaluate(Ys)

        return counted, max_batch

    def counted_t(Y1, Y2):
        t_calls.append(len(Y1))
        return t_matrix(Y1, Y2)

    monkeypatch.setattr(optim, "_dense_objective", counted_objective)
    monkeypatch.setattr(cost, "t_matrix", counted_t)
    cloud = random_cloud(np.random.default_rng(3), 12, 3)
    _, trace = particle_descent(cloud, cost, DescentConfig(max_sweeps=20, rel_tol=1e-15,
                                                           dim_m=2))
    assert trace.n_sweeps > 0   # every accepted step read a gradient
    assert len(t_calls) == sum(trials)


@pytest.mark.parametrize("cost", [pm.QMDS(), pm.QuadraticIP()], ids=lambda c: c.name)
def test_sweep_that_moves_nothing_is_not_revalued(cost, monkeypatch):
    # the last sweep moves nothing: its trace entry repeats the energy and
    # split mass of the plan it left as it was, and plan_energy is not called
    # for it: qmds from a random map, quadratic-ip from PCA
    calls = []
    plan_energy = optim.plan_energy

    def counted(*args, **kwargs):
        calls.append(1)
        return plan_energy(*args, **kwargs)

    monkeypatch.setattr(optim, "plan_energy", counted)
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, 10, 2)
    init = (pca_solve(cloud, 1) if cost.kind == "IP"
            else pm.DeterministicMap(rng.normal(size=(10, 1))))
    out, trace = marginal_sweep(pm.plan_from_map(cloud, init), cloud, cost,
                                DescentConfig(max_sweeps=300, rel_tol=1e-15))
    assert trace.moved_mass[-1] == 0.0
    assert len(calls) == len(trace.energies) - 1
    assert trace.energies[-1] == trace.energies[-2]
    assert trace.split_mass[-1] == trace.split_mass[-2]
    assert trace.max_delta[-1] == 0.0
    exact = pm.stress_plan(out, cloud, cost)
    assert trace.energies[-1] == pytest.approx(exact, rel=1e-12, abs=0.0)


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


def test_sweep_stops_at_rel_tol():
    # a sweep that moved mass but gained less than rel_tol (1 + |E|) is the last
    rng = np.random.default_rng(10)
    cloud = random_cloud(rng, 12, 2)
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(rng.normal(size=(12, 1))))
    _, tight = marginal_sweep(plan, cloud, pm.QMDS(), DescentConfig(max_sweeps=20, rel_tol=1e-14))
    _, loose = marginal_sweep(plan, cloud, pm.QMDS(), DescentConfig(max_sweeps=20, rel_tol=1e-3))
    assert loose.n_sweeps < tight.n_sweeps
    assert loose.energies == tight.energies[:len(loose.energies)]
    assert loose.moved_mass[-1] > 0.0
    E = loose.energies
    assert E[-2] - E[-1] <= 1e-3 * (1.0 + abs(E[-1]))
    assert all(a - b > 1e-3 * (1.0 + abs(b)) for a, b in zip(E[:-2], E[1:-1]))


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


BOOKKEEPING = settings(max_examples=60)
quarters = st.integers(-8, 8).map(lambda k: k / 4.0)
near = st.floats(-MERGE_TOL / 2, MERGE_TOL / 2)


@st.composite
def split_plans(draw):
    """(cloud, plan): 1-3 atoms a row on a grid of quarters, some within MERGE_TOL/2 of a sibling.

    Distinct atoms lie on the grid, at least 0.25 apart, so which sibling a
    target near one of them merges into never depends on the order of a row.
    """
    d, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(2, 5))
    cloud = pm.PointCloud([draw(st.lists(quarters, min_size=d, max_size=d)) for _ in range(n)])
    rows = []
    for i in range(n):
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            if atoms and draw(st.booleans()):
                atoms.append([a + draw(near) for a in atoms[-1]])
            else:
                atoms.append(draw(st.lists(quarters, min_size=m, max_size=m)))
        q = np.array(draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms))),
                     float)
        rows.append((q / q.sum() * cloud.weights[i], np.array(atoms)))
    return cloud, pm.EmbeddingPlan(rows)


def _rows(masses, atoms):
    """Rows as sorted (atom, mass) lists: a plan up to the order within its rows."""
    return [sorted(zip(a.tolist(), q.tolist())) for q, a in zip(masses, atoms)]


@BOOKKEEPING
@given(split_plans(), st.sampled_from(["quadratic-ip", "kernel-ip", "qmds"]))
def test_sweep_bookkeeping(case, cost_name):
    # quadratic-ip and kernel-ip make partial moves, so rows split; qmds consolidates them
    cloud, plan = case
    cost = pm.make_cost(cost_name)
    out, trace = marginal_sweep(plan, cloud, cost, DescentConfig(max_sweeps=4, rel_tol=1e-12))
    out.validate_against(cloud)
    for atoms in out.row_atoms:
        for k in range(len(atoms)):
            for j in range(k):
                assert np.max(np.abs(atoms[k] - atoms[j])) > MERGE_TOL
    assert trace.split_mass[-1] == pm.determinism_report(out).split_mass_fraction
    exact = pm.stress_plan(out, cloud, cost)
    assert abs(trace.energies[-1] - exact) <= 1e-12 * max(abs(exact), abs(trace.energies[-1]))


def test_sweep_state_merges_only_the_rows_of_repeated_points(monkeypatch):
    # two groups of copies, of 3 and 2 points, among 4 distinct points
    calls = []
    merge = core._merge_row
    monkeypatch.setattr(core, "_merge_row", lambda q, y: calls.append(len(q)) or merge(q, y))
    cloud = pm.PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 1.0], [1.0, 0.0], [0.0, 0.0],
                           [3.0, 3.0]])
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(np.arange(7.0).reshape(-1, 1)))
    state = _SweepState(plan, cloud)
    assert sorted(calls) == [2, 3]
    assert np.diff(state.ptr).tolist() == [3, 2, 1, 1]
    assert state.atoms.ravel().tolist() == [0.0, 2.0, 5.0, 1.0, 4.0, 3.0, 6.0]


@BOOKKEEPING
@given(split_plans(), st.data())
def test_sweep_moves_match_apply_perturbation(case, data):
    # a sweep's moves are needles: full (replace_atom), partial (split_atom), or
    # partial but leaving at most 1e-15 behind, which drops the atom; each must
    # give the plan that apply_perturbation gives for the same needle.  The
    # state's rows are the cloud's distinct points, so the reference is the
    # plan of its rows as built (the cloud's plan when no point repeats).
    cloud, plan = case
    state = _SweepState(plan, cloud)
    ref = pm.EmbeddingPlan.from_flat(np.diff(state.ptr), state.mass, state.atoms)
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(state.points) - 1))
        row = state.row_positions(i)
        pos = data.draw(st.sampled_from(row))
        y_old = state.atoms[pos].tolist()
        if len(row) > 1 and data.draw(st.booleans()):
            sibling = state.atoms[data.draw(st.sampled_from([p for p in row if p != pos]))]
            y_new = [a + data.draw(near) for a in sibling.tolist()]
        else:
            y_new = data.draw(st.lists(quarters, min_size=plan.dim_m, max_size=plan.dim_m))
        if np.max(np.abs(np.subtract(y_new, y_old))) <= MERGE_TOL:
            continue
        q = float(state.mass[pos])
        kind = data.draw(st.sampled_from(["full", "partial", "drain"]))
        if kind == "full":
            frac = q
            state.replace_atom(i, pos, y_new)
        else:
            frac = q * data.draw(st.floats(0.05, 0.95)) if kind == "partial" else q - 5e-16
            state.split_atom(i, pos, frac, y_new)
        ref = pm.apply_perturbation(ref, pm.Perturbation.needle(i, frac, y_old, y_new), 1.0)
        cuts = state.ptr[1:-1]
        assert (_rows(np.split(state.mass, cuts), np.split(state.atoms, cuts))
                == _rows(ref.row_masses, ref.row_atoms))
        assert state.X.tolist() == state.points[ref.flat()[0]].tolist()


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


UNIT = 1.0 / 64   # weights are multiples of UNIT, so every sum of them is exact


@st.composite
def repeated_clouds(draw):
    """(cloud, plan, distinct, merged, group): a cloud whose points repeat, the cloud of its
    distinct points, in order of first copy, each weighing its copies' total, the plans of one
    map on both, and the distinct point of each copy.

    Weights are whole multiples of UNIT, split among the copies, so both clouds
    keep them exactly; the copies of a point may start at different images.
    """
    d, m, k = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(2, 5))
    points = draw(st.lists(st.tuples(*[quarters] * d), min_size=k, max_size=k, unique=True))
    cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=k - 1, max_size=k - 1, unique=True)))
    units = np.diff([0, *cuts, 64])
    copies = []   # (point, units, image) per copy
    for j, u in enumerate(units.tolist()):
        n_copies = draw(st.integers(1, min(u, 3)))
        parts = np.diff([0, *sorted(draw(st.lists(st.integers(1, max(u - 1, 1)), min_size=n_copies - 1,
                                                   max_size=n_copies - 1, unique=True))), u])
        image = draw(st.lists(quarters, min_size=m, max_size=m))
        for part in parts.tolist():
            if draw(st.booleans()):
                image = draw(st.lists(quarters, min_size=m, max_size=m))
            copies.append((j, part, image))
    copies = draw(st.permutations(copies))
    order = list(dict.fromkeys(j for j, _, _ in copies))   # distinct points by first copy
    cloud = pm.PointCloud([points[j] for j, _, _ in copies], [u * UNIT for _, u, _ in copies])
    plan = pm.plan_from_map(cloud, pm.DeterministicMap([y for _, _, y in copies]))
    distinct = pm.PointCloud([points[j] for j in order], [units[j] * UNIT for j in order])
    merged = pm.EmbeddingPlan([([u * UNIT for i, u, _ in copies if i == j],
                                [y for i, _, y in copies if i == j]) for j in order])
    return cloud, plan, distinct, merged, [order.index(j) for j, _, _ in copies]


@settings(max_examples=40)
@given(repeated_clouds(), st.sampled_from(["qmds", "qsammon", "quadratic-ip", "kernel-ip"]))
def test_sweep_of_repeated_points_is_the_expanded_sweep_of_distinct_points(case, cost_name):
    cloud, plan, distinct, merged, group = case
    cost, config = pm.make_cost(cost_name), DescentConfig(max_sweeps=4, rel_tol=1e-12)
    out, trace = marginal_sweep(plan, cloud, cost, config)
    dout, dtrace = marginal_sweep(merged, distinct, cost, config)
    assert trace.swept_rows == dtrace.swept_rows == distinct.n
    assert (trace.energies, trace.moved_mass) == (dtrace.energies, dtrace.moved_mass)
    # copy i of distinct point g holds g's atoms, with masses times w_i / W_g
    for i, g in enumerate(group):
        want = dout.row_masses[g] * (cloud.weights[i] / distinct.weights[g])
        assert out.row_masses[i].tobytes() == want.tobytes()
        assert out.row_atoms[i].tobytes() == dout.row_atoms[g].tobytes()
    exact = pm.stress_plan(out, cloud, cost)
    assert abs(trace.energies[-1] - exact) <= 1e-12 * max(abs(exact), abs(trace.energies[-1]))
