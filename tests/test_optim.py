"""Optimizers: particle descent, marginal sweep, marginal dispatch, PCA."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planmds as pm
from planmds import energy, experiments, optim
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
    for bad in ({"dim_m": 0}, {"dim_m": -1}, {"seed": -1}, {"rel_tol": float("nan")}):
        with pytest.raises(pm.InputError, match=next(iter(bad))):
            DescentConfig(**bad)


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
