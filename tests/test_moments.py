"""Lifted moments of the qmds cost against the pairwise oracles.

The fast paths (plan energy, quartic marginal values after rank-one moves,
particle-descent gradient) are evaluated with the plan translated by an
offset of up to 10, while the pairwise oracles see the untranslated plan
(the qmds cost is translation invariant).  Coordinates lie on a grid of
quarters, so points and atoms coincide often and the oracles' squared
distances are exact.

A tolerance of 1e-10 is taken relative to the magnitude of the terms that
each quantity sums, e.g. sum_ab m_a m_b (|x_a-x_b|^2 + |y_a-y_b|^2 + s)^2
for the energy, where s is the plan's spread about the origin of the moments
(their scale, and so that of their rounding): the means, or after moves the
means the moments were built at.  A relative tolerance on the value
itself cannot hold for plans that embed their cloud isometrically, where the
true energy is 0.  The reported stress is held to 1e-12 of its value
instead, since it falls back to the pairwise sum exactly where the moments
cannot give that.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import planmds as pm
from planmds import energy
from planmds.energy import _marginal_grad_arrays, _marginal_value_arrays, _pair_energy
from planmds.quartic import (
    LiftedMoments,
    compute_moments,
    map_objective,
    minimize_quartic,
    quartic_at,
    select_minimizer,
)

RTOL = 1e-10
FLOOR = 1e-24     # absolute slack for quantities whose terms all vanish
QMDS = pm.QMDS()
SETTINGS = settings(max_examples=150)

grid = st.integers(-8, 8).map(lambda k: k / 4.0)


@st.composite
def flat_plans(draw):
    """(X, mass, atoms, x_offset, y_offset) with repeated rows and atoms."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 5))
    points = [np.array(draw(st.lists(grid, min_size=d, max_size=d))) for _ in range(n)]
    X, atoms = [], []
    for x in points:
        for _ in range(draw(st.integers(1, 3))):
            if atoms and draw(st.booleans()):
                y = atoms[-1]          # the same image again
            else:
                y = np.array(draw(st.lists(grid, min_size=m, max_size=m)))
            X.append(x)
            atoms.append(y)
    mass = np.array(draw(st.lists(st.integers(1, 9), min_size=len(X), max_size=len(X))), float)
    offset = st.floats(-10.0, 10.0, allow_nan=False)
    x_off = np.array(draw(st.lists(offset, min_size=d, max_size=d)))
    y_off = np.array(draw(st.lists(offset, min_size=m, max_size=m)))
    return np.array(X), mass / mass.sum(), np.array(atoms), x_off, y_off


def _spread(X, mass, atoms, x0=None, y0=None):
    """The plan's spread about (x0, y0), by default about its means."""
    x0 = mass @ X if x0 is None else x0
    y0 = mass @ atoms if y0 is None else y0
    return float(mass @ (np.sum((X - x0) ** 2, axis=1) + np.sum((atoms - y0) ** 2, axis=1)))


def _terms(X, mass, atoms, x, y, spread=None):
    """Per-atom |x - x_b|^2 + |y - y_b|^2 plus the plan's spread (by default about its means)."""
    spread = _spread(X, mass, atoms) if spread is None else spread
    return np.sum((X - x) ** 2, axis=1) + np.sum((atoms - y) ** 2, axis=1) + spread


def _energy_scale(X, mass, atoms):
    return sum(ma * float(mass @ _terms(X, mass, atoms, xa, ya) ** 2)
               for ma, xa, ya in zip(mass, X, atoms))


@SETTINGS
@given(flat_plans())
def test_moment_energy_matches_pair_energy(plan):
    X, mass, atoms, x_off, y_off = plan
    value, rounding = LiftedMoments(X + x_off, mass, atoms + y_off).energy()
    exact = _pair_energy(X, atoms, mass, QMDS)
    scale = _energy_scale(X, mass, atoms)
    assert abs(value - exact) <= RTOL * scale + FLOOR
    assert abs(value - exact) <= rounding + FLOOR


@SETTINGS
@given(flat_plans(), st.integers(-40, 40))
def test_moment_energy_bound_is_scale_free(plan, k):
    # scaling the coordinates by 2^k scales the energy, its rounding and the
    # pairwise oracle exactly by 16^k; the bound must scale alike, so that
    # bound / E is the same at every scale and holds at each
    X, mass, atoms, x_off, y_off = plan
    value, rounding = LiftedMoments(X + x_off, mass, atoms + y_off).energy()
    got, got_rounding = LiftedMoments(np.ldexp(X + x_off, k), mass, np.ldexp(atoms + y_off, k)).energy()
    exact = _pair_energy(np.ldexp(X, k), np.ldexp(atoms, k), mass, QMDS)
    assert abs(got - exact) <= got_rounding
    assert got == math.ldexp(value, 4 * k)
    if value:
        assert got_rounding / got == rounding / value


@SETTINGS
@given(flat_plans(), st.data())
def test_quartic_values_after_moves_match_marginal_value(tmp_path_factory, plan, data):
    X, mass, atoms, x_off, y_off = plan
    sums = LiftedMoments(X + x_off, mass, atoms + y_off)
    atoms = atoms.copy()
    for _ in range(data.draw(st.integers(0, 3))):
        a = data.draw(st.integers(0, len(mass) - 1))
        b = data.draw(st.integers(0, len(mass) - 1))
        # move atom a onto atom b's image (a repeated atom) or to a new point
        y_new = atoms[b] if data.draw(st.booleans()) else atoms[a] + 0.5
        sums.move(X[a] + x_off, atoms[a] + y_off, y_new + y_off, mass[a])
        atoms[a] = y_new
    # through the JSON fields, so by the exact change of origin to the moved means
    path = tmp_path_factory.getbasetemp() / "moved-moments.json"
    sums.to_json(path)
    qm = quartic_at(LiftedMoments.from_json(path), X[0] + x_off)
    # moves leave F about the origin it was built at, so its rounding scales
    # with the spread about that origin, not about the moved means
    spread = _spread(X, mass, atoms, sums.x0 - x_off, sums.y0 - y_off)
    for y in (atoms[0], atoms[-1], np.zeros(atoms.shape[1])):
        exact = _marginal_value_arrays(X, mass, atoms, QMDS, X[0], y)
        scale = float(mass @ _terms(X, mass, atoms, X[0], y, spread) ** 2)
        assert abs(qm.value(y + y_off) - exact) <= RTOL * scale + FLOOR


@SETTINGS
@given(flat_plans())
def test_particle_gradient_matches_marginal_grad(plan):
    X, mass, atoms, x_off, y_off = plan
    # one atom per point: the map x_a -> y_a, weights mass (points may coincide)
    evaluate, _ = map_objective(X + x_off, mass, atoms.shape[1])
    (value,), gradient = evaluate((atoms + y_off)[None])
    grad = gradient(0)
    exact = _pair_energy(X, atoms, mass, QMDS)
    scale = _energy_scale(X, mass, atoms)
    assert abs(value - exact) <= RTOL * scale + FLOOR
    for i in range(len(mass)):
        want = 2.0 * mass[i] * _marginal_grad_arrays(X, mass, atoms, QMDS, X[i], atoms[i])
        dist = np.sqrt(np.sum((atoms - atoms[i]) ** 2, axis=1) + _spread(X, mass, atoms))
        scale = 8.0 * mass[i] * float(mass @ (_terms(X, mass, atoms, X[i], atoms[i]) * dist))
        assert np.max(np.abs(grad[i] - want)) <= RTOL * scale + FLOOR


@st.composite
def clouds_and_plans(draw, max_offset=1e6):
    """(cloud, plan) with m <= 4: random, coincident or near-isometric, maybe far from the origin.

    A near-isometric plan embeds points that span at most m coordinates by
    their first m coordinates plus a 1e-6 perturbation: its energy is about
    1e-12 of the terms it sums, so the moment energy's rounding bound is too
    wide for it.  Points and atoms are translated by offsets of up to
    max_offset.
    """
    d, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "coincident", "isometric"]))
    points = np.array([draw(st.lists(grid, min_size=d, max_size=d)) for _ in range(n)])
    if kind == "coincident":
        points[:] = points[0]
    if kind == "isometric":
        points[:, m:] = 0.0
    rows = []
    for x in points:
        k = 1 if kind == "isometric" else draw(st.integers(1, 3))
        if kind == "isometric":
            y = np.zeros((1, m))
            y[0, :min(d, m)] = x[:m]
            y += 1e-6 * np.array(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)))
        elif kind == "coincident" and draw(st.booleans()):
            y = np.ones((k, m))
        else:
            y = np.array([draw(st.lists(grid, min_size=m, max_size=m)) for _ in range(k)])
        rows.append((np.array(draw(st.lists(st.integers(1, 9), min_size=k, max_size=k)), float), y))
    total = sum(float(q.sum()) for q, _ in rows)
    offsets = st.sampled_from([0.0, 10.0, -max_offset, max_offset])
    x_off, y_off = draw(offsets), draw(offsets)
    cloud = pm.PointCloud(points + x_off, [float(q.sum()) / total for q, _ in rows])
    return cloud, pm.EmbeddingPlan([(q / total, y + y_off) for q, y in rows])


def test_reported_stress_matches_pairwise_oracles(monkeypatch):
    """reported_stress equals stress_plan (and stress_map for maps) to 1e-12 relative.

    Near-isometric plans must take the pairwise fallback, every other case the
    moment energy; both branches have to occur.
    """
    pair_calls = []
    pair_energy = energy._pair_energy

    def counted(*args, **kwargs):
        pair_calls.append(1)
        return pair_energy(*args, **kwargs)

    monkeypatch.setattr(energy, "_pair_energy", counted)
    fell_back = []

    @SETTINGS
    @given(clouds_and_plans())
    def check(case):
        cloud, plan = case
        before = len(pair_calls)
        got = pm.reported_stress(cloud, plan, QMDS)
        fell_back.append(len(pair_calls) > before)
        exact = pm.stress_plan(plan, cloud, QMDS)
        assert abs(got - exact) <= 1e-12 * exact
        if plan.atom_count == cloud.n:
            mapping = pm.DeterministicMap(plan.flat()[2])
            exact = pm.stress_map(cloud, mapping, QMDS)
            assert abs(pm.reported_stress(cloud, mapping, QMDS) - exact) <= 1e-12 * exact

    check()
    assert any(fell_back) and not all(fell_back)


@SETTINGS
@given(clouds_and_plans(), st.data())
def test_lifted_marginal_after_moves_matches_fresh_moments(case, data):
    """The marginal read from moved lifted moments equals the one from moments built afresh."""
    cloud, plan = case
    idx, mass, atoms = plan.flat()
    X, atoms = cloud.points[idx], atoms.copy()
    sums = LiftedMoments(X, mass, atoms)
    for _ in range(data.draw(st.integers(1, 4))):
        a = data.draw(st.integers(0, len(mass) - 1))
        b = data.draw(st.integers(0, len(mass) - 1))
        y_new = atoms[b].copy() if data.draw(st.booleans()) else atoms[a] + data.draw(grid)
        sums.move(X[a], atoms[a], y_new, mass[a])
        atoms[a] = y_new
    moved = pm.EmbeddingPlan([(mass[idx == i], atoms[idx == i]) for i in range(cloud.n)])
    x = cloud.points[data.draw(st.integers(0, cloud.n - 1))] + data.draw(grid)
    got = quartic_at(sums, x)
    want = quartic_at(compute_moments(moved, cloud), x)
    # scale of Psi: squared distances about the means and the old origin of F
    x_mean, y_mean = cloud.weights @ cloud.points, mass @ atoms
    s = 1.0 + float(mass @ (np.sum((X - x_mean) ** 2, axis=1) + np.sum((atoms - y_mean) ** 2, axis=1))
                    + np.sum((x - x_mean) ** 2) + np.sum((y_mean - sums.y0) ** 2))
    assert np.max(np.abs(got.Psi - want.Psi)) <= 1e-12 * s
    assert np.max(np.abs(got.phi - want.phi)) <= 1e-12 * s**1.5
    assert abs(got.zeta - want.zeta) <= 1e-12 * s**2
    # the shift to the atom mean leaves no cubic term in the exact marginal:
    # along a unit u, [J(c+2u) - J(c-2u)] - 2 [J(c+u) - J(c-u)] = 12 a3.  The
    # oracle sees the plan translated, exactly, to the moments' origin (qmds
    # is translation invariant), where the shift y_shift = y0 + mu is
    # c = mu = F[0, y]: far from the origin, c +- t u would round to the ulp
    # of the offset.
    m, u = len(y_mean), np.ones(len(y_mean)) / np.sqrt(len(y_mean))
    c = np.array(sums.F[0][2:2 + m])
    Xc, Yc, xc = X - sums.x0, atoms - sums.y0, x - sums.x0
    J = [_marginal_value_arrays(Xc, mass, Yc, QMDS, xc, c + t * u) for t in (2, -2, 1, -1)]
    assert abs((J[0] - J[1]) - 2.0 * (J[2] - J[3])) / 12.0 <= 1e-12 * (s + 4.0) ** 2
    sol_got, sol_want = minimize_quartic(got), minimize_quartic(want)
    assert sol_got.multiplicity_kind == sol_want.multiplicity_kind
    assert sol_got.certified == sol_want.certified
    assert abs(sol_got.value - sol_want.value) <= 1e-10 * s**2
    if sol_got.multiplicity_kind != "continuum":   # continuum representatives are arbitrary
        for y_got, y_want in zip(sol_got.minimizers, sol_want.minimizers):
            assert np.max(np.abs(y_got - y_want)) <= 1e-8 * (1.0 + np.max(np.abs(y_want)))


@st.composite
def step_cases(draw):
    """(X, mass, atoms, x_off, y_off, queries): a plan for the sweep's step, and points to query.

    A symmetric plan is its own mirror image through (x_off, y_off), so at
    x_off its marginal has phi = 0: the hard case, with two minimizers or a
    continuum.  Mirrored moves keep it symmetric; a random plan gets moves of
    single atoms.  The offsets put the moments' origin and the shift to the
    atom mean off zero.
    """
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "coincident", "symmetric"]))
    half = draw(st.integers(1, 3))
    X = [np.array(draw(st.lists(grid, min_size=d, max_size=d))) for _ in range(half)]
    if kind == "coincident":
        X = [X[0]] * half
    atoms = [np.array(draw(st.lists(grid, min_size=m, max_size=m))) for _ in range(half)]
    mass = draw(st.lists(st.integers(1, 9), min_size=half, max_size=half))
    if kind == "symmetric":
        X, atoms, mass = X + [-x for x in X], atoms + [-y for y in atoms], mass + mass
    X, atoms = np.array(X), np.array(atoms)
    mass = np.array(mass, float) / sum(mass)
    offset = st.sampled_from([0.0, 0.3, -7.1, 1e3 + 0.1])
    x_off, y_off = draw(offset), draw(offset)
    moves = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, len(mass) - 1))
        moves.append((a, np.array(draw(st.lists(grid, min_size=m, max_size=m)))))
    queries = [np.zeros(d), X[0], np.array(draw(st.lists(grid, min_size=d, max_size=d)))]
    return X + x_off, mass, atoms + y_off, x_off, y_off, kind, moves, queries


def test_sweep_step_matches_public_path():
    """LiftedMoments.step gives the public path's selection, certificate and values, bit for bit.

    The public path is select_minimizer(minimize_quartic(quartic_at(sums, x)))
    and QuarticMarginal.value; the step must reach the same floats by the
    same operations.  Both hard-case kinds have to occur, at m >= 2 too.
    """
    kinds = set()

    def same(a, b):
        return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()

    @SETTINGS
    @given(step_cases())
    def check(case):
        X, mass, atoms, x_off, y_off, kind, moves, queries = case
        sums = LiftedMoments(X, mass, atoms)
        atoms = atoms.copy()
        half = len(mass) // 2
        for a, y in moves:
            pairs = [(a, y + y_off)]
            if kind == "symmetric":   # move the mirror atom to the mirror point
                pairs.append(((a + half) % len(mass), y_off - y))
            for b, y_new in pairs:
                sums.move(X[b], atoms[b], y_new, mass[b])
                atoms[b] = y_new
        for x in queries:
            x = x + x_off
            lifted = sums.lift(x)[0]
            qm = quartic_at(sums, x)
            sol = minimize_quartic(qm)
            want = select_minimizer(sol)
            kinds.add((sol.multiplicity_kind, qm.dim_m > 1))
            for y_old in [atoms[0], atoms[-1], atoms[0] + 0.25]:
                y_new, certified, j_old, j_new = sums.step(lifted, y_old.tolist())
                assert same(y_new, want)
                assert certified == sol.certified
                assert same(j_old, qm.value(y_old))
                assert same(j_new, qm.value(want))

    check()
    for kind in ("finite_multiple", "continuum"):
        assert (kind, True) in kinds
    assert ("finite_multiple", False) in kinds
