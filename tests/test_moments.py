"""Lifted moments of the qmds cost against the pairwise oracles.

The fast paths (plan energy, quartic marginal values after rank-one moves,
particle-descent gradient) are evaluated with the plan translated by an
offset of up to 10, while the pairwise oracles see the untranslated plan:
the qmds cost is translation invariant, and the oracles' |a|^2 + |b|^2 - 2ab
distances lose digits at large offsets.  Coordinates lie on a grid of
quarters, so points and atoms coincide often and the oracles' squared
distances are exact.

A tolerance of 1e-10 is taken relative to the magnitude of the terms that
each quantity sums, e.g. sum_ab m_a m_b (|x_a-x_b|^2 + |y_a-y_b|^2 + s)^2
for the energy, where s is the plan's spread about the origin of the moments
(their scale, and so that of their rounding): the means, or after moves the
means the moments were built at.  A relative tolerance on the value
itself cannot hold for plans that embed their cloud isometrically, where the
true energy is 0.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import planmds as pm
from planmds.energy import _marginal_grad_arrays, _marginal_value_arrays, _pair_energy
from planmds.quartic import LiftedMoments, map_objective, quartic_at

RTOL = 1e-10
FLOOR = 1e-24     # absolute slack for quantities whose terms all vanish
QMDS = pm.QMDS()
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

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
@given(flat_plans(), st.data())
def test_quartic_values_after_moves_match_marginal_value(plan, data):
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
    qm = quartic_at(sums.moment_set(), X[0] + x_off)
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
    energy, gradient = map_objective(X + x_off, mass, atoms.shape[1])
    Y = atoms + y_off
    value = energy(Y)
    grad = gradient(Y)
    exact = _pair_energy(X, atoms, mass, QMDS)
    scale = _energy_scale(X, mass, atoms)
    assert abs(value - exact) <= RTOL * scale + FLOOR
    for i in range(len(mass)):
        want = 2.0 * mass[i] * _marginal_grad_arrays(X, mass, atoms, QMDS, X[i], atoms[i])
        dist = np.sqrt(np.sum((atoms - atoms[i]) ** 2, axis=1) + _spread(X, mass, atoms))
        scale = 8.0 * mass[i] * float(mass @ (_terms(X, mass, atoms, X[i], atoms[i]) * dist))
        assert np.max(np.abs(grad[i] - want)) <= RTOL * scale + FLOOR
