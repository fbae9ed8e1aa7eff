"""Quartic marginal: moments, coefficient assembly, global minimization."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planmds as pm
from planmds import quartic
from planmds.quartic import (
    RESIDUAL_TOL,
    LiftedMoments,
    QuarticMarginal,
    compute_moments,
    level_set_grid,
    minimize_quartic,
    quartic_at,
    select_minimizer,
)

from helpers import grid_oracle, multistart_oracle, random_cloud, random_plan


def stacked_pair():
    cloud = pm.PointCloud([[0.0, 1.0], [0.0, -1.0]])
    plan = pm.plan_from_map(cloud, pm.DeterministicMap([[1.0], [-1.0]]))
    return cloud, plan


def moment_fields(moments, tmp_path) -> dict:
    """The fields to_json writes, as arrays (about the means)."""
    path = tmp_path / "moments.json"
    moments.to_json(path)
    return {k: np.array(v) for k, v in json.loads(path.read_text()).items()}


def test_stacked_pair_moments(tmp_path):
    cloud, plan = stacked_pair()
    mom = moment_fields(compute_moments(plan, cloud), tmp_path)
    assert mom["S"] == pytest.approx(np.array([[2.0]]), abs=1e-14)
    assert mom["Phi"] == pytest.approx(np.array([[0.0, 1.0]]), abs=1e-14)
    assert mom["b"] == pytest.approx(np.array([0.0]), abs=1e-14)
    assert mom["Cxx"] == pytest.approx(np.diag([0.0, 1.0]), abs=1e-14)
    assert mom["s1"] == pytest.approx(0.0, abs=1e-14)
    assert mom["s2"] == pytest.approx(0.0, abs=1e-14)
    assert mom["a1"] == pytest.approx(np.zeros(2), abs=1e-14)


def test_moments_when_all_atoms_at_zero(tmp_path):
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, 5, 2)
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(np.zeros((5, 2))))
    mom = moment_fields(compute_moments(plan, cloud), tmp_path)
    xc = cloud.points - cloud.mean()
    expected = -float(np.sum(cloud.weights * np.sum(xc * xc, axis=1)))
    assert mom["S"] == pytest.approx(expected * np.eye(2), abs=1e-12)
    assert np.allclose(mom["Phi"], 0.0, atol=1e-14)
    assert np.allclose(mom["b"], 0.0, atol=1e-14)


def test_moment_eigen_reconstructs_s(tmp_path):
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 6, 3)
    plan = random_plan(rng, cloud, 2)
    mom = moment_fields(compute_moments(plan, cloud), tmp_path)
    assert np.allclose(mom["S"], mom["S"].T, atol=1e-12)


def test_stacked_pair_coefficients():
    cloud, plan = stacked_pair()
    mom = compute_moments(plan, cloud)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=2)
        qm = quartic_at(mom, x)
        assert qm.Psi[0, 0] == pytest.approx(float(x @ x) - 2.0, abs=1e-12)
        assert qm.phi[0] == pytest.approx(2.0 * x[1], abs=1e-12)
        assert qm.zeta == pytest.approx(float(x @ x) ** 2 + 4 * x[1] ** 2, abs=1e-10)
        # zeta cross-check: the marginal value at y = 0
        assert qm.value([0.0]) == pytest.approx(
            pm.marginal_value(plan, cloud, pm.QMDS(), x, [0.0]), rel=1e-12)


def test_quartic_form_matches_marginal_value():
    rng = np.random.default_rng(3)
    for _ in range(30):
        cloud = random_cloud(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
        m = int(rng.integers(1, 4))
        plan = random_plan(rng, cloud, m)
        mom = compute_moments(plan, cloud)
        x = rng.normal(size=cloud.dim_d)
        y = rng.normal(size=m)
        qm = quartic_at(mom, x)
        direct = pm.marginal_value(plan, cloud, pm.QMDS(), x, y)
        assert abs(qm.value(y) - direct) <= 1e-10 * (1 + abs(direct))


def test_minimize_stacked_pair_two_minimizers():
    cloud, plan = stacked_pair()
    mom = compute_moments(plan, cloud)
    sol = minimize_quartic(quartic_at(mom, [1.5, 0.0]))
    assert sol.multiplicity_kind == "finite_multiple"
    got = sorted(float(y[0]) for y in sol.minimizers)
    assert got == pytest.approx([-0.5, 0.5], abs=1e-10)
    assert select_minimizer(sol)[0] == pytest.approx(0.5, abs=1e-10)


def test_minimize_stacked_pair_unique_inside_disc():
    cloud, plan = stacked_pair()
    mom = compute_moments(plan, cloud)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(-0.9, 0.9, size=2)
        if float(x @ x) >= 2.0:
            continue
        sol = minimize_quartic(quartic_at(mom, x))
        assert sol.multiplicity_kind == "unique"
        assert len(sol.minimizers) == 1


def test_minimize_negative_definite_gives_zero():
    qm = QuarticMarginal(Psi=np.diag([-1.0, -2.0]), phi=np.zeros(2), zeta=0.0)
    sol = minimize_quartic(qm)
    assert sol.multiplicity_kind == "unique"
    assert np.allclose(sol.minimizers[0], 0.0, atol=1e-12)
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_minimize_isotropic_continuum():
    qm = QuarticMarginal(Psi=np.eye(2), phi=np.zeros(2), zeta=0.0)
    sol = minimize_quartic(qm)
    assert sol.multiplicity_kind == "continuum"
    for y in sol.minimizers:
        assert float(y @ y) == pytest.approx(1.0, abs=1e-10)


def test_minimizers_are_stationary():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(m, m))
        qm = QuarticMarginal(Psi=0.5 * (A + A.T), phi=rng.normal(size=m),
                             zeta=float(rng.normal()))
        sol = minimize_quartic(qm)
        for y in sol.minimizers:
            assert np.linalg.norm(qm.grad(y)) <= 1e-8
            assert qm.value(y) == pytest.approx(sol.value, abs=1e-9 * (1 + abs(sol.value)))


def test_minimize_matches_grid_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(m, m))
        qm = QuarticMarginal(Psi=0.5 * (A + A.T), phi=rng.normal(size=m),
                             zeta=float(rng.normal()))
        sol = minimize_quartic(qm)
        y_ref, v_ref = grid_oracle(qm)
        assert abs(sol.value - v_ref) <= 1e-6
        assert min(np.linalg.norm(y - y_ref) for y in sol.minimizers) <= 2e-3


def test_selected_sign_follows_offset_sign():
    # near the two-minimizer point (1.5, 0), the linear coefficient 2*x2 tips
    # the selected minimizer to the same sign as the offset
    cloud, plan = stacked_pair()
    mom = compute_moments(plan, cloud)
    for eps in (1e-3, -1e-3, 1e-2, -1e-2):
        sol = minimize_quartic(quartic_at(mom, [1.5, eps]))
        assert sol.multiplicity_kind == "unique"
        assert np.sign(select_minimizer(sol)[0]) == np.sign(eps)


def test_discontinuity_across_axis():
    cloud, plan = stacked_pair()
    mom = compute_moments(plan, cloud)
    up = select_minimizer(minimize_quartic(quartic_at(mom, [1.5, 0.01])))[0]
    down = select_minimizer(minimize_quartic(quartic_at(mom, [1.5, -0.01])))[0]
    assert np.sign(up) != np.sign(down)
    assert abs(up) > 0.4 and abs(down) > 0.4


def test_minimizer_translation_with_uncentered_plan():
    # shifting every atom shifts the minimizers by the same amount
    rng = np.random.default_rng(7)
    cloud = random_cloud(rng, 5, 2)
    plan = random_plan(rng, cloud, 2, max_atoms=1)
    shift = np.array([3.0, -2.0])
    shifted = pm.EmbeddingPlan(
        [(m, a + shift) for m, a in zip(plan.row_masses, plan.row_atoms)])
    x = rng.normal(size=2)
    a = minimize_quartic(quartic_at(compute_moments(plan, cloud), x))
    b = minimize_quartic(quartic_at(compute_moments(shifted, cloud), x))
    assert np.allclose(select_minimizer(a) + shift, select_minimizer(b), atol=1e-8)
    assert a.value == pytest.approx(b.value, rel=1e-9, abs=1e-9)


def test_moments_json_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    cloud = random_cloud(rng, 6, 2)
    plan = random_plan(rng, cloud, 1)
    mom = compute_moments(plan, cloud)
    written = moment_fields(mom, tmp_path)
    loaded = LiftedMoments.from_json(tmp_path / "moments.json")
    again = moment_fields(loaded, tmp_path)
    for name, value in written.items():
        # S's diagonal is rebuilt as (S - s1) + s1, to rounding
        assert again[name] == pytest.approx(value, rel=1e-15, abs=1e-15), name
    x = rng.normal(size=2)
    assert quartic_at(loaded, x).zeta == pytest.approx(quartic_at(mom, x).zeta)


def test_moments_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(pm.InputError):
        LiftedMoments.from_json(path)


def test_level_set_grid_examples():
    cloud, plan = stacked_pair()
    mom = compute_moments(plan, cloud)
    grid = level_set_grid(mom, ((-2.0, 2.0), (-2.0, 2.0)), 5)
    assert len(grid) == 25
    by_node = {(round(x[0], 6), round(x[1], 6)): (lam, c) for x, lam, c in grid}
    lam, count = by_node[(0.0, 0.0)]
    assert count == 1
    with pytest.raises(pm.InputError):
        level_set_grid(mom, ((-2.0, 2.0), (-2.0, 2.0)), 1)
    with pytest.raises(pm.InputError):
        level_set_grid(mom, ((2.0, -2.0), (-2.0, 2.0)), 5)


def test_level_set_grid_counts_double_point():
    cloud, plan = stacked_pair()
    mom = compute_moments(plan, cloud)
    grid = level_set_grid(mom, ((1.5, 1.5001), (0.0, 0.0001)), 2)
    # node exactly at (1.5, 0) has the two symmetric minimizers
    x, lam, count = grid[0]
    assert count == 2
    assert lam == pytest.approx(0.5, abs=1e-10)


def test_level_set_grid_needs_positive_finite_sides():
    cloud, plan = stacked_pair()
    mom = compute_moments(plan, cloud)
    inf = math.inf
    for region in (((1.0, 1.0), (-2.0, 2.0)), ((-2.0, 2.0), (2.0, -2.0)), ((-inf, inf), (-2.0, 2.0)),
                   ((-1e308, 1e308), (-2.0, 2.0)), ((-2.0, 2.0), (math.nan, 2.0))):
        with pytest.raises(pm.InputError, match="region sides"):
            level_set_grid(mom, region, 3)
    with pytest.raises(pm.NumericalError):   # finite sides, but too far out for the moments
        level_set_grid(mom, ((1e200, 2e200), (-2.0, 2.0)), 3)


def test_level_set_grid_matches_public_path():
    """Every node is select_minimizer(minimize_quartic(quartic_at(moments, x))), bit for bit.

    The stacked pair's grid runs through its discontinuity on x2 = 0, where
    nodes with |x1| > sqrt(2) have two minimizers; the random plans have
    source points and atoms offset by up to 1e3.
    """
    def check(mom, region, res):
        grid = level_set_grid(mom, region, res)
        xs1, xs2 = np.linspace(*region[0], res), np.linspace(*region[1], res)
        assert len(grid) == res * res
        for (x, lam, count), (u, v) in zip(grid, [(u, v) for u in xs1 for v in xs2]):
            want = np.array([u, v])
            sol = minimize_quartic(quartic_at(mom, want))
            assert np.asarray(x).tobytes() == want.tobytes()
            assert np.float64(lam).tobytes() == select_minimizer(sol)[0].tobytes()
            assert count == len(sol.minimizers)
        return [count for _, _, count in grid]

    cloud, plan = stacked_pair()
    assert check(compute_moments(plan, cloud), ((-2.0, 2.0), (-2.0, 2.0)), 9).count(2) == 4
    rng = np.random.default_rng(20)
    for offset in (0.0, 1.0, 37.5, 1e3):
        cloud = pm.PointCloud(rng.normal(size=(int(rng.integers(2, 9)), 2)) + offset)
        plan = pm.EmbeddingPlan([(np.full(k, w / k), rng.normal(size=(k, 1)) - offset)
                                 for w, k in zip(cloud.weights, rng.integers(1, 4, size=cloud.n))])
        lo = cloud.points.min(axis=0) - 1.0
        hi = cloud.points.max(axis=0) + 1.0
        check(compute_moments(plan, cloud), ((lo[0], hi[0]), (lo[1], hi[1])), 12)


def test_near_hard_case_top_branch_is_found():
    # phi's component along the top eigenvector of Psi is tiny but not zero:
    # the secular root near psi_max = 1.5 is lost to rounding, and only the
    # global condition |y|^2 >= lambda_max(Psi) recovers the top branch
    qm = QuarticMarginal(Psi=np.diag([0.5, 1.5]), phi=np.array([0.3, 1e-9]), zeta=0.0)
    sol = minimize_quartic(qm)
    y = select_minimizer(sol)
    assert sol.certified
    assert sol.multiplicity_kind == "unique"
    assert y == pytest.approx([0.3, 1.18743421], abs=1e-6)
    assert sol.value == pytest.approx(-2.43, abs=1e-8)
    assert sol.value <= min(qm.value([0.3, 1.18743421]), qm.value([0.3, -1.18743421]))
    assert float(y @ y) >= 1.5


def test_hard_case_minimizers_off_the_top_eigenspace():
    # phi has no top component and y_rest = (0.3, 0) is shorter than
    # sqrt(lambda_max): the minimizers are y_rest +- r e_2, r^2 = 1.5 - 0.09
    qm = QuarticMarginal(Psi=np.diag([0.5, 1.5]), phi=np.array([0.3, 0.0]), zeta=0.0)
    sol = minimize_quartic(qm)
    r = np.sqrt(1.5 - 0.09)
    assert sol.certified
    assert sol.multiplicity_kind == "finite_multiple"
    assert np.allclose(sol.minimizers, [[0.3, r], [0.3, -r]], atol=1e-12)
    assert sol.value == pytest.approx(-2.43, abs=1e-12)


@pytest.mark.parametrize("phi_top, kind", [(1e-5, "unique"), (1e-9, "continuum")])
def test_near_hard_case_at_large_scale_is_certified(phi_top, kind):
    # the solve's unit of length is 2^6 (Psi / 2^12, phi / 2^18), where 1e-9
    # lies below _PHI_TOL and 1e-5 above it.  The hard case ignores phi_top
    # and leaves its points a gradient of 4 phi_top, and Newton steps against
    # the sphere's singular Hessian must not make that worse; 1e-5 goes to the
    # secular root.  To first order in phi_top the minimum is that of the
    # hard case, -1690200, less 4 phi_top r with r^2 = 1300 - 1/9
    Q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
    qm = QuarticMarginal(Psi=(Q * [400.0, 1300.0, 1300.0]) @ Q.T,
                         phi=Q @ [300.0, 0.0, phi_top], zeta=0.0)
    sol = minimize_quartic(qm)
    assert sol.certified
    assert sol.multiplicity_kind == kind
    for y in sol.minimizers:
        assert np.linalg.norm(qm.grad(y)) <= RESIDUAL_TOL
        assert qm.value(y) == pytest.approx(-1690200.0 - 4.0 * phi_top * np.sqrt(1300.0 - 1.0 / 9.0),
                                            abs=1e-6)


@pytest.mark.parametrize("scale", [1.0, 1e20, 1e40, 1e50])
def test_sweep_step_certificate_is_scale_free(scale):
    # the first sweep step of rows 0 and 1 from the PCA init: the same
    # minimizer relative to the scale at every scale, so the same certificate;
    # at 1e40 the polished gradients are about 1e104, 1e-16 of |Psi|^(3/2)
    cloud = pm.PointCloud(np.random.default_rng(0).normal(size=(12, 2)) * scale)
    idx, mass, atoms = pm.plan_from_map(cloud, pm.pca_solve(cloud, 1)).flat()
    sums = LiftedMoments(cloud.points[idx], mass, atoms)
    for row in (0, 1):
        _, certified, _, _ = sums.step(sums.lift(cloud.points[row])[0], atoms[row].tolist())
        assert certified


@settings(max_examples=60)
@given(st.integers(1, 10), st.integers(1, 3), st.floats(-14.0, 0.0), st.floats(0.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_near_hard_case_matches_multistart_oracle(m, repeat, exponent, log_scale, seed):
    # Psi with a simple or repeated top eigenvalue, and phi's component along
    # the top eigenspace scaled by 10^exponent: the near-hard case.  Psi and
    # phi are scaled by 10^log_scale, which RESIDUAL_TOL does not scale with.
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.normal(size=(m, m)))[0]
    psis = np.sort(rng.normal(size=m)) * 10.0 ** log_scale
    k = min(repeat, m)
    psis[m - k:] = psis[-1]
    phih = rng.normal(size=m) * 10.0 ** log_scale
    phih[m - k:] *= 10.0 ** exponent
    qm = QuarticMarginal(Psi=(V * psis) @ V.T, phi=V @ phih, zeta=float(rng.normal()))
    sol = minimize_quartic(qm)
    lam = float(np.linalg.eigvalsh(qm.Psi)[-1])
    scale = max(1.0, float(np.linalg.norm(qm.Psi)), float(np.linalg.norm(qm.phi)))
    assert sol.certified
    assert sol.value <= multistart_oracle(qm, rng) + 1e-8 * (1.0 + abs(sol.value))
    for y in sol.minimizers:
        assert float(y @ y) >= lam - 1e-8 * scale
        assert np.linalg.norm(qm.grad(y)) <= RESIDUAL_TOL


SMALL_MINIMIZERS = pytest.mark.parametrize("Psi, phi", [
    # eigenvalues -7.8e94 and about -2e77, the second below the rounding of
    # the first; full digits needed
    ([[-7.711402446717803e94, -9.292051088938894e93],
      [-9.292051088938894e93, -1.1196693991272656e93]],
     [1.5511791580082362e74, -8.962203610619637e73]),
    ([[1e-11]], [3e-14]),
], ids=["noise-eigenvalue", "tiny-hard-case"])


@SMALL_MINIMIZERS
def test_minimizer_far_below_unit_scale_is_certified(Psi, phi):
    # minimizers far shorter than |Psi|^(1/2): the solve's tolerances are
    # relative to the quartic's own unit of length, so phi's top component
    # is not taken for zero (tiny-hard-case was a false hard case at
    # +-sqrt(Psi) = +-3.16e-6) and the residual is sized for these points
    qm = QuarticMarginal(Psi=np.array(Psi), phi=np.array(phi), zeta=0.0)
    sol = minimize_quartic(qm)
    assert sol.certified
    assert sol.multiplicity_kind == "unique"
    assert qm.value(sol.minimizers[0]) <= qm.zeta
    if len(phi) == 1:
        assert sol.minimizers[0] == pytest.approx([3.118e-5], rel=1e-3)


@SMALL_MINIMIZERS
def test_minimizer_above_the_centre_value_is_not_certified(monkeypatch, Psi, phi):
    # at the global minimizer y, J(-y) - J(0) = 6 phi^T y - |y|^4, positive
    # for these short minimizers: a solve that returned -y with a passing
    # stationarity check is still not certified, as J(-y) > J(0) = zeta
    qm = QuarticMarginal(Psi=np.array(Psi), phi=np.array(phi), zeta=0.0)
    y = -minimize_quartic(qm).minimizers[0]
    point = float(y[0]) if len(phi) == 1 else y.tolist()
    monkeypatch.setattr(quartic, "_minimize_centred", lambda *args: ([point], "unique", True))
    sol = minimize_quartic(qm)
    assert sol.minimizers[0].tobytes() == y.tobytes()
    assert qm.value(y) > qm.zeta
    assert not sol.certified


@pytest.mark.parametrize("Psi, phi, zeta", [
    ([[np.inf]], [0.1], 0.0),
    (np.eye(2), [np.nan, 0.0], 0.0),
    (np.eye(2), [0.1, 0.0], np.inf),
])
def test_minimize_rejects_nonfinite_coefficients(Psi, phi, zeta):
    qm = QuarticMarginal(Psi=np.array(Psi, dtype=float), phi=np.array(phi), zeta=zeta)
    with pytest.raises(pm.NumericalError):
        minimize_quartic(qm)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_minimize_rejects_overflowing_minimizer(m):
    # with Psi = I the minimizer is about phi / |phi|^(2/3).  The solve runs
    # at the quartic's unit scale, so where |phi|^2 overflows (1e160, 1e230)
    # the minimizer, about 1e53 and 1e77, is still found.  At 1e300 the
    # minimum, about -|phi|^(4/3), overflows, and the solve must raise
    # NumericalError, not return nan or raise a bare Python error
    with pytest.raises(pm.NumericalError, match="not finite"):
        minimize_quartic(QuarticMarginal(Psi=np.eye(m), phi=np.full(m, 1e300), zeta=0.0))
    for size in (1e150, 1e160, 1e230):
        phi = np.full(m, size)
        sol = minimize_quartic(QuarticMarginal(Psi=np.eye(m), phi=phi, zeta=0.0))
        assert sol.certified and np.isfinite(sol.value)
        for y in sol.minimizers:
            np.testing.assert_allclose(float(y @ y) * y, phi, rtol=1e-12)


def test_moments_json_nonfinite(tmp_path):
    rng = np.random.default_rng(9)
    cloud = random_cloud(rng, 4, 2)
    path = tmp_path / "moments.json"
    compute_moments(random_plan(rng, cloud, 1), cloud).to_json(path)
    payload = json.loads(path.read_text())
    payload["Phi"][0][1] = float("inf")
    path.write_text(json.dumps(payload))   # written as Infinity
    with pytest.raises(pm.InputError, match="Phi"):
        LiftedMoments.from_json(path)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("lam", [-1e-20, -1e-60, -1e-200])
def test_secular_root_starts_near_root_for_tiny_negative_lambda(m, lam):
    # Psi = lam I with lam < 0 tiny and phi = 1: the root of the secular
    # equation is near |phi|^(2/3), far right of -lam, where Newton on c/t^2
    # gains only a factor of about 1.5 a step; a start at -lam ran out of steps
    qm = QuarticMarginal(Psi=lam * np.eye(m), phi=np.ones(m), zeta=0.0)
    sol = minimize_quartic(qm)
    assert sol.certified
    for y in sol.minimizers:
        assert np.linalg.norm(qm.grad(y)) <= RESIDUAL_TOL
        assert y == pytest.approx(np.full(m, m ** (-1.0 / 3.0)), rel=1e-12)


@settings(max_examples=400)
@given(st.sampled_from([1, 2, 3]), st.sampled_from(range(-300, 301)),
       st.sampled_from(range(-300, 301)),
       st.sampled_from(["generic", "zero", "negative", "repeated"]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_minimize_quartic_raises_only_numerical_error(m, psi_exp, phi_exp, top, phi_top, seed):
    # Psi = V diag(psi) V^T with a generic, zero, negative or repeated top
    # eigenvalue, and phi with or without a top component, both at
    # magnitudes 10^k for k in [-300, 300].  Python floats raise
    # ZeroDivisionError, OverflowError or ValueError where numpy returned inf
    # or nan: the solve must return finite minimizers and value or raise
    # NumericalError, and never warn
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.normal(size=(m, m)))[0]
    psis = np.sort(rng.normal(size=m))
    if top == "zero":
        psis -= psis[-1]
    elif top == "negative":
        psis -= psis[-1] + rng.uniform(0.1, 2.0)
    elif top == "repeated":
        psis[-2:] = psis[-1]
    phih = rng.normal(size=m)
    if not phi_top:
        phih[-1] = 0.0
    qm = QuarticMarginal(Psi=(V * psis * 10.0 ** psi_exp) @ V.T,
                         phi=V @ (phih * 10.0 ** phi_exp), zeta=float(rng.normal()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = minimize_quartic(qm)
        except pm.NumericalError:
            return
    assert np.isfinite(sol.value)
    for y in sol.minimizers:
        assert np.isfinite(y).all()


@settings(max_examples=300)
@given(st.sampled_from([(1, "unique"), (1, "finite_multiple"), (2, "unique"), (2, "finite_multiple"),
                        (2, "continuum"), (3, "unique"), (3, "finite_multiple"), (3, "continuum")]),
       st.integers(-60, 60), st.integers(0, 2**32 - 1))
def test_minimize_quartic_is_scale_equivariant(case, k, seed):
    # J_k, with Psi, phi and zeta 4^k, 8^k and 16^k times J's, has J_k(2^k y)
    # = 16^k J(y): its solve must be exactly 2^k times the solve of J, with
    # 16^k times its value, bit for bit.  The hard cases have no phi along a
    # simple (finite_multiple) or double (continuum) top eigenvalue, at least
    # 2 above the rest, and short rest components
    (m, kind), rng = case, np.random.default_rng(seed)
    V = np.linalg.qr(rng.normal(size=(m, m)))[0]
    psis, phih = np.sort(rng.normal(size=m)), rng.normal(size=m)
    if kind != "unique":
        top = 1 if kind == "finite_multiple" else 2
        psis[m - top:] = abs(psis[-1]) + 2.0
        phih[m - top:] = 0.0
        phih *= 0.5
    Psi, phi, zeta = (V * psis) @ V.T, V @ phih, float(rng.normal())
    want = minimize_quartic(QuarticMarginal(Psi=Psi, phi=phi, zeta=zeta))
    got = minimize_quartic(QuarticMarginal(Psi=np.ldexp(Psi, 2 * k), phi=np.ldexp(phi, 3 * k),
                                           zeta=math.ldexp(zeta, 4 * k)))
    assert want.multiplicity_kind == kind
    assert (got.multiplicity_kind, got.certified) == (want.multiplicity_kind, want.certified)
    assert got.value == math.ldexp(want.value, 4 * k)
    assert [y.tobytes() for y in got.minimizers] == [np.ldexp(y, k).tobytes() for y in want.minimizers]
