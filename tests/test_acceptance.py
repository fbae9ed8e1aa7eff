"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Each
test prints ``CRITERION k: PASS|FAIL`` with details and then asserts, so a
plain ``pytest -v`` still gives one verdict per criterion.

Criterion 6 checks a stated sign convention for the selected minimizer near
the stacked-pair discontinuity.  The linear term of the marginal problem tips
the minimum toward the *same* sign as the offset (verified analytically and
against the grid oracle), so that criterion fails as stated; see the design
notes shipped alongside the repository.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import planmds as pm
from planmds.experiments import (
    circle_clusters_analytic_init,
    circle_clusters_cloud,
    largest_principal_angle,
    pca_check_cloud,
)
from planmds.optim import DescentConfig, marginal_sweep, particle_descent, pca_solve
from planmds.quartic import (
    QuarticMarginal,
    compute_moments,
    minimize_quartic,
    quartic_at,
    select_minimizer,
)

from helpers import grid_oracle, random_cloud, random_plan


def verdict(k: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {k}: {detail}"


def stacked_pair_moments():
    cloud = pm.PointCloud([[0.0, 1.0], [0.0, -1.0]])
    plan = pm.plan_from_map(cloud, pm.DeterministicMap([[1.0], [-1.0]]))
    return compute_moments(plan, cloud)


def test_criterion_1_perturbation_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    cost = pm.QMDS()
    for _ in range(200):
        cloud = random_cloud(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
        m = int(rng.integers(1, 4))
        plan = random_plan(rng, cloud, m)
        i = int(rng.integers(0, cloud.n))
        q = float(rng.uniform(0.1, 1.0)) * float(plan.row_masses[i][0])
        gamma = pm.Perturbation.needle(i, q, plan.row_atoms[i][0],
                                       rng.normal(size=m))
        j0 = pm.stress_plan(plan, cloud, cost)
        j1 = pm.stress_plan(pm.apply_perturbation(plan, gamma, 1.0), cloud, cost)
        split = pm.perturbation_split(plan, cloud, cost, gamma)
        err = abs((j1 - j0) - split.delta(1.0)) / (1.0 + abs(j0))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    verdict(1, ok, f"worst relative identity error {worst:.3e} "
                   f"(tol 1e-10), {elapsed:.1f}s (< 10s)")


def test_criterion_2_quartic_fidelity():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        cloud = random_cloud(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
        m = int(rng.integers(1, 4))
        plan = random_plan(rng, cloud, m)
        mom = compute_moments(plan, cloud)
        x = rng.normal(size=cloud.dim_d)
        y = rng.normal(size=m)
        direct = pm.marginal_value(plan, cloud, pm.QMDS(), x, y)
        err = abs(quartic_at(mom, x).value(y) - direct) / (1.0 + abs(direct))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    verdict(2, ok, f"worst relative form error {worst:.3e} "
                   f"(tol 1e-10), {elapsed:.1f}s (< 10s)")


def test_criterion_3_stacked_pair_coefficients():
    mom = stacked_pair_moments()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=2)
        qm = quartic_at(mom, x)
        worst = max(worst,
                    abs(qm.Psi[0, 0] - (float(x @ x) - 2.0)),
                    abs(qm.phi[0] - 2.0 * x[1]))
    ok = worst <= 1e-12
    verdict(3, ok, f"worst coefficient error {worst:.3e} "
                   "for psi = |x|^2 - 2, phi = 2*x2 (tol 1e-12)")


def test_criterion_4_solver_vs_grid_oracle():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst_v, worst_y = 0.0, 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(m, m))
        qm = QuarticMarginal(Psi=0.5 * (A + A.T), phi=rng.normal(size=m),
                             zeta=float(rng.normal()))
        sol = minimize_quartic(qm)
        y_ref, v_ref = grid_oracle(qm)
        worst_v = max(worst_v, abs(sol.value - v_ref))
        worst_y = max(worst_y,
                      min(np.linalg.norm(y - y_ref) for y in sol.minimizers))
    elapsed = time.perf_counter() - start
    ok = worst_v <= 1e-6 and worst_y <= 2e-3 and elapsed < 120.0
    verdict(4, ok, f"worst value error {worst_v:.3e} (tol 1e-6), "
                   f"worst argument error {worst_y:.3e} (tol 2e-3), "
                   f"{elapsed:.1f}s (< 2min)")


def test_criterion_5_minimizer_multiplicity_regions():
    mom = stacked_pair_moments()
    rng = np.random.default_rng(105)
    ok = True
    detail = "all probes matched"
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=2)
        if float(x @ x) >= 2.0 - 1e-9:
            continue
        sol = minimize_quartic(quartic_at(mom, x))
        if sol.multiplicity_kind != "unique" or len(sol.minimizers) != 1:
            ok, detail = False, f"non-unique minimizer inside disc at x={x}"
            break
    if ok:
        sol = minimize_quartic(quartic_at(mom, np.array([1.5, 0.0])))
        got = sorted(float(y[0]) for y in sol.minimizers)
        if (sol.multiplicity_kind != "finite_multiple" or len(got) != 2
                or abs(got[0] + 0.5) > 1e-9 or abs(got[1] - 0.5) > 1e-9):
            ok = False
            detail = f"x=(1.5,0) gave {sol.multiplicity_kind} at {got}"
        else:
            detail = ("unique inside |x| < sqrt(2); exactly two minimizers "
                      "+-0.5 at x=(1.5,0)")
    verdict(5, ok, detail)


def test_criterion_6_discontinuity_sign_rule_as_stated():
    # As stated, the selected minimizer at x = (1.5, eps) must have sign
    # -sign(eps).  The marginal problem there is |y|^4 - 2*psi*y^2 - 4*(2eps)*y
    # + const, whose global minimum moves toward +sign(eps); this criterion
    # is therefore expected to fail.  The verified behavior is covered by
    # tests/test_quartic.py::test_selected_sign_follows_offset_sign.
    mom = stacked_pair_moments()
    signs = {}
    ok = True
    for eps in (1e-3, -1e-3, 1e-2, -1e-2):
        sel = select_minimizer(minimize_quartic(quartic_at(mom, [1.5, eps])))
        signs[eps] = float(np.sign(sel[0]))
        if signs[eps] != -np.sign(eps):
            ok = False
    verdict(6, ok, f"selected signs {signs} vs required -sign(eps)")


_SWEEP_RUNS = []


def _criterion_7_runs():
    if _SWEEP_RUNS:
        return _SWEEP_RUNS
    rng = np.random.default_rng(107)
    cost = pm.QMDS()
    for _ in range(50):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 4))
        cloud = random_cloud(rng, n, d)
        init = pm.DeterministicMap(rng.normal(size=(n, 1)))
        plan, trace = marginal_sweep(
            pm.plan_from_map(cloud, init), cloud, cost,
            DescentConfig(max_sweeps=400, rel_tol=1e-13))
        _SWEEP_RUNS.append((cloud, plan, trace))
    return _SWEEP_RUNS


def test_criterion_7_sweep_monotone_and_support_condition():
    start = time.perf_counter()
    runs = _criterion_7_runs()
    cost = pm.QMDS()
    worst_rise, worst_gap = 0.0, 0.0
    rng = np.random.default_rng(1070)
    for cloud, plan, trace in runs:
        for a, b in zip(trace.energies, trace.energies[1:]):
            worst_rise = max(worst_rise, (b - a) / (1.0 + abs(a)))
        # support condition at a random subset of rows (every atom of the
        # final plan is a global minimizer of its marginal problem)
        for i in rng.choice(cloud.n, size=min(cloud.n, 12), replace=False):
            sol = pm.minimize_marginal(plan, cloud, cost, cloud.points[i])
            for y in plan.row_atoms[i]:
                gap = (pm.marginal_value(plan, cloud, cost, cloud.points[i], y)
                       - sol.value) / (1.0 + abs(sol.value))
                worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - start
    ok = worst_rise <= 1e-12 and worst_gap <= 1e-8 and elapsed < 120.0
    verdict(7, ok, f"worst energy rise {worst_rise:.3e} (tol 1e-12 rel), "
                   f"worst support gap {worst_gap:.3e} (tol 1e-8), "
                   f"{elapsed:.1f}s (< 2min)")


def test_criterion_8_full_move_inequality():
    runs = _criterion_7_runs()
    worst = max(max(trace.max_delta) if trace.max_delta else 0.0
                for _, _, trace in runs)
    ok = worst <= 1e-12
    verdict(8, ok, f"worst accepted full-move delta {worst:.3e} (tol 1e-12) "
                   f"over {len(runs)} sweep runs")


def test_criterion_9_pca_equivalence():
    start = time.perf_counter()
    cloud = pca_check_cloud(109, n=200)
    cost = pm.QuadraticIP()
    pca_map = pca_solve(cloud, 2)
    pca_stress = pm.stress_map(cloud, pca_map, cost)
    plan, _ = marginal_sweep(
        pm.plan_from_map(cloud, pca_map), cloud, cost,
        DescentConfig(max_sweeps=50, rel_tol=1e-12, init="pca", dim_m=2))
    sweep_stress = pm.stress_plan(plan, cloud, cost)

    Xc = cloud.points - cloud.mean()
    C = (Xc.T * cloud.weights) @ Xc
    vecs = np.linalg.eigh(C)[1][:, ::-1][:, :2]
    idx, _, atoms = plan.flat()
    angle = largest_principal_angle(atoms, (Xc @ vecs)[idx])
    elapsed = time.perf_counter() - start
    ok = (sweep_stress <= pca_stress + 1e-6 and angle < 1e-3
          and elapsed < 60.0)
    verdict(9, ok, f"sweep stress {sweep_stress:.6e} vs pca {pca_stress:.6e} "
                   f"(tol +1e-6), principal angle {angle:.3e} (< 1e-3), "
                   f"{elapsed:.1f}s (< 1min)")


def test_criterion_10_circle_clusters_ordinal():
    start = time.perf_counter()
    cost = pm.QMDS()
    cluster_size = 1000
    ordering_ok, split_ok, agree_ok = True, True, True
    details = []
    for seed in range(1, 6):
        cloud = circle_clusters_cloud(seed, cluster_size)
        pmap, _ = particle_descent(
            cloud, cost, DescentConfig(max_sweeps=120, rel_tol=1e-9,
                                       seed=seed, init="random", dim_m=1))
        p_stress = pm.stress_map(cloud, pmap, cost)
        init = circle_clusters_analytic_init(cloud, cluster_size)
        plan, _ = marginal_sweep(
            pm.plan_from_map(cloud, init), cloud, cost,
            DescentConfig(max_sweeps=60, rel_tol=1e-12, seed=seed, dim_m=1))
        s_stress = pm.stress_plan(plan, cloud, cost)
        det = pm.determinism_report(plan, 1e-10, 1e-10)
        if s_stress >= p_stress:
            ordering_ok = False
        if det.split_mass_fraction > 1e-10:
            split_ok = False
        circle = cloud.points[2 * cluster_size:]
        vals = np.array([plan.row_atoms[i][0, 0]
                         for i in range(2 * cluster_size, cloud.n)])
        want = np.sign(circle[:, 1])
        got = np.sign(vals)
        agree = max(np.mean(got == want), np.mean(got == -want))
        if agree < 0.95:
            agree_ok = False
        details.append(f"seed {seed}: sweep {s_stress:.4f} < particle "
                       f"{p_stress:.4f}, split {det.split_mass_fraction:.1e}, "
                       f"sign agreement {agree:.3f}")
    elapsed = time.perf_counter() - start
    ok = ordering_ok and split_ok and agree_ok and elapsed < 300.0
    verdict(10, ok, "; ".join(details) + f"; {elapsed:.0f}s (< 5min)")


def test_criterion_11_oscillation_witness():
    start = time.perf_counter()
    pairs, stress_zero = pm.oscillation_experiment(range(1, 9), 64, v=0.1)
    best = min(s for _, s in pairs)
    elapsed = time.perf_counter() - start
    ok = best < stress_zero and elapsed < 60.0
    verdict(11, ok, f"min over n in 1..8 is {best:.6f} < J(0) = "
                    f"{stress_zero:.6f}, {elapsed:.1f}s (< 1min)")


def test_criterion_12_nonconvexity_witness():
    rng = np.random.default_rng(112)
    X = rng.normal(size=(60, 2))
    X -= X.mean(axis=0)
    cloud = pm.PointCloud(X)
    A = np.diag([np.sqrt(1.5), 0.5])
    images = X @ A.T
    cost = pm.QMDS()
    jt = pm.stress_map(cloud, pm.DeterministicMap(images), cost)
    jm = pm.stress_map(cloud, pm.DeterministicMap(-images), cost)
    j0 = pm.stress_map(cloud, pm.DeterministicMap(np.zeros_like(images)), cost)
    ok = abs(jt - jm) <= 1e-12 * (1 + abs(jt)) and jt < j0
    verdict(12, ok, f"J(T) = {jt:.6f} = J(-T) = {jm:.6f} < J(0) = {j0:.6f}")


def test_criterion_13_derivative_checks():
    rng = np.random.default_rng(113)
    start = time.perf_counter()
    h = 1e-5
    worst_g, worst_h = 0.0, 0.0
    costs = [pm.QMDS(), pm.QSammon(), pm.QuadraticIP(), pm.KernelIP(),
             pm.Elastic()]
    for cost in costs:
        for _ in range(100):
            cloud = random_cloud(rng, int(rng.integers(2, 7)), 2)
            m = int(rng.integers(1, 4))
            plan = random_plan(rng, cloud, m)
            x = rng.normal(size=2)
            y = rng.normal(size=m)
            g = pm.marginal_grad(plan, cloud, cost, x, y)
            fd_g = np.array([
                (pm.marginal_value(plan, cloud, cost, x, y + h * e)
                 - pm.marginal_value(plan, cloud, cost, x, y - h * e)) / (2 * h)
                for e in np.eye(m)])
            worst_g = max(worst_g, float(np.abs(g - fd_g).max()))
            H = pm.marginal_hessian(plan, cloud, cost, x, y)
            fd_h = np.column_stack([
                (pm.marginal_grad(plan, cloud, cost, x, y + h * e)
                 - pm.marginal_grad(plan, cloud, cost, x, y - h * e)) / (2 * h)
                for e in np.eye(m)])
            worst_h = max(worst_h, float(np.abs(H - fd_h).max()))
    elapsed = time.perf_counter() - start
    ok = worst_g <= 1e-6 and worst_h <= 1e-5 and elapsed < 30.0
    verdict(13, ok, f"worst gradient error {worst_g:.3e} (tol 1e-6), "
                    f"worst Hessian error {worst_h:.3e} (tol 1e-5), "
                    f"{elapsed:.1f}s (< 30s)")
