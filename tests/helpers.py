"""Shared test utilities: random instances and brute-force oracles."""

from __future__ import annotations

import math

import numpy as np

from planmds import EmbeddingPlan, PointCloud


def random_cloud(rng, n, d) -> PointCloud:
    return PointCloud(rng.normal(size=(n, d)))


def random_plan(rng, cloud: PointCloud, m, max_atoms=3) -> EmbeddingPlan:
    rows = []
    for i in range(cloud.n):
        k = int(rng.integers(1, max_atoms + 1))
        masses = rng.uniform(0.2, 1.0, size=k)
        masses = masses / masses.sum() * cloud.weights[i]
        rows.append((masses, rng.normal(size=(k, m))))
    return EmbeddingPlan(rows)


def quartic_batch(qm, Y: np.ndarray) -> np.ndarray:
    """Vectorized quartic values at rows of Y (centered coordinates)."""
    s = np.sum(Y * Y, axis=1)
    return (s * s - 2.0 * np.einsum("ij,jk,ik->i", Y, qm.Psi, Y)
            - 4.0 * (Y @ qm.phi) + qm.zeta)


def grid_oracle(qm):
    """Brute-force minimizer of a quartic marginal, independent of the solver.

    Multiscale grid search down to step 1e-3 inside the coercivity radius,
    then a derivative-free simplex polish of the best grid node.
    """
    from scipy.optimize import minimize as sp_min

    m = qm.dim_m
    top = max(0.0, float(np.linalg.eigvalsh(qm.Psi)[-1]))
    radius = math.sqrt(top + float(np.linalg.norm(qm.phi)) ** (2.0 / 3.0) + 1.0)
    lo = -radius * np.ones(m)
    hi = radius * np.ones(m)
    step = 1e-3 if m == 1 else (0.02 if m == 2 else 0.05)
    best = None
    while True:
        axes = [np.arange(lo[j], hi[j] + step / 2, step) for j in range(m)]
        mesh = np.meshgrid(*axes, indexing="ij")
        Y = np.column_stack([g.ravel() for g in mesh])
        best = Y[int(np.argmin(quartic_batch(qm, Y)))]
        if step <= 1e-3:
            break
        lo = best - 2 * step
        hi = best + 2 * step
        step = max(step / 10.0, 1e-3)
    res = sp_min(lambda y: float(quartic_batch(qm, y.reshape(1, -1))[0]), best,
                 method="Nelder-Mead",
                 options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    return np.asarray(res.x), float(res.fun)


def multistart_oracle(qm, rng, starts: int = 20) -> float:
    """Lowest value BFGS reaches from random starts inside the coercivity radius.

    Independent of the solver's eigen-analysis; an upper bound on the global
    minimum of the quartic marginal.
    """
    from scipy.optimize import minimize as sp_min

    top = max(0.0, float(np.linalg.eigvalsh(qm.Psi)[-1]))
    radius = math.sqrt(top + float(np.linalg.norm(qm.phi)) ** (2.0 / 3.0))
    best = qm.value(qm.y_shift)
    for _ in range(starts):
        y0 = rng.normal(size=qm.dim_m)
        y0 *= radius * rng.uniform(0.0, 1.5) / max(float(np.linalg.norm(y0)), 1e-300)
        res = sp_min(qm.value, qm.y_shift + y0, jac=qm.grad, method="BFGS",
                     options={"gtol": 1e-12})
        best = min(best, float(res.fun))
    return best
