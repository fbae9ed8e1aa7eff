"""Exact evaluation of map/plan energies, the marginal problem, and perturbations.

All double sums run over ordered atom pairs including the diagonal, and are
accumulated with compensated (fsum) summation in a fixed block order so
repeated runs produce identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CostFamily,
    DeterministicMap,
    EmbeddingPlan,
    InputError,
    Perturbation,
    PointCloud,
    QMDS,
    _merge_row,
)
from .quartic import LiftedMoments

_BLOCK = 1024
ENERGY_RTOL = 1e-12  # rounding bound, relative, below which a moment energy replaces the pairwise sum


def _pair_energy(X, Y, mass, cost: CostFamily, X2=None, Y2=None, mass2=None, exact=True):
    """sum_ab mass_a mass2_b c(x_a, x_b, y_a, y_b), blocked over rows.

    With exact=True uses math.fsum per block (reported energies); otherwise
    numpy summation (inner optimization loops).
    """
    if X2 is None:
        X2, Y2, mass2 = X, Y, mass
    totals = []
    K = X.shape[0]
    for s in range(0, K, _BLOCK):
        e = min(s + _BLOCK, K)
        A = cost.base_matrix(X[s:e], X2)
        T = cost.t_matrix(Y[s:e], Y2)
        C = cost.profile(A, T)
        C *= mass[s:e, None]
        C *= mass2[None, :]
        totals.append(math.fsum(C.ravel()) if exact else float(np.sum(C)))
    return math.fsum(totals) if exact else float(np.sum(totals))


def plan_energy(X, mass, atoms, cost: CostFamily, sums: LiftedMoments = None) -> float:
    """sum_ab mass_a mass_b c(x_a, x_b, y_a, y_b) over flat atom arrays (a map has one atom per point).

    For a cost with a moment form this is tr(PFPF) of the lifted moments
    (`sums`, or built here in O(K)) whenever their rounding bound is at most
    ENERGY_RTOL of the value; otherwise (near-isometric plans, and every cost
    without a moment form) it is the pairwise fsum of _pair_energy.
    """
    if cost.has_moment_form:
        value, rounding = (sums if sums is not None else LiftedMoments(X, mass, atoms)).energy()
        if rounding <= ENERGY_RTOL * value:
            return value
    return _pair_energy(X, atoms, mass, cost)


def reported_stress(cloud: PointCloud, solution, cost: CostFamily) -> float:
    """The energy of a plan or a map, by plan_energy: what reports and the CLI print."""
    if isinstance(solution, DeterministicMap):
        if solution.n != cloud.n:
            raise InputError(f"map has {solution.n} images but cloud has {cloud.n} atoms")
        return plan_energy(cloud.points, cloud.weights, solution.images, cost)
    return plan_energy(*_plan_arrays(solution, cloud), cost)


def stress_map(cloud: PointCloud, mapping: DeterministicMap, cost: CostFamily,
               raw_count: bool = False) -> float:
    """The map energy: sum_ij w_i w_j c(x_i, x_j, T(x_i), T(x_j))."""
    if mapping.n != cloud.n:
        raise InputError(f"map has {mapping.n} images but cloud has {cloud.n} atoms")
    val = _pair_energy(cloud.points, mapping.images, cloud.weights, cost)
    return val * cloud.n**2 if raw_count else val


def stress_plan(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily,
                raw_count: bool = False) -> float:
    """The relaxed plan energy over all ordered atom pairs, weighted by mass products."""
    plan.validate_against(cloud)
    idx, mass, atoms = plan.flat()
    val = _pair_energy(cloud.points[idx], atoms, mass, cost)
    return val * cloud.n**2 if raw_count else val


# ---------------------------------------------------------------------------
# Marginal problem J_pi(y | x)
# ---------------------------------------------------------------------------

def _marginal_objective(X, mass, atoms, cost, x):
    """(value, gradient) of the marginal problem at x, as one function of y.

    The feature-pair statistics base(x, X) are computed once, not per call.
    """
    a = cost.base_matrix(np.asarray(x, dtype=float).reshape(1, -1), X)[0]

    def objective(y):
        y = np.asarray(y, dtype=float).reshape(-1)
        t = cost.t_matrix(y.reshape(1, -1), atoms)[0]
        g = mass * cost.profile_dt(a, t)
        grad = g @ atoms if cost.kind == "IP" else 2.0 * (math.fsum(g) * y - g @ atoms)
        return math.fsum(mass * cost.profile(a, t)), grad

    return objective


def _marginal_value_arrays(X, mass, atoms, cost, x, y) -> float:
    return _marginal_objective(X, mass, atoms, cost, x)(y)[0]


def _marginal_grad_arrays(X, mass, atoms, cost, x, y) -> np.ndarray:
    return _marginal_objective(X, mass, atoms, cost, x)(y)[1]


def _marginal_hessian_arrays(X, mass, atoms, cost, x, y) -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(-1)
    a = cost.base_matrix(np.asarray(x, dtype=float).reshape(1, -1), X)[0]
    t = cost.t_matrix(y.reshape(1, -1), atoms)[0]
    g1 = mass * cost.profile_dt(a, t)
    g2 = mass * cost.profile_dtt(a, t)
    if cost.kind == "IP":
        return (atoms.T * g2) @ atoms
    diff = y[None, :] - atoms
    H = 4.0 * (diff.T * g2) @ diff
    H += 2.0 * math.fsum(g1) * np.eye(atoms.shape[1])
    return H


def _plan_arrays(plan: EmbeddingPlan, cloud: PointCloud):
    plan.validate_against(cloud)
    idx, mass, atoms = plan.flat()
    return cloud.points[idx], mass, atoms


def marginal_value(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily, x, y) -> float:
    """Expected cost of placing the point x at y against the whole plan."""
    X, mass, atoms = _plan_arrays(plan, cloud)
    return _marginal_value_arrays(X, mass, atoms, cost, x, y)


def marginal_grad(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily, x, y) -> np.ndarray:
    """Gradient of the marginal problem in y, assembled by the chain rule."""
    X, mass, atoms = _plan_arrays(plan, cloud)
    return _marginal_grad_arrays(X, mass, atoms, cost, x, y)


def marginal_hessian(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily, x, y) -> np.ndarray:
    """Analytic Hessian of the marginal problem in y."""
    X, mass, atoms = _plan_arrays(plan, cloud)
    return _marginal_hessian_arrays(X, mass, atoms, cost, x, y)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSplit:
    """First- and second-order energy response to a marginal-preserving perturbation."""

    linear: float
    quadratic: float

    def delta(self, eps: float = 1.0) -> float:
        return 2.0 * eps * self.linear + eps * eps * self.quadratic


def _gamma_arrays(gamma: Perturbation, cloud: PointCloud):
    if not gamma.rows:
        return np.empty(0, dtype=int), np.empty(0), np.empty((0, gamma.dim_m or 1))
    idx, dmass, atoms = [], [], []
    for i in sorted(gamma.rows):
        if i < 0 or i >= cloud.n:
            raise InputError(f"perturbation row {i} outside cloud of size {cloud.n}")
        d_arr, a_arr = gamma.rows[i]
        idx.extend([i] * len(d_arr))
        dmass.append(d_arr)
        atoms.append(a_arr)
    return np.array(idx, dtype=int), np.concatenate(dmass), np.concatenate(atoms, axis=0)


def perturbation_split(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily,
                       gamma: Perturbation) -> PerturbationSplit:
    """Split J(pi+gamma) - J(pi) = 2*linear + quadratic (valid whenever pi+gamma >= 0)."""
    X, mass, atoms = _plan_arrays(plan, cloud)
    gidx, gmass, gatoms = _gamma_arrays(gamma, cloud)
    if gidx.shape[0] == 0:
        return PerturbationSplit(0.0, 0.0)
    if gatoms.shape[1] != plan.dim_m:
        raise InputError(f"perturbation dimension {gatoms.shape[1]} != plan dimension {plan.dim_m}")
    GX = cloud.points[gidx]
    linear = _pair_energy(GX, gatoms, gmass, cost, X2=X, Y2=atoms, mass2=mass)
    quad = _pair_energy(GX, gatoms, gmass, cost)
    return PerturbationSplit(linear, quad)


def apply_perturbation(plan: EmbeddingPlan, gamma: Perturbation, eps: float) -> EmbeddingPlan:
    """The plan pi + eps*gamma, canonicalized; errors if any row mass turns negative."""
    if gamma.dim_m is not None and gamma.dim_m != plan.dim_m:
        raise InputError(f"perturbation dimension {gamma.dim_m} != plan dimension {plan.dim_m}")
    rows = []
    for i in range(plan.n_rows):
        masses, atoms = plan.row_masses[i], plan.row_atoms[i]
        if i in gamma.rows and eps != 0.0:
            d_arr, a_arr = gamma.rows[i]
            masses, atoms = _merge_row(np.concatenate([masses, eps * d_arr]),
                                       np.concatenate([atoms, a_arr]))
        if (masses < -1e-12).any():
            raise InputError(f"row {i}: perturbation drives mass negative ({float(masses.min())!r})")
        keep = masses > 1e-15
        if not keep.any():
            raise InputError(f"row {i}: perturbation removed all mass")
        rows.append((masses[keep], atoms[keep]))
    return EmbeddingPlan(rows)


# ---------------------------------------------------------------------------
# Determinism diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterminismReport:
    split_mass_fraction: float
    max_spread: float
    is_deterministic: bool


def determinism_report(plan: EmbeddingPlan, tol_mass: float = 1e-10,
                       tol_spread: float = 1e-10) -> DeterminismReport:
    """How far the plan is from being supported on the graph of a map."""
    split = 0.0
    spread = 0.0
    for masses, atoms in zip(plan.row_masses, plan.row_atoms):
        if len(masses) > 1:
            split += math.fsum(masses) - float(np.max(masses))
            d = np.sqrt(np.maximum(
                np.sum((atoms[:, None, :] - atoms[None, :, :]) ** 2, axis=-1), 0.0))
            spread = max(spread, float(np.max(d)))
    return DeterminismReport(split, spread, split <= tol_mass and spread <= tol_spread)


# ---------------------------------------------------------------------------
# Oscillation witness
# ---------------------------------------------------------------------------

def _grid_cloud(resolution: int) -> PointCloud:
    if resolution < 1:
        raise InputError("grid resolution must be >= 1")
    ticks = (np.arange(resolution) + 0.5) / resolution
    xx, yy = np.meshgrid(ticks, ticks, indexing="ij")
    return PointCloud(np.column_stack([xx.ravel(), yy.ravel()]))


def oscillation_experiment(n_list, grid_resolution: int, v: float = 0.1):
    """Energies of sign-checkerboard maps x -> v*prod_i sign(sin(n*pi*x_i)).

    Returns ([(n, stress), ...], stress_of_zero_map) on the uniform grid
    discretization of the unit square with the quartic distance cost.
    """
    cloud = _grid_cloud(grid_resolution)
    cost = QMDS()
    stress_zero = reported_stress(cloud, DeterministicMap(np.zeros((cloud.n, 1))), cost)
    out = []
    for n in n_list:
        signs = np.prod(np.sign(np.sin(n * np.pi * cloud.points)), axis=1)
        images = (v * signs).reshape(-1, 1)
        out.append((int(n), reported_stress(cloud, DeterministicMap(images), cost)))
    return out, stress_zero


def save_oscillation_csv(path, pairs, stress_zero: float) -> None:
    from .core import _fmt

    with open(path, "w", newline="") as fh:
        fh.write("n,stress\n")
        for n, s in pairs:
            fh.write(f"{n},{_fmt(s)}\n")
        fh.write(f"# stress_zero,{_fmt(stress_zero)}\n")
