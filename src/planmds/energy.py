"""Exact evaluation of map/plan energies, the marginal problem, and perturbations.

All double sums run over ordered atom pairs including the diagonal.  The
pairwise sum works at two levels: rows are grouped into blocks of _BLOCK,
each block's pair terms are added by one correctly rounded math.fsum, and the
block totals by another, so repeated runs produce identical values; inside a
block the terms are computed in row tiles of about _TILE_ELEMENTS pairs, so
memory stays bounded whatever the number of atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    CostFamily,
    DeterministicMap,
    EmbeddingPlan,
    InputError,
    NumericalError,
    Perturbation,
    PointCloud,
    QMDS,
    _distinct_points,
    _merge_row,
    _plan_arrays,
    _write_csv,
)
from .quartic import LiftedMoments

_BLOCK = 1024          # rows whose pair terms one math.fsum adds
_TILE_ELEMENTS = 1 << 16   # pair terms per row tile, the memory bound
_TILE_MIN_ROWS = 8     # fewer rows per product can change the BLAS kernel and its rounding
ENERGY_RTOL = 1e-12  # rounding bound, relative, below which a moment energy replaces the pairwise sum


def _pair_energy(X, Y, mass, cost: CostFamily, X2=None, Y2=None, mass2=None):
    """sum_ab mass_a mass2_b c(x_a, x_b, y_a, y_b), by math.fsum per block of _BLOCK rows.

    Each block's terms are computed in row tiles of max(_TILE_MIN_ROWS,
    _TILE_ELEMENTS // K2) rows against all K2 columns and streamed, tile
    after tile, into the block's fsum.  fsum is correctly rounded whatever
    the order of its terms, and every term comes from the same elementwise
    operations as in one dense block, so the tiling changes no bit of the
    result.  Memory is bounded by the tile: each array temporary holds at
    most max(8 K2, 2^16) terms (0.5 MB at K2 = 2250, 6.4 MB at K2 = 100k), and
    one tile's terms at a time are Python floats (about 4x that).
    """
    if X2 is None:
        X2, Y2, mass2 = X, Y, mass
    K = X.shape[0]
    rows = min(_BLOCK, max(_TILE_MIN_ROWS, _TILE_ELEMENTS // max(X2.shape[0], 1)))

    def terms(s, e):
        C = cost.profile(cost.base_matrix(X[s:e], X2), cost.t_matrix(Y[s:e], Y2))
        C *= mass[s:e, None]
        C *= mass2[None, :]
        return C.ravel().tolist()

    totals = []
    for s in range(0, K, _BLOCK):
        e = min(s + _BLOCK, K)
        totals.append(math.fsum(chain.from_iterable(
            terms(r, min(r + rows, e)) for r in range(s, e, rows))))
    return math.fsum(totals)


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


def stress_map(cloud: PointCloud, mapping: DeterministicMap, cost: CostFamily) -> float:
    """The map energy: sum_ij w_i w_j c(x_i, x_j, T(x_i), T(x_j))."""
    if mapping.n != cloud.n:
        raise InputError(f"map has {mapping.n} images but cloud has {cloud.n} atoms")
    return _pair_energy(cloud.points, mapping.images, cloud.weights, cost)


def stress_plan(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily) -> float:
    """The relaxed plan energy over all ordered atom pairs, weighted by mass products."""
    X, mass, atoms = _plan_arrays(plan, cloud)
    return _pair_energy(X, atoms, mass, cost)


# ---------------------------------------------------------------------------
# Marginal problem J_pi(y | x)
# ---------------------------------------------------------------------------

def _fsum(terms) -> float:
    """math.fsum of the terms, or NaN where finite terms overflow or infinities cancel."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _base_row(cost, x, X) -> np.ndarray:
    """The feature-pair statistics a = base(x, X) of the point x against the rows of X."""
    return cost.base_matrix(np.asarray(x, dtype=float).reshape(1, -1), X)[0]


def _marginal_objective(X, mass, atoms, cost, x, a=None):
    """The value of the marginal problem at x, as one function of y.

    The feature-pair statistics a = base(x, X) are computed once, not per
    call, and not at all when given.  A value that is not finite raises
    NumericalError.
    """
    if a is None:
        a = _base_row(cost, x, X)

    def objective(y):
        t = cost.t_matrix(np.asarray(y, dtype=float).reshape(1, -1), atoms)[0]
        value = _fsum(mass * cost.profile(a, t))
        if not math.isfinite(value):
            raise NumericalError("non-finite marginal value: coordinates too large")
        return value

    return objective


def _marginal_point(X, atoms, cost, x, y):
    """y as a flat array, a = base(x, X) and t = t(y, atoms): where a derivative starts."""
    y = np.asarray(y, dtype=float).reshape(-1)
    return y, _base_row(cost, x, X), cost.t_matrix(y.reshape(1, -1), atoms)[0]


@np.errstate(over="ignore", invalid="ignore")   # a non-finite value raises
def _marginal_value_arrays(X, mass, atoms, cost, x, y) -> float:
    """The marginal value at (x, y), the pairwise sum over the atoms."""
    return _marginal_objective(X, mass, atoms, cost, x)(y)


@np.errstate(over="ignore", invalid="ignore")   # a non-finite gradient raises
def _marginal_grad_arrays(X, mass, atoms, cost, x, y) -> np.ndarray:
    y, a, t = _marginal_point(X, atoms, cost, x, y)
    g = mass * cost.profile_dt(a, t)
    grad = g @ atoms if cost.kind == "IP" else 2.0 * (_fsum(g) * y - g @ atoms)
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite marginal gradient: coordinates too large")
    return grad


@np.errstate(over="ignore", invalid="ignore")   # a non-finite Hessian raises
def _marginal_hessian_arrays(X, mass, atoms, cost, x, y) -> np.ndarray:
    y, a, t = _marginal_point(X, atoms, cost, x, y)
    g2 = mass * cost.profile_dtt(a, t)
    if cost.kind == "IP":
        H = (atoms.T * g2) @ atoms
    else:
        diff = y[None, :] - atoms
        H = 4.0 * (diff.T * g2) @ diff
        H += 2.0 * _fsum(mass * cost.profile_dt(a, t)) * np.eye(atoms.shape[1])
    if not np.isfinite(H).all():
        raise NumericalError("non-finite marginal Hessian: coordinates too large")
    return H


def _marginal_arrays(plan: EmbeddingPlan, cloud: PointCloud, x, y=None):
    """_plan_arrays, once x is checked to be finite with the cloud's dimension d and y with the plan's m."""
    X, mass, atoms = _plan_arrays(plan, cloud)
    for name, v, dim, what in (("x", x, cloud.dim_d, "the cloud's dimension"),
                               ("y", y, plan.dim_m, "the plan's embedding dimension")):
        if v is None:
            continue
        if np.size(v) != dim:
            raise InputError(f"{name} has dimension {np.size(v)}, expected {dim} ({what})")
        if not np.isfinite(np.asarray(v, dtype=float)).all():
            raise InputError(f"{name} must be finite, got {np.asarray(v).tolist()!r}")
    return X, mass, atoms


def marginal_value(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily, x, y) -> float:
    """Expected cost of placing the point x at y against the whole plan."""
    return _marginal_value_arrays(*_marginal_arrays(plan, cloud, x, y), cost, x, y)


def marginal_grad(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily, x, y) -> np.ndarray:
    """Gradient of the marginal problem in y, assembled by the chain rule."""
    return _marginal_grad_arrays(*_marginal_arrays(plan, cloud, x, y), cost, x, y)


def marginal_hessian(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily, x, y) -> np.ndarray:
    """Analytic Hessian of the marginal problem in y."""
    return _marginal_hessian_arrays(*_marginal_arrays(plan, cloud, x, y), cost, x, y)


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
    for i in sorted(gamma.rows):
        if i < 0 or i >= plan.n_rows:
            raise InputError(f"perturbation row {i} outside plan of {plan.n_rows} rows")
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
    """max_spread is the largest spread of the atoms of one plan row, and
    coincident_spread that of all the atoms of the rows of one source point's
    copies (None when determinism_report is not given the cloud)."""

    split_mass_fraction: float
    max_spread: float
    is_deterministic: bool
    coincident_spread: float | None = None


def _spread(atoms) -> float:
    """The largest distance between two of the atoms (rows); 0 for fewer than two distinct ones."""
    atoms = np.unique(atoms, axis=0)
    if len(atoms) < 2:
        return 0.0
    if atoms.shape[1] == 1:   # sorted on a line: the ends are farthest apart
        return float(atoms[-1, 0] - atoms[0, 0])
    tile = max(1, _TILE_ELEMENTS // len(atoms))
    spread = 0.0
    for start in range(0, len(atoms), tile):
        d2 = np.sum((atoms[start:start + tile, None, :] - atoms[None, :, :]) ** 2, axis=-1)
        spread = max(spread, math.sqrt(float(np.max(d2))))
    return spread


def determinism_report(plan: EmbeddingPlan, tol_mass: float = 1e-10,
                       tol_spread: float = 1e-10, cloud: PointCloud = None) -> DeterminismReport:
    """How far the plan is from being supported on the graph of a map.

    The copies of a source point are one x, which a map sends to one image;
    with the cloud the report measures their rows' spread too.  That spread
    does not enter is_deterministic.
    """
    split = plan.split_mass()
    spread = max((_spread(atoms) for atoms in plan.row_atoms if len(atoms) > 1), default=0.0)
    coincident = None
    if cloud is not None:
        plan.validate_against(cloud)
        _, group = _distinct_points(cloud.points)
        idx, _, atoms = plan.flat()
        g = group[idx]   # each atom's source point
        copied = np.flatnonzero(np.bincount(group)[g] > 1)
        copied = copied[np.argsort(g[copied])]
        cuts = np.flatnonzero(np.diff(g[copied])) + 1
        coincident = max((_spread(a) for a in np.split(atoms[copied], cuts)), default=0.0)
    return DeterminismReport(split, spread, split <= tol_mass and spread <= tol_spread, coincident)


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
    _write_csv(path, ["n", "stress"], pairs, trailer=("# stress_zero", [stress_zero]))
