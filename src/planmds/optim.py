"""Optimizers: particle gradient descent, the marginal-sweep descent, and PCA.

The marginal sweep repeatedly moves each plan atom toward the current global
minimizer of its marginal problem, by the clamped optimal step along the
needle direction, so the energy is non-increasing in every case.  For
squared-distance costs whose profile is uniquely minimized at zero that step
is always the full reassignment.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    CostFamily,
    DeterministicMap,
    EmbeddingPlan,
    InputError,
    NumericalError,
    PointCloud,
    _distinct_points,
    _gather,
    _match,
    _merge_rows,
    _plan_arrays,
    _split_mass,
    _write_csv,
)
from .energy import (
    _base_row,
    _fsum,
    _marginal_arrays,
    _marginal_objective,
    plan_energy,
)
from .quartic import (
    EPS,
    RESIDUAL_TOL,
    LiftedMoments,
    MarginalSolution,
    _row_moments,
    _solve_at,
    map_objective,
    quartic_at,
)

GAIN_TOL = 1e-9    # per-unit-mass marginal gain below which a move is skipped
INIT_SCALE = 1.0   # standard deviation of the random initial images
STEP_SIZE = 1.0    # first step length tried by particle descent
ARMIJO_C = 1e-4    # sufficient-decrease constant of its backtracking
MAX_HALVINGS = 40  # step halvings before particle descent stops
GAP_RTOL = 1e-9    # a certified branch-and-bound value is within GAP_RTOL (1 + |value|) of the minimum
ROUNDING_ULPS = 64   # ... plus this many ulps of the scale of its bounds, their rounding allowance
BOX_BUDGET = 1 << 17   # boxes a branch and bound may bound before it returns its best point uncertified
BOX_TILE = 1 << 15   # elements (atoms x coordinates + coordinates^2 a row) of one chunk of boxes
NEWTON_STEPS = 16  # damped Newton steps at most per refinement
ROOT_CELLS = 4     # the branch and bound's first cut has at most ROOT_CELLS^3 boxes, the m = 3 cut
PIVOT_RTOL = 1e-9  # det(G) / tr(G)^m above which a least-squares G is solved by its LDL^T


@dataclass
class DescentConfig:
    """Shared knobs for both optimizers.

    init (read by particle descent; the marginal sweep starts from its plan)
    may be "random", "pca", or a DeterministicMap.
    """

    max_sweeps: int = 100
    rel_tol: float = 1e-10
    seed: int = 0
    init: object = "random"
    dim_m: int = 1

    def __post_init__(self):
        for name, least in (("max_sweeps", 1), ("seed", 0), ("dim_m", 1)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= least):
                raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
        tol = self.rel_tol
        if not (isinstance(tol, numbers.Real) and not isinstance(tol, bool)
                and 0 < tol < math.inf):   # NaN too
            raise InputError(f"rel_tol must be positive and finite, got {tol!r}")


def _is_int(value) -> bool:
    """Whether value is an integer: a bool, though an Integral, is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class IterationTrace:
    """Per-sweep record of energy, split mass, and moved mass.

    swept_rows is the number of rows a marginal sweep sweeps, one per
    distinct source point; None for particle descent.
    """

    def __init__(self):
        self.energies: list[float] = []
        self.split_mass: list[float] = []
        self.moved_mass: list[float] = []
        self.max_delta: list[float] = []
        self.final_grad_norm: float | None = None
        self.swept_rows: int | None = None

    def add(self, energy: float, split: float, moved: float, max_delta: float = 0.0) -> None:
        self.energies.append(float(energy))
        self.split_mass.append(float(split))
        self.moved_mass.append(float(moved))
        self.max_delta.append(float(max_delta))

    @property
    def n_sweeps(self) -> int:
        return max(len(self.energies) - 1, 0)

    def run_fields(self) -> dict:
        """The keys a run record takes from its trace: sweeps, max_delta and final_grad_norm.

        max_delta has one entry per trace row, the initial one 0.0: the
        largest predicted energy change of the moves a sweep made (each
        negative), 0.0 for a sweep that moved nothing and for every particle
        step.  final_grad_norm is particle descent's, None for a sweep.
        """
        return {"sweeps": self.n_sweeps, "max_delta": list(self.max_delta),
                "final_grad_norm": self.final_grad_norm}

    def save_csv(self, path) -> None:
        _write_csv(path, ["sweep", "energy", "split_mass", "moved_mass"],
                   np.column_stack([np.arange(len(self.energies)), self.energies,
                                    self.split_mass, self.moved_mass]))


def _initial_images(cloud: PointCloud, config: DescentConfig) -> np.ndarray:
    init = config.init
    if isinstance(init, DeterministicMap):
        if init.n != cloud.n:
            raise InputError("initial map size does not match the cloud")
        return np.array(init.images, dtype=float)
    if isinstance(init, EmbeddingPlan):
        raise InputError("particle descent needs a map-style init, not a plan")
    if init == "pca":
        return np.array(pca_solve(cloud, config.dim_m).images)
    if init == "random":
        rng = np.random.default_rng(config.seed)
        return INIT_SCALE * rng.standard_normal((cloud.n, config.dim_m))
    raise InputError(f"unknown init {init!r}")


def _dense_objective(cloud: PointCloud, cost: CostFamily):
    """map_objective for a cost with no moment form: from the n x n pairwise matrices, one trial a call.

    The base matrix A is computed once for the whole descent; each trial's
    t matrix once, for its energy and, if asked, its gradient.
    """
    w = cloud.weights
    M = np.outer(w, w)
    A = cost.base_matrix(cloud.points, cloud.points)

    def evaluate(Ys):
        (Yc,) = Ys
        T = cost.t_matrix(Yc, Yc)

        def gradient(j):
            G = M * cost.profile_dt(A, T)
            if cost.kind == "IP":
                return 2.0 * G @ Yc
            return 4.0 * (np.sum(G, axis=1)[:, None] * Yc - G @ Yc)

        return [float(np.sum(M * cost.profile(A, T)))], gradient

    return evaluate, 1


@np.errstate(over="ignore", invalid="ignore")   # every energy and gradient norm is checked
def particle_descent(cloud: PointCloud, cost: CostFamily,
                     config: DescentConfig) -> tuple[DeterministicMap, IterationTrace]:
    """Gradient descent on particle positions with Armijo backtracking.

    Each step tries eta = STEP_SIZE, STEP_SIZE / 2, ... (MAX_HALVINGS trials
    at most) and takes the first that passes the Armijo test.  The trials
    are evaluated in batches, one stacked build each (map_objective).  The
    depth of the accepted trial changes slowly, and often alternates between
    two neighbours, so a batch reaches as deep as the deeper of the last two
    accepted trials: one trial at the first step, and for as long as eta =
    STEP_SIZE passes; at most max_batch.  The trials are read in order and
    none past the accepted one is read, so the map and trace are those of
    trying one step length at a time, bit for bit.
    """
    Y = _initial_images(cloud, config)
    w = cloud.weights
    if cost.has_moment_form:
        evaluate, max_batch = map_objective(cloud.points, w, Y.shape[1])
    else:
        evaluate, max_batch = _dense_objective(cloud, cost)

    trace = IterationTrace()
    (E,), gradient = evaluate(Y[None])
    if not math.isfinite(E):
        raise NumericalError("non-finite energy at initialization")
    trace.add(E, 0.0, 0.0)
    grad = gradient(0)
    ladder = [math.ldexp(STEP_SIZE, -k) for k in range(MAX_HALVINGS)]   # STEP_SIZE halved k times
    batch, depth = 1, 0
    for it in range(config.max_sweeps):
        gnorm2 = float((grad * grad).sum())
        if not math.isfinite(gnorm2):
            raise NumericalError(f"non-finite gradient at iteration {it}")
        if gnorm2 == 0.0:
            break
        tried, accepted = 0, None
        while accepted is None and tried < MAX_HALVINGS:
            etas = ladder[tried:tried + batch]
            Ys = Y - np.multiply.outer(etas, grad)
            energies, gradient = evaluate(Ys)
            for j, (eta, E_new) in enumerate(zip(etas, energies)):
                if not math.isfinite(E_new):
                    raise NumericalError(f"non-finite energy at iteration {it}")
                if E_new <= E - ARMIJO_C * eta * gnorm2:
                    accepted = j
                    break
            tried += len(etas)
        if accepted is None:
            break
        depth, last_depth = tried - len(etas) + accepted, depth
        batch = min(max(depth, last_depth) + 1, max_batch)
        D = Ys[accepted] - Y   # the norm of each row as np.linalg.norm takes it, with less overhead
        moved = float((w * np.sqrt(np.add.reduce(D * D, axis=1))).sum())
        Y = Ys[accepted]
        improvement = E - E_new
        E = E_new
        trace.add(E, 0.0, moved)
        grad = gradient(accepted)
        if improvement <= config.rel_tol * (1.0 + abs(E)):
            break
    trace.final_grad_norm = float(np.sqrt(np.sum(grad * grad)))
    if not math.isfinite(trace.final_grad_norm):
        raise NumericalError("non-finite gradient at the last iteration")
    return DeterministicMap(Y), trace


# ---------------------------------------------------------------------------
# Marginal minimization (dispatch per cost)
# ---------------------------------------------------------------------------

def _quad_min(g, lam, dlo, dhi):
    """Per row, the minimum over d in the box [dlo, dhi] of g.d + lam |d|^2 / 2.

    Each coordinate's minimum lies at the clipped stationary point when
    lam > 0 and at an end otherwise, so the least of the three values is it.
    """
    lam = lam[:, None]
    half = 0.5 * lam
    d = np.clip(-g / np.where(lam > 0.0, lam, np.inf), dlo, dhi)
    q = [g * e + half * e * e for e in (dlo, dhi, d)]
    return np.sum(np.minimum(np.minimum(q[0], q[1]), q[2]), axis=1)


class _AttractionRepulsion:
    """J(c + z) = sum_b wk_b |z - z_b|^2 + wr_b exp(-|z - z_b|^2) = K |z - cz|^2 + q0 + G(z).

    An attraction-repulsion marginal in coordinates z about the attraction
    mean c: K = sum wk, cz (about 0) the wk-mean of the atoms z_b,
    q0 = sum wk |z_b - cz|^2, and 0 <= G <= B = sum wr.  Every term is
    nonnegative.  The methods take rows of points or boxes in chunks of at
    most BOX_TILE elements, k m + m^2 a row for k atoms, so their memory does
    not grow with the number of rows; a non-finite value or gradient, and a
    NaN or +inf bound, raises NumericalError.
    """

    def __init__(self, Z, wk, wr, K=None):
        self.Z, self.wk, self.wr = Z, wk, wr
        self.Zt = np.ascontiguousarray(Z.T)   # (m, k): the offsets below run along the atoms
        self.K = math.fsum(wk.tolist()) if K is None else K   # K, when given, is that sum
        self.cz = np.sum(wk[:, None] * Z, axis=0) / self.K
        self.q0 = math.fsum((wk * np.sum((Z - self.cz) ** 2, axis=1)).tolist())
        self.B = math.fsum(wr.tolist())
        self.rows = max(1, BOX_TILE // (Z.size + Z.shape[1] ** 2))
        self.eye = np.eye(Z.shape[1])

    def gap(self, U: float) -> float:
        """GAP_RTOL (1 + |U|) plus ROUNDING_ULPS ulps of m U + B, the scale of J and its
        bounds in the root box (K |z - cz|^2 <= m (U - q0) there)."""
        return GAP_RTOL * (1.0 + abs(U)) + ROUNDING_ULPS * EPS * (self.Z.shape[1] * abs(U) + self.B)

    def _chunked(self, fn, *arrays):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # checked by callers
            if len(arrays[0]) <= self.rows:
                return fn(*arrays)
            parts = [fn(*(a[s:s + self.rows] for a in arrays))
                     for s in range(0, len(arrays[0]), self.rows)]
        return [np.concatenate(p) for p in zip(*parts)]

    def _value_terms(self, P):
        """Offsets D (row, coordinate, atom), squared distances s, repulsion terms
        wr exp(-s) and values at the rows of P."""
        D = P[:, :, None] - self.Zt
        s = np.einsum("njk,njk->nk", D, D)
        re = self.wr * np.exp(-s)
        return D, s, re, np.sum(self.wk * s + re, axis=1)

    def _terms(self, P, hessian=True):
        """Offsets D, squared distances, values, gradients and, if hessian, Hessians at the rows of P."""
        D, s, re, val = self._value_terms(P)
        dw = self.wk - re
        grad = 2.0 * np.einsum("nk,njk->nj", dw, D)
        if not hessian:
            return D, s, val, grad
        H = 4.0 * np.einsum("nik,njk->nij", re[:, None, :] * D, D)
        H += (2.0 * np.sum(dw, axis=1))[:, None, None] * self.eye
        return D, s, val, grad, H

    def values(self, P):
        """The values of evaluate(P), alone; only a non-finite value raises."""
        (val,) = self._chunked(lambda P: self._value_terms(P)[3:], P)
        if not np.isfinite(val).all():
            raise NumericalError("non-finite marginal value: coordinates too large")
        return val

    def evaluate(self, P, hessian=True):
        """Values, gradients and, if hessian, Hessians at the rows of P."""
        return self._chunked(lambda P: self._evaluate(P, hessian), P)

    def _evaluate(self, P, hessian=True):
        """evaluate(P, hessian) for rows of P that make one chunk."""
        terms = self._terms(P, hessian)[2:]
        if not all(np.isfinite(a).all() for a in terms):
            raise NumericalError("non-finite marginal value or gradient: coordinates too large")
        return terms

    def bounds(self, lo, hi):
        """Midpoints, their values, Hessian eigenvalue lower bounds lam and the lower
        bounds (i) and (ii) of J on the boxes [lo, hi] (see _generic_solution).

        lam is the larger of two bounds on the box.  One sums, per atom, the
        least eigenvalue of the Hessian of exp(-s_b): e^-s (4 s - 2), unimodal
        in s, along z - z_b and, at m >= 2, -2 e^-s >= -2 e^-smin across it.
        The other is the least eigenvalue of H(mid) less L r, with r = |h| and
        L a bound of the third derivative on the box: that of exp(-s_b) has
        the norm e^-s max |12 p - 8 p^3| over |p| <= sqrt(s), at most e^-smin
        times that maximum at smax.  As the cubic Taylor remainder about the
        midpoint is at most L |d|^3 / 6, bound (ii) may take L r / 3 in place
        of L r.  A bound (ii) of -inf, where its curvature term overflows,
        bounds nothing and leaves (i).
        """
        m = lo.shape[1]

        def chunk(lo, hi):
            mid = 0.5 * (lo + hi)
            h = np.maximum(hi - mid, mid - lo)
            hh = np.sum(h * h, axis=1)
            D, s, val, grad, H = self._terms(mid)
            A = np.abs(D)
            near = np.maximum(A - h[:, :, None], 0.0)
            smin = np.einsum("njk,njk->nk", near, near)
            smax = s + 2.0 * np.einsum("njk,nj->nk", A, h) + hh[:, None]
            e_near, e_far = np.exp(-smin), np.exp(-smax)
            curv = (np.minimum(e_near * (4.0 * smin - 2.0), e_far * (4.0 * smax - 2.0)) if m == 1
                    else -2.0 * e_near)
            p = 4.0 * np.sqrt(smax) * (3.0 - 2.0 * smax)   # 12 p - 8 p^3 at p = sqrt(smax)
            third = np.where(smax <= 0.5, p, np.maximum(4.0 * math.sqrt(2.0), -p))
            third = np.where(e_near > 0.0, e_near * third, 0.0)
            lam0 = 2.0 * self.K + np.sum(self.wr * curv, axis=1)
            low = np.linalg.eigvalsh(H)[:, 0]
            Lr = np.sum(self.wr * third, axis=1) * np.sqrt(hh)
            dist = np.maximum(np.abs(mid - self.cz) - h, 0.0)
            lb1 = self.K * np.sum(dist * dist, axis=1) + self.q0 + np.sum(self.wr * e_far, axis=1)
            lb2 = val + _quad_min(grad, np.maximum(lam0, low - Lr / 3.0), -h, h)
            return mid, val, np.maximum(lam0, low - Lr), lb1, lb2

        mid, val, lam, lb1, lb2 = self._chunked(chunk, lo, hi)
        lb = np.maximum(lb1, lb2)
        if not (lb < np.inf).all():
            raise NumericalError("non-finite marginal bound: coordinates too large")
        return mid, val, lam, lb

    def newton(self, P, lo, hi):
        """At most NEWTON_STEPS projected Newton steps from the rows of P in the boxes [lo, hi].

        A coordinate at a face of its box whose gradient points out of it is
        held; the others take a Newton step on their block of the Hessian,
        whose eigenvalues are replaced by their absolute values, floored at
        1e-9 (K + B), so the step descends.  A step, projected onto the box,
        is kept when it lowers the value, or keeps it within rounding and
        lowers the gradient's max-norm, and halved otherwise (Bertsekas 1982).
        The steps stop when every row's next step moves it by at most 4 eps
        (1 + |P|) a coordinate, or after NEWTON_STEPS.  Returns the points,
        their values, and per row whether it is a Newton fixed point: the
        steps stopped at that test and the row's step there was a full one.
        Newton steps from fixed points alone stop at once and return them and
        their values unchanged, bit for bit.  lo and hi broadcast against P,
        which is taken in chunks as the bounds are.
        """
        if len(P) > self.rows:   # the chunks slice lo and hi with P
            lo, hi = np.broadcast_to(lo, P.shape), np.broadcast_to(hi, P.shape)
        return self._chunked(self._newton, P, lo, hi)

    def _held(self, P, grad, H, lo, hi):
        """grad and H with each coordinate held at a face of its box (see newton)
        taken out: its gradient entry 0, its Hessian row and column the identity's."""
        at_lo, at_hi = P <= lo, P >= hi
        if not (at_lo.any() or at_hi.any()):
            return grad, H
        f = ~((at_lo & (grad > 0.0)) | (at_hi & (grad < 0.0)))
        return np.where(f, grad, 0.0), np.where(f[:, :, None] & f[:, None, :], H, self.eye)

    def _newton(self, P, lo, hi):
        val, grad, H = self._evaluate(P)
        g, H = self._held(P, grad, H, lo, hi)
        floor = 1e-9 * (self.K + self.B)
        t = None   # the rows' step factors, once a step is halved
        for _ in range(NEWTON_STEPS):
            w, V = np.linalg.eigh(H)
            w = np.maximum(np.abs(w), floor)
            step = np.einsum("nij,nj->ni", V, np.einsum("nji,nj->ni", V, g) / w)
            Q = np.clip(P - (step if t is None else t[:, None] * step), lo, hi)   # an overflow is clipped
            if (np.abs(Q - P) <= 4.0 * EPS * (1.0 + np.abs(P))).all():
                return P, val, np.full(len(P), True) if t is None else t == 1.0
            v2, grad2, H2 = self._evaluate(Q)
            g2, H2 = self._held(Q, grad2, H2, lo, hi)
            keep = v2 < val
            if not keep.all():
                keep |= ((v2 <= val + ROUNDING_ULPS * EPS * val)
                         & (np.max(np.abs(g2), axis=1) < np.max(np.abs(g), axis=1)))
            if keep.all():
                P, val, g, H, t = Q, v2, g2, H2, None
            else:
                P, val, g, H = (np.where(keep.reshape((-1,) + (1,) * (a.ndim - 1)), b, a)
                                for a, b in ((P, Q), (val, v2), (g, g2), (H, H2)))
                t = np.where(keep, 1.0, 0.5 if t is None else 0.5 * t)
        return P, val, np.full(len(P), False)


@lru_cache(maxsize=None)
def _root_cut(m: int) -> tuple:
    """The first cut of the branch and bound at dimension m, read-only and built once per m.

    With cells the largest number for which cells^m <= ROOT_CELLS^3: the
    edges of the unit cube's cells along an axis, np.linspace(-1, 1, cells +
    1) as a column, the indices of each cell's lower and upper edges
    (cells^m rows of m), and the axes 0, ..., m - 1 that index them.
    """
    cells = 1
    while (cells + 1) ** m <= ROOT_CELLS ** 3:
        cells += 1
    lower = np.indices((cells,) * m).reshape(m, -1).T
    cut = np.linspace(-1.0, 1.0, cells + 1)[:, None], lower, lower + 1, np.arange(m)
    for a in cut:
        a.setflags(write=False)
    return cut


@np.errstate(over="ignore", invalid="ignore")   # the weights, the attraction mean and the values are checked
def _generic_solution(mass, atoms, cost, a, y_old=None):
    """_solve_marginal_arrays for an attraction-repulsion profile, by spatial branch and bound.

    With a_b = |x - x_b|^2, wk_b = m_b attraction(a_b), wr_b = m_b repulsion(a_b)
    and s_b = |y - y_b|^2 the marginal is

        J(y) = sum_b wk_b s_b + wr_b exp(-s_b) = K |y - c|^2 + q0 + G(y),  0 <= G <= B,

    with c the wk-mean of the atoms (see _AttractionRepulsion); the search
    is the classical one of Horst & Tuy (1996).  The incumbent value U
    starts as the least value at the atoms (the sweep's old atom among them)
    and at c, the best of them refined by Newton steps.
    Every point with J <= U lies in K |y - c|^2 <= U - q0, so the search
    starts from the cube about c of that half-width, cut into cells^m equal
    boxes, with cells the largest number for which there are at most
    ROOT_CELLS^3, the m = 3 cut (64 cells at m = 1, 8 at m = 2): the first
    rounds of halving would prune none, and at high m a finer cut costs more
    time and memory than the search it saves.  A box is bounded below by the
    largest of
      (i) K dist^2(c, box) + q0 + sum_b wr_b exp(-farthest^2(y_b, box));
      (ii) J(mid) + the minimum over the box of g.d + lam |d|^2 / 2, with g the
           gradient at the midpoint and lam a lower bound of the Hessian's
           eigenvalues on the box, or of the least eigenvalue of H(mid) less
           the cubic Taylor remainder (see _AttractionRepulsion.bounds);
      (iii) where lam > 0 (J convex on the box), the same about the incumbent
           clipped into the box in place of the midpoint: lam bounds the
           Hessian on the whole box, so any point of it will do.
    A box whose bound exceeds U - gap is pruned, any other split in four by
    halving its two longest sides (in two at m = 1); midpoints and clipped
    incumbents lower U.  When no box is left no point is below U - gap,
    gap = GAP_RTOL (1 + |U|) plus a rounding allowance, and the minimizers
    are the Newton-polished points of the incumbent and of the pruned boxes
    that may hold a value within the gap of U, one per MERGE_TOL cluster:
    more than one is "finite_multiple".  The polish is skipped when the
    incumbent is still the refined start, a Newton fixed point, and every
    such box's point is the incumbent, bit for bit: the steps would return
    it and its value unchanged.
    Past BOX_BUDGET boxes, or where the root cube's half-width overflows,
    the best of the incumbent and of Newton steps from every start is
    returned uncertified; when K = 0, and J, which then tends to its infimum
    0 far from the atoms, has no minimizer, the best atom is.  The search
    draws no random start.

    The minimizers are listed lexicographically descending, as
    quartic._select lists them.  Each of them, and y_old, is valued by the
    pairwise marginal; the solution's value is the least minimizer value.
    """
    m = atoms.shape[1]
    objective = _marginal_objective(mass, atoms, cost, a)
    wk, wr = mass * cost.attraction(a), mass * cost.repulsion(a)
    B = float(np.sum(wr))
    K = math.fsum(wk.tolist())
    # bound (ii) on the root cube takes B times its squared half-width, which
    # is about B / K with K <= 1: it overflows wherever B^2 does
    if not (math.isfinite(K) and math.isfinite(B * B)):
        raise NumericalError("non-finite marginal weights: coordinates too large")

    def solved(minimizers, certified=False, gap=0.0):
        minimizers.sort(key=tuple, reverse=True)
        values = list(map(objective, minimizers))
        sol = MarginalSolution(minimizers, min(values),
                               "unique" if len(minimizers) == 1 else "finite_multiple", certified, gap)
        return sol, None if y_old is None else objective(y_old), values[0]

    if K == 0.0:
        return solved([min(atoms, key=objective)])
    c = np.sum(wk[:, None] * atoms, axis=0) / K
    if not np.isfinite(c).all():
        raise NumericalError("non-finite attraction mean: coordinates too large")
    Z = atoms - c
    J = _AttractionRepulsion(Z, wk, wr, K)
    P = np.concatenate([Z, J.cz[None, :]])
    val = J.values(P)
    best = int(np.argmin(val))
    U, y_best = float(val[best]), P[best]

    def settle(lo, hi):
        # the best of the incumbent and Newton steps from every start
        Q, v, _ = J.newton(np.clip(np.concatenate([y_best[None, :], P]), lo, hi), lo, hi)
        return solved([c + Q[int(np.argmin(v))]])

    R = math.sqrt(max(U + J.gap(U) - J.q0, 0.0) / J.K)
    if not math.isfinite(R):
        return settle(np.full((1, m), -np.inf), np.full((1, m), np.inf))
    ticks, cell_lo, cell_hi, axes = _root_cut(m)
    edges = J.cz + R * ticks
    root_lo, root_hi = edges[:1], edges[-1:]

    def lower(points, values):
        nonlocal U, y_best, fixed
        k = int(np.argmin(values))
        if values[k] < U:
            U, y_best, fixed = float(values[k]), points[k], False

    Q, v, refined_fixed = J.newton(y_best[None, :], root_lo, root_hi)
    lower(Q, v)
    # y_best is a Newton fixed point if it is the refined start, or the start the steps left as it was
    fixed = bool(refined_fixed[0]) and Q[0].tobytes() == y_best.tobytes()
    lo, hi = edges[cell_lo, axes], edges[cell_hi, axes]
    near_points, near_bounds = [], []
    boxes = 0
    while len(lo):
        boxes += len(lo)
        if boxes > BOX_BUDGET:
            return settle(root_lo, root_hi)
        mid, val, lam, lb = J.bounds(lo, hi)
        lower(mid, val)
        rep = mid.copy()   # the box's best point: its midpoint or clipped incumbent
        convex = np.flatnonzero((lb <= U - J.gap(U)) & (lam > 0.0))   # (iii)
        if convex.size:
            box_lo, box_hi = lo[convex], hi[convex]
            y = np.clip(y_best, box_lo, box_hi)
            v, g = J.evaluate(y, hessian=False)
            lb3 = v + _quad_min(g, lam[convex], box_lo - y, box_hi - y)
            if not (lb3 < np.inf).all():
                raise NumericalError("non-finite marginal bound: coordinates too large")
            lb[convex] = np.maximum(lb[convex], lb3)
            rep[convex] = y
            lower(y, v)
        gap = J.gap(U)
        live = lb <= U - gap
        near = ~live & (lb <= U + gap)
        near_points.append(rep[near])
        near_bounds.append(lb[near])
        lo, hi, mid = lo[live], hi[live], mid[live]
        sides = np.argsort(lo - hi, axis=1, kind="stable")[:, :2]   # the longest first
        for k in range(sides.shape[1]):
            rows, j = np.arange(len(lo)), sides[:, k]
            lo2, hi1 = lo.copy(), hi.copy()
            lo2[rows, j] = hi1[rows, j] = mid[rows, j]
            lo, hi = np.concatenate([lo, lo2]), np.concatenate([hi1, hi])
            sides, mid = np.concatenate([sides, sides]), np.concatenate([mid, mid])

    near = np.concatenate(near_bounds) <= U + J.gap(U)
    P = np.concatenate([y_best[None, :], np.concatenate(near_points)[near]])
    if fixed and P.tobytes() == np.broadcast_to(y_best, P.shape).tobytes():
        P, val = P[:1], [U]   # copies of a Newton fixed point, which Newton steps return unchanged
    else:
        P, val, _ = J.newton(P, root_lo, root_hi)
        U = min(U, float(np.min(val)))
    gap = J.gap(U)
    minimizers = []
    for k in np.argsort(val, kind="stable"):
        if val[k] > U + gap:
            break
        if _match(minimizers, c + P[k]) is None:
            minimizers.append(c + P[k])
    return solved(minimizers, True, float(gap))


def _solve_marginal_arrays(X, mass, atoms, cost, x, y_old=None):
    """(solution, J(y_old), J(solution.minimizers[0])) of the marginal at x; J(y_old) None without y_old.

    a = base(x, X) is computed here, once, for the back-end that the cost's
    profile selects: _quartic_solution (N2) or _least_squares_solution (IP)
    for a quadratic profile, _generic_solution for an attraction-repulsion
    one.  Each solves and values from the same quantities; a sweep step's
    move may change X, so a lasts for this one call.
    """
    a = _base_row(cost, x, X)
    if cost.quadratic_scale is None:
        solve = _generic_solution
    else:
        solve = _quartic_solution if cost.kind == "N2" else _least_squares_solution
    return solve(mass, atoms, cost, a, y_old)


def _ldl_solve(G, r):
    """y with G y = r, by G = L D L^T in Python floats; None unless every pivot is clearly positive.

    G is positive semidefinite.  The product of the pivots D_i / tr(G) is
    det(G) / tr(G)^m, a lower bound of lambda_min / lambda_max; above
    PIVOT_RTOL, far above the m eps of an SVD rank rule, G has full rank.
    At m = 1 y is r / G.
    """
    L, D, z = [], [], []   # rows of the unit lower triangle L, the pivots, and L^-1 r
    trace, ratio = 0.0, 1.0
    for Gi, ri in zip(G, r):
        row = []
        for k, Lk in enumerate(L):
            s = Gi[k]
            for lj, dj, lkj in zip(row, D, Lk):
                s -= lj * dj * lkj
            row.append(s / D[k])
        d, zi = Gi[len(L)], ri
        trace += d
        for lj, dj, zj in zip(row, D, z):
            d -= lj * lj * dj
            zi -= lj * zj
        if not d > 0.0:
            return None
        L.append(row)
        D.append(d)
        z.append(zi)
    for d in D:
        ratio *= d / trace
    if not ratio > PIVOT_RTOL:
        return None
    for i in reversed(range(len(z))):   # z becomes y = L^-T D^-1 z
        z[i] /= D[i]
        for j in range(i + 1, len(z)):
            z[i] -= L[j][i] * z[j]
    return z


@np.errstate(over="ignore", invalid="ignore")   # the system, the certificate and the values are checked
def _least_squares_solution(mass, atoms, cost, a, y_old=None):
    """_solve_marginal_arrays for an IP cost: sum_b w_b (a_b - <y, y_b>)^2 from its normal equations.

    G = sum w_b y_b y_b^T and r = sum w_b a_b y_b are BLAS products of the
    row, c0 = fsum(w a^2); so J(y) = c0 - 2 y.r + y^T G y, an fsum of
    Python float terms, values the solution and y_old.  G y = r is solved
    by _ldl_solve, or, where a pivot is not clearly positive, by
    np.linalg.lstsq, whose rank rule then decides "unique" or "continuum"
    and which gives the minimum-norm point.  G is positive semidefinite, so
    a point with a small residual |G y - r| <= RESIDUAL_TOL (1 + |G| |y| + |r|)
    is a certified global minimizer.
    """
    w = mass / cost.quadratic_scale(a)
    Aw = atoms.T * w
    G_arr = Aw @ atoms
    G, r = G_arr.tolist(), (Aw @ a).tolist()
    c0 = _fsum((w * a * a).tolist())
    # math.hypot takes the norm without overflow in its sum of squares
    norm_G, norm_r = math.hypot(*G_arr.ravel().tolist()), math.hypot(*r)
    if not math.isfinite(norm_G + norm_r):
        raise NumericalError("non-finite least-squares system: coordinates too large")
    y, rank = _ldl_solve(G, r), len(r)
    if y is None:
        y, _, rank, _ = np.linalg.lstsq(G_arr, np.array(r), rcond=None)
        y = y.tolist()
    res = []   # G y - r
    for Gi, ri in zip(G, r):
        s = -ri
        for g, v in zip(Gi, y):
            s += g * v
        res.append(s)
    scale, residual = 1.0 + norm_G * math.hypot(*y) + norm_r, math.hypot(*res)
    if not (math.isfinite(scale) and math.isfinite(residual)):
        raise NumericalError("non-finite least-squares certificate: coordinates too large")

    def value(y):
        terms = [c0]   # c0 - 2 y.r + y^T G y
        for yi, ri, Gi in zip(y, r, G):
            terms.append(-2.0 * yi * ri)
            for g, yj in zip(Gi, y):
                terms.append(yi * g * yj)
        v = _fsum(terms)
        if not math.isfinite(v):
            raise NumericalError("non-finite marginal value: coordinates too large")
        return v

    j_new = value(y)
    sol = MarginalSolution([np.array(y)], j_new, "unique" if rank == len(r) else "continuum",
                           residual <= RESIDUAL_TOL * scale)
    return sol, None if y_old is None else value(y_old), j_new


@np.errstate(over="ignore", invalid="ignore")   # the weights and moment terms are checked
def _quartic_solution(mass, atoms, cost, a, y_old=None):
    """_solve_marginal_arrays for an N2 cost with a quadratic profile: W times the weighted quartic.

    With pair weights w = mass / quadratic_scale(a) and W = sum w, J is the
    quartic of the row under p = w / W, whose coefficients are the fsum
    moments of its m+2 features (quartic._row_moments); _select solves it at
    its own unit scale, however far skewed weights (qsammon's self pairs
    weigh 1/eps) put it from unit length.  A W that is not finite raises
    NumericalError.
    """
    w = mass / cost.quadratic_scale(a)
    W = _fsum(w.tolist())
    if not math.isfinite(W):
        raise NumericalError("non-finite marginal pair weights: masses too large for the cost's scale")
    ys, values, kind, certified, j_old = _solve_at(*_row_moments(w / W, a, atoms), y_old)
    sol = MarginalSolution([np.array(y, ndmin=1) for y in ys], W * min(values), kind, certified)
    return sol, None if j_old is None else W * j_old, W * values[0]


def minimize_marginal(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily,
                      x) -> MarginalSolution:
    """Global minimizer of the marginal problem at x.

    Certified for every built-in cost: exactly for a quadratic profile (see
    CostFamily), to the branch and bound's gap for an attraction-repulsion
    one, which is uncertified only past its box budget or where the marginal
    has no minimizer.
    """
    return _solve_marginal_arrays(*_marginal_arrays(plan, cloud, x), cost, x)[0]


# ---------------------------------------------------------------------------
# Marginal sweep
# ---------------------------------------------------------------------------

class _SweepState:
    """Mutable flat-array view of a plan during a sweep: one row per distinct source point.

    Copies of a source point are one x.  Row g holds the atoms of all its
    copies' rows, merged as a plan row merges (masses add), and is swept
    once; expand() gives every copy i all of row g's atoms, with masses
    scaled by w_i / W_g, W_g the copies' total weight, so copies share their
    atoms.  With no repeated point the rows are the plan's and w_i / W_i = 1.
    The atoms of row g stay contiguous, at positions ptr[g]:ptr[g+1] (CSR
    offsets), so a row lookup costs O(row length) and replacing an atom O(1);
    only a split or a merge shifts the arrays and the offsets after it.
    """

    def __init__(self, plan: EmbeddingPlan, cloud: PointCloud):
        """Gather the rows of each distinct point's copies into its row g; _merge_rows merges them.

        Only a row of two or more atoms reaches _merge_row: on a plan of a
        map, one per group of copies.
        """
        _, mass, atoms = _plan_arrays(plan, cloud)
        first, self.group = _distinct_points(cloud.points)
        self.points = cloud.points[first]
        self.scale = cloud.weights / np.bincount(self.group, weights=cloud.weights)[self.group]
        # the copies' rows, one distinct point after another
        pos, _ = _gather(plan._ptr, np.argsort(self.group, kind="stable"))
        counts = np.bincount(self.group, weights=np.diff(plan._ptr)).astype(int)
        counts, self.mass, self.atoms = _merge_rows(counts, mass[pos], atoms[pos])
        self.X = self.points[np.repeat(np.arange(len(counts)), counts)]
        self.ptr = np.concatenate([[0], np.cumsum(counts)])

    def expand(self) -> EmbeddingPlan:
        """The plan on the cloud's points: copy i holds its point's row, masses times w_i / W_g."""
        pos, counts = _gather(self.ptr, self.group)
        return EmbeddingPlan.from_flat(counts, self.mass[pos] * np.repeat(self.scale, counts),
                                       self.atoms[pos])

    def split_mass(self) -> float:
        """The split mass of expand(), without building it."""
        return _split_mass(self.mass, self.ptr, self.group, self.scale)

    def row_positions(self, i: int) -> range:
        return range(self.ptr[i], self.ptr[i + 1])

    def find(self, i: int, y, skip=None):
        """Position of the atom of row i, other than position skip, that y merges into, or None."""
        start = self.ptr[i]
        k = _match(self.atoms[start:self.ptr[i + 1]], y, None if skip is None else skip - start)
        return None if k is None else start + k

    def replace_atom(self, i: int, pos: int, y_new) -> None:
        """Move the atom at pos, of row i, to y_new, merging it into a sibling there."""
        self.atoms[pos] = y_new
        if self.ptr[i + 1] - self.ptr[i] > 1:   # a one-atom row has nothing to merge with
            p = self.find(i, y_new, skip=pos)
            if p is not None:
                self.mass[p] += self.mass[pos]
                self._delete(i, pos)

    def split_atom(self, i: int, pos: int, frac_mass: float, y_new) -> None:
        """Move frac_mass of the atom at pos, of row i, to y_new; an atom left with <= 1e-15 goes."""
        self.mass[pos] -= frac_mass
        p = self.find(i, y_new, skip=pos)
        if p is None:   # a new atom, at the end of the row
            p = self.ptr[i + 1]
            self.mass = np.insert(self.mass, p, 0.0)
            self.atoms = np.insert(self.atoms, p, y_new, axis=0)
            self.X = np.insert(self.X, p, self.points[i], axis=0)
            self.ptr[i + 1:] += 1
        self.mass[p] += frac_mass
        if self.mass[pos] <= 1e-15:
            self._delete(i, pos)

    def _delete(self, i: int, pos: int) -> None:
        self.ptr[i + 1:] -= 1
        self.mass = np.delete(self.mass, pos)
        self.atoms = np.delete(self.atoms, pos, axis=0)
        self.X = np.delete(self.X, pos, axis=0)


def marginal_sweep(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily,
                   config: DescentConfig) -> tuple[EmbeddingPlan, IterationTrace]:
    """Needle descent toward the minimal graph of the marginal problem.

    The sweep's rows are the distinct source points (see _SweepState): the
    copies of a point are one x, swept once, and every copy of it holds the
    same atoms in the returned plan.  Each atom is offered a move to the
    selected global marginal minimizer, of the energy-minimizing share of its
    mass, clamped to all of it (see `needle`).  A row of a squared-distance
    cost is then consolidated onto its best atom; where the profile is
    uniquely minimized at zero, as every built-in one is, every move is full.

    For a cost with a moment form the marginal problem, its values and the
    sweep energies come from lifted moments that each move updates by rank
    one; they are rebuilt exactly after every sweep that moves mass, so
    rounding does not carry from one sweep to the next.  A sweep that moves
    nothing leaves the plan as it was and ends the descent: its trace entry
    repeats the last energy and split mass, and nothing is rebuilt.

    Under a cost without one, each step makes one _solve_marginal_arrays
    call, which computes the base row a = base(x, X) once and returns the
    gain test's values with the solution: for a quadratic-profile N2 cost
    (qsammon) W times the row's own weighted quartic at y_old and y_new, with
    no plan-wide moments and no pairwise pass; for an IP cost the
    least-squares J from its normal equations; otherwise (elastic) the
    pairwise marginal.

    The needle's quadratic term reads base(x, x): the cost's constant
    self_base where it declares one, and otherwise base(x, x) of each point.
    """
    state = _SweepState(plan, cloud)
    sums = LiftedMoments(state.X, state.mass, state.atoms) if cost.has_moment_form else None

    def values(x, ys) -> list:
        """Marginal values at x of the points ys, for the plan as it stands."""
        if sums is not None:
            qm = quartic_at(sums, x)
            return [qm.value(y) for y in ys]
        return list(map(_marginal_objective(state.mass, state.atoms, cost, _base_row(cost, x, state.X)),
                        ys))

    def needle_quadratic(base, y_old, y_new) -> float:
        """c(y_new, y_new) - 2 c(y_old, y_new) + c(y_old, y_old) at the row's base.

        Times q^2 it is the quadratic term Q of moving mass q from y_old to
        y_new; for the N2 kind t(y, y) = 0, so one t value does.
        """
        if cost.kind == "N2":
            return 2.0 * (cost.profile(base, 0.0) - cost.profile(base, cost.t_floats(y_old, y_new)))
        return (cost.profile(base, cost.t_floats(y_new, y_new))
                - 2.0 * cost.profile(base, cost.t_floats(y_old, y_new))
                + cost.profile(base, cost.t_floats(y_old, y_old)))

    def needle(i: int, pos: int, y_old: list, y_new: list, dj: float) -> None:
        """Move eps of the mass q at pos, of row i, from y_old to y_new if the energy falls.

        With dj = J(y_new) - J(y_old), the energy changes by 2 eps L + eps^2 Q,
        L = q dj and Q = q^2 needle_quadratic; eps = min(-L/Q, 1), or 1 if Q <= 0.
        """
        nonlocal moved, max_delta, any_accepted
        q = float(state.mass[pos])
        L = q * dj
        try:
            Q = q * q * needle_quadratic(bases[i], y_old, y_new)
        except OverflowError:   # a Python float ** overflows where numpy would give inf
            raise NumericalError("needle step overflows: coordinates too large") from None
        eps = min(-L / Q, 1.0) if Q > 0.0 else 1.0
        delta = 2.0 * eps * L + eps * eps * Q
        if not (eps > 0.0 and delta < 0.0):
            return
        if eps >= 1.0:
            state.replace_atom(i, pos, y_new)
        else:
            state.split_atom(i, pos, eps * q, y_new)
        if sums is not None:
            sums.move_lifted(lifted[i], y_old, y_new, eps * q)
        moved += eps * q
        max_delta = max(max_delta, delta)
        any_accepted = True

    def checked_energy(when: str) -> float:
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            E = plan_energy(state.X, state.mass, state.atoms, cost, sums)
        if not math.isfinite(E):
            raise NumericalError(f"non-finite energy {when}")
        return E

    trace = IterationTrace()
    trace.swept_rows = len(state.points)
    E = checked_energy("at initialization")
    trace.add(E, state.split_mass(), 0.0)
    if cost.self_base is None:
        # base(x, x) is computed alone, as a blocked base_matrix diagonal could round differently
        bases = [cost.base(x, x) for x in state.points]
    else:
        bases = [cost.self_base] * len(state.points)

    for sweep in range(config.max_sweeps):
        moved = 0.0
        max_delta = -math.inf
        any_accepted = False
        lifted = sums.lift(state.points) if sums is not None else None
        for i, x in enumerate(state.points):
            row = state.row_positions(i)
            for k, y_old in enumerate(state.atoms[row.start:row.stop].tolist()):
                # the first atom is where it was; a later one may have merged away
                pos = row.start if k == 0 else state.find(i, y_old)
                if pos is None:
                    continue
                if sums is not None:
                    y_new, _, j_old, j_new = sums.step(lifted[i], y_old)
                else:
                    sol, j_old, j_new = _solve_marginal_arrays(state.X, state.mass, state.atoms,
                                                               cost, x, y_old)
                    y_new = sol.minimizers[0].tolist()
                if j_old - j_new <= GAIN_TOL * (1.0 + abs(j_new)):
                    continue
                needle(i, pos, y_old, y_new, j_new - j_old)
            if cost.kind == "N2" and len(row) > 1:
                # moving an atom onto its best-valued sibling has L <= 0 and, the
                # atoms being distinct and the profile uniquely minimized at
                # zero, Q < 0, so needle makes every such move and split rows
                # collapse to a single atom (full moves never split, so a row
                # that began the step with one atom still has one).  Each move
                # merges, so the row shrinks by one.
                for _ in range(len(state.row_positions(i)) - 1):
                    row = state.row_positions(i)
                    jvals = values(x, state.atoms[row.start:row.stop])
                    order = np.argsort(jvals)  # ties still yield distinct slots
                    src, dst = row[order[-1]], row[order[0]]
                    needle(i, src, state.atoms[src].tolist(), state.atoms[dst].tolist(),
                           jvals[order[0]] - jvals[order[-1]])
        del lifted  # freed before the next sweep lifts its points: a lower memory peak
        if not any_accepted:   # the plan is unchanged: so are its energy and split mass
            trace.add(E, trace.split_mass[-1], 0.0)
            break
        if sums is not None:
            sums = LiftedMoments(state.X, state.mass, state.atoms)
        E_new = checked_energy(f"after sweep {sweep + 1}")
        trace.add(E_new, state.split_mass(), moved, max_delta)
        improvement = E - E_new
        E = E_new
        if improvement <= config.rel_tol * (1.0 + abs(E)):
            break
    return state.expand(), trace


def pca_solve(cloud: PointCloud, m: int) -> DeterministicMap:
    """Project onto the top-m eigenvectors of the weighted covariance."""
    if not (_is_int(m) and m >= 1):
        raise InputError(f"embedding dimension must be an integer >= 1, got {m!r}")
    if m > cloud.dim_d:
        raise InputError(f"cannot embed into {m} dimensions from {cloud.dim_d}")
    Xc = cloud.points - cloud.mean()
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        C = (Xc.T * cloud.weights) @ Xc
    if not np.isfinite(C).all():
        raise NumericalError("non-finite covariance: coordinates too large")
    vals, vecs = np.linalg.eigh(C)
    V = vecs[:, ::-1][:, :m]
    # fix eigenvector signs so output is stable across runs
    for j in range(m):
        k = int(np.argmax(np.abs(V[:, j])))
        if V[k, j] < 0:
            V[:, j] = -V[:, j]
    return DeterministicMap(Xc @ V)
