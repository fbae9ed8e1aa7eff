"""Optimizers: particle gradient descent, the marginal-sweep descent, and PCA.

The marginal sweep repeatedly moves each plan atom toward the current global
minimizer of its marginal problem.  For squared-distance costs whose profile
is uniquely minimized at zero, the full reassignment is applied outright (the
move can only lower the energy); otherwise a clamped optimal step along the
needle direction is used, so the energy is non-increasing in every case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CostFamily,
    DeterministicMap,
    EmbeddingPlan,
    InputError,
    MERGE_TOL,
    NumericalError,
    PointCloud,
)
from .energy import (
    _marginal_objective,
    _marginal_value_arrays,
    plan_energy,
)
from .quartic import (
    RESIDUAL_TOL,
    LiftedMoments,
    MarginalSolution,
    QuarticMarginal,
    map_objective,
    minimize_quartic,
    moments_from_arrays,
    quartic_at,
    select_minimizer,
)

GAIN_TOL = 1e-9    # per-unit-mass marginal gain below which a move is skipped


@dataclass
class DescentConfig:
    """Shared knobs for both optimizers.

    init may be "random", "pca", a DeterministicMap, or an EmbeddingPlan.
    """

    max_sweeps: int = 100
    rel_tol: float = 1e-10
    seed: int = 0
    init: object = "random"
    init_scale: float = 1.0
    dim_m: int = 1
    candidate_budget: int = 8
    step_size: float = 1.0
    armijo_c: float = 1e-4
    max_halvings: int = 40

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise InputError("max_sweeps must be >= 1")
        if self.rel_tol <= 0:
            raise InputError("rel_tol must be positive")


class IterationTrace:
    """Per-sweep record of energy, split mass, and moved mass."""

    def __init__(self):
        self.energies: list[float] = []
        self.split_mass: list[float] = []
        self.moved_mass: list[float] = []
        self.max_delta: list[float] = []
        self.final_grad_norm: float | None = None

    def add(self, energy: float, split: float, moved: float, max_delta: float = 0.0) -> None:
        self.energies.append(float(energy))
        self.split_mass.append(float(split))
        self.moved_mass.append(float(moved))
        self.max_delta.append(float(max_delta))

    @property
    def n_sweeps(self) -> int:
        return max(len(self.energies) - 1, 0)

    def save_csv(self, path) -> None:
        from .core import _fmt

        with open(path, "w", newline="") as fh:
            fh.write("sweep,energy,split_mass,moved_mass\n")
            for k, (e, s, m) in enumerate(zip(self.energies, self.split_mass, self.moved_mass)):
                fh.write(f"{k},{_fmt(e)},{_fmt(s)},{_fmt(m)}\n")


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
        return config.init_scale * rng.standard_normal((cloud.n, config.dim_m))
    raise InputError(f"unknown init {init!r}")


def _dense_objective(cloud: PointCloud, cost: CostFamily):
    """Energy and gradient of the map energy from the n x n pairwise matrices."""
    w = cloud.weights
    M = np.outer(w, w)
    A = cost.base_matrix(cloud.points, cloud.points)

    def energy(Yc):
        return float(np.sum(M * cost.profile(A, cost.t_matrix(Yc, Yc))))

    def gradient(Yc):
        T = cost.t_matrix(Yc, Yc)
        G = M * cost.profile_dt(A, T)
        if cost.kind == "IP":
            return 2.0 * G @ Yc
        return 4.0 * (np.sum(G, axis=1)[:, None] * Yc - G @ Yc)

    return energy, gradient


def particle_descent(cloud: PointCloud, cost: CostFamily,
                     config: DescentConfig) -> tuple[DeterministicMap, IterationTrace]:
    """Gradient descent on particle positions with Armijo backtracking."""
    Y = _initial_images(cloud, config)
    w = cloud.weights
    if cost.has_moment_form:
        energy, gradient = map_objective(cloud.points, w, Y.shape[1])
    else:
        energy, gradient = _dense_objective(cloud, cost)

    trace = IterationTrace()
    E = energy(Y)
    if not np.isfinite(E):
        raise NumericalError("non-finite energy at initialization")
    trace.add(E, 0.0, 0.0)
    grad = gradient(Y)
    for it in range(config.max_sweeps):
        gnorm2 = float(np.sum(grad * grad))
        if gnorm2 == 0.0:
            break
        eta = config.step_size
        accepted = False
        for _ in range(config.max_halvings):
            Y_new = Y - eta * grad
            E_new = energy(Y_new)
            if not np.isfinite(E_new):
                raise NumericalError(f"non-finite energy at iteration {it}")
            if E_new <= E - config.armijo_c * eta * gnorm2:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        moved = float(np.sum(w * np.linalg.norm(Y_new - Y, axis=1)))
        Y = Y_new
        improvement = E - E_new
        E = E_new
        trace.add(E, 0.0, moved)
        grad = gradient(Y)
        if improvement <= config.rel_tol * (1.0 + abs(E)):
            break
    trace.final_grad_norm = float(np.sqrt(np.sum(grad * grad)))
    return DeterministicMap(Y), trace


# ---------------------------------------------------------------------------
# Marginal minimization (dispatch per cost)
# ---------------------------------------------------------------------------

def _generic_solution(X, mass, atoms, cost, x, config: DescentConfig,
                      extra_starts=()) -> MarginalSolution:
    from scipy.optimize import minimize as _sp_minimize

    m = atoms.shape[1]
    order = np.argsort(mass)[::-1]
    starts = [atoms[j] for j in order[: config.candidate_budget]]
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)
    rng = np.random.default_rng(config.seed)
    scale = 1.0 + float(np.max(np.abs(atoms))) if atoms.size else 1.0
    for _ in range(max(2, config.candidate_budget // 2)):
        starts.append(scale * rng.standard_normal(m))
    objective = _marginal_objective(X, mass, atoms, cost, x)
    best_y, best_v = None, np.inf
    for y0 in starts:
        res = _sp_minimize(
            objective, np.asarray(y0, dtype=float), jac=True, method="L-BFGS-B",
            options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 500},
        )
        if res.fun < best_v:
            best_v, best_y = float(res.fun), np.asarray(res.x, dtype=float)
    return MarginalSolution(minimizers=[best_y], value=best_v,
                            multiplicity_kind="unique", certified=False)


def _solve_marginal_arrays(X, mass, atoms, cost, x, config: DescentConfig,
                           extra_starts=()) -> MarginalSolution:
    """Solve the marginal problem at x with the path its cost's profile allows.

    A profile (a - t)^2 * omega(a) makes the marginal sum_a w_a (a_a - t_a(y))^2
    with pair weights w_a = mass_a * omega(a_a): for the IP kind a
    least-squares problem, solved by one linear system; for the N2 kind W * J,
    W = sum w_a, with J the quartic of the lifted moments under the weights
    w_a / W.  Both solves are global and carry a certificate.  Any other
    profile gets the best-effort multi-start local search.
    """
    if cost.quadratic_scale is None:
        return _generic_solution(X, mass, atoms, cost, x, config, extra_starts)
    a = cost.base_matrix(np.asarray(x, dtype=float).reshape(1, -1), X)[0]
    w = mass / cost.quadratic_scale(a)
    if cost.kind == "IP":
        G = (atoms.T * w) @ atoms
        rhs = (atoms.T * w) @ a
        y, _, rank, _ = np.linalg.lstsq(G, rhs, rcond=None)
        # G is positive semidefinite: a stationary point is a global minimizer
        scale = 1.0 + np.linalg.norm(G) * np.linalg.norm(y) + np.linalg.norm(rhs)
        return MarginalSolution([y], _marginal_value_arrays(X, mass, atoms, cost, x, y),
                                "unique" if rank == atoms.shape[1] else "continuum",
                                bool(np.linalg.norm(G @ y - rhs) <= RESIDUAL_TOL * scale))
    W = math.fsum(w)
    qm = quartic_at(moments_from_arrays(X, w / W, atoms), x)
    # minimize_quartic's tolerances are absolute, and skewed weights (qsammon's
    # self pairs weigh 1/eps) can leave the minimizer far below unit scale; so
    # y = s u with s a power of two near it, and J(s u) = s^4 J_s(u) exactly.
    r = max(math.sqrt(float(np.linalg.norm(qm.Psi))), float(np.linalg.norm(qm.phi)) ** (1.0 / 3.0))
    s = 2.0 ** math.floor(math.log2(r)) if r > 0.0 else 1.0
    sol = minimize_quartic(QuarticMarginal(qm.Psi / s**2, qm.phi / s**3, qm.zeta / s**4))
    return replace(sol, minimizers=[s * u + qm.y_shift for u in sol.minimizers],
                   value=W * s**4 * sol.value)


def minimize_marginal(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily, x,
                      config: DescentConfig = None) -> MarginalSolution:
    """Global minimizer of the marginal problem at x.

    Certified for every cost with a quadratic profile (see CostFamily); a
    best-effort multi-start local search, uncertified, for any other.
    """
    plan.validate_against(cloud)
    if config is None:
        config = DescentConfig()
    idx, mass, atoms = plan.flat()
    return _solve_marginal_arrays(cloud.points[idx], mass, atoms, cost, x, config)


# ---------------------------------------------------------------------------
# Marginal sweep
# ---------------------------------------------------------------------------

class _SweepState:
    """Mutable flat-array view of a plan during a sweep.

    The atoms of source i stay contiguous, at positions ptr[i]:ptr[i+1]
    (CSR offsets), so a row lookup costs O(row length) and replacing an atom
    O(1); only a split or a merge shifts the arrays and the offsets after it.
    """

    def __init__(self, plan: EmbeddingPlan, cloud: PointCloud):
        plan.validate_against(cloud)
        idx, mass, atoms = plan.flat()
        self.idx = np.array(idx)
        self.mass = np.array(mass)
        self.atoms = np.array(atoms)
        self.cloud = cloud
        self.X = cloud.points[self.idx]
        self.ptr = np.zeros(cloud.n + 1, dtype=int)
        np.cumsum(np.bincount(self.idx, minlength=cloud.n), out=self.ptr[1:])

    def row_positions(self, i: int) -> range:
        return range(self.ptr[i], self.ptr[i + 1])

    def find(self, i: int, y: np.ndarray):
        """Position of an atom of row i within MERGE_TOL of y, or None."""
        for p in self.row_positions(i):
            if np.max(np.abs(self.atoms[p] - y)) <= MERGE_TOL:
                return p
        return None

    def replace_atom(self, pos: int, y_new: np.ndarray) -> None:
        i = self.idx[pos]
        self.atoms[pos] = y_new
        for p in self.row_positions(i):
            if p != pos and np.max(np.abs(self.atoms[p] - y_new)) <= MERGE_TOL:
                self.mass[p] += self.mass[pos]
                self._delete(pos)
                return

    def split_atom(self, pos: int, frac_mass: float, y_new: np.ndarray) -> None:
        i = self.idx[pos]
        self.mass[pos] -= frac_mass
        drop = self.mass[pos] <= 1e-15
        for p in self.row_positions(i):
            if p != pos and np.max(np.abs(self.atoms[p] - y_new)) <= MERGE_TOL:
                self.mass[p] += frac_mass
                if drop:
                    self._delete(pos)
                return
        at = self.ptr[i + 1]
        self.idx = np.insert(self.idx, at, i)
        self.mass = np.insert(self.mass, at, frac_mass)
        self.atoms = np.insert(self.atoms, at, y_new, axis=0)
        self.X = np.insert(self.X, at, self.cloud.points[i], axis=0)
        self.ptr[i + 1:] += 1
        if drop:
            self._delete(pos)

    def _delete(self, pos: int) -> None:
        self.ptr[self.idx[pos] + 1:] -= 1
        self.idx = np.delete(self.idx, pos)
        self.mass = np.delete(self.mass, pos)
        self.atoms = np.delete(self.atoms, pos, axis=0)
        self.X = np.delete(self.X, pos, axis=0)

    def split_fraction(self) -> float:
        total = 0.0
        for i in np.flatnonzero(np.diff(self.ptr) > 1):
            row = self.mass[self.ptr[i]:self.ptr[i + 1]]
            total += math.fsum(row) - float(np.max(row))
        return total

    def to_plan(self) -> EmbeddingPlan:
        cuts = self.ptr[1:-1]
        return EmbeddingPlan(list(zip(np.split(self.mass, cuts), np.split(self.atoms, cuts))))


def marginal_sweep(plan: EmbeddingPlan, cloud: PointCloud, cost: CostFamily,
                   config: DescentConfig) -> tuple[EmbeddingPlan, IterationTrace]:
    """Needle descent toward the minimal graph of the marginal problem.

    Each atom is offered a move to the selected global marginal minimizer.
    With a squared-distance cost uniquely minimized at zero the full move is
    always energy-decreasing; otherwise the step along the needle is clamped
    to the minimizing epsilon in [0, 1].

    For a cost with a moment form the marginal problem, its values and the
    sweep energies come from lifted moments that each move updates by rank
    one; they are rebuilt exactly at every sweep boundary, so rounding does
    not carry from one sweep to the next.
    """
    state = _SweepState(plan, cloud)
    full_move = cost.kind == "N2" and cost.unique_min_at_zero
    sums = LiftedMoments(state.X, state.mass, state.atoms) if cost.has_moment_form else None

    def marginal(x):
        """(solve, value) of the marginal problem at x for the plan as it stands."""
        if sums is not None:
            qm = quartic_at(sums, x)
            return (lambda y_start: minimize_quartic(qm)), qm.value

        def solve(y_start):
            return _solve_marginal_arrays(state.X, state.mass, state.atoms, cost, x, config,
                                          extra_starts=(y_start,))

        return solve, functools.partial(_marginal_value_arrays, state.X, state.mass,
                                        state.atoms, cost, x)

    def needle_quadratic(base, y_old, y_new) -> float:
        """c(y_new, y_new) - 2 c(y_old, y_new) + c(y_old, y_old) at the row's base.

        Times q^2 it is the quadratic term Q of moving mass q from y_old to
        y_new; for the N2 kind t(y, y) = 0, so one t value does.
        """
        if cost.kind == "N2":
            return 2.0 * (cost.profile(base, 0.0) - cost.profile(base, cost.t_value(y_old, y_new)))
        return (cost.profile(base, cost.t_value(y_new, y_new))
                - 2.0 * cost.profile(base, cost.t_value(y_old, y_new))
                + cost.profile(base, cost.t_value(y_old, y_old)))

    trace = IterationTrace()
    E = plan_energy(state.X, state.mass, state.atoms, cost, sums)
    trace.add(E, state.split_fraction(), 0.0)
    bases = [cost.base(x, x) for x in cloud.points]

    for _ in range(config.max_sweeps):
        moved = 0.0
        max_delta = -math.inf
        any_accepted = False
        for i in range(cloud.n):
            x, base = cloud.points[i], bases[i]
            row = state.row_positions(i)
            for k, y_old in enumerate(state.atoms[row.start:row.stop].copy()):
                # the first atom is where it was; a later one may have merged away
                pos = row.start if k == 0 else state.find(i, y_old)
                if pos is None:
                    continue
                q = float(state.mass[pos])
                solve, value = marginal(x)
                sol = solve(y_old)
                y_new = select_minimizer(sol)
                j_old = value(y_old)
                j_new = value(y_new)
                if j_old - j_new <= GAIN_TOL * (1.0 + abs(j_new)):
                    continue
                L = q * (j_new - j_old)
                Q = q * q * needle_quadratic(base, y_old, y_new)
                if full_move:
                    eps = 1.0
                elif Q > 0.0:
                    eps = min(max(-L / Q, 0.0), 1.0)
                    if eps <= 0.0 or 2.0 * eps * L + eps * eps * Q >= 0.0:
                        continue
                elif 2.0 * L + Q < 0.0:
                    eps = 1.0
                else:
                    continue
                delta = 2.0 * eps * L + eps * eps * Q
                if eps >= 1.0:
                    state.replace_atom(pos, y_new)
                else:
                    state.split_atom(pos, eps * q, y_new)
                if sums is not None:
                    sums.move(x, y_old, y_new, eps * q)
                moved += eps * q
                max_delta = max(max_delta, delta)
                any_accepted = True
            if full_move:
                # consolidation: with a profile uniquely minimized at zero, moving
                # a row atom onto its best-valued sibling always lowers the energy,
                # so split rows collapse to a single atom.
                while True:
                    row = state.row_positions(i)
                    if len(row) <= 1:
                        break
                    _, value = marginal(x)
                    jvals = [value(state.atoms[p]) for p in row]
                    order = np.argsort(jvals)  # ties still yield distinct slots
                    dst = row[order[0]]
                    src = row[order[-1]]
                    q = float(state.mass[src])
                    y_old = np.array(state.atoms[src])
                    y_new = np.array(state.atoms[dst])
                    L = q * (jvals[order[0]] - jvals[order[-1]])
                    Q = q * q * needle_quadratic(base, y_old, y_new)
                    state.replace_atom(src, y_new)
                    if sums is not None:
                        sums.move(x, y_old, y_new, q)
                    moved += q
                    max_delta = max(max_delta, 2.0 * L + Q)
                    any_accepted = True
        if sums is not None:
            sums = LiftedMoments(state.X, state.mass, state.atoms)
        E_new = plan_energy(state.X, state.mass, state.atoms, cost, sums)
        trace.add(E_new, state.split_fraction(), moved,
                  max_delta if any_accepted else 0.0)
        improvement = E - E_new
        E = E_new
        if not any_accepted:
            break
        if improvement <= config.rel_tol * (1.0 + abs(E)):
            break
    return state.to_plan(), trace


def pca_solve(cloud: PointCloud, m: int) -> DeterministicMap:
    """Project onto the top-m eigenvectors of the weighted covariance."""
    if m > cloud.dim_d:
        raise InputError(f"cannot embed into {m} dimensions from {cloud.dim_d}")
    if m < 1:
        raise InputError("embedding dimension must be >= 1")
    Xc = cloud.points - cloud.mean()
    C = (Xc.T * cloud.weights) @ Xc
    vals, vecs = np.linalg.eigh(C)
    V = vecs[:, ::-1][:, :m]
    # fix eigenvector signs so output is stable across runs
    for j in range(m):
        k = int(np.argmax(np.abs(V[:, j])))
        if V[k, j] < 0:
            V[:, j] = -V[:, j]
    return DeterministicMap(Xc @ V)
