"""Optimizers: particle gradient descent, the marginal-sweep descent, and PCA.

The marginal sweep repeatedly moves each plan atom toward the current global
minimizer of its marginal problem, by the clamped optimal step along the
needle direction, so the energy is non-increasing in every case.  For
squared-distance costs whose profile is uniquely minimized at zero that step
is always the full reassignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    _plan_arrays,
    _split_mass,
    _write_csv,
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
INIT_SCALE = 1.0   # standard deviation of the random initial images
STEP_SIZE = 1.0    # first step length tried by particle descent
ARMIJO_C = 1e-4    # sufficient-decrease constant of its backtracking
MAX_HALVINGS = 40  # step halvings before particle descent stops
CANDIDATE_BUDGET = 8   # plan-atom starts of a best-effort marginal solve; half as many random ones


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
        if self.max_sweeps < 1:
            raise InputError("max_sweeps must be >= 1")
        if not self.rel_tol > 0:   # NaN too
            raise InputError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed!r}")
        if self.dim_m < 1:
            raise InputError(f"embedding dimension dim_m must be >= 1, got {self.dim_m!r}")


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


@np.errstate(over="ignore", invalid="ignore")   # every energy and gradient norm is checked
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
        if not math.isfinite(gnorm2):
            raise NumericalError(f"non-finite gradient at iteration {it}")
        if gnorm2 == 0.0:
            break
        eta = STEP_SIZE
        accepted = False
        for _ in range(MAX_HALVINGS):
            Y_new = Y - eta * grad
            E_new = energy(Y_new)
            if not np.isfinite(E_new):
                raise NumericalError(f"non-finite energy at iteration {it}")
            if E_new <= E - ARMIJO_C * eta * gnorm2:
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
    if not math.isfinite(trace.final_grad_norm):
        raise NumericalError("non-finite gradient at the last iteration")
    return DeterministicMap(Y), trace


# ---------------------------------------------------------------------------
# Marginal minimization (dispatch per cost)
# ---------------------------------------------------------------------------

def _generic_solution(X, mass, atoms, cost, x, config: DescentConfig,
                      extra_starts=()) -> MarginalSolution:
    from scipy.optimize import minimize as _sp_minimize

    m = atoms.shape[1]
    order = np.argsort(mass)[::-1]
    starts = [atoms[j] for j in order[:CANDIDATE_BUDGET]]
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)
    rng = np.random.default_rng(config.seed)
    scale = 1.0 + float(np.max(np.abs(atoms))) if atoms.size else 1.0
    for _ in range(CANDIDATE_BUDGET // 2):
        starts.append(scale * rng.standard_normal(m))
    objective = _marginal_objective(X, mass, atoms, cost, x)
    best_y, best_v = None, np.inf
    with np.errstate(over="ignore", invalid="ignore"):   # the objective checks its values
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
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            G = (atoms.T * w) @ atoms
            rhs = (atoms.T * w) @ a
            # math.hypot takes the norm without overflow in its sum of squares
            norm_G, norm_rhs = math.hypot(*G.ravel().tolist()), math.hypot(*rhs.tolist())
            if not math.isfinite(norm_G + norm_rhs):
                raise NumericalError("non-finite least-squares system: coordinates too large")
            y, _, rank, _ = np.linalg.lstsq(G, rhs, rcond=None)
            # G is positive semidefinite: a stationary point is a global minimizer
            scale = 1.0 + norm_G * math.hypot(*y.tolist()) + norm_rhs
            residual = math.hypot(*(G @ y - rhs).tolist())
        if not (math.isfinite(scale) and math.isfinite(residual)):
            raise NumericalError("non-finite least-squares certificate: coordinates too large")
        return MarginalSolution([y], _marginal_value_arrays(X, mass, atoms, cost, x, y),
                                "unique" if rank == atoms.shape[1] else "continuum",
                                residual <= RESIDUAL_TOL * scale)
    W = math.fsum(w)
    qm = quartic_at(moments_from_arrays(X, w / W, atoms), x)
    # minimize_quartic's hard-case and polish tolerances are absolute, and skewed
    # weights (qsammon's self pairs weigh 1/eps) can leave the minimizer far below
    # unit scale; so y = s u with s a power of two near it, and J(s u) = s^4 J_s(u).
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
    if config is None:
        config = DescentConfig()
    return _solve_marginal_arrays(*_plan_arrays(plan, cloud), cost, x, config)


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
        _, mass, atoms = _plan_arrays(plan, cloud)
        first, self.group = _distinct_points(cloud.points)
        self.points = cloud.points[first]
        self.scale = cloud.weights / np.bincount(self.group, weights=cloud.weights)[self.group]
        # the copies' rows, one distinct point after another; from_flat merges them
        pos, _ = _gather(plan._ptr, np.argsort(self.group, kind="stable"))
        counts = np.bincount(self.group, weights=np.diff(plan._ptr)).astype(int)
        merged = EmbeddingPlan.from_flat(counts, mass[pos], atoms[pos])
        idx, mass, atoms = merged.flat()
        self.X = self.points[idx]
        self.mass = np.array(mass)
        self.atoms = np.array(atoms)
        self.ptr = merged._ptr.copy()

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
    mass, clamped to all of it (see `needle`).  For a squared-distance cost
    uniquely minimized at zero every move is full, and each row is then
    consolidated onto its best atom.

    For a cost with a moment form the marginal problem, its values and the
    sweep energies come from lifted moments that each move updates by rank
    one; they are rebuilt exactly at every sweep boundary, so rounding does
    not carry from one sweep to the next.
    """
    state = _SweepState(plan, cloud)
    consolidate = cost.kind == "N2" and cost.unique_min_at_zero
    sums = LiftedMoments(state.X, state.mass, state.atoms) if cost.has_moment_form else None

    def values(x, ys) -> list:
        """Marginal values at x of the points ys, for the plan as it stands."""
        if sums is not None:
            return [quartic_at(sums, x).value(y) for y in ys]
        return [_marginal_value_arrays(state.X, state.mass, state.atoms, cost, x, y) for y in ys]

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
    # base(x, x) is computed alone, as a blocked base_matrix diagonal could round differently
    bases = [cost.base(x, x) for x in state.points]

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
                    sol = _solve_marginal_arrays(state.X, state.mass, state.atoms, cost, x, config,
                                                 extra_starts=(y_old,))
                    y_new = select_minimizer(sol).tolist()
                    j_old, j_new = values(x, (y_old, y_new))
                if j_old - j_new <= GAIN_TOL * (1.0 + abs(j_new)):
                    continue
                needle(i, pos, y_old, y_new, j_new - j_old)
            if consolidate and len(row) > 1:
                # moving an atom onto its best-valued sibling has L <= 0 and,
                # the atoms being distinct, Q < 0, so needle makes every such
                # move and split rows collapse to a single atom (full moves
                # never split, so a row that began the step with one atom
                # still has one).  Each move merges, so the row shrinks by one.
                for _ in range(len(state.row_positions(i)) - 1):
                    row = state.row_positions(i)
                    jvals = values(x, state.atoms[row.start:row.stop])
                    order = np.argsort(jvals)  # ties still yield distinct slots
                    src, dst = row[order[-1]], row[order[0]]
                    needle(i, src, state.atoms[src].tolist(), state.atoms[dst].tolist(),
                           jvals[order[0]] - jvals[order[-1]])
        del lifted  # freed before the next sweep lifts its points: a lower memory peak
        if sums is not None:
            sums = LiftedMoments(state.X, state.mass, state.atoms)
        E_new = checked_energy(f"after sweep {sweep + 1}")
        trace.add(E_new, state.split_mass(), moved,
                  max_delta if any_accepted else 0.0)
        improvement = E - E_new
        E = E_new
        if not any_accepted:
            break
        if improvement <= config.rel_tol * (1.0 + abs(E)):
            break
    return state.expand(), trace


def pca_solve(cloud: PointCloud, m: int) -> DeterministicMap:
    """Project onto the top-m eigenvectors of the weighted covariance."""
    if m > cloud.dim_d:
        raise InputError(f"cannot embed into {m} dimensions from {cloud.dim_d}")
    if m < 1:
        raise InputError("embedding dimension must be >= 1")
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
