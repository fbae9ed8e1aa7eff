"""Closed-form machinery for the quartic squared-distance marginal problem.

For the cost (|x-x'|^2 - |y-y'|^2)^2 the marginal objective of a plan is an
explicit quartic in y,

    J(y | x) = |y|^4 - 2 y^T Psi y - 4 phi^T y + zeta,

whose coefficients are moments of the plan.  Its global minimizers are found
exactly by solving a secular equation in s = |y|^2 within the eigenbasis of
Psi, with degenerate eigen-branches (whole spheres of minimizers) detected
and reported.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import EmbeddingPlan, InputError, PointCloud, _fmt

EIG_GAP = 1e-9        # eigenvalues closer than this form one degenerate cluster
RESIDUAL_TOL = 1e-8   # stationarity residual required of returned minimizers
_PHI_TOL = 1e-11      # relative threshold for treating a phi component as zero


@dataclass(frozen=True)
class MomentSet:
    """Plan moments determining the quartic marginal at every x.

    Computed after translating atoms (and source points) to zero mean; the
    stored means let callers map solutions back to original coordinates.
    """

    S: np.ndarray
    Phi: np.ndarray
    b: np.ndarray
    Cxx: np.ndarray
    s1: float
    s2: float
    a1: np.ndarray
    x_mean: np.ndarray
    y_mean: np.ndarray

    @property
    def dim_m(self) -> int:
        return self.S.shape[0]

    @property
    def dim_d(self) -> int:
        return self.Cxx.shape[0]

    @property
    def eigen(self):
        """Eigenvalues (ascending) and eigenvectors of S."""
        return np.linalg.eigh(self.S)

    def to_json(self, path) -> None:
        payload = {
            "S": self.S.tolist(),
            "Phi": self.Phi.tolist(),
            "b": self.b.tolist(),
            "Cxx": self.Cxx.tolist(),
            "s1": self.s1,
            "s2": self.s2,
            "a1": self.a1.tolist(),
            "x_mean": self.x_mean.tolist(),
            "y_mean": self.y_mean.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "MomentSet":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: malformed JSON ({exc})") from None
        try:
            return cls(
                S=np.array(payload["S"], dtype=float),
                Phi=np.array(payload["Phi"], dtype=float),
                b=np.array(payload["b"], dtype=float),
                Cxx=np.array(payload["Cxx"], dtype=float),
                s1=float(payload["s1"]),
                s2=float(payload["s2"]),
                a1=np.array(payload["a1"], dtype=float),
                x_mean=np.array(payload["x_mean"], dtype=float),
                y_mean=np.array(payload["y_mean"], dtype=float),
            )
        except KeyError as exc:
            raise InputError(f"{path}: missing moment field {exc}") from None


def _residual_form(m: int, d: int) -> np.ndarray:
    """The symmetric P with |x_a-x_b|^2 - |y_a-y_b|^2 = f_a^T P f_b.

    f = (1, |y|^2 - |x|^2, y, x) is the lifted feature of an atom (y in R^m,
    x in R^d), so every squared-distance residual matrix has rank <= d+m+2.
    """
    P = np.zeros((2 + m + d, 2 + m + d))
    P[0, 1] = P[1, 0] = -1.0
    P[2:2 + m, 2:2 + m] = 2.0 * np.eye(m)
    P[2 + m:, 2 + m:] = -2.0 * np.eye(d)
    return P


class LiftedMoments:
    """F = sum_a m_a f_a f_a^T over the lifted features f_a of the atoms.

    Features are taken about a fixed origin, the atom means when the sums are
    built, so moving an atom is a rank-one update of F.  The moment set of the
    quartic marginal, the marginal values and the plan energy all follow from
    F in O((d+m)^3), with no pass over the atoms.  The sums are built with
    math.fsum: the energy cancels down from the moments, and accumulated
    rounding in them would cost digits (and depend on the BLAS).
    """

    def __init__(self, X: np.ndarray, mass: np.ndarray, atoms: np.ndarray):
        self.x0 = mass @ X
        self.y0 = mass @ atoms
        self.dim_m = atoms.shape[1]
        self.P = _residual_form(self.dim_m, X.shape[1])
        f = self._features(X, atoms)
        i, j = np.triu_indices(f.shape[1])
        sums = [math.fsum(col) for col in (f[:, i] * f[:, j] * mass[:, None]).T.tolist()]
        self.F = np.empty((f.shape[1], f.shape[1]))
        self.F[i, j] = sums
        self.F[j, i] = sums
        self._moments = None

    def _features(self, X, atoms) -> np.ndarray:
        Y = atoms - self.y0
        Xc = X - self.x0
        r = np.sum(Y * Y, axis=1) - np.sum(Xc * Xc, axis=1)
        return np.column_stack([np.ones(len(r)), r, Y, Xc])

    def move(self, x, y_from, y_to, mass: float) -> None:
        """Move `mass` of the atoms at (x, y_from) to (x, y_to)."""
        f = self._features(np.stack([x, x]), np.stack([y_from, y_to]))
        self.F += (f.T * np.array([-mass, mass])) @ f
        self._moments = None

    def moment_set(self) -> MomentSet:
        """The centred moment set, by an exact change of origin to the current means."""
        if self._moments is None:
            m = self.dim_m
            dy, dx = self.F[0, 2:2 + m], self.F[0, 2 + m:]
            T = np.eye(self.F.shape[0])
            T[1, 0] = dy @ dy - dx @ dx
            T[1, 2:2 + m] = -2.0 * dy
            T[1, 2 + m:] = 2.0 * dx
            T[2:, 0] = -self.F[0, 2:]
            C = T @ self.F @ T.T
            C = 0.5 * (C + C.T)
            s1 = float(C[0, 1])
            self._moments = MomentSet(
                S=2.0 * C[2:2 + m, 2:2 + m] + s1 * np.eye(m),
                Phi=C[2:2 + m, 2 + m:],
                b=C[2:2 + m, 1],
                Cxx=C[2 + m:, 2 + m:],
                s1=s1,
                s2=float(C[1, 1]),
                a1=C[2 + m:, 1],
                x_mean=self.x0 + dx,
                y_mean=self.y0 + dy,
            )
        return self._moments

    def energy(self) -> tuple[float, float]:
        """The plan energy sum_ab m_a m_b (f_a^T P f_b)^2 = tr(PFPF), and a bound on its rounding.

        By Cauchy-Schwarz the pair terms are at most |P f_a|^2 |f_b|^2, which
        sum to tr(P^2 F) tr(F); the energy cancels down from that, and does so
        badly for plans that embed their cloud almost isometrically.  The
        moments are correctly rounded and P @ F is exact (P is a scaled
        signed permutation), so the rounding of the sums stays below 8 eps
        of that magnitude.
        """
        PF = self.P @ self.F
        magnitude = float(np.sum(self.P**2, axis=0) @ np.diag(self.F)) * float(np.trace(self.F))
        return math.fsum((PF * PF.T).ravel()), 8.0 * np.finfo(float).eps * magnitude


def moments_from_arrays(X: np.ndarray, mass: np.ndarray, atoms: np.ndarray) -> MomentSet:
    """Moments from flat per-atom arrays: source point, mass, and image of each atom."""
    return LiftedMoments(X, mass, atoms).moment_set()


def map_objective(X: np.ndarray, w: np.ndarray, m: int):
    """Energy and gradient functions of the qmds map energy of images Y (n x m).

    Both come from the lifted moments F of the map, in O(n (d+m)^2) time and
    memory: E = tr(PFPF), and the gradient in y_i is 2 w_i grad J(y_i | x_i)
    with grad J = 4 ((F g)_y - y (F g)_0) at g = P f_i, where _0 is the
    constant feature.  The x-columns of the features are fixed; `gradient`
    reuses the moments of the last `energy` call when it was made at the
    same Y.
    """
    n, d = X.shape
    f = np.empty((n, 2 + m + d))
    f[:, 0] = 1.0
    f[:, 2 + m:] = X - w @ X
    nx = np.sum(f[:, 2 + m:] ** 2, axis=1)
    P = _residual_form(m, d)
    w8 = 8.0 * w[:, None]
    last = {"Y": None}

    def energy(Y):
        Yc = Y - w @ Y
        f[:, 2:2 + m] = Yc
        f[:, 1] = np.einsum("ij,ij->i", Yc, Yc) - nx
        PF = P @ ((f.T * w) @ f)
        last.update(Y=Y, Yc=Yc, PF=PF)
        return float(np.vdot(PF, PF.T))

    def gradient(Y):
        if last["Y"] is not Y:
            energy(Y)
        H = f @ last["PF"][:, :2 + m]
        return w8 * (H[:, 2:] - last["Yc"] * H[:, :1])

    return energy, gradient


def compute_moments(plan: EmbeddingPlan, cloud: PointCloud) -> MomentSet:
    """Single pass over the plan's atoms accumulating all quartic moments."""
    plan.validate_against(cloud)
    idx, mass, atoms = plan.flat()
    return moments_from_arrays(cloud.points[idx], mass, atoms)


@dataclass(frozen=True)
class QuarticMarginal:
    """The marginal objective at one source point, in centered coordinates.

    value/grad accept atoms in original coordinates and shift internally.
    """

    Psi: np.ndarray
    phi: np.ndarray
    zeta: float
    y_shift: np.ndarray = None

    def __post_init__(self):
        if self.y_shift is None:
            object.__setattr__(self, "y_shift", np.zeros(self.Psi.shape[0]))

    @property
    def dim_m(self) -> int:
        return self.Psi.shape[0]

    def value(self, y) -> float:
        yc = np.asarray(y, dtype=float).reshape(-1) - self.y_shift
        s = float(np.dot(yc, yc))
        return s * s - 2.0 * float(yc @ self.Psi @ yc) - 4.0 * float(self.phi @ yc) + self.zeta

    def grad(self, y) -> np.ndarray:
        yc = np.asarray(y, dtype=float).reshape(-1) - self.y_shift
        return 4.0 * (np.dot(yc, yc) * yc - self.Psi @ yc - self.phi)

    def hessian(self, y) -> np.ndarray:
        yc = np.asarray(y, dtype=float).reshape(-1) - self.y_shift
        s = float(np.dot(yc, yc))
        return 4.0 * (s * np.eye(self.dim_m) + 2.0 * np.outer(yc, yc) - self.Psi)


def quartic_at(moments: MomentSet, x) -> QuarticMarginal:
    """Assemble (Psi, phi, zeta) at the source point x."""
    xc = np.asarray(x, dtype=float).reshape(-1) - moments.x_mean
    if xc.shape[0] != moments.dim_d:
        raise InputError(f"x has dimension {xc.shape[0]}, moments expect {moments.dim_d}")
    nx2 = float(np.dot(xc, xc))
    Psi = nx2 * np.eye(moments.dim_m) - moments.S
    phi = 2.0 * moments.Phi @ xc + moments.b
    zeta = (nx2 * nx2 + 4.0 * float(xc @ moments.Cxx @ xc)
            - 2.0 * nx2 * moments.s1 + 4.0 * float(moments.a1 @ xc) + moments.s2)
    return QuarticMarginal(Psi=0.5 * (Psi + Psi.T), phi=phi, zeta=float(zeta),
                           y_shift=moments.y_mean.copy())


@dataclass(frozen=True)
class MarginalSolution:
    """Global minimizers of one marginal problem.

    multiplicity_kind is "continuum" when a degenerate eigen-sphere of
    minimizers was detected; then `minimizers` holds one representative per
    sphere.  `certified` is False only for best-effort (non closed form)
    solves.
    """

    minimizers: list
    value: float
    multiplicity_kind: str
    certified: bool = True


def select_minimizer(solution: MarginalSolution) -> np.ndarray:
    """Deterministic tie-break: lexicographically largest minimizer."""
    return max(solution.minimizers, key=lambda y: tuple(y))


def _depressed_cubic_roots(p: float, q: float) -> list:
    """Real roots of y^3 + p*y + q = 0 by the trigonometric/Cardano formulas."""
    if p == 0.0 and q == 0.0:
        return [0.0]
    disc = -4.0 * p**3 - 27.0 * q**2
    if disc > 0.0:
        # three distinct real roots (requires p < 0)
        rho = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * rho)
        theta = math.acos(min(1.0, max(-1.0, arg)))
        return [rho * math.cos((theta + 2.0 * math.pi * k) / 3.0) for k in range(3)]
    rad = math.sqrt(max(q * q / 4.0 + p**3 / 27.0, 0.0))
    u = np.cbrt(-q / 2.0 + rad)
    v = np.cbrt(-q / 2.0 - rad)
    return [float(u + v)]


def _polish(qm: QuarticMarginal, yc: np.ndarray, iters: int = 40) -> np.ndarray:
    """Damped Newton steps on the stationarity equation, in centered coordinates."""
    m = qm.dim_m
    for _ in range(iters):
        s = float(np.dot(yc, yc))
        g = 4.0 * (s * yc - qm.Psi @ yc - qm.phi)
        if np.linalg.norm(g) <= 0.1 * RESIDUAL_TOL:
            break
        H = 4.0 * (s * np.eye(m) + 2.0 * np.outer(yc, yc) - qm.Psi)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, g, rcond=None)[0]
        if not np.isfinite(step).all():
            break
        yc = yc - step
    return yc


def _branch_candidates(k, clusters, cl_psi, phih, V, forced, scale, along_phi=False):
    """Stationary points with s = |y|^2 pinned to cluster k's eigenvalue.

    Forced clusters other than k take their secular coordinates; the rest of
    the norm goes on cluster k, along its first eigenvector (a whole sphere
    when the cluster is degenerate), or along phi's component in it when
    `along_phi` (a forced cluster whose secular root was lost).
    """
    s = cl_psi[k]
    if s < -1e-12:
        return []
    yh = np.zeros(V.shape[0])
    for l in forced:
        if l == k:
            continue
        gap = s - cl_psi[l]
        if abs(gap) < 1e-13 * scale:
            return []
        yh[clusters[l]] = phih[clusters[l]] / gap
    r2 = s - float(np.dot(yh, yh))
    if r2 < -1e-12 * scale:
        return []
    r = math.sqrt(max(r2, 0.0))
    if r <= 1e-10:
        return [(V @ yh, False)]
    direction = np.zeros_like(yh)
    if along_phi:
        c = clusters[k]
        direction[c] = phih[c] / np.linalg.norm(phih[c])
    else:
        direction[clusters[k][0]] = 1.0
    sphere = len(clusters[k]) >= 2 and not along_phi
    return [(V @ (yh + sign * r * direction), sphere) for sign in (+1.0, -1.0)]


def _spectrum(qm: QuarticMarginal, phi_tol: float):
    """Eigenvalues/vectors of Psi, phi in that basis, near-equal eigenvalue clusters."""
    psis, V = np.linalg.eigh(qm.Psi)
    phih = V.T @ qm.phi
    clusters = []
    start = 0
    for j in range(1, qm.dim_m + 1):
        if j == qm.dim_m or psis[j] - psis[j - 1] > EIG_GAP:
            clusters.append(list(range(start, j)))
            start = j
    cl_psi = [float(np.mean(psis[c])) for c in clusters]
    forced = [k for k, c in enumerate(clusters) if float(np.sum(phih[c] ** 2)) > phi_tol**2]
    return psis, V, phih, clusters, cl_psi, forced


def _select(qm: QuarticMarginal, candidates, tol_value):
    """Polish and dedupe candidates; the global set (centred, lexicographically descending)."""
    polished = []
    for yc, sphere in candidates:
        yc = _polish(qm, np.asarray(yc, dtype=float))
        g = 4.0 * (np.dot(yc, yc) * yc - qm.Psi @ yc - qm.phi)
        if np.linalg.norm(g) > RESIDUAL_TOL:
            continue
        if not any(np.linalg.norm(yc - z) <= 1e-7 * (1.0 + np.linalg.norm(z)) for z, _ in polished):
            polished.append((yc, sphere))
    if not polished:
        polished.append((_polish(qm, np.zeros(qm.dim_m)), False))

    vals = [qm.value(yc + qm.y_shift) for yc, _ in polished]
    best = min(vals)
    if tol_value is None:
        tol_value = 1e-9 * (1.0 + abs(best))
    winners = [(yc, sphere) for (yc, sphere), v in zip(polished, vals) if v - best <= tol_value]
    winners.sort(key=lambda item: tuple(item[0] + qm.y_shift), reverse=True)
    return winners, best


def minimize_quartic(qm: QuarticMarginal, tol_value: float = None) -> MarginalSolution:
    """Global minimization of the quartic marginal via its stationarity branches.

    Stationarity reads (|y|^2 I - Psi) y = phi.  In the eigenbasis of Psi,
    coordinates with a nonzero right-hand side force a secular equation in
    s = |y|^2; eigen-clusters with vanishing right-hand side contribute
    branches s = psi_j with free magnitude on that eigenspace.

    A global minimizer has |y|^2 >= lambda_max(Psi) (the p-regularized
    subproblem condition).  A winner that violates it means the top
    cluster's root was lost, as when phi's top component is tiny but not
    zero; that cluster's branch candidates are then added and the selection
    repeated, and a winner that still violates it is not certified.
    """
    m = qm.dim_m
    scale = max(1.0, float(np.linalg.norm(qm.Psi)), float(np.linalg.norm(qm.phi)))
    phi_tol = _PHI_TOL * scale

    candidates = []          # (centered stationary point, from_sphere_branch)
    spectrum = None

    if m == 1:
        psi_max = float(qm.Psi[0, 0])
        for root in _depressed_cubic_roots(-psi_max, -float(qm.phi[0])):
            candidates.append((np.array([root]), False))
    else:
        spectrum = _spectrum(qm, phi_tol)
        psis, V, phih, clusters, cl_psi, forced = spectrum
        psi_max = float(psis[-1])

        # secular branch: s solves sum_k rhs_k/(s - psi_k)^2 = s over forced
        # clusters; clear denominators to a single polynomial in s
        cl_rhs = [float(np.sum(phih[c] ** 2)) for c in clusters]
        denom = np.poly1d([1.0])
        for k in forced:
            denom *= np.poly1d([1.0, -cl_psi[k]]) ** 2
        poly = -np.poly1d([1.0, 0.0]) * denom
        for k in forced:
            term = np.poly1d([cl_rhs[k]])
            for l in forced:
                if l != k:
                    term *= np.poly1d([1.0, -cl_psi[l]]) ** 2
            poly = poly + term
        for root in np.roots(poly.coefficients):
            if abs(root.imag) > 1e-8 * scale:
                continue
            s = float(root.real)
            if s < -1e-12:
                continue
            s = max(s, 0.0)
            yh = np.zeros(m)
            ok = True
            for k in forced:
                gap = s - cl_psi[k]
                if abs(gap) < 1e-13 * scale:
                    ok = False
                    break
                yh[clusters[k]] = phih[clusters[k]] / gap
            if ok:
                candidates.append((V @ yh, False))

        # degenerate branches: s pinned to an unforced cluster's eigenvalue
        for k in range(len(clusters)):
            if k not in forced:
                candidates += _branch_candidates(k, clusters, cl_psi, phih, V, forced, scale)

        if not candidates:
            candidates.append((np.zeros(m), False))

    winners, best = _select(qm, candidates, tol_value)

    def certified():
        return all(float(np.dot(yc, yc)) >= psi_max - 1e-8 * scale for yc, _ in winners)

    ok = certified()
    if not ok:
        if spectrum is None:
            spectrum = _spectrum(qm, phi_tol)
        _, V, phih, clusters, cl_psi, forced = spectrum
        top = len(clusters) - 1
        candidates += _branch_candidates(top, clusters, cl_psi, phih, V, forced, scale,
                                         along_phi=top in forced)
        winners, best = _select(qm, candidates, tol_value)
        ok = certified()

    if any(sphere for _, sphere in winners):
        kind = "continuum"
    elif len(winners) == 1:
        kind = "unique"
    else:
        kind = "finite_multiple"
    return MarginalSolution(minimizers=[yc + qm.y_shift for yc, _ in winners],
                            value=float(best), multiplicity_kind=kind, certified=ok)


def level_set_grid(moments: MomentSet, region, resolution: int):
    """Evaluate the selected marginal minimizer on a 2-d grid of source points.

    region is ((x1_min, x1_max), (x2_min, x2_max)); requires d=2 inputs and
    scalar (m=1) embeddings.  Returns a list of (x, lambda, count) tuples in
    row-major order.
    """
    if moments.dim_d != 2 or moments.dim_m != 1:
        raise InputError("level sets need 2-d source points and 1-d embeddings")
    if resolution < 2:
        raise InputError("grid resolution must be at least 2")
    (x1a, x1b), (x2a, x2b) = region
    if not (x1b > x1a and x2b > x2a):
        raise InputError(f"degenerate region {region!r}")
    xs1 = np.linspace(x1a, x1b, resolution)
    xs2 = np.linspace(x2a, x2b, resolution)
    out = []
    for u in xs1:
        for v in xs2:
            x = np.array([u, v])
            sol = minimize_quartic(quartic_at(moments, x))
            lam = float(select_minimizer(sol)[0])
            out.append((x, lam, len(sol.minimizers)))
    return out


def save_levelset_csv(path, grid) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("x1,x2,lambda,count\n")
        for x, lam, count in grid:
            fh.write(f"{_fmt(x[0])},{_fmt(x[1])},{_fmt(lam)},{count}\n")
