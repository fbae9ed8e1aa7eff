"""Closed-form machinery for the quartic squared-distance marginal problem.

For the cost (|x-x'|^2 - |y-y'|^2)^2 the marginal objective of a plan is an
explicit quartic in y,

    J(y | x) = |y|^4 - 2 y^T Psi y - 4 phi^T y + zeta,

whose coefficients are moments of the plan.  Its stationary points solve
(|y|^2 I - Psi) y = phi, and a global minimizer also has |y|^2 >=
lambda_max(Psi): the condition of the p-regularized subproblem (Hsia, Sheu
& Yuan 2017), the quartic analogue of the trust-region hard case (More &
Sorensen 1983).  In the eigenbasis of Psi the minimizer is therefore the root
of one monotone secular equation in t = |y|^2 - lambda_max >= 0, or, when phi
has no component along the top eigenspace and the rest of y is shorter than
sqrt(lambda_max), a point of the sphere |y|^2 = lambda_max in that eigenspace
(the hard case: two minimizers, or a continuum when the top eigenvalue is
repeated).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import EmbeddingPlan, InputError, NumericalError, PointCloud, _fmt

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
            moments = cls(
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
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed moment field ({exc})") from None
        m = moments.S.shape[0] if moments.S.ndim else 0
        d = moments.Cxx.shape[0] if moments.Cxx.ndim else 0
        shapes = {"S": (m, m), "Phi": (m, d), "b": (m,), "Cxx": (d, d),
                  "a1": (d,), "x_mean": (d,), "y_mean": (m,)}
        bad = [name for name, shape in shapes.items() if getattr(moments, name).shape != shape]
        if bad:
            raise InputError(f"{path}: moment field(s) {', '.join(bad)} do not fit "
                             f"S ({m}x{m}) and Cxx ({d}x{d})")
        bad = [f.name for f in fields(cls) if not np.isfinite(getattr(moments, f.name)).all()]
        if bad:
            raise InputError(f"{path}: non-finite moment field(s) {', '.join(bad)}")
        return moments


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

    multiplicity_kind is "unique", "finite_multiple" (two minimizers) or
    "continuum" (a sphere of minimizers in a repeated top eigenspace, of
    which `minimizers` holds two representatives).  `certified` is False when
    global optimality was not established: a best-effort multi-start solve,
    a quartic minimizer that failed its stationarity or
    |y|^2 >= lambda_max(Psi) check, or a least-squares solve that failed its
    residual check.
    """

    minimizers: list
    value: float
    multiplicity_kind: str
    certified: bool = True


def select_minimizer(solution: MarginalSolution) -> np.ndarray:
    """Deterministic tie-break: lexicographically largest minimizer."""
    return max(solution.minimizers, key=lambda y: tuple(y))


def _polish(qm: QuarticMarginal, yc: np.ndarray, iters: int = 40) -> tuple[np.ndarray, float]:
    """Newton steps on the stationarity equation (centered); the point and its gradient norm.

    A step is kept only when it lowers the gradient norm, so a point near a
    singular Hessian (a sphere of minimizers) is never made worse.
    """
    m = qm.dim_m
    y, res = yc, math.inf
    for _ in range(iters + 1):
        s = float(np.dot(y, y))
        g = 4.0 * (s * y - qm.Psi @ y - qm.phi)
        norm = float(np.linalg.norm(g))
        if not norm < res:
            break
        yc, res = y, norm
        if res <= 0.1 * RESIDUAL_TOL:
            break
        H = 4.0 * (s * np.eye(m) + 2.0 * np.outer(y, y) - qm.Psi)
        try:
            y = y - np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            y = y - np.linalg.lstsq(H, g, rcond=None)[0]
    return yc, res


def _secular_root(c: list, g: list, c_top: float, lam: float, phi2: float) -> float:
    """Root of F(t) = c_top/t^2 + sum_k c_k/(t+g_k)^2 - lam - t on t >= max(0, -lam).

    With gaps g_k > 0, F is convex and decreasing there, so Newton steps from
    a point left of the root climb to it monotonically, with no safeguard.
    The start is the left end or, at a pole (c_top > 0, lam >= 0),
    sqrt(c_top/(lam + t_hi)) with t_hi = max(lam, 0) + |phi|^(2/3) - lam:
    F(t_hi) <= 0, so the root t* <= t_hi, and c_top/t*^2 <= lam + t* puts
    the start left of t*.
    """
    t = max(0.0, -lam)
    if c_top and not t:
        t = math.sqrt(c_top / (lam + phi2 ** (1.0 / 3.0)))
    terms = list(zip(c, g)) + ([(c_top, 0.0)] if c_top else [])
    for _ in range(100):
        f, df = -lam - t, -1.0
        for ck, gk in terms:
            u = 1.0 / (t + gk)
            w = ck * u * u
            f += w
            df -= 2.0 * w * u
        if f <= 0.0:
            break
        step = -f / df
        t += step
        if step <= 1e-15 * t:
            break
    return t


def minimize_quartic(qm: QuarticMarginal) -> MarginalSolution:
    """Global minimizers of the quartic marginal (the method is in the module docstring).

    In the eigenbasis of Psi the top cluster (the trailing eigenvalues chained
    by gaps <= EIG_GAP) counts as the one eigenvalue lambda_max, and the rest
    have gaps g_k = lambda_max - psi_k.  When phi's top-cluster component is
    negligible (at most _PHI_TOL scale, and small enough that ignoring it
    leaves a gradient below RESIDUAL_TOL / 2) and y_rest = phi_rest/g_rest
    has |y_rest|^2 < lambda_max, the minimizers are y_rest +- r v_top with
    r^2 = lambda_max - |y_rest|^2 (the hard case).  Otherwise the minimizer
    is unique: y_k = phi_k/(t + g_k) at the secular root t.  Each minimizer
    gets Newton steps on the stationarity equation, and the solution is
    certified when every one has a gradient norm <= RESIDUAL_TOL and
    |y|^2 >= lambda_max - 1e-8 scale.  Minimizers are in original
    coordinates, lexicographically descending.
    """
    Psi, phi = qm.Psi, qm.phi
    if not (np.isfinite(Psi).all() and np.isfinite(phi).all() and math.isfinite(qm.zeta)):
        raise NumericalError("quartic marginal with non-finite coefficients")
    m = qm.dim_m
    phi2 = float(np.dot(phi, phi))
    scale = max(1.0, float(np.linalg.norm(Psi)), math.sqrt(phi2))
    psis, V = (Psi[0], np.ones((1, 1))) if m == 1 else np.linalg.eigh(Psi)
    psis, phih = psis.tolist(), (phi @ V).tolist()
    lam = psis[-1]
    top = m - 1
    while top and psis[top] - psis[top - 1] <= EIG_GAP:
        top -= 1
    g = [lam - p for p in psis[:top]]
    c = [f * f for f in phih[:top]]
    c_top = sum(f * f for f in phih[top:])
    if c_top <= min(_PHI_TOL * scale, RESIDUAL_TOL / 8.0) ** 2:
        c_top = 0.0
    rest2 = sum(ck / (gk * gk) for ck, gk in zip(c, g))

    if c_top or lam - rest2 <= 1e-12 * scale:
        t = _secular_root(c, g, c_top, lam, phi2)
        yh = np.array([f / (t + gk) for f, gk in zip(phih, g)]
                      + [f / t if c_top else 0.0 for f in phih[top:]])
        points, kind = [V @ yh], "unique"
    else:
        y_rest = V[:, :top] @ np.array([f / gk for f, gk in zip(phih, g)])
        r = math.sqrt(lam - rest2)
        points = [y_rest + r * V[:, top], y_rest - r * V[:, top]]
        kind = "continuum" if top < m - 1 else "finite_multiple"

    polished = [_polish(qm, yc) for yc in points]
    certified = all(res <= RESIDUAL_TOL and float(np.dot(yc, yc)) >= lam - 1e-8 * scale
                    for yc, res in polished)
    minimizers = sorted((yc + qm.y_shift for yc, _ in polished), key=tuple, reverse=True)
    return MarginalSolution(minimizers=minimizers, value=min(qm.value(y) for y in minimizers),
                            multiplicity_kind=kind, certified=certified)


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
