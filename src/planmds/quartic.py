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

import functools
import json
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .core import EmbeddingPlan, InputError, NumericalError, PointCloud, _plan_arrays, _read_json, _write_csv

EIG_GAP = 1e-9        # eigenvalues closer than this form one degenerate cluster
RESIDUAL_TOL = 1e-8   # stationarity residual required of returned minimizers
POLISH_ITERS = 40     # Newton steps at most on each returned minimizer
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

    @functools.cached_property
    def lifted(self) -> list:
        """The lifted moments F about (x_mean, y_mean) whose blocks these fields are, as rows."""
        m, d = self.dim_m, self.dim_d
        F = np.zeros((2 + m + d, 2 + m + d))
        F[0, 0] = 1.0
        F[0, 1] = F[1, 0] = self.s1
        F[1, 1] = self.s2
        F[1, 2:2 + m] = F[2:2 + m, 1] = self.b
        F[1, 2 + m:] = F[2 + m:, 1] = self.a1
        F[2:2 + m, 2:2 + m] = 0.25 * (self.S + self.S.T) - 0.5 * self.s1 * np.eye(m)
        F[2:2 + m, 2 + m:] = self.Phi
        F[2 + m:, 2:2 + m] = self.Phi.T
        F[2 + m:, 2 + m:] = self.Cxx
        return F.tolist()

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "MomentSet":
        payload = _read_json(path)
        try:
            moments = cls(**{f.name: float(payload[f.name]) if f.type == "float"
                             else np.array(payload[f.name], dtype=float) for f in fields(cls)})
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
    built, so moving an atom is a rank-one update of F.  The quartic marginal
    at any x (quartic_at), the marginal values and the plan energy all follow
    from F in O((d+m)^2), with no pass over the atoms.  The sums are built
    with math.fsum: the energy cancels down from the moments, and accumulated
    rounding in them would cost digits (and depend on the BLAS).  F is kept as
    a list of rows of Python floats: a sweep step (step, then move_lifted)
    reads it and updates it once, and at (d+m+2)^2 entries Python float
    arithmetic beats numpy calls.
    """

    def __init__(self, X: np.ndarray, mass: np.ndarray, atoms: np.ndarray):
        self.x0 = mass @ X
        self.y0 = mass @ atoms
        self.dim_m = atoms.shape[1]
        self.P = _residual_form(self.dim_m, X.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            f = self._features(X, atoms)
            i, j = np.triu_indices(f.shape[1])
            terms = (f[:, i] * f[:, j] * mass[:, None]).T
        if not np.isfinite(terms).all():
            raise NumericalError("non-finite lifted moment terms: coordinates too large")
        try:
            sums = [math.fsum(col) for col in terms.tolist()]
        except OverflowError:
            raise NumericalError("lifted moments overflow: coordinates too large") from None
        F = np.empty((f.shape[1], f.shape[1]))
        F[i, j] = sums
        F[j, i] = sums
        self.F = F.tolist()
        self._y0 = self.y0.tolist()

    def _features(self, X, atoms) -> np.ndarray:
        Y = atoms - self.y0
        Xc = X - self.x0
        r = np.sum(Y * Y, axis=1) - np.sum(Xc * Xc, axis=1)
        return np.column_stack([np.ones(len(r)), r, Y, Xc])

    def lift(self, X) -> list:
        """(v, P e) of every source point x (row of X), in Python floats: what step and move read.

        v = x - x0 and e = (1, -|v|^2, 0, v) is the lifted point of x, so
        P e = (|v|^2, -1, 0, -2 v).  Moves leave x0 alone, so both stay valid.
        """
        m = self.dim_m
        return [(v, _lifted_point(v, m)) for v in (np.atleast_2d(X) - self.x0).tolist()]

    def move(self, x, y_from, y_to, mass: float) -> None:
        """Move `mass` of the atoms at (x, y_from) to (x, y_to): F += mass (f_to f_to^T - f_from f_from^T)."""
        self.move_lifted(self.lift(x)[0], np.ravel(y_from).tolist(), np.ravel(y_to).tolist(), mass)

    def move_lifted(self, lifted, y_from: list, y_to: list, mass: float) -> None:
        """move() at the source point whose lift() is `lifted`, with the atoms as lists of floats.

        The two features differ only in their r and y entries, so only those
        rows and columns of F change; the rest change by exactly 0.
        """
        m = self.dim_m
        v, nx2 = lifted[0], lifted[1][0]
        sub, mul = operator.sub, operator.mul
        u_to, u_from = list(map(sub, y_to, self._y0)), list(map(sub, y_from, self._y0))
        a = [1.0, sum(map(mul, u_to, u_to)) - nx2, *u_to, *v]
        b = [1.0, sum(map(mul, u_from, u_from)) - nx2, *u_from, *v]
        F = self.F
        for i in range(1, 2 + m):
            row, ai, bi = F[i], a[i], b[i]
            row[:] = [f + mass * (ai * aj - bi * bj) for f, aj, bj in zip(row, a, b)]
            F[0][i] = row[0]
            for fj, rj in zip(row[2 + m:], F[2 + m:]):
                rj[i] = fj

    def step(self, lifted, y_old: list):
        """The sweep's move of the atom at y_old of the source point whose lift() is `lifted`.

        Returns (y_new, certified, j_old, j_new): the selected (lexicographically
        largest) global minimizer of the marginal there, whether the solve is
        certified, and the marginal values at y_old and y_new.  These are
        select_minimizer(minimize_quartic(quartic_at(self, x))) and its
        QuarticMarginal.value, by the same floating-point operations in the
        same order, with no objects in between: Python floats at m = 1, and
        numpy only where it does the arithmetic at m >= 2 (eigh, @, dot).
        """
        m = self.dim_m
        Psi, phi, zeta, mu = _coefficients(self.F, lifted[1], m)
        if m == 1:
            Psi, phi, shift = Psi[0][0], phi[0], self._y0[0] + mu[0]
            points, _, certified = _minimize_centred(Psi, phi, zeta)
            y = max(y + shift for y in points)
            return ([y], certified, _centred_value(Psi, phi, zeta, y_old[0] - shift),
                    _centred_value(Psi, phi, zeta, y - shift))
        Psi, phi, shift = np.array(Psi), np.array(phi), self.y0 + np.array(mu)
        points, _, certified = _minimize_centred(Psi, phi, zeta)
        y = max((y + shift for y in points), key=tuple)
        return (y.tolist(), certified, _centred_value(Psi, phi, zeta, np.array(y_old) - shift),
                _centred_value(Psi, phi, zeta, y - shift))

    def moment_set(self) -> MomentSet:
        """The centred moment set, by an exact change of origin to the current means."""
        m = self.dim_m
        F = np.array(self.F)
        dy, dx = F[0, 2:2 + m], F[0, 2 + m:]
        T = np.eye(F.shape[0])
        T[1, 0] = dy @ dy - dx @ dx
        T[1, 2:2 + m] = -2.0 * dy
        T[1, 2 + m:] = 2.0 * dx
        T[2:, 0] = -F[0, 2:]
        C = T @ F @ T.T
        C = 0.5 * (C + C.T)
        s1 = float(C[0, 1])
        return MomentSet(
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

    def energy(self) -> tuple[float, float]:
        """The plan energy sum_ab m_a m_b (f_a^T P f_b)^2 = tr(PFPF), and a bound on its rounding.

        By Cauchy-Schwarz the pair terms are at most |P f_a|^2 |f_b|^2, which
        sum to tr(P^2 F) tr(F); the energy cancels down from that, and does so
        badly for plans that embed their cloud almost isometrically.  The
        moments are correctly rounded and P @ F is exact (P is a scaled
        signed permutation), so the rounding of the sums stays below 8 eps
        of that magnitude.  Products of the moments that overflow raise
        NumericalError, as moments that overflow do.
        """
        F = np.array(self.F)
        PF = self.P @ F
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            terms = PF * PF.T
            magnitude = float(np.sum(self.P**2, axis=0) @ np.diag(F)) * float(np.trace(F))
        if not np.isfinite(terms).all():
            raise NumericalError("non-finite lifted energy terms: coordinates too large")
        try:
            value = math.fsum(terms.ravel().tolist())
        except OverflowError:
            raise NumericalError("lifted energy overflows: coordinates too large") from None
        return value, 8.0 * np.finfo(float).eps * magnitude


def moments_from_arrays(X: np.ndarray, mass: np.ndarray, atoms: np.ndarray) -> LiftedMoments:
    """Lifted moments from flat per-atom arrays: source point, mass, and image of each atom."""
    return LiftedMoments(X, mass, atoms)


def map_objective(X: np.ndarray, w: np.ndarray, m: int):
    """Energy and gradient functions of the qmds map energy of images Y (n x m).

    Both come from the lifted moments F of the map, in O(n (d+m)^2) time and
    memory: E = tr(PFPF), and the gradient in y_i is 2 w_i grad J(y_i | x_i)
    with grad J = 4 ((F g)_y - y (F g)_0) at g = P f_i, where _0 is the
    constant feature.  The x-columns of the features are fixed; `gradient`
    reuses the moments of the last `energy` call when it was made at the
    same Y.  Neither checks for overflow: particle descent checks every
    energy and gradient they return.
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
    return moments_from_arrays(*_plan_arrays(plan, cloud)).moment_set()


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
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] == 1:
            return _centred_value(float(self.Psi[0, 0]), float(self.phi[0]), self.zeta,
                                  float(y[0]) - float(self.y_shift[0]))
        return _centred_value(self.Psi, self.phi, self.zeta, y - self.y_shift)

    def grad(self, y) -> np.ndarray:
        yc = np.asarray(y, dtype=float).reshape(-1) - self.y_shift
        return 4.0 * (np.dot(yc, yc) * yc - self.Psi @ yc - self.phi)


def _centred_value(Psi, phi, zeta: float, y) -> float:
    """J at the centred point y: Psi, phi and y are Python floats at m = 1, numpy arrays otherwise."""
    if isinstance(phi, float):
        s = y * y
        return s * s - 2.0 * (y * Psi * y) - 4.0 * (phi * y) + zeta
    s = float(np.dot(y, y))
    return s * s - 2.0 * float(y @ Psi @ y) - 4.0 * float(phi @ y) + zeta


def _lifted_point(v: list, m: int) -> list:
    """P e for the lifted point e = (1, -|v|^2, 0, v) of a source point at v = x - x0."""
    return [sum(map(operator.mul, v, v)), -1.0] + [0.0] * m + [-2.0 * t for t in v]


def _coefficients(F: list, pe: list, m: int):
    """(Psi as rows, phi, zeta, mu) at the lifted point pe, in Python floats: the core of quartic_at."""
    mul = operator.mul
    g = [sum(map(mul, row, pe)) for row in F]
    g0, mu = g[0], F[0][2:2 + m]
    a = sum(map(mul, mu, mu))
    diag, b = a + g0, 2.0 * a + g0
    Psi, phi, k = [], [], []
    for j, (mj, row, gj) in enumerate(zip(mu, F[2:2 + m], g[2:2 + m])):
        Fj = row[2:2 + m]
        kj = sum(map(mul, Fj, mu))
        Psi.append([2.0 * mj * ml - 2.0 * f + (diag if j == l else 0.0)
                    for l, (ml, f) in enumerate(zip(mu, Fj))])
        phi.append(b * mj - 2.0 * kj - gj)
        k.append(kj)
    zeta = (-3.0 * a * a - 2.0 * g0 * a + 4.0 * sum(map(mul, mu, k))
            + 4.0 * sum(map(mul, g[2:2 + m], mu)) + sum(map(mul, pe, g)))
    return Psi, phi, zeta, mu


def quartic_at(moments, x) -> QuarticMarginal:
    """Assemble (Psi, phi, zeta) at the source point x from a MomentSet or LiftedMoments.

    Both are lifted moments F about an origin (x0, y0): LiftedMoments as they
    stand after any moves, a MomentSet about its means.  With v = x - x0,
    u = y - y0 and the lifted point e = (1, -|v|^2, 0, v) of x, the lifted
    feature of (x, y) is e + (0, |u|^2, u, 0), and J = f^T P F P f needs F
    only through g = F P e, with P e = (|v|^2, -1, 0, -2v):

        J = |u|^4 - 4 |u|^2 mu.u + 4 u^T F_yy u - 2 g_0 |u|^2 + 4 g_y.u + (Pe).g

    (F_00, the total mass, taken as 1), where mu = F[0, y] is the offset of
    the atom mean from y0.  Shifting to that mean, u = mu + w, cancels the
    cubic term and leaves

        Psi  = (|mu|^2 + g_0) I + 2 mu mu^T - 2 F_yy
        phi  = (2 |mu|^2 + g_0) mu - 2 F_yy mu - g_y
        zeta = -3 |mu|^4 - 2 g_0 |mu|^2 + 4 mu.F_yy mu + 4 g_y.mu + (Pe).g,

    with y_shift = y0 + mu: O((d+m)^2) Python float operations in all.
    """
    if isinstance(moments, LiftedMoments):
        F, x0, y0 = moments.F, moments.x0, moments.y0
    else:
        F, x0, y0 = moments.lifted, moments.x_mean, moments.y_mean
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != len(x0):
        raise InputError(f"x has dimension {x.shape[0]}, moments expect {len(x0)}")
    m = len(y0)
    Psi, phi, zeta, mu = _coefficients(F, _lifted_point((x - x0).tolist(), m), m)
    return QuarticMarginal(Psi=np.array(Psi), phi=np.array(phi), zeta=zeta,
                           y_shift=y0 + np.array(mu))


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
    if len(solution.minimizers) == 1:
        return solution.minimizers[0]
    return max(solution.minimizers, key=lambda y: tuple(y))


def _polish(Psi, phi, y):
    """Newton steps on the stationarity equation (centered): the point, its gradient norm and |y|^2.

    A step is kept only when it lowers the gradient norm, so a point near a
    singular Hessian (a sphere of minimizers) is never made worse, and the
    norm is inf only when the gradient at the start is not finite.  At m = 1
    Psi, phi and y are Python floats.
    """
    scalar = isinstance(y, float)
    best = (y, math.inf, 0.0)
    for _ in range(POLISH_ITERS + 1):
        if scalar:
            s = y * y
            g = 4.0 * (s * y - Psi * y - phi)
            norm = abs(g)
        else:
            s = float(np.dot(y, y))
            g = 4.0 * (s * y - Psi @ y - phi)
            norm = float(np.linalg.norm(g))
        if not norm < best[1]:
            break
        best = (y, norm, s)
        if norm <= 0.1 * RESIDUAL_TOL:
            break
        if scalar:
            h = 4.0 * (s + 2.0 * y * y - Psi)
            if h == 0.0:
                break
            y = y - g / h
        else:
            H = 4.0 * (s * np.eye(len(y)) + 2.0 * np.outer(y, y) - Psi)
            try:
                y = y - np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                y = y - np.linalg.lstsq(H, g, rcond=None)[0]
    return best


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

    Minimizers are in original coordinates, lexicographically descending;
    the solve itself is _minimize_centred.
    """
    if qm.dim_m == 1:
        Psi, phi, shift = float(qm.Psi[0, 0]), float(qm.phi[0]), float(qm.y_shift[0])
        points, kind, certified = _minimize_centred(Psi, phi, qm.zeta)
        minimizers = [np.array([y]) for y in sorted((y + shift for y in points), reverse=True)]
    else:
        points, kind, certified = _minimize_centred(qm.Psi, qm.phi, qm.zeta)
        minimizers = sorted((y + qm.y_shift for y in points), key=tuple, reverse=True)
    return MarginalSolution(minimizers=minimizers, value=min(qm.value(y) for y in minimizers),
                            multiplicity_kind=kind, certified=certified)


def _minimize_centred(Psi, phi, zeta: float):
    """(centred minimizers, multiplicity kind, certified) of |y|^4 - 2 y^T Psi y - 4 phi^T y + zeta.

    Psi and phi are Python floats at m = 1 and numpy arrays otherwise, and
    the minimizers come back in the same form.  In the eigenbasis of Psi the
    top cluster (the trailing eigenvalues chained by gaps <= EIG_GAP) counts
    as the one eigenvalue lambda_max, and the rest have gaps
    g_k = lambda_max - psi_k.  When phi's top-cluster component is
    negligible (at most _PHI_TOL scale, and small enough that ignoring it
    leaves a gradient below RESIDUAL_TOL / 2) and y_rest = phi_rest/g_rest
    has |y_rest|^2 < lambda_max, the minimizers are y_rest +- r v_top with
    r^2 = lambda_max - |y_rest|^2 (the hard case).  Otherwise the minimizer
    is unique: y_k = phi_k/(t + g_k) at the secular root t.  Each minimizer
    gets Newton steps on the stationarity equation, and the solution is
    certified when every one has a gradient norm <= RESIDUAL_TOL and
    |y|^2 >= lambda_max - 1e-8 scale.  At m = 1 the eigenbasis is trivial
    and the solve and the polish run on Python floats.  A minimizer with a
    non-finite gradient raises NumericalError, so numpy need not warn of overflow.
    """
    if isinstance(phi, float):
        return _solve_centred(Psi, phi, zeta)
    with np.errstate(over="ignore", invalid="ignore"):
        return _solve_centred(Psi, phi, zeta)


def _solve_centred(Psi, phi, zeta: float):
    """The body of _minimize_centred."""
    scalar = isinstance(phi, float)
    if scalar:
        finite = math.isfinite(Psi) and math.isfinite(phi)
    else:
        finite = bool(np.isfinite(Psi).all() and np.isfinite(phi).all())
    if not (finite and math.isfinite(zeta)):
        raise NumericalError("quartic marginal with non-finite coefficients")
    if scalar:
        # one eigenvalue, so the top cluster holds all of phi and no gaps remain
        phi2 = phi * phi
        m, V, phih, lam, top, g, c, c_top, rest2 = 1, None, [phi], Psi, 0, [], [], phi2, 0.0
        scale = max(1.0, abs(Psi), math.sqrt(phi2))
    else:
        m = len(phi)
        phi2, psi_norm = float(np.dot(phi, phi)), float(np.linalg.norm(Psi))
        psis, V = np.linalg.eigh(Psi)
        psis, phih = psis.tolist(), (phi @ V).tolist()
        scale = max(1.0, psi_norm, math.sqrt(phi2))
        lam = psis[-1]
        top = m - 1
        while top and psis[top] - psis[top - 1] <= EIG_GAP:
            top -= 1
        g = [lam - p for p in psis[:top]]
        c = [f * f for f in phih[:top]]
        c_top = sum(f * f for f in phih[top:])
        rest2 = sum(ck / (gk * gk) for ck, gk in zip(c, g))
    if c_top <= min(_PHI_TOL * scale, RESIDUAL_TOL / 8.0) ** 2:
        c_top = 0.0

    if c_top or lam - rest2 <= 1e-12 * scale:
        t = _secular_root(c, g, c_top, lam, phi2)
        yh = ([f / (t + gk) for f, gk in zip(phih, g)]
              + [f / t if c_top else 0.0 for f in phih[top:]])
        points, kind = [yh[0] if scalar else V @ np.array(yh)], "unique"
    else:
        r = math.sqrt(lam - rest2)
        if scalar:
            points = [r, -r]
        else:
            y_rest = V[:, :top] @ np.array([f / gk for f, gk in zip(phih, g)])
            points = [y_rest + r * V[:, top], y_rest - r * V[:, top]]
        kind = "continuum" if top < m - 1 else "finite_multiple"

    polished = [_polish(Psi, phi, y) for y in points]
    if any(res == math.inf for _, res, _ in polished):
        raise NumericalError("quartic marginal minimizer is not finite: coefficients too large")
    floor = lam - 1e-8 * scale
    certified = all(res <= RESIDUAL_TOL and s >= floor for _, res, s in polished)
    return [y for y, _, _ in polished], kind, certified


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
    _write_csv(path, ["x1", "x2", "lambda", "count"],
               ((x[0], x[1], lam, count) for x, lam, count in grid))
