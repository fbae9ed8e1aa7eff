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
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .core import EmbeddingPlan, InputError, NumericalError, PointCloud, _plan_arrays, _read_json, _write_csv

EIG_GAP = 1e-9        # eigenvalues closer than this at unit scale form one degenerate cluster
RESIDUAL_TOL = 1e-8   # stationarity residual of returned minimizers, at unit scale
POLISH_ITERS = 40     # Newton steps at most on each returned minimizer
_PHI_TOL = 1e-11      # phi components at most this at unit scale count as zero
EPS = float(np.finfo(float).eps)
_JSON_FIELDS = ("S", "Phi", "b", "Cxx", "s1", "s2", "a1", "x_mean", "y_mean")   # s1, s2 scalars


@lru_cache(maxsize=None)
def _residual_form(m: int, d: int) -> np.ndarray:
    """The symmetric P with |x_a-x_b|^2 - |y_a-y_b|^2 = f_a^T P f_b, read-only and built once per shape.

    f = (1, |y|^2 - |x|^2, y, x) is the lifted feature of an atom (y in R^m,
    x in R^d), so every squared-distance residual matrix has rank <= d+m+2.
    """
    P = np.zeros((2 + m + d, 2 + m + d))
    P[0, 1] = P[1, 0] = -1.0
    P[2:2 + m, 2:2 + m] = 2.0 * np.eye(m)
    P[2 + m:, 2 + m:] = -2.0 * np.eye(d)
    P.setflags(write=False)
    return P


@lru_cache(maxsize=None)
def _upper_triangle(k: int) -> tuple:
    """np.triu_indices(k), read-only and built once per k: the entries of F that are summed."""
    i, j = np.triu_indices(k)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _moment_sums(f: np.ndarray, mass: np.ndarray) -> list:
    """sum_a mass_a f_a f_a^T over the rows f_a of f, as rows of Python floats.

    One math.fsum per upper-triangle entry, so every entry is correctly
    rounded and independent of the BLAS.  Terms that are not finite, and
    sums that overflow, raise NumericalError; callers hold np.errstate with
    over and invalid ignored, around the features too.
    """
    k = f.shape[1]
    i, j = _upper_triangle(k)
    terms = (f[:, i] * f[:, j] * mass[:, None]).T
    if not np.isfinite(terms).all():
        raise NumericalError("non-finite lifted moment terms: coordinates too large")
    try:
        sums = [math.fsum(col) for col in terms.tolist()]
    except OverflowError:
        raise NumericalError("lifted moments overflow: coordinates too large") from None
    F = np.empty((k, k))
    F[i, j] = sums
    F[j, i] = sums
    return F.tolist()


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
    arithmetic beats numpy calls.  to_json and from_json write and read the
    blocks of F about the current means.
    """

    def __init__(self, X: np.ndarray, mass: np.ndarray, atoms: np.ndarray):
        self._set_origin(mass @ X, mass @ atoms)
        with np.errstate(over="ignore", invalid="ignore"):   # _moment_sums checks the terms
            self.F = _moment_sums(self._features(X, atoms), mass)

    def _set_origin(self, x0: np.ndarray, y0: np.ndarray) -> None:
        self.x0, self.y0, self._y0, self.dim_m = x0, y0, y0.tolist(), len(y0)

    @property
    def dim_d(self) -> int:
        return len(self.x0)

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

        Returns (y_new, certified, j_old, j_new): _solve_at's first minimizer
        and certificate, and the marginal at y_old and y_new.
        """
        ys, values, _, certified, j_old = _solve_at(self.F, lifted[1], self._y0, y_old)
        return [ys[0]] if self.dim_m == 1 else ys[0], certified, j_old, values[0]

    def to_json(self, path) -> None:
        """Write F about the current means, by an exact change of origin, as its blocks.

        About the means F[0, y] and F[0, x] vanish, and the fields are
        S = 2 F_yy + s1 I, Phi = F_yx, b = F_ry, Cxx = F_xx, s1 = F_0r,
        s2 = F_rr, a1 = F_rx (r the |y|^2 - |x|^2 feature), x_mean and y_mean.
        """
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
        payload = {
            "S": (2.0 * C[2:2 + m, 2:2 + m] + s1 * np.eye(m)).tolist(),
            "Phi": C[2:2 + m, 2 + m:].tolist(),
            "b": C[2:2 + m, 1].tolist(),
            "Cxx": C[2 + m:, 2 + m:].tolist(),
            "s1": s1,
            "s2": float(C[1, 1]),
            "a1": C[2 + m:, 1].tolist(),
            "x_mean": (self.x0 + dx).tolist(),
            "y_mean": (self.y0 + dy).tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "LiftedMoments":
        """The moments to_json wrote, as F about their x_mean and y_mean."""
        payload = _read_json(path)
        try:
            v = {name: float(payload[name]) if name in ("s1", "s2")
                 else np.array(payload[name], dtype=float) for name in _JSON_FIELDS}
        except KeyError as exc:
            raise InputError(f"{path}: missing moment field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed moment field ({exc})") from None
        m = v["S"].shape[0] if v["S"].ndim else 0
        d = v["Cxx"].shape[0] if v["Cxx"].ndim else 0
        shapes = {"S": (m, m), "Phi": (m, d), "b": (m,), "Cxx": (d, d),
                  "a1": (d,), "x_mean": (d,), "y_mean": (m,)}
        bad = [name for name, shape in shapes.items() if v[name].shape != shape]
        if bad:
            raise InputError(f"{path}: moment field(s) {', '.join(bad)} do not fit "
                             f"S ({m}x{m}) and Cxx ({d}x{d})")
        bad = [name for name in _JSON_FIELDS if not np.isfinite(v[name]).all()]
        if bad:
            raise InputError(f"{path}: non-finite moment field(s) {', '.join(bad)}")
        F = np.zeros((2 + m + d, 2 + m + d))
        F[0, 0] = 1.0
        F[0, 1] = F[1, 0] = v["s1"]
        F[1, 1] = v["s2"]
        F[1, 2:2 + m] = F[2:2 + m, 1] = v["b"]
        F[1, 2 + m:] = F[2 + m:, 1] = v["a1"]
        F[2:2 + m, 2:2 + m] = 0.25 * (v["S"] + v["S"].T) - 0.5 * v["s1"] * np.eye(m)
        F[2:2 + m, 2 + m:] = v["Phi"]
        F[2 + m:, 2:2 + m] = v["Phi"].T
        F[2 + m:, 2 + m:] = v["Cxx"]
        moments = cls.__new__(cls)
        moments._set_origin(v["x_mean"], v["y_mean"])
        moments.F = F.tolist()
        return moments

    def energy(self) -> tuple[float, float]:
        """The plan energy sum_ab m_a m_b (f_a^T P f_b)^2 = tr(PFPF), and a bound on its rounding.

        By Cauchy-Schwarz the pair terms are at most |P f_a|^2 |f_b|^2, which
        sum to tr(P^2 F) tr(F); the energy cancels down from that, and does so
        badly for plans that embed their cloud almost isometrically.  The
        moments are correctly rounded and P @ F is exact (P is a scaled
        signed permutation), so the rounding of the sums stays below 8 eps
        of that magnitude.  The features (1, r, y, x) have degrees 0, 2, 1, 1
        in the coordinates, so the magnitude is taken for the coordinates
        scaled by 2^k, which scales F's diagonal by (1, 16^k, 4^k, ...) and
        the energy and its rounding exactly by 16^k, and divided by 16^k.  k
        brings the larger of F_rr and (tr F_yy + tr F_xx)^2, both of degree
        4, near F_00 = 1, so the bound is scale-free; one that overflows is
        infinite.  Products of the moments that overflow raise
        NumericalError, as moments that overflow do.
        """
        F = np.array(self.F)
        P = _residual_form(self.dim_m, self.dim_d)
        PF = P @ F
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            terms = PF * PF.T
        if not np.isfinite(terms).all():
            raise NumericalError("non-finite lifted energy terms: coordinates too large")
        try:
            value = math.fsum(terms.ravel().tolist())
        except OverflowError:
            raise NumericalError("lifted energy overflows: coordinates too large") from None
        # P^2 = diag(1, 1, 4, ..., 4), and F_00 is the total mass
        f00, frr, yx = self.F[0][0], self.F[1][1], sum(self.F[i][i] for i in range(2, len(self.F)))
        k = -(math.frexp(max(frr, yx * yx))[1] // 4)
        try:
            frr, yx = math.ldexp(frr, 4 * k), math.ldexp(yx, 2 * k)
            magnitude = math.ldexp((f00 + frr + 4.0 * yx) * (f00 + frr + yx), -4 * k)
        except OverflowError:
            magnitude = math.inf
        return value, 8.0 * EPS * magnitude


def moments_from_arrays(X: np.ndarray, mass: np.ndarray, atoms: np.ndarray) -> LiftedMoments:
    """Lifted moments from flat per-atom arrays: source point, mass, and image of each atom."""
    return LiftedMoments(X, mass, atoms)


def map_objective(X: np.ndarray, w: np.ndarray, m: int):
    """The qmds map energy of a stack of trial images, and its gradient at any one of them.

    Returns (evaluate, max_batch).  evaluate(Ys) takes J <= max_batch image
    arrays Ys (J x n x m) and returns (energies, gradient): an iterable of
    the J energies as Python floats, each computed when it is read, and
    gradient(j), the gradient at Ys[j].  Both come from the lifted moments F
    of each map, in O(J n (d+m)^2) time and memory: E = tr(PFPF), and the
    gradient in y_i is 2 w_i grad J(y_i | x_i) with grad J = 4 ((F g)_y -
    y (F g)_0) at g = P f_i, where _0 is the constant feature.  The J maps
    share one stacked build in which every map gets the operations of a build
    of its own (each stacked product is one BLAS call per map), so an energy
    does not depend on the stack it is evaluated in.  max_batch keeps the
    stacked features within energy._TILE_ELEMENTS.  Nothing checks for
    overflow: particle descent checks every energy and gradient it reads.
    """
    from .energy import _TILE_ELEMENTS

    n, d = X.shape
    k = 2 + m + d
    base = np.empty((n, k))   # the features' constant and x columns
    base[:, 0] = 1.0
    base[:, 2 + m:] = X - w @ X
    nx = np.sum(base[:, 2 + m:] ** 2, axis=1)
    P = _residual_form(m, d)
    w8 = 8.0 * w[:, None]
    w_row = w[None, :]

    def evaluate(Ys):
        J = len(Ys)
        Yc = Ys - w_row @ Ys
        f = np.empty((J, n, k))
        f[:] = base
        f[:, :, 2:2 + m] = Yc
        Y2 = Yc.reshape(J * n, m)
        f[:, :, 1] = np.einsum("ij,ij->i", Y2, Y2).reshape(J, n) - nx
        PF = P @ ((f.transpose(0, 2, 1) * w) @ f)

        def gradient(j):
            H = f[j] @ PF[j, :, :2 + m]
            return w8 * (H[:, 2:] - Yc[j] * H[:, :1])

        return (float(np.vdot(A, A.T)) for A in PF), gradient

    return evaluate, max(1, _TILE_ELEMENTS // (n * k))


def compute_moments(plan: EmbeddingPlan, cloud: PointCloud) -> LiftedMoments:
    """The plan's lifted moments, about its atom and point means: one pass over its atoms."""
    return moments_from_arrays(*_plan_arrays(plan, cloud))


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
        return _centred_value(self.Psi.tolist(), self.phi.tolist(), self.zeta,
                              list(map(operator.sub, y.tolist(), self.y_shift.tolist())))

    def grad(self, y) -> np.ndarray:
        yc = np.asarray(y, dtype=float).reshape(-1) - self.y_shift
        return 4.0 * (np.dot(yc, yc) * yc - self.Psi @ yc - self.phi)


def _centred_value(Psi, phi, zeta: float, y) -> float:
    """J at the centred point y: Python floats at m = 1; otherwise Psi as rows, phi and y as lists of them."""
    if isinstance(phi, float):
        s = y * y
        return s * s - 2.0 * (y * Psi * y) - 4.0 * (phi * y) + zeta
    s = yPy = phiy = 0.0
    for yi, row, fi in zip(y, Psi, phi):
        s += yi * yi
        yPy += yi * sum(map(operator.mul, row, y))
        phiy += fi * yi
    return s * s - 2.0 * yPy - 4.0 * phiy + zeta


def _lifted_point(v: list, m: int) -> list:
    """P e for the lifted point e = (1, -|v|^2, 0, v) of a source point at v = x - x0."""
    return [sum(map(operator.mul, v, v)), -1.0] + [0.0] * m + [-2.0 * t for t in v]


def _solve_at(F: list, pe: list, y0: list, y_old: list = None):
    """The solve of the quartic of the moments F at the lifted point pe, about the origin y0.

    _coefficients, then _select with shift y0 + mu: the tail of every caller
    that holds moments.  Returns _select's (minimizers, values, kind,
    certified) and J at y_old, None without it.  m = 1 stays on Python
    floats: as length-1 lists a sweep step takes about 2.4 times as long.
    """
    m = len(y0)
    Psi, phi, zeta, mu = _coefficients(F, pe, m)
    if m == 1:
        Psi, phi, shift = Psi[0][0], phi[0], y0[0] + mu[0]
        u_old = None if y_old is None else y_old[0] - shift
    else:
        shift = list(map(operator.add, y0, mu))
        u_old = None if y_old is None else list(map(operator.sub, y_old, shift))
    j_old = None if u_old is None else _centred_value(Psi, phi, zeta, u_old)
    return (*_select(Psi, phi, zeta, shift), j_old)


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
        Psi.append([2.0 * mj * ml - 2.0 * f for ml, f in zip(mu, Fj)])
        Psi[j][j] += diag
        phi.append(b * mj - 2.0 * kj - gj)
        k.append(kj)
    zeta = (-3.0 * a * a - 2.0 * g0 * a + 4.0 * sum(map(mul, mu, k))
            + 4.0 * sum(map(mul, g[2:2 + m], mu)) + sum(map(mul, pe, g)))
    return Psi, phi, zeta, mu


def quartic_at(moments: LiftedMoments, x) -> QuarticMarginal:
    """Assemble (Psi, phi, zeta) at the source point x from LiftedMoments.

    F is about the moments' origin (x0, y0): the means they were built or read
    at, which moves leave alone.  With v = x - x0,
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
    F, x0, y0 = moments.F, moments.x0, moments.y0
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != len(x0):
        raise InputError(f"x has dimension {x.shape[0]}, moments expect {len(x0)}")
    m = len(y0)
    Psi, phi, zeta, mu = _coefficients(F, _lifted_point((x - x0).tolist(), m), m)
    return QuarticMarginal(Psi=np.array(Psi), phi=np.array(phi), zeta=zeta,
                           y_shift=y0 + np.array(mu))


def _row_moments(p: np.ndarray, a: np.ndarray, atoms: np.ndarray):
    """(F, Pe, ybar) of J(y) = sum_b p_b (a_b - |y - y_b|^2)^2, weights p summing to 1, as _solve_at takes them.

    With ybar = p.atoms, z_b = y_b - ybar, c_b = a_b - |z_b|^2 and u = y - ybar,

        J = |u|^4 - 4 |u|^2 mu.u + 4 u^T F_zz u - 2 g_0 |u|^2 + 4 g_z.u + sum_b p_b c_b^2,

    quartic_at's form with F = sum_b p_b f_b f_b^T over the m+2 features
    f_b = (1, c_b, z_b) and Pe = (0, 1, 0, ..., 0): g = F Pe is F's c column,
    so g_0 = sum p c, g_z = sum p c z and Pe.g = sum p c^2, and mu = sum p z
    holds the rounding of ybar.  F takes one fsum per upper-triangle entry;
    the caller holds np.errstate as _moment_sums asks.
    """
    k, m = atoms.shape
    f = np.empty((k, m + 2))
    f[:, 0] = 1.0
    ybar = p @ atoms
    Z = f[:, 2:]
    np.subtract(atoms, ybar, out=Z)
    f[:, 1] = a - np.add.reduce(Z * Z, axis=1)
    return _moment_sums(f, p), [0.0, 1.0] + [0.0] * m, ybar.tolist()


@dataclass(frozen=True)
class MarginalSolution:
    """Global minimizers of one marginal problem.

    multiplicity_kind is "unique", "finite_multiple" (two minimizers, or
    for a branch and bound every minimizer found within its gap) or
    "continuum" (a sphere of minimizers in a repeated top eigenspace, of
    which `minimizers` holds two representatives).  `certified` is False when
    global optimality was not established: a quartic minimizer that failed
    its stationarity, |y|^2 >= lambda_max(Psi) or J(y) <= J(0) check, a
    least-squares solve that failed its residual check, or a branch and bound
    that ran out of boxes or met a marginal with no minimizer.  `gap` is the certified
    bound of a branch and bound: no point has a value below value - gap.
    The closed-form solves leave it 0.0.  Every solution planmds builds lists
    its minimizers lexicographically descending, so minimizers[0] is the one
    select_minimizer picks.
    """

    minimizers: list
    value: float
    multiplicity_kind: str
    certified: bool = True
    gap: float = 0.0


def select_minimizer(solution: MarginalSolution) -> np.ndarray:
    """Deterministic tie-break: lexicographically largest minimizer."""
    if len(solution.minimizers) == 1:
        return solution.minimizers[0]
    return max(solution.minimizers, key=lambda y: tuple(y))


def _polish(psis, phih, y):
    """Newton steps on the stationarity equation in Psi's eigenbasis: the point, its gradient norm and |y|^2.

    psis are Psi's eigenvalues and phih phi's components along its
    eigenvectors, so the gradient is 4 ((|y|^2 - psi_k) y_k - phih_k) and the
    Hessian 4 (diag(|y|^2 - psi) + 2 y y^T).  A step is kept only when it
    lowers the gradient norm, so a point near a singular Hessian (a sphere
    of minimizers) is never made worse.  At m = 1 all three are Python
    floats; otherwise lists, and only the rare Newton step itself calls numpy.
    """
    scalar = isinstance(y, float)
    mul = operator.mul
    best = (y, math.inf, 0.0)
    for _ in range(POLISH_ITERS + 1):
        if scalar:
            s = y * y
            g = 4.0 * (s * y - psis * y - phih)
            norm = abs(g)
        else:
            s = sum(map(mul, y, y))
            g = [4.0 * (s * yi - p * yi - fi) for yi, p, fi in zip(y, psis, phih)]
            norm = math.hypot(*g)
        if not norm < best[1]:
            break
        best = (y, norm, s)
        if norm <= 0.1 * RESIDUAL_TOL:
            break
        if scalar:
            h = 4.0 * (s + 2.0 * y * y - psis)
            if h == 0.0:
                break
            y = y - g / h
        else:
            H = [[4.0 * ((s - p if i == j else 0.0) + 2.0 * yi * yj) for j, yj in enumerate(y)]
                 for i, (yi, p) in enumerate(zip(y, psis))]
            try:
                dy = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                dy = np.linalg.lstsq(H, g, rcond=None)[0]
            y = list(map(operator.sub, y, dy.tolist()))
    return best


def _secular_root(c: list, g: list, c_top: float, lam: float) -> float:
    """Root of F(t) = c_top/t^2 + sum_k c_k/(t+g_k)^2 - lam - t on t >= max(0, -lam).

    With gaps g_k > 0, F is convex and decreasing there, so Newton steps from
    a point left of the root climb to it monotonically, with no safeguard.
    The c's sum to |phi|^2, so F(t_hi) <= 0 at t_hi = max(lam, 0) +
    |phi|^(2/3) - lam and the root t* <= t_hi.  Each term of F is at most
    lam + t* <= D = max(lam, 0) + |phi|^(2/3) at t*, so t* >= sqrt(c_k/D) - g_k
    (g = 0 for c_top).  The start is the largest of these bounds and the left
    end: Newton on a term c/(t+g)^2 far left of the root, as from -lam when
    lam < 0 is tiny, gains only a factor of about 1.5 a step.  The quartic is
    at unit scale (_minimize_centred), so none of this leaves the float range.
    """
    terms = list(zip(c, g))
    if c_top:
        terms.append((c_top, 0.0))
    t = max(0.0, -lam)
    phi2 = sum(c) + c_top
    if phi2:
        D = max(lam, 0.0) + phi2 ** (1.0 / 3.0)
        for ck, gk in terms:
            t = max(math.sqrt(ck / D) - gk, t)
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

    Minimizers are in original coordinates, lexicographically descending:
    _select on the coefficients as Python floats.
    """
    if qm.dim_m == 1:
        core = float(qm.Psi[0, 0]), float(qm.phi[0]), qm.zeta, float(qm.y_shift[0])
    else:
        core = qm.Psi.tolist(), qm.phi.tolist(), qm.zeta, qm.y_shift.tolist()
    ys, values, kind, certified = _select(*core)
    return MarginalSolution(minimizers=[np.array(y, ndmin=1) for y in ys], value=min(values),
                            multiplicity_kind=kind, certified=certified)


def _select(Psi, phi, zeta: float, shift):
    """(minimizers, J at each, kind, certified): the solve and selection of every quartic caller.

    All in _minimize_centred's form, shift being y_shift; the minimizers are
    shifted and lexicographically descending.  A non-finite minimum raises
    NumericalError; the certificate adds _not_above_centre of the top value.
    """
    points, kind, certified = _minimize_centred(Psi, phi, zeta)
    if isinstance(phi, float):
        ys = [y + shift for y in points]
        ys.sort(reverse=True)
        values = [_centred_value(Psi, phi, zeta, y - shift) for y in ys]
    else:
        ys = [list(map(operator.add, y, shift)) for y in points]
        ys.sort(reverse=True)
        values = [_centred_value(Psi, phi, zeta, list(map(operator.sub, y, shift))) for y in ys]
    if not math.isfinite(min(values)):
        raise NumericalError("quartic marginal minimum is not finite: coefficients too large")
    return ys, values, kind, certified and _not_above_centre(max(values), zeta)


def _not_above_centre(value: float, zeta: float) -> bool:
    """Whether J(y) = value is at most J(0) = zeta, to the rounding of adding zeta: a global minimizer's test.

    At a stationary y, J(y) - J(0) = -|y|^4 - 2 phi^T y, and phi^T y >= 0 at
    a global minimizer (J(y) - J(-y) = -8 phi^T y), so there J(y) - J(0) is
    below minus a third of the sum of the magnitudes of its terms |y|^4,
    2 y^T Psi y and 4 phi^T y.  The stationarity residual, sized for |y| of
    about |Psi|^(1/2), passes points with J(y) > J(0) when |y| is far below
    it; this value test, on the values _select computes anyway, fails them.
    """
    return value - zeta <= 4.0 * EPS * abs(zeta)


def _unit_exponent(psi_norm: float, phi_norm: float) -> int:
    """The e with max(psi_norm^(1/2), phi_norm^(1/3)) in [2^(e-1), 2^e), from exponents alone; 0 for zeros."""
    a, b = -(-math.frexp(psi_norm)[1] // 2), -(-math.frexp(phi_norm)[1] // 3)   # ceil(exponent / degree)
    return max(a, b) if psi_norm and phi_norm else (a if psi_norm else b)


def _minimize_centred(Psi, phi, zeta: float):
    """(centred minimizers, multiplicity kind, certified) of |y|^4 - 2 y^T Psi y - 4 phi^T y + zeta.

    Psi and phi, and the minimizers, are Python floats at m = 1 and lists
    (Psi as rows) otherwise, where np.linalg.eigh is the only numpy call.
    The solve runs in the eigenbasis of Psi at the quartic's unit scale:
    y = 2^e u, with Psi's eigenvalues scaled by 2^(-2e) and phi's components
    by 2^(-3e) so that max(|Psi|_F^(1/2), |phi|^(1/3)) lands in [2^(e-1),
    2^e).  e comes from the norms' exponents and math.ldexp scales exactly,
    so every tolerance below is a constant and a quartic scaled by a power
    of two has that power of two times the minimizers.  The top cluster (the
    trailing eigenvalues chained by gaps <= EIG_GAP) counts as the one
    eigenvalue lambda_max, and the rest have gaps g_k = lambda_max - psi_k.
    When phi's top-cluster component is at most _PHI_TOL and u_rest =
    phi_rest/g_rest has |u_rest|^2 < lambda_max, the minimizers are
    (u_rest, +-r, 0, ...) with r^2 = lambda_max - |u_rest|^2 (the hard
    case).  Otherwise the minimizer is unique: u_k = phi_k/(t + g_k) at the
    secular root t.  Each minimizer gets Newton steps on the stationarity
    equation in that basis, and the solution is certified when every one
    has a gradient norm <= RESIDUAL_TOL and |u|^2 >= lambda_max - 1e-8
    (_select adds _not_above_centre).  The minimizers are then rotated back
    and scaled by 2^e.  Non-finite coefficients raise NumericalError.
    """
    mul = operator.mul
    if isinstance(phi, float):
        if not (math.isfinite(Psi) and math.isfinite(phi) and math.isfinite(zeta)):
            raise NumericalError("quartic marginal with non-finite coefficients")
        # one eigenvalue, so the top cluster holds all of phi and no gaps remain
        e = _unit_exponent(abs(Psi), abs(phi))
        lam, f = math.ldexp(Psi, -2 * e), math.ldexp(phi, -3 * e)
        m, V, phih, top, g, c, c_top, rest2 = 1, None, [f], 0, [], [], f * f, 0.0
    else:
        if not (math.isfinite(zeta) and all(map(math.isfinite, chain(phi, *Psi)))):
            raise NumericalError("quartic marginal with non-finite coefficients")
        m = len(phi)
        psis, V = np.linalg.eigh(Psi)
        psis, V = psis.tolist(), V.tolist()   # V as rows: V[i][k] is entry i of eigenvector k
        phih = [sum(map(mul, phi, v)) for v in zip(*V)]
        e = _unit_exponent(math.hypot(*psis), math.hypot(*phih))
        psis = [math.ldexp(p, -2 * e) for p in psis]
        phih = [math.ldexp(f, -3 * e) for f in phih]
        lam, top = psis[-1], m - 1
        while top and psis[top] - psis[top - 1] <= EIG_GAP:
            top -= 1
        g = [lam - p for p in psis[:top]]
        c = list(map(mul, phih[:top], phih[:top]))
        c_top = sum(map(mul, phih[top:], phih[top:]))
        rest2 = sum(map(operator.truediv, c, map(mul, g, g)))
    if c_top <= _PHI_TOL * _PHI_TOL:
        c_top = 0.0

    if c_top or lam - rest2 <= 1e-12:
        t = _secular_root(c, g, c_top, lam)
        points = [[f / (t + gk) for f, gk in zip(phih, g)]
                  + [f / t if c_top else 0.0 for f in phih[top:]]]
        kind = "unique"
    else:
        r = math.sqrt(lam - rest2)
        coef, tail = [f / gk for f, gk in zip(phih, g)], [0.0] * (m - top - 1)
        points = [coef + [r] + tail, coef + [-r] + tail]
        kind = "continuum" if top < m - 1 else "finite_multiple"

    if V is None:
        polished = [_polish(lam, phih[0], u[0]) for u in points]
        ys = [math.ldexp(u, e) for u, _, _ in polished]
    else:
        polished = [_polish(psis, phih, u) for u in points]
        ys = [[math.ldexp(sum(map(mul, row, u)), e) for row in V] for u, _, _ in polished]
    return ys, kind, all(res <= RESIDUAL_TOL and s >= lam - 1e-8 for _, res, s in polished)


def level_set_grid(moments: LiftedMoments, region, resolution: int):
    """Evaluate the selected marginal minimizer on a 2-d grid of source points.

    region is ((x1_min, x1_max), (x2_min, x2_max)); requires d=2 inputs and
    scalar (m=1) embeddings.  Returns a list of (x, lambda, count) tuples in
    row-major order: _select at each node of the grid, lifted once.
    """
    if moments.dim_d != 2 or moments.dim_m != 1:
        raise InputError("level sets need 2-d source points and 1-d embeddings")
    if resolution < 2:
        raise InputError("grid resolution must be at least 2")
    (x1a, x1b), (x2a, x2b) = region
    if not (0 < x1b - x1a < math.inf and 0 < x2b - x2a < math.inf):
        raise InputError(f"region sides must be positive and finite, got {region!r}")
    xs1, xs2 = np.linspace(x1a, x1b, resolution), np.linspace(x2a, x2b, resolution)
    X = np.column_stack([np.repeat(xs1, resolution), np.tile(xs2, resolution)])
    out = []
    for x, (_, pe) in zip(X, moments.lift(X)):
        ys = _solve_at(moments.F, pe, moments._y0)[0]
        out.append((x, ys[0], len(ys)))
    return out


def save_levelset_csv(path, grid) -> None:
    _write_csv(path, ["x1", "x2", "lambda", "count"],
               np.array([(x[0], x[1], lam, count) for x, lam, count in grid]))
