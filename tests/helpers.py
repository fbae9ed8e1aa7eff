"""Shared test utilities: random instances and brute-force oracles."""

from __future__ import annotations

import math

import numpy as np

from planmds import DeterministicMap, EmbeddingPlan, IterationTrace, NumericalError, PointCloud


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


def multistart_marginal_oracle(X, mass, atoms, cost, x, config):
    """Lowest marginal value L-BFGS-B reaches from the heaviest atoms and random starts.

    The best-effort local search that once solved every non-quadratic
    marginal: 8 plan-atom starts and 4 random ones drawn from config.seed.
    Independent of the marginal solvers; an upper bound on the global minimum.
    """
    from scipy.optimize import minimize as sp_min

    from planmds.energy import _base_row, _marginal_grad_arrays, _marginal_objective
    from planmds.quartic import MarginalSolution

    m = atoms.shape[1]
    order = np.argsort(mass)[::-1]
    starts = [atoms[j] for j in order[:8]]
    rng = np.random.default_rng(config.seed)
    scale = 1.0 + float(np.max(np.abs(atoms))) if atoms.size else 1.0
    for _ in range(4):
        starts.append(scale * rng.standard_normal(m))
    value = _marginal_objective(mass, atoms, cost, _base_row(cost, x, X))

    def objective(y):
        return value(y), _marginal_grad_arrays(X, mass, atoms, cost, x, y)

    best_y, best_v = None, np.inf
    with np.errstate(over="ignore", invalid="ignore"):   # the objective checks its values
        for y0 in starts:
            res = sp_min(objective, np.asarray(y0, dtype=float), jac=True, method="L-BFGS-B",
                         options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 500})
            if res.fun < best_v:
                best_v, best_y = float(res.fun), np.asarray(res.x, dtype=float)
    return MarginalSolution(minimizers=[best_y], value=best_v,
                            multiplicity_kind="unique", certified=False)


def single_map_objective(X, w, m):
    """The qmds map energy of one map per build, and the gradient from the same build.

    The moment build of the map objective before trial maps were stacked:
    every batched energy and gradient must equal it bit for bit.
    """
    from planmds.quartic import _residual_form

    n, d = X.shape
    base = np.empty((n, 2 + m + d))
    base[:, 0] = 1.0
    base[:, 2 + m:] = X - w @ X
    nx = np.sum(base[:, 2 + m:] ** 2, axis=1)
    P = _residual_form(m, d)
    w8 = 8.0 * w[:, None]

    def energy(Y):
        f = base.copy()
        Yc = Y - w @ Y
        f[:, 2:2 + m] = Yc
        f[:, 1] = np.einsum("ij,ij->i", Yc, Yc) - nx
        PF = P @ ((f.T * w) @ f)

        def gradient():
            H = f @ PF[:, :2 + m]
            return w8 * (H[:, 2:] - Yc * H[:, :1])

        return float(np.vdot(PF, PF.T)), gradient

    return energy


def serial_particle_descent(cloud, cost, config):
    """particle_descent trying one step length at a time, each in a build of its own.

    The oracle of the batched Armijo ladder, which must return the same map
    and trace bit for bit and raise the same errors.  Also returns the index
    of the trial each step accepted, MAX_HALVINGS where the ladder ran out.
    """
    from planmds import optim

    Y = optim._initial_images(cloud, config)
    w = cloud.weights
    if cost.has_moment_form:
        energy = single_map_objective(cloud.points, w, Y.shape[1])
    else:
        evaluate, _ = optim._dense_objective(cloud, cost)

        def energy(Y):
            (E,), gradient = evaluate(Y[None])
            return E, lambda: gradient(0)

    trace, accepted = IterationTrace(), []
    with np.errstate(over="ignore", invalid="ignore"):
        E, gradient = energy(Y)
        if not np.isfinite(E):
            raise NumericalError("non-finite energy at initialization")
        trace.add(E, 0.0, 0.0)
        grad = gradient()
        for it in range(config.max_sweeps):
            gnorm2 = float(np.sum(grad * grad))
            if not math.isfinite(gnorm2):
                raise NumericalError(f"non-finite gradient at iteration {it}")
            if gnorm2 == 0.0:
                break
            eta = optim.STEP_SIZE
            for k in range(optim.MAX_HALVINGS):
                Y_new = Y - eta * grad
                E_new, gradient = energy(Y_new)
                if not np.isfinite(E_new):
                    raise NumericalError(f"non-finite energy at iteration {it}")
                if E_new <= E - optim.ARMIJO_C * eta * gnorm2:
                    break
                eta *= 0.5
            else:
                accepted.append(optim.MAX_HALVINGS)
                break
            accepted.append(k)
            moved = float(np.sum(w * np.linalg.norm(Y_new - Y, axis=1)))
            Y = Y_new
            improvement = E - E_new
            E = E_new
            trace.add(E, 0.0, moved)
            grad = gradient()
            if improvement <= config.rel_tol * (1.0 + abs(E)):
                break
        trace.final_grad_norm = float(np.sqrt(np.sum(grad * grad)))
    if not math.isfinite(trace.final_grad_norm):
        raise NumericalError("non-finite gradient at the last iteration")
    return DeterministicMap(Y), trace, accepted


# The writers' per-value formulas from before they formatted whole arrays at
# once.  The array writers must give these bytes exactly.

def reference_csv_text(header, rows) -> str:
    """CSV text with every number as format(float(v), ".17g") and strings as given."""
    return "".join([",".join(header) + "\n"] + [
        ",".join([v if isinstance(v, str) else format(float(v), ".17g") for v in row]) + "\n"
        for row in rows])


_REF_RAMP = [(0x44, 0x01, 0x54), (0x47, 0x2d, 0x7b), (0x3b, 0x52, 0x8b),
             (0x2c, 0x72, 0x8e), (0x21, 0x91, 0x8c), (0x28, 0xae, 0x80),
             (0x5e, 0xc9, 0x62), (0xad, 0xdc, 0x30), (0xfd, 0xe7, 0x25)]


def reference_color_of(t: float) -> str:
    """Hex colour of one value on the 9-stop ramp, t clipped to [0, 1]."""
    t = min(max(float(t), 0.0), 1.0)
    pos = t * (len(_REF_RAMP) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(_REF_RAMP) - 1)
    frac = pos - lo
    rgb = [round((1 - frac) * a + frac * b) for a, b in zip(_REF_RAMP[lo], _REF_RAMP[hi])]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _reference_normalize(vals: np.ndarray) -> np.ndarray:
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    if hi - lo < 1e-300:
        return np.full(vals.shape, 0.5)
    return (vals - lo) / (hi - lo)


def _reference_svg(lines) -> str:
    return "\n".join(['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
                      'viewBox="0 0 640 640">',
                      '<rect width="640" height="640" fill="white"/>',
                      *lines, "</svg>"]) + "\n"


def reference_scatter_svg(points, values, title: str = "") -> str:
    size = 640
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float).reshape(-1)
    pad = 0.08 * size
    lo = points.min(axis=0)
    extent = np.maximum(points.max(axis=0) - lo, 1e-12)
    xy = (points - lo) * ((size - 2 * pad) / float(np.max(extent))) + pad
    xy[:, 1] = size - xy[:, 1]
    lines = []
    if title:
        lines.append(f'<text x="{size / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')
    for (px, py), tv in zip(xy, _reference_normalize(values)):
        lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.0" '
                     f'fill="{reference_color_of(tv)}"/>')
    return _reference_svg(lines)


def reference_levelset_svg(grid, resolution: int, title: str = "") -> str:
    size = 640
    t = _reference_normalize(np.array([lam for _, lam, _ in grid]))
    cell = size / resolution
    lines, marks = [], []
    for k, ((_, _, count), tv) in enumerate(zip(grid, t)):
        px = k // resolution * cell
        py = size - (k % resolution + 1) * cell
        lines.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell + 0.5:.2f}" '
                     f'height="{cell + 0.5:.2f}" fill="{reference_color_of(tv)}"/>')
        if count >= 2:
            marks.append(f'<circle cx="{px + cell / 2:.2f}" cy="{py + cell / 2:.2f}" '
                         f'r="{max(cell / 4, 1.0):.2f}" fill="black"/>')
    lines.extend(marks)
    if title:
        lines.append(f'<text x="{size / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14" fill="white">{title}</text>')
    return _reference_svg(lines)


def reference_merge_row(masses, atoms, tol):
    """Merge each atom into the first kept atom within tol in max-norm, matching every atom."""
    out_m, out_a = [], []
    for q, y in zip(masses, atoms):
        k = next((k for k, a in enumerate(out_a) if np.max(np.abs(a - y)) <= tol), None)
        if k is None:
            out_m.append(float(q))
            out_a.append(y)
        else:
            out_m[k] += q
    return np.array(out_m), np.array(out_a)
