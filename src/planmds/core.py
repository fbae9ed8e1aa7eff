"""Data model: weighted point clouds, embedding plans, maps, perturbations, cost families.

All types are immutable after construction (arrays are set non-writeable) and
canonicalized on the way in: weights renormalize, zero-mass atoms are dropped,
near-coincident atoms inside one plan row are merged.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

MERGE_TOL = 1e-12        # max-norm tolerance for merging coincident atoms
MASS_TOL = 1e-12         # tolerance on mass bookkeeping invariants
WEIGHT_SUM_TOL = 1e-6    # tolerated deviation of raw weight sums from 1
CHUNK_ROWS = 1024        # rows a writer formats into one string: bounds its memory at any size


class InputError(ValueError):
    """Bad user-supplied data (dimension mismatch, malformed file, bad mass)."""


class NumericalError(RuntimeError):
    """Non-finite values or a numeric routine that failed to make progress."""


def _read_text(path) -> str:
    """The text of a UTF-8 input file, or an InputError naming it if it cannot be read."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"{path}: cannot read as UTF-8 text: {reason}") from None


def _read_json(path):
    """The JSON value in an input file."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON ({exc})") from None


def _read_csv(path, check_header, parse_row) -> tuple[list, list]:
    """The header of a CSV file and its data rows, parsed by parse_row; blank lines are skipped.

    check_header(header) raises InputError before any row is read.  A row
    must have the header's width; a ValueError of parse_row names its line.
    """
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    check_header(header)
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            records.append(parse_row(row))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise InputError(f"{path}: no data rows")
    return header, records


def _chunks(row_template: str, table: np.ndarray):
    """row_template % row for each row of table, CHUNK_ROWS rows joined to one string at a time."""
    for start in range(0, len(table), CHUNK_ROWS):
        chunk = table[start:start + CHUNK_ROWS]
        yield (row_template * len(chunk)) % tuple(chunk.ravel().tolist())


def _write_csv(path, header, table, trailer=None) -> None:
    """Write header and the rows of a 2-D float table as UTF-8 CSV with LF line ends.

    Every number is written as "%.17g", the text of format(v, ".17g"): it
    reads back to the same float, and an integer below 2**53 keeps its
    digits.  trailer, a (label, values) pair, is one last row whose first
    cell is the text label.
    """
    table = np.reshape(np.asarray(table, dtype=float), (len(table), len(header)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_chunks(",".join(["%.17g"] * len(header)) + "\n", table))
        if trailer is not None:
            label, values = trailer
            fh.write(label + (",%.17g" * len(values)) % tuple(map(float, values)) + "\n")


def _as_matrix(points, name: str) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InputError(f"{name} must be a non-empty 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


class PointCloud:
    """A discrete probability measure: atoms in R^d with positive weights summing to 1."""

    def __init__(self, points, weights=None):
        pts = _as_matrix(points, "points")
        n = pts.shape[0]
        if weights is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(weights, dtype=float).reshape(-1)
            if w.shape[0] != n:
                raise InputError(f"{n} points but {w.shape[0]} weights")
            if not np.isfinite(w).all() or (w < 0).any():
                raise InputError("weights must be finite and nonnegative")
            total = math.fsum(w)
            if total <= 0:
                raise InputError("weights sum to zero")
            if abs(total - 1.0) > WEIGHT_SUM_TOL:
                raise InputError(f"weights sum to {total!r}, outside tolerance {WEIGHT_SUM_TOL}")
            w = w / total
        keep = w > 0.0
        if not keep.all():
            pts = pts[keep]
            w = w[keep]
            w = w / math.fsum(w)
        if pts.shape[0] == 0:
            raise InputError("all atoms had zero weight")
        self.points = pts
        self.weights = w
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim_d(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.points

    def save_csv(self, path) -> None:
        _write_csv(path, [f"x{j + 1}" for j in range(self.dim_d)] + ["w"],
                   np.column_stack([self.points, self.weights]))

    @classmethod
    def load_csv(cls, path) -> "PointCloud":
        def check_header(header):
            header = [h.strip() for h in header]
            if header in ([], ["w"]):
                raise InputError(f"{path}: header {header!r} declares no coordinates")

        header, rows = _read_csv(path, check_header, lambda row: [float(v) for v in row])
        if header[-1].strip() != "w":
            return cls(rows)
        return cls([r[:-1] for r in rows], [r[-1] for r in rows])


class DeterministicMap:
    """One embedded image per source atom: the graph of a map T: R^d -> R^m."""

    def __init__(self, images):
        self.images = _as_matrix(images, "images")
        self.images.setflags(write=False)

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def dim_m(self) -> int:
        return self.images.shape[1]


def _match(atoms, y, skip=None):
    """Index of the first of `atoms` but `skip` within MERGE_TOL of y in max-norm, or None."""
    for k, a in enumerate(atoms):
        if k != skip and np.max(np.abs(a - y)) <= MERGE_TOL:
            return k
    return None


def _split_mass(mass, ptr, rows=None, scale=None) -> float:
    """sum_i fsum(row_i) - max(row_i) over the rows mass[ptr[i]:ptr[i + 1]] of two or more atoms.

    With rows and scale, row i is instead scale[i] times row rows[i]: the
    split mass of a plan whose rows are scaled copies of these, unbuilt.
    """
    if rows is None:
        rows, scale = np.arange(len(ptr) - 1), np.ones(len(ptr) - 1)
    total = 0.0
    for i in np.flatnonzero(np.diff(ptr)[rows] > 1):
        row = mass[ptr[rows[i]]:ptr[rows[i] + 1]] * scale[i]
        total += math.fsum(row) - float(np.max(row))
    return total


def _distinct_points(points):
    """(first, group): the index of each distinct point's first copy, ascending, and each
    point's position in first.  Copies are equal in every coordinate, so 0.0 and -0.0 are one.
    """
    _, first, inverse = np.unique(points, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def _gather(ptr, rows):
    """Flat positions of the atoms of the given rows, row after row, and each row's atom count."""
    counts = np.diff(ptr)[rows]
    offsets = np.repeat(ptr[:-1][rows] - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(offsets.size), counts


def _merge_row(masses, atoms):
    """Merge atoms closer than MERGE_TOL in max-norm; masses add up, in input order.

    Each atom joins the first kept atom within MERGE_TOL of it, or is kept.
    An exact repeat of an atom seen before joins the same kept atom, so it
    is looked up by value rather than matched again; its mass is still added
    at its place in the row, so every sum is that of the plain loop.
    """
    masses = np.asarray(masses, dtype=float).reshape(-1)
    atoms = _as_matrix(atoms, "atoms")
    if masses.shape[0] != atoms.shape[0]:
        raise InputError("row masses and atoms disagree in length")
    if masses.shape[0] == 1:   # nothing to merge
        return masses.copy(), atoms.copy()
    out_m: list[float] = []
    out_a: list[np.ndarray] = []
    slot: dict[bytes, int] = {}   # exact atom value -> index of the kept atom it joins
    for q, y in zip(masses.tolist(), atoms):
        key = y.tobytes()
        k = slot.get(key)
        if k is None:
            k = _match(out_a, y)
        if k is None:
            slot[key] = len(out_m)
            out_m.append(q)
            out_a.append(y)
        else:
            slot[key] = k
            out_m[k] += q
    return np.array(out_m), np.array(out_a)


class EmbeddingPlan:
    """A coupling with fixed source marginal: per source atom, a sub-distribution in R^m.

    ``rows`` is a sequence of (masses, atoms) pairs, one per source index.
    """

    def __init__(self, rows):
        if len(rows) == 0:
            raise InputError("plan needs at least one row")
        row_masses: list[np.ndarray] = []
        row_atoms: list[np.ndarray] = []
        for i, (masses, atoms) in enumerate(rows):
            m_arr, a_arr = _merge_row(masses, atoms)
            if row_atoms and a_arr.shape[1] != row_atoms[0].shape[1]:
                raise InputError(f"row {i}: atom dimension {a_arr.shape[1]} != {row_atoms[0].shape[1]}")
            row_masses.append(m_arr)
            row_atoms.append(a_arr)
        self._set_flat([len(q) for q in row_masses], np.concatenate(row_masses),
                       np.concatenate(row_atoms, axis=0))

    @classmethod
    def from_flat(cls, counts, mass, atoms) -> "EmbeddingPlan":
        """The plan whose row i holds the next counts[i] entries of the flat mass and atom arrays.

        A row of one atom has nothing to merge, so when every row has one
        atom the arrays are copied and checked once, whole; otherwise the
        rows go through the constructor.
        """
        counts = np.asarray(counts)
        if not (counts == 1).all():
            cuts = np.cumsum(counts)[:-1]
            return cls(list(zip(np.split(mass, cuts), np.split(atoms, cuts))))
        mass = np.array(mass, dtype=float).reshape(-1)
        atoms = np.array(_as_matrix(atoms, "atoms"))
        if mass.shape[0] != atoms.shape[0] or mass.shape[0] != counts.shape[0]:
            raise InputError("row masses and atoms disagree in length")
        plan = cls.__new__(cls)
        plan._set_flat(counts, mass, atoms)
        return plan

    def _set_flat(self, counts, mass: np.ndarray, atoms: np.ndarray) -> None:
        """Check the masses and keep the flat arrays; the rows are read-only views of them."""
        idx = np.repeat(np.arange(len(counts)), counts)
        bad = np.flatnonzero(~(mass > 0))
        if bad.size:
            raise InputError(f"row {idx[bad[0]]}: nonpositive atom mass after merging")
        total = math.fsum(mass.tolist())
        if abs(total - 1.0) > MASS_TOL:
            raise InputError(f"plan total mass {total!r} differs from 1 beyond {MASS_TOL}")
        for arr in (idx, mass, atoms):
            arr.setflags(write=False)
        ends = np.cumsum(counts).tolist()
        starts = [0] + ends[:-1]
        self.row_masses = [mass[a:b] for a, b in zip(starts, ends)]
        self.row_atoms = [atoms[a:b] for a, b in zip(starts, ends)]
        self.dim_m = atoms.shape[1]
        self._ptr = np.array([0] + ends)   # row i is positions _ptr[i]:_ptr[i + 1] of the flat arrays
        self._flat = (idx, mass, atoms)

    @property
    def n_rows(self) -> int:
        return len(self.row_masses)

    @property
    def atom_count(self) -> int:
        return self._flat[0].shape[0]

    def flat(self):
        """(source_index, mass, atom) arrays over all atoms, in row order."""
        return self._flat

    def row_weight(self, i: int) -> float:
        return math.fsum(self.row_masses[i])

    def validate_against(self, cloud: PointCloud) -> None:
        if self.n_rows != cloud.n:
            raise InputError(f"plan has {self.n_rows} rows but cloud has {cloud.n} atoms")
        bad = np.flatnonzero(np.abs(np.add.reduceat(self._flat[1], self._ptr[:-1])
                                    - cloud.weights) > MASS_TOL)
        if bad.size:
            i = int(bad[0])
            raise InputError(f"row {i} mass {self.row_weight(i)!r} != weight {cloud.weights[i]!r}")

    def split_mass(self) -> float:
        """The mass off the heaviest atom of each row, summed: 0 for the plan of a map."""
        return _split_mass(self._flat[1], self._ptr)

    def barycenter(self) -> np.ndarray:
        _, mass, atoms = self._flat
        return mass @ atoms

    def save_csv(self, path) -> None:
        idx, mass, atoms = self._flat
        _write_csv(path, ["i", "mass"] + [f"y{j + 1}" for j in range(self.dim_m)],
                   np.column_stack([idx, mass, atoms]))

    @classmethod
    def load_csv(cls, path) -> "EmbeddingPlan":
        def check_header(header):
            if len(header) < 3 or header[0].strip() != "i" or header[1].strip() != "mass":
                raise InputError(f"{path}: expected header i,mass,y1,...; got {header!r}")

        header, records = _read_csv(path, check_header, lambda row: (
            int(row[0]), float(row[1]), [float(v) for v in row[2:]]))
        by_row: dict[int, tuple[list, list]] = {}
        for i, q, y in records:
            qs, ys = by_row.setdefault(i, ([], []))
            qs.append(q)
            ys.append(y)
        n = max(by_row) + 1
        if sorted(by_row) != list(range(n)):
            raise InputError(f"{path}: source indices must cover 0..{n - 1} without gaps")
        m = len(header) - 2
        return cls([(qs, np.array(ys).reshape(len(ys), m)) for qs, ys in map(by_row.get, range(n))])


class Perturbation:
    """A signed redistribution of mass that leaves every source marginal untouched.

    ``rows`` maps source index -> (delta_masses, atoms); omitted rows are zero.
    """

    def __init__(self, rows: dict):
        clean: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        dim_m = None
        for i, (dmass, atoms) in rows.items():
            d_arr = np.asarray(dmass, dtype=float).reshape(-1)
            a_arr = _as_matrix(atoms, f"perturbation atoms (row {i})")
            if d_arr.shape[0] != a_arr.shape[0]:
                raise InputError(f"row {i}: delta masses and atoms disagree in length")
            if abs(math.fsum(d_arr)) > MASS_TOL:
                raise InputError(f"row {i}: delta masses sum to {math.fsum(d_arr)!r}, not 0")
            if dim_m is None:
                dim_m = a_arr.shape[1]
            elif a_arr.shape[1] != dim_m:
                raise InputError(f"row {i}: atom dimension mismatch")
            clean[int(i)] = (d_arr, a_arr)
        self.rows = clean
        self.dim_m = dim_m

    @classmethod
    def needle(cls, i: int, mass: float, y_from, y_to) -> "Perturbation":
        """Move ``mass`` at source ``i`` from y_from to y_to."""
        y_from = np.asarray(y_from, dtype=float).reshape(-1)
        y_to = np.asarray(y_to, dtype=float).reshape(-1)
        return cls({i: ([mass, -mass], np.stack([y_to, y_from]))})


# ---------------------------------------------------------------------------
# Cost families
# ---------------------------------------------------------------------------

def _sqdist_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|a - b|^2 for every pair of rows, in difference form: sum_k (a_k - b_k)^2.

    The expansion |a|^2 + |b|^2 - 2<a, b> cancels for near-coincident rows
    and leaves rounding of the size of |a|^2 (which 1/(a + eps) weights then
    amplify); the difference form is exactly 0 for equal rows and accurate to
    a few ulps everywhere.  Coordinates are added one at a time, so no
    K x K x m temporary is made.
    """
    out = np.subtract.outer(A[:, 0], B[:, 0])
    out *= out
    for k in range(1, A.shape[1]):
        diff = np.subtract.outer(A[:, k], B[:, k])
        diff *= diff
        out += diff
    return out


class CostFamily:
    """A second-order cost c(x,x',y,y') = profile(base(x,x'), t(y,y')).

    ``kind`` selects the embedded-variable statistic t: "IP" uses <y,y'>,
    "N2" uses |y-y'|^2; the marginal sweep consolidates each row of an N2
    cost onto its best atom, a full move wherever the profile is uniquely
    minimized at t = 0, as every built-in one is.  Subclasses supply the
    base statistic of the feature pair and the capability flags.  The
    profile is quadratic in t, (a - t)^2 * omega(a) with omega(a) =
    1 / quadratic_scale(a), unless a subclass sets ``quadratic_scale =
    None``.  Such a subclass must be of the N2 kind with the
    attraction-repulsion profile
    attraction(a) * t + repulsion(a) * exp(-t), both factors nonnegative: it
    supplies attraction, repulsion, the profile and its t-derivatives.  A
    quadratic profile makes every marginal problem exactly solvable: a
    weighted least-squares problem for the IP kind, a weighted quartic for
    the N2 kind.  An attraction-repulsion marginal is a quadratic plus a
    bounded sum of Gaussians, which a branch and bound solves to a certified
    gap (optim._generic_solution).  ``has_moment_form`` marks the cost
    (|x-x'|^2 - |y-y'|^2)^2, whose energies, marginals and gradients all
    follow from the low-rank lifted moments of quartic.LiftedMoments instead
    of pairwise sums.
    """

    name = "abstract"
    kind = "N2"
    has_moment_form = False

    # --- feature-pair statistic -------------------------------------------------
    def base_matrix(self, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def base(self, x, xp) -> float:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        xp = np.atleast_2d(np.asarray(xp, dtype=float))
        return float(self.base_matrix(x, xp)[0, 0])

    # --- embedded-pair statistic -------------------------------------------------
    def t_matrix(self, Y1: np.ndarray, Y2: np.ndarray) -> np.ndarray:
        if self.kind == "IP":
            return Y1 @ Y2.T
        return _sqdist_matrix(Y1, Y2)

    def t_floats(self, y: list, yp: list) -> float:
        """t(y, y') of two points given as lists of Python floats."""
        if self.kind == "IP":
            return sum(a * b for a, b in zip(y, yp))
        return sum((a - b) * (a - b) for a, b in zip(y, yp))

    # --- profile and t-derivatives ----------------------------------------------
    def quadratic_scale(self, a):
        """1/omega(a) of the quadratic profile (a - t)^2 * omega(a); positive."""
        return 1.0

    def profile(self, a, t):
        return (a - t) ** 2 / self.quadratic_scale(a)

    def profile_dt(self, a, t):
        return -2.0 * (a - t) / self.quadratic_scale(a)

    def profile_dtt(self, a, t):
        a = np.asarray(a, dtype=float)
        return 2.0 / self.quadratic_scale(a) * np.ones_like(a + np.asarray(t, dtype=float))


class QuadraticIP(CostFamily):
    """(<x,x'> - t)^2 with t = <y,y'>: inner-product matching (classical MDS/PCA)."""

    name = "quadratic-ip"
    kind = "IP"

    def base_matrix(self, X1, X2):
        return X1 @ X2.T


class KernelIP(CostFamily):
    """(kappa(x,x') - t)^2 with t = <y,y'>: kernel PCA style matching."""

    name = "kernel-ip"
    kind = "IP"

    def __init__(self, kernel: str = "rbf", sigma: float = 1.0, degree: int = 2, offset: float = 1.0):
        if kernel not in ("rbf", "polynomial"):
            raise InputError(f"unknown kernel {kernel!r}")
        if kernel == "rbf" and sigma <= 0:
            raise InputError("rbf kernel needs sigma > 0")
        self.kernel = kernel
        self.sigma = float(sigma)
        self.degree = int(degree)
        self.offset = float(offset)

    def base_matrix(self, X1, X2):
        if self.kernel == "rbf":
            # a squared distance that overflows is inf, and exp(-inf) = 0 is
            # its kernel value exactly: nothing is lost, so nothing warns
            with np.errstate(over="ignore"):
                return np.exp(-_sqdist_matrix(X1, X2) / (2.0 * self.sigma**2))
        return (X1 @ X2.T + self.offset) ** self.degree


class QMDS(CostFamily):
    """(|x-x'|^2 - t)^2 with t = |y-y'|^2: the quartic squared-distance cost."""

    name = "qmds"
    kind = "N2"
    has_moment_form = True

    def base_matrix(self, X1, X2):
        return _sqdist_matrix(X1, X2)


class QSammon(CostFamily):
    """(|x-x'|^2 - t)^2 / (|x-x'|^2 + eps): quartic Sammon-style weighting.

    eps regularizes the coincident-input singularity.
    """

    name = "qsammon"
    kind = "N2"

    def __init__(self, eps: float = 1e-9):
        if eps <= 0:
            raise InputError("qsammon eps must be positive")
        self.eps = float(eps)

    def base_matrix(self, X1, X2):
        return _sqdist_matrix(X1, X2)

    def quadratic_scale(self, a):
        return a + self.eps


class Elastic(CostFamily):
    """t*exp(-|x-x'|^2/2 sigma^2) + beta*|x-x'|^2*exp(-t): elastic embedding cost.

    The elastic embedding of Carreira-Perpinan (2010): an attraction-repulsion
    profile, attraction(a) * t + repulsion(a) * exp(-t), so its marginal is
    solved by branch and bound.  Not quadratic in t, and not strictly convex
    in it: the second derivative vanishes at coincident inputs.
    """

    name = "elastic"
    kind = "N2"
    quadratic_scale = None   # an attraction-repulsion profile instead

    def __init__(self, sigma: float = 1.0, beta: float = 1.0):
        if sigma <= 0 or beta < 0:
            raise InputError("elastic needs sigma > 0 and beta >= 0")
        self.sigma = float(sigma)
        self.beta = float(beta)

    def base_matrix(self, X1, X2):
        return _sqdist_matrix(X1, X2)

    def attraction(self, a):
        return np.exp(-a / (2.0 * self.sigma**2))

    def repulsion(self, a):
        return self.beta * a

    def profile(self, a, t):
        return t * self.attraction(a) + self.repulsion(a) * np.exp(-t)

    def profile_dt(self, a, t):
        return self.attraction(a) - self.repulsion(a) * np.exp(-t)

    def profile_dtt(self, a, t):
        return self.repulsion(a) * np.exp(-t)


BUILTIN_COSTS = {
    "qmds": QMDS,
    "qsammon": QSammon,
    "quadratic-ip": QuadraticIP,
    "kernel-ip": KernelIP,
    "elastic": Elastic,
}


def make_cost(name: str, **params) -> CostFamily:
    try:
        cls = BUILTIN_COSTS[name]
    except KeyError:
        raise InputError(f"unknown cost {name!r}; choose from {sorted(BUILTIN_COSTS)}") from None
    return cls(**params)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def evaluate_cost(cost: CostFamily, x, xp, y, yp) -> float:
    """c(x, x', y, y') for a single tuple."""
    x = np.asarray(x, dtype=float).reshape(-1)
    xp = np.asarray(xp, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    yp = np.asarray(yp, dtype=float).reshape(-1)
    if x.shape != xp.shape:
        raise InputError(f"feature dimension mismatch: {x.shape} vs {xp.shape}")
    if y.shape != yp.shape:
        raise InputError(f"embedding dimension mismatch: {y.shape} vs {yp.shape}")
    return float(cost.profile(cost.base(x, xp), cost.t_floats(y.tolist(), yp.tolist())))


def profile_derivatives(cost: CostFamily, x, xp, t: float):
    """(value, d/dt, d^2/dt^2) of the scalar profile at the feature pair (x, x')."""
    x = np.asarray(x, dtype=float).reshape(-1)
    xp = np.asarray(xp, dtype=float).reshape(-1)
    if x.shape != xp.shape:
        raise InputError(f"feature dimension mismatch: {x.shape} vs {xp.shape}")
    a = cost.base(x, xp)
    return (
        float(cost.profile(a, t)),
        float(cost.profile_dt(a, t)),
        float(cost.profile_dtt(a, t)),
    )


def center_plan(plan: EmbeddingPlan) -> EmbeddingPlan:
    """Translate all atoms so the mass-weighted atom mean is zero."""
    mean = plan.barycenter()
    rows = [(m.copy(), a - mean[None, :]) for m, a in zip(plan.row_masses, plan.row_atoms)]
    return EmbeddingPlan(rows)


def _plan_arrays(plan: EmbeddingPlan, cloud: PointCloud):
    """(X, mass, atoms) of a plan checked against its cloud: each atom's source point, mass and image."""
    plan.validate_against(cloud)
    idx, mass, atoms = plan.flat()
    return cloud.points[idx], mass, atoms


def plan_from_map(cloud: PointCloud, mapping: DeterministicMap) -> EmbeddingPlan:
    """The deterministic plan with mass w_i on (x_i, T(x_i))."""
    if mapping.n != cloud.n:
        raise InputError(f"map has {mapping.n} images but cloud has {cloud.n} atoms")
    return EmbeddingPlan.from_flat(np.ones(cloud.n, dtype=int), cloud.weights, mapping.images)
