"""Experiment harnesses: canned datasets, runs, and artifact emission.

Each experiment is deterministic given its seed and writes CSV/SVG artifacts
plus a JSON report into the requested output directory.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DeterministicMap,
    EmbeddingPlan,
    InputError,
    PointCloud,
    QMDS,
    QuadraticIP,
    _write_csv,
    plan_from_map,
)
from .energy import (
    determinism_report,
    oscillation_experiment,
    reported_stress,
    save_oscillation_csv,
)
from .optim import DescentConfig, marginal_sweep, particle_descent, pca_solve
from .quartic import compute_moments, level_set_grid, quartic_at, save_levelset_csv
from . import svgplot

CIRCLE_POINTS = 250               # circle-clusters: points on the unit circle
N_STACK = 500                     # stacked-pair: points in each stack
N_LIST = tuple(range(1, 9))       # oscillation: checkerboard frequencies
AMPLITUDE = 0.1                   # oscillation: checkerboard amplitude v
PCA_N, PCA_M = 200, 2             # pca-check: points, and embedding dimension


@dataclass
class ExperimentReport:
    experiment: str
    seed: int
    config: dict
    runs: list = field(default_factory=list)

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"experiment": self.experiment, "seed": self.seed,
                 "config": self.config, "runs": self.runs},
                fh, indent=2, sort_keys=True)
            fh.write("\n")


def save_embedding_csv(path, cloud: PointCloud, plan: EmbeddingPlan) -> None:
    """Rows x1..xd,mass,y1..ym — one row per plan atom."""
    idx, mass, atoms = plan.flat()
    _write_csv(path, ([f"x{j + 1}" for j in range(cloud.dim_d)] + ["mass"]
                      + [f"y{j + 1}" for j in range(plan.dim_m)]),
               np.column_stack([cloud.points[idx], mass, atoms]))


def _out_path(outdir, name: str) -> str:
    """outdir/name, creating outdir: a run rejected before its first write leaves nothing behind."""
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def circle_clusters_cloud(seed: int, cluster_size: int = 1000) -> PointCloud:
    """Two heavy clusters at (0, +-0.2) plus random points on the unit circle.

    Circle angles are drawn by stratified jitter (one uniform draw per equal
    arc, then shuffled): each angle is still uniform on the circle, but the
    sample cannot clump.  Clumped iid samples can rotate the optimal
    two-arc split of the circle away from the x2 = 0 axis, which is a
    property of the sample rather than of the embedding problem.
    """
    if cluster_size < 0:
        raise InputError(f"cluster_size must be >= 0, got {cluster_size!r}")
    rng = np.random.default_rng(seed)
    top = np.tile([0.0, 0.2], (cluster_size, 1))
    bottom = np.tile([0.0, -0.2], (cluster_size, 1))
    angles = (np.arange(CIRCLE_POINTS) + rng.uniform(0.0, 1.0, CIRCLE_POINTS))
    angles = rng.permutation(angles / CIRCLE_POINTS * 2.0 * np.pi)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    return PointCloud(np.vstack([top, bottom, circle]))


def circle_clusters_analytic_init(cloud: PointCloud, cluster_size: int) -> DeterministicMap:
    """Clusters to -+1; circle points to sign(x2) (nonnegative x2 maps to +1)."""
    images = np.empty((cloud.n, 1))
    images[:cluster_size, 0] = 1.0
    images[cluster_size:2 * cluster_size, 0] = -1.0
    x2 = cloud.points[2 * cluster_size:, 1]
    images[2 * cluster_size:, 0] = np.where(x2 >= 0, 1.0, -1.0)
    return DeterministicMap(images)


def _plan_point_values(plan: EmbeddingPlan) -> np.ndarray:
    """A scalar per source point for coloring: mass-weighted mean of atoms.

    Rows of one atom are computed together, as m @ a / sum(m) gives them:
    the dot product's sum starts at +0.0, which turns a -0.0 product into 0.0.
    """
    idx, mass, atoms = plan.flat()
    counts = np.bincount(idx, minlength=plan.n_rows)
    first = np.cumsum(counts) - counts
    vals = (0.0 + mass[first] * atoms[first, 0]) / mass[first]
    for i in np.flatnonzero(counts > 1):
        m, a = plan.row_masses[i], plan.row_atoms[i]
        vals[i] = float(m @ a[:, 0]) / float(np.sum(m))
    return vals


def _run_circle_clusters(outdir, seed: int, cluster_size: int = 1000,
                         max_sweeps: int = 200) -> ExperimentReport:
    cloud = circle_clusters_cloud(seed, cluster_size)
    cost = QMDS()
    cfg = DescentConfig(max_sweeps=max_sweeps, rel_tol=1e-9, seed=seed,
                        init="random", dim_m=1)
    scfg = DescentConfig(max_sweeps=max_sweeps, rel_tol=1e-12, seed=seed, dim_m=1)
    cloud_file = _out_path(outdir, "circle-clusters-cloud.csv")
    cloud.save_csv(cloud_file)
    report = ExperimentReport("circle-clusters", seed,
                              {"cluster_size": cluster_size,
                               "circle_points": CIRCLE_POINTS})

    pmap, ptrace = particle_descent(cloud, cost, cfg)
    p_stress = reported_stress(cloud, pmap, cost)
    p_plan = plan_from_map(cloud, pmap)
    p_embed = _out_path(outdir, "circle-clusters-particle.csv")
    p_svg = _out_path(outdir, "circle-clusters-particle.svg")
    save_embedding_csv(p_embed, cloud, p_plan)
    svgplot.scatter_svg(p_svg, cloud.points, pmap.images[:, 0],
                        title="particle descent, random init")
    report.runs.append({
        "optimizer": "particle", "init": "random",
        "final_stress": p_stress, **ptrace.run_fields(),
        "deterministic": True,
        "coincident_spread": determinism_report(p_plan, cloud=cloud).coincident_spread,
        "files": [cloud_file, p_embed, p_svg],
    })

    init_map = circle_clusters_analytic_init(cloud, cluster_size)
    splan, strace = marginal_sweep(plan_from_map(cloud, init_map), cloud, cost, scfg)
    s_stress = reported_stress(cloud, splan, cost)
    det = determinism_report(splan, 1e-10, 1e-10, cloud=cloud)
    s_embed = _out_path(outdir, "circle-clusters-marginal.csv")
    s_svg = _out_path(outdir, "circle-clusters-marginal.svg")
    save_embedding_csv(s_embed, cloud, splan)
    svgplot.scatter_svg(s_svg, cloud.points, _plan_point_values(splan),
                        title="marginal sweep, analytic init")
    report.runs.append({
        "optimizer": "marginal", "init": "analytic",
        "final_stress": s_stress, **strace.run_fields(),
        "deterministic": bool(det.is_deterministic),
        "split_mass_fraction": det.split_mass_fraction,
        "coincident_spread": det.coincident_spread, "swept_rows": strace.swept_rows,
        "files": [s_embed, s_svg],
    })
    return report


def stacked_pair_cloud() -> PointCloud:
    pts = np.vstack([np.tile([0.0, 1.0], (N_STACK, 1)),
                     np.tile([0.0, -1.0], (N_STACK, 1))])
    return PointCloud(pts)


def stacked_pair_plan(cloud: PointCloud) -> EmbeddingPlan:
    """The optimal embedding: project onto the second coordinate."""
    return plan_from_map(cloud, DeterministicMap(cloud.points[:, 1:2]))


def _run_stacked_pair(outdir, seed: int, res: int = 81) -> ExperimentReport:
    cloud = stacked_pair_cloud()
    plan = stacked_pair_plan(cloud)
    moments = compute_moments(plan, cloud)
    probe = quartic_at(moments, np.array([1.5, 0.0]))
    grid = level_set_grid(moments, ((-2.0, 2.0), (-2.0, 2.0)), res)
    mfile = _out_path(outdir, "stacked-pair-moments.json")
    moments.to_json(mfile)
    gfile = _out_path(outdir, "stacked-pair-levelset.csv")
    save_levelset_csv(gfile, grid)
    sfile = _out_path(outdir, "stacked-pair-levelset.svg")
    svgplot.levelset_svg(sfile, grid, res, title="selected marginal minimizer")
    report = ExperimentReport("stacked-pair", seed, {"n_stack": N_STACK, "res": res})
    report.runs.append({
        "optimizer": "closed-form", "init": "projection",
        "final_stress": reported_stress(cloud, plan, QMDS()),
        "sweeps": 0, "deterministic": True,
        "psi_at_15_0": float(probe.Psi[0, 0]),
        "phi_at_15_0": float(probe.phi[0]),
        "files": [mfile, gfile, sfile],
    })
    return report


def _run_oscillation(outdir, seed: int, res: int = 64) -> ExperimentReport:
    pairs, stress_zero = oscillation_experiment(N_LIST, res, AMPLITUDE)
    csv_file = _out_path(outdir, "oscillation.csv")
    save_oscillation_csv(csv_file, pairs, stress_zero)
    report = ExperimentReport("oscillation", seed, {"res": res, "v": AMPLITUDE,
                                                    "n_list": list(N_LIST)})
    report.runs.append({
        "optimizer": "none", "init": "checkerboard",
        "final_stress": min(s for _, s in pairs),
        "stress_zero": stress_zero,
        "sweeps": 0, "deterministic": True, "files": [csv_file],
    })
    return report


def pca_check_cloud(seed: int, n: int = PCA_N) -> PointCloud:
    """Gaussian sample in R^5 with distinct covariance eigenvalues, exactly centered."""
    rng = np.random.default_rng(seed)
    stds = np.sqrt(np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
    X = rng.standard_normal((n, 5)) * stds
    X -= X.mean(axis=0)
    return PointCloud(X)


def largest_principal_angle(A: np.ndarray, B: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spaces of A and B."""
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    sv = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    return float(np.arccos(min(1.0, max(-1.0, np.min(sv)))))


def _run_pca_check(outdir, seed: int, max_sweeps: int = 50) -> ExperimentReport:
    cloud = pca_check_cloud(seed)
    cost = QuadraticIP()
    pca_map = pca_solve(cloud, PCA_M)
    pca_stress = reported_stress(cloud, pca_map, cost)
    cfg = DescentConfig(max_sweeps=max_sweeps, rel_tol=1e-12, seed=seed, dim_m=PCA_M)
    plan, trace = marginal_sweep(plan_from_map(cloud, pca_map), cloud, cost, cfg)
    sweep_stress = reported_stress(cloud, plan, cost)
    idx, _, atoms = plan.flat()
    angle = largest_principal_angle(atoms, pca_map.images[idx])

    efile = _out_path(outdir, "pca-check-embedding.csv")
    save_embedding_csv(efile, cloud, plan)
    report = ExperimentReport("pca-check", seed, {"n": PCA_N, "m": PCA_M})
    report.runs.append({
        "optimizer": "marginal", "init": "pca",
        "final_stress": sweep_stress, "pca_stress": pca_stress,
        "largest_principal_angle": angle,
        **trace.run_fields(),
        "deterministic": bool(determinism_report(plan, 1e-10, 1e-10).is_deterministic),
        "files": [efile],
    })
    return report


EXPERIMENTS = {
    "circle-clusters": _run_circle_clusters,
    "stacked-pair": _run_stacked_pair,
    "oscillation": _run_oscillation,
    "pca-check": _run_pca_check,
}


def runner_parameters(name: str) -> list:
    """The keyword parameters of an experiment's runner (inspect.Parameter, annotations resolved)."""
    return list(inspect.signature(EXPERIMENTS[name], eval_str=True).parameters.values())[2:]


def _is_json_type(value, kind: type) -> bool:
    """Whether a JSON value has the Python type kind: a bool is not an int, and an int is a float."""
    return type(value) is kind or kind is float and type(value) is int


def run_experiment(name: str, params: dict = None, seed: int = 0) -> ExperimentReport:
    """Run a named experiment; writes its artifacts and <name>-report.json under params['outdir'].

    The other params are its runner's keyword parameters, each of the JSON
    type of its default (_is_json_type); any other key or type is an
    InputError, as is a negative seed.
    """
    if name not in EXPERIMENTS:
        raise InputError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed!r}")
    params = dict(params or {})
    outdir = params.pop("outdir", ".")
    takes = {p.name: type(p.default) for p in runner_parameters(name)}
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise InputError(f"experiment {name} does not take {', '.join(unknown)}; "
                         f"it takes {', '.join(takes)}")
    for key, val in params.items():
        kind = takes[key]
        if not _is_json_type(val, kind):
            raise InputError(f"experiment {name}: {key} must be {kind.__name__}, got {val!r}")
    report = EXPERIMENTS[name](outdir, int(seed), **params)
    report.to_json(os.path.join(outdir, f"{name}-report.json"))
    return report
