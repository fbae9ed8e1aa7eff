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
    points = cloud.points.tolist()
    _write_csv(path, ([f"x{j + 1}" for j in range(cloud.dim_d)] + ["mass"]
                      + [f"y{j + 1}" for j in range(plan.dim_m)]),
               (points[i] + [q] + y
                for i, q, y in zip(idx.tolist(), mass.tolist(), atoms.tolist())))


def circle_clusters_cloud(seed: int, cluster_size: int = 1000,
                          circle_points: int = CIRCLE_POINTS) -> PointCloud:
    """Two heavy clusters at (0, +-0.2) plus random points on the unit circle.

    Circle angles are drawn by stratified jitter (one uniform draw per equal
    arc, then shuffled): each angle is still uniform on the circle, but the
    sample cannot clump.  Clumped iid samples can rotate the optimal
    two-arc split of the circle away from the x2 = 0 axis, which is a
    property of the sample rather than of the embedding problem.
    """
    rng = np.random.default_rng(seed)
    top = np.tile([0.0, 0.2], (cluster_size, 1))
    bottom = np.tile([0.0, -0.2], (cluster_size, 1))
    angles = (np.arange(circle_points) + rng.uniform(0.0, 1.0, circle_points))
    angles = rng.permutation(angles / circle_points * 2.0 * np.pi)
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
    """A scalar per source point for coloring: mass-weighted mean of atoms."""
    vals = np.empty(plan.n_rows)
    for i, (m, a) in enumerate(zip(plan.row_masses, plan.row_atoms)):
        vals[i] = float(m @ a[:, 0]) / float(np.sum(m))
    return vals


def _run_circle_clusters(outdir, seed: int, cluster_size: int = 1000,
                         max_sweeps: int = 200) -> ExperimentReport:
    cloud = circle_clusters_cloud(seed, cluster_size)
    cost = QMDS()
    cloud_file = os.path.join(outdir, "circle-clusters-cloud.csv")
    cloud.save_csv(cloud_file)
    report = ExperimentReport("circle-clusters", seed,
                              {"cluster_size": cluster_size,
                               "circle_points": CIRCLE_POINTS})

    cfg = DescentConfig(max_sweeps=max_sweeps, rel_tol=1e-9, seed=seed,
                        init="random", dim_m=1)
    pmap, ptrace = particle_descent(cloud, cost, cfg)
    p_stress = reported_stress(cloud, pmap, cost)
    p_plan = plan_from_map(cloud, pmap)
    p_embed = os.path.join(outdir, "circle-clusters-particle.csv")
    p_svg = os.path.join(outdir, "circle-clusters-particle.svg")
    save_embedding_csv(p_embed, cloud, p_plan)
    svgplot.scatter_svg(p_svg, cloud.points, pmap.images[:, 0],
                        title="particle descent, random init")
    report.runs.append({
        "optimizer": "particle", "init": "random",
        "final_stress": p_stress, "sweeps": ptrace.n_sweeps,
        "deterministic": True, "files": [cloud_file, p_embed, p_svg],
    })

    init_map = circle_clusters_analytic_init(cloud, cluster_size)
    scfg = DescentConfig(max_sweeps=max_sweeps, rel_tol=1e-12, seed=seed, dim_m=1)
    splan, strace = marginal_sweep(plan_from_map(cloud, init_map), cloud, cost, scfg)
    s_stress = reported_stress(cloud, splan, cost)
    det = determinism_report(splan, 1e-10, 1e-10)
    s_embed = os.path.join(outdir, "circle-clusters-marginal.csv")
    s_svg = os.path.join(outdir, "circle-clusters-marginal.svg")
    save_embedding_csv(s_embed, cloud, splan)
    svgplot.scatter_svg(s_svg, cloud.points, _plan_point_values(splan),
                        title="marginal sweep, analytic init")
    report.runs.append({
        "optimizer": "marginal", "init": "analytic",
        "final_stress": s_stress, "sweeps": strace.n_sweeps,
        "deterministic": bool(det.is_deterministic),
        "split_mass_fraction": det.split_mass_fraction,
        "files": [s_embed, s_svg],
    })
    return report


def stacked_pair_cloud(n_stack: int = N_STACK) -> PointCloud:
    pts = np.vstack([np.tile([0.0, 1.0], (n_stack, 1)),
                     np.tile([0.0, -1.0], (n_stack, 1))])
    return PointCloud(pts)


def stacked_pair_plan(cloud: PointCloud) -> EmbeddingPlan:
    """The optimal embedding: project onto the second coordinate."""
    return plan_from_map(cloud, DeterministicMap(cloud.points[:, 1:2]))


def _run_stacked_pair(outdir, seed: int, res: int = 81) -> ExperimentReport:
    cloud = stacked_pair_cloud()
    plan = stacked_pair_plan(cloud)
    moments = compute_moments(plan, cloud)
    mfile = os.path.join(outdir, "stacked-pair-moments.json")
    moments.to_json(mfile)
    probe = quartic_at(moments, np.array([1.5, 0.0]))
    grid = level_set_grid(moments, ((-2.0, 2.0), (-2.0, 2.0)), res)
    gfile = os.path.join(outdir, "stacked-pair-levelset.csv")
    save_levelset_csv(gfile, grid)
    sfile = os.path.join(outdir, "stacked-pair-levelset.svg")
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
    csv_file = os.path.join(outdir, "oscillation.csv")
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

    efile = os.path.join(outdir, "pca-check-embedding.csv")
    save_embedding_csv(efile, cloud, plan)
    report = ExperimentReport("pca-check", seed, {"n": PCA_N, "m": PCA_M})
    report.runs.append({
        "optimizer": "marginal", "init": "pca",
        "final_stress": sweep_stress, "pca_stress": pca_stress,
        "largest_principal_angle": angle,
        "sweeps": trace.n_sweeps,
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


def run_experiment(name: str, params: dict = None, seed: int = 0) -> ExperimentReport:
    """Run a named experiment; writes its artifacts and <name>-report.json under params['outdir'].

    The other params are its runner's keyword parameters; any other key is an InputError.
    """
    if name not in EXPERIMENTS:
        raise InputError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    runner = EXPERIMENTS[name]
    params = dict(params or {})
    outdir = params.pop("outdir", ".")
    takes = list(inspect.signature(runner).parameters)[2:]
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise InputError(f"experiment {name} does not take {', '.join(unknown)}; "
                         f"it takes {', '.join(takes)}")
    os.makedirs(outdir, exist_ok=True)
    report = runner(outdir, int(seed), **params)
    report.to_json(os.path.join(outdir, f"{name}-report.json"))
    return report
