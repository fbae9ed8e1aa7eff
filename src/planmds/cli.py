"""Command-line front end: embed, experiment, levelset.

Exit codes: 0 success, 2 input error, 3 numerical error.  An optional JSON
config file supplies defaults; explicit flags always win.  Runs are
deterministic for identical inputs, flags, and seed (serial reduction is the
default; MDS_THREADS=0 requests it explicitly).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


from .core import (
    DeterministicMap,
    InputError,
    NumericalError,
    PointCloud,
    make_cost,
    plan_from_map,
)
from .energy import determinism_report, reported_stress
from .experiments import EXPERIMENT_NAMES, ExperimentReport, run_experiment, save_embedding_csv
from .optim import DescentConfig, _initial_images, marginal_sweep, particle_descent
from .quartic import MomentSet, level_set_grid, save_levelset_csv
from . import svgplot


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planmds",
        description="Second-order multidimensional scaling over weighted point clouds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed", help="embed a point cloud CSV")
    p_embed.add_argument("input", help="point cloud CSV (header x1,...,xd[,w])")
    p_embed.add_argument("--cost", default=None, help="cost family name")
    p_embed.add_argument("--dim", type=int, default=None, help="embedding dimension m")
    p_embed.add_argument("--optimizer", choices=["particle", "marginal"], default=None)
    p_embed.add_argument("--init", default=None, help="init: random or pca")
    p_embed.add_argument("--seed", type=int, default=None)
    p_embed.add_argument("--max-sweeps", type=int, default=None)
    p_embed.add_argument("--rel-tol", type=float, default=None)
    p_embed.add_argument("--out", default=None, help="output directory")
    p_embed.add_argument("--config", default=None, help="JSON config file")

    p_exp = sub.add_parser("experiment", help="run a canned experiment")
    p_exp.add_argument("name", choices=list(EXPERIMENT_NAMES))
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--outdir", default=None)
    p_exp.add_argument("--res", type=int, default=None, help="grid resolution")
    p_exp.add_argument("--cluster-size", type=int, default=None)
    p_exp.add_argument("--max-sweeps", type=int, default=None)
    p_exp.add_argument("--config", default=None, help="JSON config file")

    p_lvl = sub.add_parser("levelset", help="level sets from serialized moments")
    p_lvl.add_argument("moments", help="MomentSet JSON file")
    p_lvl.add_argument("--region", default=None,
                       help="x1min,x1max,x2min,x2max (default -2,2,-2,2)")
    p_lvl.add_argument("--res", type=int, default=None)
    p_lvl.add_argument("--out", default=None, help="output directory")
    p_lvl.add_argument("--config", default=None, help="JSON config file")
    return parser


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Layer: built-in defaults < JSON config file < explicit flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        path = args.config
        if not os.path.exists(path):
            raise InputError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: malformed JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise InputError(f"{path}: config must be a JSON object")
        for key, val in loaded.items():
            key = key.replace("-", "_")
            if key not in merged:
                raise InputError(f"{path}: unknown config key {key!r}")
            merged[key] = val
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _thread_mode() -> int:
    raw = os.environ.get("MDS_THREADS", "0")
    try:
        val = int(raw)
    except ValueError:
        raise InputError(f"MDS_THREADS must be an integer, got {raw!r}") from None
    if val < 0:
        raise InputError("MDS_THREADS must be >= 0")
    return val


def _cmd_embed(args) -> int:
    cfg = _merge_config(args, {
        "cost": "qmds", "dim": 1, "optimizer": "marginal", "init": "random",
        "seed": 0, "max_sweeps": 100, "rel_tol": 1e-10, "out": ".",
    })
    if not os.path.exists(args.input):
        raise InputError(f"input file not found: {args.input}")
    cloud = PointCloud.load_csv(args.input)
    cost = make_cost(cfg["cost"])
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    dcfg = DescentConfig(max_sweeps=int(cfg["max_sweeps"]), rel_tol=float(cfg["rel_tol"]),
                         seed=int(cfg["seed"]), init=cfg["init"], dim_m=int(cfg["dim"]))
    if cfg["optimizer"] == "particle":
        mapping, trace = particle_descent(cloud, cost, dcfg)
        plan = plan_from_map(cloud, mapping)
    else:
        init_map = DeterministicMap(_initial_images(cloud, dcfg))
        plan, trace = marginal_sweep(plan_from_map(cloud, init_map), cloud, cost, dcfg)
    stress = reported_stress(cloud, plan, cost)
    det = determinism_report(plan, 1e-10, 1e-10)

    base = os.path.splitext(os.path.basename(args.input))[0]
    embed_file = os.path.join(outdir, f"{base}-embedding.csv")
    trace_file = os.path.join(outdir, f"{base}-trace.csv")
    report_file = os.path.join(outdir, f"{base}-report.json")
    save_embedding_csv(embed_file, cloud, plan)
    trace.save_csv(trace_file)
    report = ExperimentReport("embed", int(cfg["seed"]),
                              {k: cfg[k] for k in ("cost", "dim", "optimizer", "init",
                                                   "max_sweeps", "rel_tol")})
    report.runs.append({
        "optimizer": cfg["optimizer"], "init": str(cfg["init"]),
        "final_stress": stress, "sweeps": trace.n_sweeps,
        "deterministic": bool(det.is_deterministic),
        "files": [embed_file, trace_file],
    })
    report.to_json(report_file)
    print(f"stress {stress:.12g} -> {report_file}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _merge_config(args, {
        "seed": 0, "outdir": ".", "res": None, "cluster_size": None,
        "max_sweeps": None,
    })
    params = {"outdir": cfg["outdir"]}
    if cfg["res"] is not None:
        params["res"] = int(cfg["res"])
    if cfg["cluster_size"] is not None:
        params["cluster_size"] = int(cfg["cluster_size"])
    if cfg["max_sweeps"] is not None:
        params["max_sweeps"] = int(cfg["max_sweeps"])
    report = run_experiment(args.name, params, seed=int(cfg["seed"]))
    out = os.path.join(cfg["outdir"], f"{args.name}-report.json")
    print(f"{args.name}: {len(report.runs)} run(s) -> {out}")
    return 0


def _cmd_levelset(args) -> int:
    cfg = _merge_config(args, {"region": "-2,2,-2,2", "res": 101, "out": "."})
    if not os.path.exists(args.moments):
        raise InputError(f"moments file not found: {args.moments}")
    moments = MomentSet.from_json(args.moments)
    try:
        vals = [float(v) for v in str(cfg["region"]).split(",")]
    except ValueError:
        raise InputError(f"bad region {cfg['region']!r}") from None
    if len(vals) != 4:
        raise InputError("region needs four numbers: x1min,x1max,x2min,x2max")
    region = ((vals[0], vals[1]), (vals[2], vals[3]))
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    grid = level_set_grid(moments, region, int(cfg["res"]))
    base = os.path.splitext(os.path.basename(args.moments))[0]
    csv_file = os.path.join(outdir, f"{base}-levelset.csv")
    svg_file = os.path.join(outdir, f"{base}-levelset.svg")
    save_levelset_csv(csv_file, grid)
    svgplot.levelset_svg(svg_file, grid, int(cfg["res"]))
    print(f"levelset -> {csv_file}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _thread_mode()  # validate; serial deterministic execution either way
        if args.command == "embed":
            return _cmd_embed(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_levelset(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
