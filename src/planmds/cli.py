"""Command-line front end: embed, experiment, levelset.

Exit codes: 0 success, 2 input error, 3 numerical error.  An optional JSON
config file supplies defaults; explicit flags always win.  Runs are
deterministic for identical inputs, flags, and seed (serial reduction is the
default; MDS_THREADS=0 requests it explicitly).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

from .core import (
    DeterministicMap,
    InputError,
    NumericalError,
    PointCloud,
    _read_json,
    make_cost,
    plan_from_map,
)
from .energy import determinism_report, reported_stress
from .experiments import (EXPERIMENTS, ExperimentReport, _is_json_type, run_experiment,
                          runner_parameters, save_embedding_csv)
from .optim import DescentConfig, _initial_images, marginal_sweep, particle_descent
from .quartic import LiftedMoments, level_set_grid, save_levelset_csv
from . import svgplot


class Option(NamedTuple):
    """An option under its config key; its flag is --key with - for _.  None: the library's default."""

    parse: Callable
    default: object
    help: str


def _optimizer(name: str) -> str:
    if name not in ("particle", "marginal"):
        raise ValueError
    return name


def _region(text: str):
    x1a, x1b, x2a, x2b = map(float, text.split(","))
    return (x1a, x1b), (x2a, x2b)


_WANTS = {str: "a string", int: "an integer", float: "a number", _optimizer: "particle or marginal",
          _region: "four numbers x1min,x1max,x2min,x2max"}

OPTIONS = {
    "embed": {
        "cost": Option(str, "qmds", "cost family name"),
        "dim": Option(int, DescentConfig.dim_m, "embedding dimension m"),
        "optimizer": Option(_optimizer, "marginal", "particle or marginal"),
        "init": Option(str, DescentConfig.init, "random or pca"),
        "seed": Option(int, DescentConfig.seed, "random seed"),
        "max_sweeps": Option(int, DescentConfig.max_sweeps, "sweep or iteration cap"),
        "rel_tol": Option(float, DescentConfig.rel_tol, "relative energy tolerance"),
        "out": Option(str, ".", "output directory"),
    },
    "experiment": {
        "seed": Option(int, 0, "random seed"),
        "outdir": Option(str, ".", "output directory"),
        # the runners' keyword parameters, each defaulting in its runner
        **{p.name: Option(p.annotation, None, "default set by the experiment")
           for name in EXPERIMENTS for p in runner_parameters(name)},
    },
    "levelset": {
        "region": Option(_region, "-2,2,-2,2", "x1min,x1max,x2min,x2max"),
        "res": Option(int, 101, "grid resolution"),
        "out": Option(str, ".", "output directory"),
    },
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _typed(parse: Callable, raw, where: str, text: bool = False):
    """parse of a flag's text (text=True) or of a config value; where names the source in errors.

    A config value must be the JSON type (_is_json_type) parse takes: int,
    float, or a string otherwise.
    """
    kind = parse if parse in (int, float) else str
    try:
        if not (text or _is_json_type(raw, kind)):
            raise ValueError
        return parse(raw)
    except (ValueError, OverflowError):
        raise InputError(f"{where} must be {_WANTS[parse]}, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planmds",
        description="Second-order multidimensional scaling over weighted point clouds.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_embed = sub.add_parser("embed", help="embed a point cloud CSV")
    p_embed.add_argument("input", help="point cloud CSV (header x1,...,xd[,w])")
    p_exp = sub.add_parser("experiment", help="run a canned experiment")
    p_exp.add_argument("name", choices=list(EXPERIMENTS))
    p_lvl = sub.add_parser("levelset", help="level sets from serialized moments")
    p_lvl.add_argument("moments", help="lifted-moments JSON file, as the stacked-pair experiment "
                                       "writes (S, Phi, b, Cxx, s1, s2, a1, x_mean, y_mean)")
    for command, p in (("embed", p_embed), ("experiment", p_exp), ("levelset", p_lvl)):
        for key, opt in OPTIONS[command].items():
            p.add_argument(_flag(key), help=opt.help if opt.default is None
                           else f"{opt.help} (default {opt.default})")
        p.add_argument("--config", help="JSON config file")
    return parser


def _merge_config(args: argparse.Namespace, options: dict) -> dict:
    """Typed option values: defaults < JSON config file < explicit flags."""
    merged = {key: None if opt.default is None else _typed(opt.parse, opt.default, key)
              for key, opt in options.items()}
    path = args.config
    if path:
        loaded = _read_json(path)
        if not isinstance(loaded, dict):
            raise InputError(f"{path}: config must be a JSON object")
        for key, val in loaded.items():
            key = key.replace("-", "_")
            if key not in options:
                raise InputError(f"{path}: unknown config key {key!r}")
            merged[key] = _typed(options[key].parse, val, f"{path}: config key {key!r}")
    for key, opt in options.items():
        if getattr(args, key) is not None:
            merged[key] = _typed(opt.parse, getattr(args, key), _flag(key), text=True)
    return merged


def _thread_mode() -> int:
    val = _typed(int, os.environ.get("MDS_THREADS", "0"), "MDS_THREADS", text=True)
    if val < 0:
        raise InputError("MDS_THREADS must be >= 0")
    return val


def _cmd_embed(args) -> int:
    cfg = _merge_config(args, OPTIONS["embed"])
    cloud = PointCloud.load_csv(args.input)
    cost = make_cost(cfg["cost"])
    dcfg = DescentConfig(max_sweeps=cfg["max_sweeps"], rel_tol=cfg["rel_tol"],
                         seed=cfg["seed"], init=cfg["init"], dim_m=cfg["dim"])
    if cfg["optimizer"] == "particle":
        mapping, trace = particle_descent(cloud, cost, dcfg)
        plan = plan_from_map(cloud, mapping)
    else:
        init_map = DeterministicMap(_initial_images(cloud, dcfg))
        plan, trace = marginal_sweep(plan_from_map(cloud, init_map), cloud, cost, dcfg)
    stress = reported_stress(cloud, plan, cost)
    det = determinism_report(plan, 1e-10, 1e-10, cloud=cloud)

    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    base = os.path.splitext(os.path.basename(args.input))[0]
    embed_file = os.path.join(outdir, f"{base}-embedding.csv")
    trace_file = os.path.join(outdir, f"{base}-trace.csv")
    report_file = os.path.join(outdir, f"{base}-report.json")
    save_embedding_csv(embed_file, cloud, plan)
    trace.save_csv(trace_file)
    report = ExperimentReport("embed", cfg["seed"],
                              {k: cfg[k] for k in ("cost", "dim", "optimizer", "init",
                                                   "max_sweeps", "rel_tol")})
    report.runs.append({
        "optimizer": cfg["optimizer"], "init": cfg["init"],
        "final_stress": stress, **trace.run_fields(),
        "deterministic": bool(det.is_deterministic),
        "coincident_spread": det.coincident_spread, "swept_rows": trace.swept_rows,
        "files": [embed_file, trace_file],
    })
    report.to_json(report_file)
    print(f"stress {stress:.12g} -> {report_file}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _merge_config(args, OPTIONS["experiment"])
    seed = cfg.pop("seed")
    report = run_experiment(args.name, {k: v for k, v in cfg.items() if v is not None}, seed=seed)
    out = os.path.join(cfg["outdir"], f"{args.name}-report.json")
    print(f"{args.name}: {len(report.runs)} run(s) -> {out}")
    return 0


def _cmd_levelset(args) -> int:
    cfg = _merge_config(args, OPTIONS["levelset"])
    moments = LiftedMoments.from_json(args.moments)
    grid = level_set_grid(moments, cfg["region"], cfg["res"])
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    base = os.path.splitext(os.path.basename(args.moments))[0]
    csv_file = os.path.join(outdir, f"{base}-levelset.csv")
    svg_file = os.path.join(outdir, f"{base}-levelset.svg")
    save_levelset_csv(csv_file, grid)
    svgplot.levelset_svg(svg_file, grid, cfg["res"])
    print(f"levelset -> {csv_file}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _thread_mode()  # validate; serial deterministic execution either way
        return {"embed": _cmd_embed, "experiment": _cmd_experiment,
                "levelset": _cmd_levelset}[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
