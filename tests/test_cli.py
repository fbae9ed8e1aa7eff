"""CLI subcommands, exit codes, config merging, output determinism."""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planmds as pm
from planmds.cli import OPTIONS, _build_parser, _merge_config, main
from planmds.experiments import (
    circle_clusters_cloud,
    run_experiment,
    stacked_pair_cloud,
    stacked_pair_plan,
)
from planmds.quartic import compute_moments


def write_two_point_csv(path):
    path.write_text("x1\n0\n1\n")


def test_embed_two_points_reaches_zero_stress(tmp_path):
    csv = tmp_path / "pair.csv"
    write_two_point_csv(csv)
    out = tmp_path / "out"
    rc = main(["embed", str(csv), "--cost", "qmds", "--dim", "1",
               "--optimizer", "marginal", "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "pair-report.json").read_text())
    assert report["runs"][0]["final_stress"] < 1e-10
    assert report["runs"][0]["deterministic"]
    # embedding CSV re-parses
    lines = (out / "pair-embedding.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,mass,y1"
    assert len(lines) == 3


def test_embed_missing_file_exit_2(tmp_path, capsys):
    rc = main(["embed", str(tmp_path / "nope.csv")])
    assert rc == 2
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["not-utf8", "directory"])
@pytest.mark.parametrize("role", ["cloud", "config", "moments"])
def test_unreadable_input_exit_2(tmp_path, capsys, role, bad):
    # a missing, unreadable or non-UTF-8 input file is an input error: exit 2
    # with one error line naming the file, and no traceback
    csv = tmp_path / "pair.csv"
    write_two_point_csv(csv)
    path = tmp_path / f"bad-{role}"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes({"cloud": b"x1\n0\n\xff1\n", "config": b'{"seed": "\xff"}',
                          "moments": b'{"S": "\xff"}'}[role])
    argv = {"cloud": ["embed", str(path)],
            "config": ["embed", str(csv), "--config", str(path)],
            "moments": ["levelset", str(path), "--res", "3"]}[role]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and err.endswith("\n")


def test_no_default_text_encoding(tmp_path):
    # under -X warn_default_encoding every open() without an encoding warns;
    # numpy and scipy are left alone, but a planmds module's warning is an
    # error, so every file planmds reads or writes names its encoding
    src = os.path.dirname(os.path.dirname(os.path.abspath(pm.__file__)))
    write_two_point_csv(tmp_path / "pair.csv")
    (tmp_path / "config.json").write_text('{"seed": 1}', encoding="utf-8")
    script = "\n".join([
        "import warnings",
        "warnings.filterwarnings('error', category=EncodingWarning, module=r'planmds(\\.|$)')",
        "from planmds.cli import main",
        "for argv in (['embed', 'pair.csv', '--config', 'config.json', '--out', 'out'],",
        "             ['experiment', 'stacked-pair', '--res', '3', '--outdir', 'out'],",
        "             ['levelset', 'out/stacked-pair-moments.json', '--res', '3', '--out', 'out']):",
        "    assert main(argv) == 0, argv",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-c", script],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "stacked-pair-levelset.csv").exists()


def test_embed_unknown_cost_exit_2(tmp_path):
    csv = tmp_path / "pair.csv"
    write_two_point_csv(csv)
    rc = main(["embed", str(csv), "--cost", "bogus"])
    assert rc == 2


def test_embed_bad_csv_exit_2(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("x1\n0\nnot-a-number\n")
    rc = main(["embed", str(csv)])
    assert rc == 2


def test_embed_outputs_byte_identical_across_runs(tmp_path):
    csv = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    pm.PointCloud(rng.normal(size=(12, 2))).save_csv(csv)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["embed", str(csv), "--dim", "1", "--optimizer", "marginal",
                   "--seed", "7", "--max-sweeps", "20", "--out", str(out)])
        assert rc == 0
        outs.append((out / "data-embedding.csv").read_bytes())
    assert outs[0] == outs[1]


def test_config_file_merges_under_flags(tmp_path):
    csv = tmp_path / "pair.csv"
    write_two_point_csv(csv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-sweeps": 5, "optimizer": "marginal", "seed": 9}))
    out = tmp_path / "out"
    rc = main(["embed", str(csv), "--config", str(cfg), "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "pair-report.json").read_text())
    assert report["seed"] == 3              # flag wins
    assert report["config"]["max_sweeps"] == 5   # config supplies the rest


def test_config_file_unknown_key_exit_2(tmp_path):
    csv = tmp_path / "pair.csv"
    write_two_point_csv(csv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert main(["embed", str(csv), "--config", str(cfg)]) == 2


FLAGS = {
    "embed": "--cost --dim --optimizer --init --seed --max-sweeps --rel-tol --out --config",
    "experiment": "--seed --outdir --res --cluster-size --max-sweeps --config",
    "levelset": "--region --res --out --config",
}


@pytest.mark.parametrize("command", list(FLAGS))
def test_subcommand_flags(command):
    # no flag added or removed; the option table builds the parser
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = [s for a in sub.choices[command]._actions if a.dest != "help" for s in a.option_strings]
    assert sorted(got) == sorted(FLAGS[command].split())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


def test_config_value_is_typed_as_its_flag(tmp_path_factory):
    # any JSON value of any option's key either resolves to exactly what the
    # flag with the same text gives, or is an InputError naming file and key
    path = str(tmp_path_factory.mktemp("config") / "c.json")

    def resolve(command, config, key=None, text=None):
        options = OPTIONS[command]
        return _merge_config(argparse.Namespace(
            config=config, **{k: text if k == key else None for k in options}), options)

    @settings(max_examples=400)
    @given(st.sampled_from([(c, k) for c, options in OPTIONS.items() for k in options]),
           JSON_VALUES)
    @example(("embed", "rel_tol"), 10**400)   # an integer too large for a float
    def check(case, value):
        command, key = case
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({key: value}, fh)
        try:
            got = resolve(command, path)[key]
        except pm.InputError as exc:
            assert str(exc).startswith(f"{path}: config key {key!r} ")
            return
        want = resolve(command, None, key, value if isinstance(value, str) else repr(value))[key]
        assert type(got) is type(want) and repr(got) == repr(want)
        parse = OPTIONS[command][key].parse
        assert type(got) is parse or parse not in (str, int, float)

    check()


@pytest.mark.parametrize("argv, config", [
    (["experiment", "oscillation"], {"res": "abc"}),
    (["embed", "pair.csv"], {"dim": "x"}),
    (["embed", "pair.csv"], {"dim": None}),
    (["embed", "pair.csv"], {"out": 5}),
    (["levelset", "m.json"], {"res": "abc"}),
    (["embed", "pair.csv"], {"optimizer": "bogus"}),
    (["embed", "pair.csv"], {"dim": 2.7}),
    (["embed", "pair.csv"], {"max_sweeps": True}),
    (["embed", "pair.csv"], {"rel_tol": "1e-3"}),
    (["levelset", "m.json"], {"region": "1,2"}),
])
def test_mistyped_config_value_exit_2(tmp_path, monkeypatch, capsys, argv, config):
    # one error line naming the file and the key, before anything is written
    monkeypatch.chdir(tmp_path)
    write_two_point_csv(tmp_path / "pair.csv")
    cloud = stacked_pair_cloud()
    compute_moments(stacked_pair_plan(cloud), cloud).to_json("m.json")
    (tmp_path / "c.json").write_text(json.dumps(config))
    before = sorted(os.listdir())
    assert main(argv + ["--config", "c.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: c.json: config key {next(iter(config))!r} ")
    assert err.count("\n") == 1
    assert sorted(os.listdir()) == before


@pytest.mark.parametrize("argv", [
    ["embed", "pair.csv", "--dim", "0"],
    ["embed", "pair.csv", "--dim", "-1"],
    ["embed", "pair.csv", "--seed", "-1", "--init", "random"],
    ["embed", "pair.csv", "--rel-tol", "nan"],
    ["embed", "pair.csv", "--rel-tol", "inf"],
    ["embed", "pair.csv", "--dim", "x"],
    ["experiment", "circle-clusters", "--cluster-size", "-3"],
    ["experiment", "pca-check", "--seed", "-1"],
])
def test_out_of_range_value_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_two_point_csv(tmp_path / "pair.csv")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir() == ["pair.csv"]


def test_negative_experiment_inputs_rejected(tmp_path):
    with pytest.raises(pm.InputError, match="seed"):
        run_experiment("pca-check", {"outdir": str(tmp_path / "out")}, seed=-1)
    with pytest.raises(pm.InputError, match="cluster_size"):
        circle_clusters_cloud(0, cluster_size=-3)
    assert list(tmp_path.iterdir()) == []
    assert circle_clusters_cloud(0, cluster_size=0).n == 250


def test_config_file_writes_the_same_bytes_as_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pm.PointCloud(np.random.default_rng(0).normal(size=(12, 2))).save_csv("data.csv")
    runs = [
        (["embed", "data.csv"], {"cost": "qmds", "dim": 2, "optimizer": "particle", "init": "pca",
                                 "seed": 4, "max_sweeps": 7, "rel_tol": 1e-9, "out": "out"}),
        (["experiment", "stacked-pair"], {"seed": 1, "res": 9, "outdir": "out"}),
    ]
    for argv, values in runs:
        written = []
        for flags in (True, False):
            shutil.rmtree("out", ignore_errors=True)
            if flags:
                extra = [a for k, v in values.items() for a in ("--" + k.replace("_", "-"), str(v))]
            else:
                (tmp_path / "c.json").write_text(json.dumps(values))
                extra = ["--config", "c.json"]
            assert main(argv + extra) == 0
            written.append({name: (tmp_path / "out" / name).read_bytes()
                            for name in sorted(os.listdir("out"))})
        assert written[0] == written[1]


def test_levelset_command(tmp_path):
    cloud = stacked_pair_cloud()
    plan = stacked_pair_plan(cloud)
    mfile = tmp_path / "moments.json"
    compute_moments(plan, cloud).to_json(mfile)
    out = tmp_path / "out"
    rc = main(["levelset", str(mfile), "--region=-2,2,-2,2", "--res", "11",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "moments-levelset.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,x2,lambda,count"
    assert len(lines) == 1 + 11 * 11
    assert (out / "moments-levelset.svg").exists()


def test_levelset_res_one_exit_2(tmp_path):
    cloud = stacked_pair_cloud()
    mfile = tmp_path / "m.json"
    compute_moments(stacked_pair_plan(cloud), cloud).to_json(mfile)
    assert main(["levelset", str(mfile), "--res", "1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("region, code", [
    ("-inf,inf,-2,2", 2), ("-1e308,1e308,-2,2", 2), ("-2,2,nan,2", 2), ("1,1,-2,2", 2),
    ("1e200,2e200,-2,2", 3),
])
def test_levelset_region_sides_positive_and_finite(tmp_path, monkeypatch, capsys, region, code):
    # one error line and no output: exit 2 unless the sides are positive and
    # finite, exit 3 where a finite region overflows the moments
    monkeypatch.chdir(tmp_path)
    cloud = stacked_pair_cloud()
    compute_moments(stacked_pair_plan(cloud), cloud).to_json("m.json")
    assert main(["levelset", "m.json", f"--region={region}", "--res", "3", "--out", "out"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " if code == 2 else "numerical error: ") and err.count("\n") == 1
    assert os.listdir() == ["m.json"]


def test_levelset_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{oops")
    assert main(["levelset", str(bad), "--out", str(tmp_path)]) == 2


def test_levelset_nonfinite_moments_exit_2(tmp_path):
    cloud = stacked_pair_cloud()
    mfile = tmp_path / "m.json"
    compute_moments(stacked_pair_plan(cloud), cloud).to_json(mfile)
    payload = json.loads(mfile.read_text())
    payload["S"][0][0] = float("inf")
    mfile.write_text(json.dumps(payload))   # written as Infinity
    assert main(["levelset", str(mfile), "--res", "3", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("field,value", [
    ("S", "abc"), ("s2", [1.0]), ("S", [[1.0, 0.0]]), ("Phi", [[1.0]]), ("b", [1.0, 2.0]),
    ("Cxx", [[1.0]]), ("a1", [0.0]), ("x_mean", [0.0, 0.0, 0.0]), ("y_mean", []),
])
def test_levelset_malformed_moments_exit_2(tmp_path, field, value):
    # stacked-pair moments: m = 1, d = 2; each edit breaks one field's type or shape
    cloud = stacked_pair_cloud()
    mfile = tmp_path / "m.json"
    compute_moments(stacked_pair_plan(cloud), cloud).to_json(mfile)
    payload = json.loads(mfile.read_text())
    payload[field] = value
    mfile.write_text(json.dumps(payload))
    assert main(["levelset", str(mfile), "--res", "3", "--out", str(tmp_path)]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e100, 1e160])
@pytest.mark.parametrize("init", ["random", "pca"])
@pytest.mark.parametrize("optimizer", ["marginal", "particle"])
def test_embed_overflow_exit_3(tmp_path, capsys, scale, init, optimizer):
    # squared coordinates overflow at 1e160, their squares (the lifted
    # moments and the energy) already at 1e100; the overflow is checked, so
    # numpy must not warn about it, and the one error line is all of stderr
    assert _embed_big_cloud(tmp_path, scale, init, optimizer, "qmds") == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("scale", [1e100, 1e160])
@pytest.mark.parametrize("optimizer", ["marginal", "particle"])
@pytest.mark.parametrize("cost", ["qsammon", "quadratic-ip", "kernel-ip", "elastic"])
def test_embed_overflow_other_costs(tmp_path, capsys, cost, optimizer, scale):
    # kernel-ip alone finishes: an overflowing squared distance has the RBF
    # kernel value exp(-inf) = 0, which is exact
    rc = _embed_big_cloud(tmp_path, scale, "random", optimizer, cost)
    err = capsys.readouterr().err
    if cost == "kernel-ip":
        assert rc == 0 and err == ""
        report = json.loads((tmp_path / "out" / "big-report.json").read_text())
        assert np.isfinite(report["runs"][0]["final_stress"])
    else:
        assert rc == 3
        assert err.startswith("numerical error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cost, scale", [("qmds", 1e77), ("quadratic-ip", 1e60), ("elastic", 1e120)])
def test_embed_pca_marginal_overflow(tmp_path, capsys, cost, scale):
    # the lifted energy's moment products (qmds), the least-squares
    # certificate's norms (quadratic-ip) and the elastic marginal objective
    # overflow first at these scales; each is checked, so a run either fails
    # with the one error line or finishes with a finite stress and no output
    # on stderr
    rc = _embed_big_cloud(tmp_path, scale, "pca", "marginal", cost)
    err = capsys.readouterr().err
    if rc == 0:
        assert err == ""
        report = json.loads((tmp_path / "out" / "big-report.json").read_text())
        assert np.isfinite(report["runs"][0]["final_stress"])
    else:
        assert rc == 3
        assert err.startswith("numerical error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_embed_quadratic_ip_overflowing_norms_scale_the_stress(tmp_path):
    # the least-squares certificate stays finite where the plain norm's sum
    # of squares overflows, and the cost is homogeneous of degree 4 in the
    # coordinates, so the stress at scale 1e60 is the stress at scale 1 times 1e240
    stresses = []
    for scale in (1.0, 1e60):
        assert _embed_big_cloud(tmp_path, scale, "pca", "marginal", "quadratic-ip") == 0
        report = json.loads((tmp_path / "out" / "big-report.json").read_text())
        stresses.append(report["runs"][0]["final_stress"])
    assert stresses[1] == pytest.approx(stresses[0] * 1e240, rel=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_embed_qmds_at_large_scale_scales_the_stress(tmp_path, capsys):
    # at 1e60 every row's quartic marginal has coefficients of about 1e120
    # to 1e240, which the solve takes to unit scale and back; so the run
    # finishes, and the stress is the stress at scale 1 times 1e240, as the
    # cost is homogeneous of degree 4
    stresses = []
    for scale in (1.0, 1e60):
        assert _embed_big_cloud(tmp_path, scale, "pca", "marginal", "qmds") == 0
        report = json.loads((tmp_path / "out" / "big-report.json").read_text())
        stresses.append(report["runs"][0]["final_stress"])
    assert capsys.readouterr().err == ""
    assert stresses[1] == pytest.approx(stresses[0] * 1e240, rel=1e-6)


def _embed_big_cloud(tmp_path, scale, init, optimizer, cost) -> int:
    csv = tmp_path / "big.csv"
    pm.PointCloud(np.random.default_rng(0).normal(size=(12, 2)) * scale).save_csv(csv)
    return main(["embed", str(csv), "--cost", cost, "--optimizer", optimizer, "--init", init,
                 "--dim", "1", "--out", str(tmp_path / "out")])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_overflow_raises_numerical_error(capsys):
    cloud = pm.PointCloud([[0.0], [1.0], [2.0]])
    plan = pm.plan_from_map(cloud, pm.DeterministicMap([[0.0], [1e160], [-1e160]]))
    with pytest.raises(pm.NumericalError):
        pm.marginal_sweep(plan, cloud, pm.QMDS(), pm.DescentConfig(max_sweeps=2))
    assert capsys.readouterr().err == ""


def test_needle_overflow_raises_numerical_error(capsys):
    # the energies are finite at 1e40, but the minimizer of a marginal is
    # about 1e80, and the needle's Python-float quadratic term overflows
    rng = np.random.default_rng(0)
    cloud = pm.PointCloud(rng.normal(size=(12, 2)) * 1e40)
    plan = pm.plan_from_map(cloud, pm.DeterministicMap(rng.normal(size=(12, 1))))
    with pytest.raises(pm.NumericalError, match="needle step overflows"):
        pm.marginal_sweep(plan, cloud, pm.QuadraticIP(), pm.DescentConfig(max_sweeps=2))
    assert capsys.readouterr().err == ""


def test_bad_mds_threads_exit_2(tmp_path, monkeypatch):
    csv = tmp_path / "pair.csv"
    write_two_point_csv(csv)
    monkeypatch.setenv("MDS_THREADS", "lots")
    assert main(["embed", str(csv), "--out", str(tmp_path)]) == 2


def test_experiment_unknown_name_rejected():
    with pytest.raises(pm.InputError):
        run_experiment("nope", {}, seed=0)


@pytest.mark.parametrize("argv", [
    ["stacked-pair", "--cluster-size", "5"],
    ["oscillation", "--max-sweeps", "3"],
    ["pca-check", "--res", "9"],
], ids=["stacked-pair-cluster-size", "oscillation-max-sweeps", "pca-check-res"])
def test_experiment_rejects_parameters_it_does_not_take(tmp_path, capsys, argv):
    assert main(["experiment", *argv, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_rejects_unknown_parameter(tmp_path):
    with pytest.raises(pm.InputError, match="n_lsit"):
        run_experiment("oscillation", {"n_lsit": [1], "outdir": str(tmp_path)})
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_rejects_mistyped_parameter(tmp_path):
    # an int parameter takes an int: not a string, a float or a bool
    for name, params in (("oscillation", {"res": "abc"}), ("circle-clusters", {"cluster_size": 2.5}),
                         ("stacked-pair", {"res": True})):
        with pytest.raises(pm.InputError, match=f"{next(iter(params))} must be int"):
            run_experiment(name, {**params, "outdir": str(tmp_path)})
    assert list(tmp_path.iterdir()) == []


def test_experiment_oscillation(tmp_path):
    rc = main(["experiment", "oscillation", "--res", "12",
               "--outdir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "oscillation.csv").read_text().strip().splitlines()
    assert lines[0] == "n,stress"
    assert lines[-1].startswith("# stress_zero,")
    report = json.loads((tmp_path / "oscillation-report.json").read_text())
    assert report["experiment"] == "oscillation"


def test_experiment_stacked_pair(tmp_path):
    rc = main(["experiment", "stacked-pair", "--res", "15",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "stacked-pair-report.json").read_text())
    run = report["runs"][0]
    assert run["psi_at_15_0"] == pytest.approx(0.25, abs=1e-12)
    assert run["phi_at_15_0"] == pytest.approx(0.0, abs=1e-12)
    assert (tmp_path / "stacked-pair-levelset.svg").exists()
    assert (tmp_path / "stacked-pair-moments.json").exists()


def test_experiment_circle_clusters_small(tmp_path):
    rc = main(["experiment", "circle-clusters", "--seed", "1",
               "--cluster-size", "40", "--max-sweeps", "60",
               "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "circle-clusters-report.json").read_text())
    particle, marginal = report["runs"]
    assert marginal["final_stress"] < particle["final_stress"]
    assert marginal["deterministic"]
    assert (tmp_path / "circle-clusters-particle.svg").exists()
    assert (tmp_path / "circle-clusters-marginal.svg").exists()


def test_circle_clusters_report_coincident_points(tmp_path):
    # each cluster is 30 copies of one point: the sweep sweeps it once and its
    # copies share their image; particle descent spreads them
    assert main(["experiment", "circle-clusters", "--seed", "1", "--cluster-size", "30",
                 "--max-sweeps", "3", "--outdir", str(tmp_path)]) == 0
    particle, marginal = json.loads((tmp_path / "circle-clusters-report.json").read_text())["runs"]
    assert particle["coincident_spread"] > 0.1
    assert marginal["coincident_spread"] == 0.0
    assert marginal["swept_rows"] == 2 + 250


def test_embed_repeated_rows_share_one_row(tmp_path):
    csv = tmp_path / "rep.csv"
    csv.write_text("x1,x2\n0,0\n1,0\n0,0\n0,2\n1,0\n0,0\n")
    out = tmp_path / "out"
    # a random init sends the copies of a point apart; the sweep merges them
    assert main(["embed", str(csv), "--init", "random", "--seed", "2", "--out", str(out)]) == 0
    rows = (out / "rep-embedding.csv").read_text().splitlines()
    assert len(rows) == 7 and rows[1] == rows[3] == rows[6] and rows[2] == rows[5]
    run = json.loads((out / "rep-report.json").read_text())["runs"][0]
    assert run["swept_rows"] == 3 and run["coincident_spread"] == 0.0
    assert (out / "rep-trace.csv").read_text().startswith("sweep,energy,split_mass,moved_mass\n")


def _record_traces(monkeypatch, traces: list, *modules) -> None:
    """Append to traces the IterationTrace of every particle descent and marginal sweep the modules run."""
    for module in modules:
        for name in ("particle_descent", "marginal_sweep"):
            def recorded(*args, _run=getattr(module, name), **kwargs):
                out = _run(*args, **kwargs)
                traces.append(out[1])
                return out

            monkeypatch.setattr(module, name, recorded)


def test_run_records_carry_their_trace_fields(tmp_path, monkeypatch):
    # every run record with a trace reports its sweeps, per-sweep max_delta
    # and final gradient norm, read back here against the trace itself
    from planmds import cli, experiments

    records, traces = [], []
    _record_traces(monkeypatch, traces, cli, experiments)
    csv = tmp_path / "c.csv"
    pm.PointCloud(np.random.default_rng(0).normal(size=(12, 2))).save_csv(csv)
    for optimizer in ("particle", "marginal"):
        out = tmp_path / optimizer
        assert main(["embed", str(csv), "--optimizer", optimizer, "--out", str(out)]) == 0
        records += json.loads((out / "c-report.json").read_text())["runs"]
    for name, flags in (("circle-clusters", ["--cluster-size", "10", "--max-sweeps", "3"]),
                        ("pca-check", [])):
        assert main(["experiment", name, "--outdir", str(tmp_path), *flags]) == 0
        records += json.loads((tmp_path / f"{name}-report.json").read_text())["runs"]
    assert len(records) == len(traces) == 5
    for run, trace in zip(records, traces):
        assert run["sweeps"] == trace.n_sweeps
        assert run["max_delta"] == trace.max_delta and len(trace.max_delta) == len(trace.energies)
        assert run["final_grad_norm"] == trace.final_grad_norm
        assert (trace.swept_rows is None) == (run["final_grad_norm"] is not None)


def test_experiment_pca_check(tmp_path):
    rc = main(["experiment", "pca-check", "--seed", "2", "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "pca-check-report.json").read_text())
    run = report["runs"][0]
    assert run["final_stress"] <= run["pca_stress"] + 1e-6
    assert run["largest_principal_angle"] < 1e-3


def test_embed_outputs_identical_across_blas_thread_counts(tmp_path):
    # the same embed in fresh interpreters with 1 and 2 BLAS threads writes
    # byte-identical embedding, trace and report files; the marginal sweep
    # at m = 2 and m = 3, where its step calls LAPACK's eigh, and particle
    # descent at m = 2 and m = 3, whose trial maps share stacked products
    csv = tmp_path / "data.csv"
    rng = np.random.default_rng(5)
    pm.PointCloud(rng.normal(size=(300, 3)) * [2.0, 1.0, 0.5]).save_csv(csv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pm.__file__)))
    runs = [("marginal", "2"), ("particle", "2"), ("marginal", "3"), ("particle", "3")]
    files = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for optimizer, dim in runs:
            run_dir = tmp_path / f"{optimizer}-{dim}-{threads}"
            run_dir.mkdir()
            subprocess.run(
                [sys.executable, "-m", "planmds.cli", "embed", str(csv), "--dim", dim,
                 "--optimizer", optimizer, "--seed", "4", "--max-sweeps", "5",
                 "--out", "out"],
                cwd=run_dir, env=env, check=True, capture_output=True, timeout=120)
            files[optimizer, dim, threads] = [(run_dir / "out" / f"data-{kind}").read_bytes()
                                              for kind in ("embedding.csv", "trace.csv",
                                                           "report.json")]
    for optimizer, dim in runs:
        assert files[optimizer, dim, "1"] == files[optimizer, dim, "2"]


def test_elastic_embed_identical_across_blas_threads_and_seeds(tmp_path):
    # the elastic marginal solve draws no random start: from a PCA start the
    # embedding and trace bytes depend on neither the BLAS thread count nor
    # --seed, and the reports differ only in the seed they record.  So for
    # the other costs without a moment form, on 300 points, where their base
    # rows, least-squares systems and quartic moments are BLAS products
    src = os.path.dirname(os.path.dirname(os.path.abspath(pm.__file__)))
    runs = [("elastic", 24, "3"), ("qsammon", 300, "2"), ("quadratic-ip", 300, "2"),
            ("kernel-ip", 300, "2")]
    for cost, n, sweeps in runs:
        csv = tmp_path / f"{cost}.csv"
        pm.PointCloud(np.random.default_rng(9).normal(size=(n, 3))
                      * [1.5, 1.0, 0.5]).save_csv(csv)
        files = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            for seed in ("1", "2"):
                run_dir = tmp_path / f"{cost}-{threads}-{seed}"
                run_dir.mkdir()
                subprocess.run(
                    [sys.executable, "-m", "planmds.cli", "embed", str(csv), "--cost", cost,
                     "--dim", "2", "--optimizer", "marginal", "--init", "pca", "--seed", seed,
                     "--max-sweeps", sweeps, "--out", "out"],
                    cwd=run_dir, env=env, check=True, capture_output=True, timeout=120)
                out = run_dir / "out"
                report = json.loads((out / f"{cost}-report.json").read_text())
                assert report.pop("seed") == int(seed)
                files[threads, seed] = [(out / f"{cost}-{kind}").read_bytes()
                                        for kind in ("embedding.csv", "trace.csv")] + [report]
        assert files["1", "1"] == files["2", "1"] == files["1", "2"] == files["2", "2"], cost


@pytest.mark.parametrize("argv", [
    ["circle-clusters", "--cluster-size", "10", "--seed", "3"],
    ["stacked-pair"],
], ids=lambda argv: argv[0])
def test_experiment_outputs_identical_across_blas_thread_counts(tmp_path, argv):
    # circle-clusters, whose reported stresses come from lifted moments, and
    # stacked-pair, with `planmds levelset` on the moments file it writes,
    # write the same report, CSV and SVG bytes with 1 and 2 BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(pm.__file__)))
    experiment = argv[0]
    commands = [["experiment", *argv, "--outdir", "out"]]
    if experiment == "stacked-pair":
        commands.append(["levelset", "out/stacked-pair-moments.json", "--out", "out"])
    files = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run_dir = tmp_path / threads
        run_dir.mkdir()
        for command in commands:
            subprocess.run([sys.executable, "-m", "planmds.cli", *command],
                           cwd=run_dir, env=env, check=True, capture_output=True, timeout=120)
        out = run_dir / "out"
        files[threads] = {name: (out / name).read_bytes()
                          for name in sorted(os.listdir(out))
                          if name.endswith((".json", ".csv", ".svg"))}
    assert f"{experiment}-report.json" in files["1"]
    if experiment == "stacked-pair":
        assert "stacked-pair-moments-levelset.csv" in files["1"]
    assert files["1"] == files["2"]


def test_only_the_cli_prints():
    # the library reports through return values and exceptions; cli.py alone writes to the terminal
    package = os.path.dirname(os.path.abspath(pm.__file__))
    modules = [name for name in sorted(os.listdir(package)) if name.endswith(".py") and name != "cli.py"]
    assert "quartic.py" in modules
    printing = []
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        printing += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "print"]
    assert not printing
