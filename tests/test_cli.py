"""CLI subcommands, exit codes, config merging, output determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import planmds as pm
from planmds.cli import main
from planmds.experiments import run_experiment, stacked_pair_cloud, stacked_pair_plan
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


def test_levelset_command(tmp_path):
    cloud = stacked_pair_cloud(50)
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
    cloud = stacked_pair_cloud(10)
    mfile = tmp_path / "m.json"
    compute_moments(stacked_pair_plan(cloud), cloud).to_json(mfile)
    assert main(["levelset", str(mfile), "--res", "1", "--out", str(tmp_path)]) == 2


def test_levelset_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{oops")
    assert main(["levelset", str(bad), "--out", str(tmp_path)]) == 2


def test_levelset_nonfinite_moments_exit_2(tmp_path):
    cloud = stacked_pair_cloud(10)
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
    cloud = stacked_pair_cloud(10)
    mfile = tmp_path / "m.json"
    compute_moments(stacked_pair_plan(cloud), cloud).to_json(mfile)
    payload = json.loads(mfile.read_text())
    payload[field] = value
    mfile.write_text(json.dumps(payload))
    assert main(["levelset", str(mfile), "--res", "3", "--out", str(tmp_path)]) == 2


def test_bad_mds_threads_exit_2(tmp_path, monkeypatch):
    csv = tmp_path / "pair.csv"
    write_two_point_csv(csv)
    monkeypatch.setenv("MDS_THREADS", "lots")
    assert main(["embed", str(csv), "--out", str(tmp_path)]) == 2


def test_experiment_unknown_name_rejected():
    with pytest.raises(pm.InputError):
        run_experiment("nope", {}, seed=0)


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


def test_experiment_pca_check(tmp_path):
    rc = main(["experiment", "pca-check", "--seed", "2", "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "pca-check-report.json").read_text())
    run = report["runs"][0]
    assert run["final_stress"] <= run["pca_stress"] + 1e-6
    assert run["largest_principal_angle"] < 1e-3


def test_embed_outputs_identical_across_blas_thread_counts(tmp_path):
    # the same embed in fresh interpreters with 1 and 2 BLAS threads writes
    # byte-identical embedding, trace and report files
    csv = tmp_path / "data.csv"
    rng = np.random.default_rng(5)
    pm.PointCloud(rng.normal(size=(300, 3)) * [2.0, 1.0, 0.5]).save_csv(csv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pm.__file__)))
    files = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for optimizer in ("marginal", "particle"):
            run_dir = tmp_path / f"{optimizer}-{threads}"
            run_dir.mkdir()
            subprocess.run(
                [sys.executable, "-m", "planmds.cli", "embed", str(csv), "--dim", "2",
                 "--optimizer", optimizer, "--seed", "4", "--max-sweeps", "5",
                 "--out", "out"],
                cwd=run_dir, env=env, check=True, capture_output=True, timeout=120)
            files[optimizer, threads] = [(run_dir / "out" / f"data-{kind}").read_bytes()
                                         for kind in ("embedding.csv", "trace.csv",
                                                      "report.json")]
    for optimizer in ("marginal", "particle"):
        assert files[optimizer, "1"] == files[optimizer, "2"]


def test_experiment_outputs_identical_across_blas_thread_counts(tmp_path):
    # circle-clusters, whose reported stresses come from lifted moments, writes
    # the same report and CSV bytes with 1 and 2 BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(pm.__file__)))
    files = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run_dir = tmp_path / threads
        run_dir.mkdir()
        subprocess.run(
            [sys.executable, "-m", "planmds.cli", "experiment", "circle-clusters",
             "--cluster-size", "10", "--seed", "3", "--outdir", "out"],
            cwd=run_dir, env=env, check=True, capture_output=True, timeout=120)
        out = run_dir / "out"
        files[threads] = {name: (out / name).read_bytes()
                          for name in sorted(os.listdir(out))
                          if name.endswith((".json", ".csv"))}
    assert "circle-clusters-report.json" in files["1"]
    assert files["1"] == files["2"]
