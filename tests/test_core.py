"""Data model: construction, canonicalization, serialization, cost families."""

from __future__ import annotations

import numpy as np
import pytest

import planmds as pm
from planmds.core import MERGE_TOL, _merge_row

from helpers import reference_merge_row


def all_costs():
    return [pm.QMDS(), pm.QSammon(), pm.QuadraticIP(), pm.KernelIP(),
            pm.KernelIP(kernel="polynomial", degree=3, offset=0.5),
            pm.Elastic(sigma=0.8, beta=1.3)]


def test_cloud_weights_renormalize_and_drop_zero():
    cloud = pm.PointCloud([[0.0], [1.0], [2.0]], [0.5, 0.5 + 1e-8, 0.0])
    assert cloud.n == 2
    assert abs(cloud.weights.sum() - 1.0) < 1e-12
    assert (cloud.weights > 0).all()


def test_cloud_rejects_bad_weight_sum():
    with pytest.raises(pm.InputError):
        pm.PointCloud([[0.0], [1.0]], [0.5, 0.6])


def test_cloud_rejects_nonfinite():
    with pytest.raises(pm.InputError):
        pm.PointCloud([[np.inf], [1.0]])


def test_cloud_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 1, 7)
    cloud = pm.PointCloud(rng.normal(size=(7, 3)), w / w.sum())
    path = tmp_path / "cloud.csv"
    cloud.save_csv(path)
    loaded = pm.PointCloud.load_csv(path)
    assert np.allclose(loaded.points, cloud.points, atol=0)
    assert np.allclose(loaded.weights, cloud.weights, atol=0)


def test_cloud_csv_uniform_weights(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x1,x2\n0,1\n2,3\n")
    cloud = pm.PointCloud.load_csv(path)
    assert cloud.dim_d == 2
    assert np.allclose(cloud.weights, [0.5, 0.5])


def test_cloud_csv_bad_row_reports_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x1,w\n0,0.5\noops,0.5\n")
    with pytest.raises(pm.InputError, match="3"):
        pm.PointCloud.load_csv(path)


# case: {loader: (file text, error message after the path, or None for a good file)};
# both loaders share one reader, so each case is made for both
CSV_CASES = {
    "empty file": {"cloud": ("", ": empty file"), "plan": ("", ": empty file")},
    "short row": {"cloud": ("x1,w\n0,0.5\n1\n", ":3: expected 2 columns, got 1"),
                  "plan": ("i,mass,y1\n0,1.0,0\n0\n", ":3: expected 3 columns, got 1")},
    "long row after a blank line": {
        "cloud": ("x1,w\n\n0,0.5,3\n", ":3: expected 2 columns, got 3"),
        "plan": ("i,mass,y1\n\n0,1.0,0,1\n", ":3: expected 3 columns, got 4")},
    "bad field before a short row": {
        "cloud": ("x1,w\n0,0.5\noops,0.5\n1\n", ":3: could not convert string to float: 'oops'"),
        "plan": ("i,mass,y1\n0,1.0,0\nz,1.0,0\n0\n",
                 ":3: invalid literal for int() with base 10: 'z'")},
    "bad header before a short row": {
        "cloud": ("w\n1\n0,1\n", ": header ['w'] declares no coordinates"),
        "plan": ("i,y1\n0\n1,2,3\n", ": expected header i,mass,y1,...; got ['i', 'y1']")},
    "no data rows": {"cloud": ("x1,w\n\n", ": no data rows"),
                     "plan": ("i,mass,y1\n \n", ": no data rows")},
    "blank lines skipped": {"cloud": ("x1,w\n\n0,0.5\n \n1,0.5\n\n", None),
                            "plan": ("i,mass,y1\n\n0,0.5,0\n \n0,0.5,1\n\n", None)},
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
@pytest.mark.parametrize("loader", ["cloud", "plan"])
def test_csv_loaders_share_reader_errors(tmp_path, case, loader):
    text, error = CSV_CASES[case][loader]
    path = tmp_path / "in.csv"
    path.write_text(text)
    load = pm.PointCloud.load_csv if loader == "cloud" else pm.EmbeddingPlan.load_csv
    if error is None:
        got = load(path)
        assert (got.points if loader == "cloud" else got.row_atoms[0]).tolist() == [[0.0], [1.0]]
        return
    with pytest.raises(pm.InputError) as info:
        load(path)
    assert str(info.value) == f"{path}{error}"


def test_plan_merges_duplicate_atoms():
    plan = pm.EmbeddingPlan([
        (np.array([0.5, 0.25, 0.25]),
         np.array([[1.0], [1.0 + 1e-14], [2.0]])),
    ])
    assert len(plan.row_masses[0]) == 2
    assert abs(plan.row_weight(0) - 1.0) < 1e-12


def test_plan_rejects_bad_total_mass():
    with pytest.raises(pm.InputError):
        pm.EmbeddingPlan([(np.array([0.7]), np.array([[0.0]]))])


def test_plan_rejects_nan_mass():
    with pytest.raises(pm.InputError):
        pm.EmbeddingPlan([(np.array([0.5, np.nan]), np.array([[0.0], [1.0]])),
                          (np.array([0.5]), np.array([[2.0]]))])


def test_plan_from_flat_matches_rows():
    mass = np.array([0.1, 0.2, 0.3, 0.4])
    atoms = np.random.default_rng(3).normal(size=(4, 2))
    atoms[1] = atoms[0] + 1e-14   # merged where the two atoms share a row
    for counts in ([1, 1, 1, 1], [2, 1, 1]):
        ends = np.cumsum(counts)
        rows = [(mass[a:b], atoms[a:b]) for a, b in zip(ends - counts, ends)]
        got, want = pm.EmbeddingPlan.from_flat(counts, mass, atoms), pm.EmbeddingPlan(rows)
        for a, b in zip(got.flat(), want.flat()):
            assert a.tobytes() == b.tobytes()
        assert [q.tolist() for q in got.row_masses] == [q.tolist() for q in want.row_masses]
        assert all(not q.flags.writeable for q in got.row_atoms)
    with pytest.raises(pm.InputError):
        pm.EmbeddingPlan.from_flat([1, 1], [0.5, 0.5], [[0.0], [np.inf]])
    with pytest.raises(pm.InputError):
        pm.EmbeddingPlan.from_flat([1, 1], [0.5, 0.5], [[0.0]])
    with pytest.raises(pm.InputError):
        pm.EmbeddingPlan.from_flat([1, 1], [0.5, 0.25], [[0.0], [1.0]])


def test_plan_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    plan = pm.EmbeddingPlan([
        (np.array([0.25, 0.25]), rng.normal(size=(2, 2))),
        (np.array([0.5]), rng.normal(size=(1, 2))),
    ])
    path = tmp_path / "plan.csv"
    plan.save_csv(path)
    loaded = pm.EmbeddingPlan.load_csv(path)
    assert loaded.n_rows == plan.n_rows
    for a, b in zip(loaded.row_atoms, plan.row_atoms):
        assert np.allclose(a, b, atol=0)


def test_plan_csv_requires_contiguous_indices(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("i,mass,y1\n0,0.5,1\n2,0.5,2\n")
    with pytest.raises(pm.InputError):
        pm.EmbeddingPlan.load_csv(path)


def test_perturbation_rows_must_balance():
    with pytest.raises(pm.InputError):
        pm.Perturbation({0: ([0.1, -0.05], np.array([[1.0], [0.0]]))})


def test_evaluate_cost_examples():
    qmds = pm.QMDS()
    assert pm.evaluate_cost(qmds, [0.0], [1.0], [0.0], [1.0]) == 0.0
    assert pm.evaluate_cost(qmds, [0.0], [1.0], [0.0], [0.0]) == 1.0
    qip = pm.QuadraticIP()
    assert pm.evaluate_cost(qip, [1, 0], [1, 0], [1.0], [1.0]) == 0.0
    elastic = pm.Elastic(sigma=1.0, beta=1.0)
    # x = x': first term t * 1, second term 0
    assert pm.evaluate_cost(elastic, [0.0], [0.0], [1.0], [-1.0]) == pytest.approx(4.0)


def test_evaluate_cost_dimension_mismatch():
    with pytest.raises(pm.InputError):
        pm.evaluate_cost(pm.QMDS(), [0.0], [1.0, 2.0], [0.0], [1.0])


def test_profile_derivatives_examples():
    qmds = pm.QMDS()
    assert pm.profile_derivatives(qmds, [0.0], [1.0], 1.0) == (0.0, 0.0, 2.0)
    assert pm.profile_derivatives(qmds, [0.0], [1.0], 0.0) == (1.0, -2.0, 2.0)
    qip = pm.QuadraticIP()
    assert pm.profile_derivatives(qip, [1.0, 0.0], [0.0, 1.0], 0.0) == (0.0, 0.0, 2.0)


def test_profile_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    for cost in all_costs():
        for _ in range(25):
            x = rng.normal(size=2)
            xp = rng.normal(size=2)
            t = float(rng.uniform(0.05, 4.0))
            v, d1, d2 = pm.profile_derivatives(cost, x, xp, t)
            vp = pm.profile_derivatives(cost, x, xp, t + h)[0]
            vm = pm.profile_derivatives(cost, x, xp, t - h)[0]
            assert d1 == pytest.approx((vp - vm) / (2 * h), abs=1e-5)
            # central second difference; roundoff scales with |v| / h^2
            tol = 1e-4 * (1.0 + abs(v))
            assert d2 == pytest.approx((vp - 2 * v + vm) / h**2, abs=tol)


def test_squared_distances_in_difference_form():
    rng = np.random.default_rng(12)
    Y = rng.normal(size=(40, 3)) * 5.0
    for cost in (pm.QMDS(), pm.QSammon(), pm.Elastic()):
        assert np.all(np.diag(cost.t_matrix(Y, Y)) == 0.0)
        assert np.all(np.diag(cost.base_matrix(Y, Y)) == 0.0)
    # near-coincident atoms far from the origin: the expansion
    # |y|^2 + |y'|^2 - 2<y, y'> would leave rounding of size 1e12 * eps
    Y = 1e6 + rng.normal(size=(25, 2))
    Z = Y + 1e-7 * rng.normal(size=Y.shape)
    want = np.sum((Y[:, None, :] - Z[None, :, :]) ** 2, axis=-1)
    np.testing.assert_allclose(pm.QMDS().t_matrix(Y, Z), want, rtol=1e-15, atol=0.0)


def test_cost_symmetry_random_tuples():
    rng = np.random.default_rng(3)
    for cost in all_costs():
        for _ in range(200):
            x, xp = rng.normal(size=2), rng.normal(size=2)
            y, yp = rng.normal(size=3), rng.normal(size=3)
            assert pm.evaluate_cost(cost, x, xp, y, yp) == pm.evaluate_cost(cost, xp, x, yp, y)


def test_unique_min_at_zero_flagged_costs():
    rng = np.random.default_rng(4)
    grid = np.arange(0.0, 10.0001, 0.01)
    for cost in all_costs():
        if cost.kind != "N2":
            continue
        for _ in range(5):
            x = rng.normal(size=2)
            a = cost.base(x, x)
            vals = cost.profile(a, grid)
            assert int(np.argmin(vals)) == 0
            assert (vals[1:] > vals[0]).all()


def test_convex_in_t_flagged_costs():
    rng = np.random.default_rng(5)
    for cost in all_costs():
        if cost.quadratic_scale is None:
            continue
        for _ in range(50):
            x, xp = rng.normal(size=2), rng.normal(size=2)
            t = float(rng.uniform(0, 5))
            assert pm.profile_derivatives(cost, x, xp, t)[2] >= 0.0


def test_elastic_not_convex_at_coincident_inputs():
    # second derivative beta*a*exp(-t) vanishes when x = x'
    elastic = pm.Elastic()
    assert pm.profile_derivatives(elastic, [1.0, 2.0], [1.0, 2.0], 0.3)[2] == 0.0


def test_center_plan_examples():
    single = pm.EmbeddingPlan([(np.array([1.0]), np.array([[3.0, -1.0]]))])
    centered = pm.center_plan(single)
    assert np.allclose(centered.row_atoms[0], 0.0, atol=1e-15)

    sym = pm.EmbeddingPlan([(np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]))])
    out = pm.center_plan(sym)
    assert np.allclose(np.sort(out.row_atoms[0].ravel()), [-1.0, 1.0])

    skew = pm.EmbeddingPlan([(np.array([0.25, 0.75]), np.array([[0.0], [4.0]]))])
    out = pm.center_plan(skew)
    assert np.allclose(np.sort(out.row_atoms[0].ravel()), [-3.0, 1.0])
    assert abs(out.barycenter()[0]) < 1e-12


def test_center_plan_preserves_n2_energy():
    rng = np.random.default_rng(6)
    cloud = pm.PointCloud(rng.normal(size=(5, 2)))
    rows = [(np.array([w]), rng.normal(size=(1, 2))) for w in cloud.weights]
    plan = pm.EmbeddingPlan(rows)
    for cost in (pm.QMDS(), pm.QSammon(), pm.Elastic()):
        a = pm.stress_plan(plan, cloud, cost)
        b = pm.stress_plan(pm.center_plan(plan), cloud, cost)
        assert b == pytest.approx(a, rel=1e-12)


def test_plan_from_map():
    cloud = pm.PointCloud([[0.0], [1.0]], [0.3, 0.7])
    mapping = pm.DeterministicMap([[5.0], [-5.0]])
    plan = pm.plan_from_map(cloud, mapping)
    assert plan.n_rows == 2
    assert all(len(m) == 1 for m in plan.row_masses)
    assert plan.row_masses[0][0] == pytest.approx(0.3)
    with pytest.raises(pm.InputError):
        pm.plan_from_map(cloud, pm.DeterministicMap([[1.0]]))


def test_make_cost():
    assert isinstance(pm.make_cost("qmds"), pm.QMDS)
    assert isinstance(pm.make_cost("kernel-ip", kernel="polynomial"), pm.KernelIP)
    with pytest.raises(pm.InputError):
        pm.make_cost("nope")


def test_merge_tolerance_is_max_norm():
    atoms = np.array([[0.0, 0.0], [MERGE_TOL / 2, 0.0], [0.0, 10 * MERGE_TOL]])
    plan = pm.EmbeddingPlan([(np.array([0.4, 0.4, 0.2]), atoms)])
    assert len(plan.row_masses[0]) == 2


def test_merge_row_adds_repeated_atoms_in_input_order():
    # exact repeats interleave with distinct atoms within MERGE_TOL of an earlier one;
    # masses of many magnitudes make the sums depend on the order they are added in
    rng = np.random.default_rng(11)
    for _ in range(40):
        base = rng.normal(size=(3, 2))
        near = base + rng.uniform(-0.5, 0.5, size=base.shape) * MERGE_TOL
        atoms = np.concatenate([base, near])[rng.integers(6, size=30)]
        masses = rng.uniform(size=30) * 10.0 ** rng.integers(-8, 1, size=30)
        got, want = _merge_row(masses, atoms), reference_merge_row(masses, atoms, MERGE_TOL)
        assert len(want[0]) < 6
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
