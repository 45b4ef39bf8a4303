import itertools
import json

import numpy as np
import pytest

from banddim.errors import InvalidParameterError
from banddim.space import (FiniteMetricSpace, enlarge, generate_space, load_space,
                           save_space, ulf_profile)


def brute_force_dist(points, metric):
    n = len(points)
    out = np.zeros((n, n))
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            diffs = [abs(a - b) for a, b in zip(p, q)]
            out[i, j] = sum(diffs) if metric == "l1" else max(diffs)
    return out


def test_interval_distances():
    sp = generate_space("interval", length=5)
    assert sp.points == [0, 1, 2, 3, 4]
    assert sp.distances(0, 4) == 4


def test_grid_l1_distance():
    sp = generate_space("grid", sides=[2, 2], metric="l1")
    assert sp.distances(sp.index((0, 0)), sp.index((1, 1))) == 2


def test_grid_linf_matches_brute_force():
    sp = generate_space("grid", sides=[3, 3], metric="linf")
    expected = brute_force_dist(sp.points, "linf")
    assert np.array_equal(sp.distances(), expected)
    assert sp.distances(sp.index((0, 0)), sp.index((2, 2))) == 2


def test_grid_l1_matches_brute_force():
    sp = generate_space("grid", sides=[4, 3], metric="l1")
    assert np.array_equal(sp.distances(), brute_force_dist(sp.points, "l1"))


def test_spacing_scales_distances():
    sp = generate_space("interval", length=4, spacing="1/2")
    assert sp.distances(0, 3) == 1.5
    assert sp.within_mask(1.5)[0, 3] and not sp.within_mask(1.4999999)[0, 3]


def test_zero_size_dimension_rejected():
    with pytest.raises(InvalidParameterError):
        generate_space("grid", sides=[3, 0])
    with pytest.raises(InvalidParameterError):
        generate_space("interval", length=0)
    with pytest.raises(InvalidParameterError):
        generate_space("interval", length=5, spacing=0)


@pytest.mark.parametrize("family, size, spacing", [
    ("interval", 5, "1e-400"), ("interval", 10, 1e308), ("interval", 3, 1e308),
    ("interval", 1, "1e400"), ("grid", [3, 3], 1e308)])
def test_spacing_outside_the_doubles_rejected(family, size, spacing):
    """A spacing that is 0 as a double, or whose largest distance overflows
    one, raises; at 1e-400 every distance used to read 0.0, and at 1e308
    the distances of 10 points were inf with a RuntimeWarning."""
    key = "length" if family == "interval" else "sides"
    with pytest.raises(InvalidParameterError, match="0 or past the largest double"):
        generate_space(family, **{key: size}, spacing=spacing)


def test_spacing_at_the_edges_of_the_doubles():
    """The largest distance may be the largest double's order, and the
    spacing the smallest subnormal."""
    assert generate_space("interval", length=2, spacing=1e308).diameter() == 1e308
    tiny = generate_space("interval", length=3, spacing="5e-324")
    assert tiny.diameter() == 2 * 5e-324 > 0


def brute_force_ball_max(sp, r):
    best = 0
    for i in range(sp.n):
        best = max(best, sum(1 for j in range(sp.n) if sp.distances(i, j) <= r + 1e-12))
    return best


def test_ulf_profile_values():
    sp = generate_space("interval", length=5)
    prof = ulf_profile(sp, [0, 1])
    assert prof[0] == 1
    assert prof[1] == 3 == brute_force_ball_max(sp, 1)

    grid = generate_space("grid", sides=[10, 10], metric="l1")
    prof = ulf_profile(grid, [1])
    assert prof[1] == 5 == brute_force_ball_max(grid, 1)


def test_ulf_profile_nondecreasing_and_relabel_invariant():
    sp = generate_space("grid", sides=[4, 4], metric="linf")
    radii = [0, 1, 2, 3]
    prof = ulf_profile(sp, radii)
    vals = [prof[r] for r in radii]
    assert vals == sorted(vals)
    assert prof[0] == 1

    rng = np.random.default_rng(3)
    perm = rng.permutation(sp.n)
    from banddim.space import FiniteMetricSpace
    shuffled = FiniteMetricSpace([sp.points[i] for i in perm],
                                 sp.distances(*np.ix_(perm, perm)))
    prof2 = ulf_profile(shuffled, radii)
    assert all(prof[r] == prof2[r] for r in radii)


def test_enlarge_examples():
    sp = generate_space("interval", length=20)
    assert sorted(enlarge(sp, {5}, 2)) == [3, 4, 5, 6, 7]
    assert enlarge(sp, set(), 3) == frozenset()

    grid = generate_space("grid", sides=[5, 5], metric="l1")
    seeds = {grid.index((0, 0)), grid.index((3, 0))}
    got = enlarge(grid, seeds, 1)
    expected = {j for j in range(grid.n)
                if min(grid.distances(j, i) for i in seeds) <= 1}
    assert got == expected


def test_enlarge_composition_contained():
    rng = np.random.default_rng(11)
    sp = generate_space("grid", sides=[6, 5], metric="linf")
    for _ in range(20):
        subset = {int(i) for i in rng.choice(sp.n, size=rng.integers(1, 5),
                                             replace=False)}
        r, s = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        twice = enlarge(sp, enlarge(sp, subset, r), s)
        once = enlarge(sp, subset, r + s)
        assert twice <= once


def test_triangle_inequality_on_generated_spaces():
    for sp in (generate_space("interval", length=30),
               generate_space("grid", sides=[5, 6], metric="l1"),
               generate_space("grid", sides=[4, 4, 3], metric="linf")):
        assert sp.n <= 200
        d = sp.distances()
        for i, j, k in itertools.product(range(sp.n), repeat=3):
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def test_json_round_trip(tmp_path):
    sp = generate_space("grid", sides=[3, 4], metric="l1")
    path = tmp_path / "space.json"
    save_space(sp, path)
    back = load_space(path)
    assert back.points == sp.points
    assert np.allclose(back.distances(), sp.distances())
    assert back.exact  # generator block restores the integer representation


def test_loader_validates_axioms(tmp_path):
    bad = {"points": [0, 1, 2], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidParameterError):
        load_space(path)  # 5 > 1 + 1 breaks the triangle inequality

    asym = {"points": [0, 1], "dist": [[0, 1], [2, 0]]}
    path.write_text(json.dumps(asym))
    with pytest.raises(InvalidParameterError):
        load_space(path)

    zero_diag = {"points": [0, 1], "dist": [[0, 0], [0, 0]]}
    path.write_text(json.dumps(zero_diag))
    with pytest.raises(InvalidParameterError):
        load_space(path)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_loader_rejects_non_finite_distances(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": [0, 1], "dist": [[0, bad], [bad, 0]]}))
    with pytest.raises(InvalidParameterError, match="non-finite"):
        load_space(path)


def test_generator_mismatch_still_validates(tmp_path):
    sp = generate_space("interval", length=3)
    path = tmp_path / "space.json"
    save_space(sp, path)
    doc = json.loads(path.read_text())
    doc["dist"] = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]  # 5 > 1 + 1, unlike the generator
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParameterError, match="triangle"):
        load_space(path)


def test_generator_of_another_size_is_not_regenerated(tmp_path, monkeypatch):
    import banddim.space

    calls = []
    real = banddim.space.generate_space
    monkeypatch.setattr(banddim.space, "generate_space",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "points": [0, 1], "dist": [[0, 1], [1, 0]],
        "generator": {"family": "interval", "sides": [3000], "metric": None,
                      "spacing": "1"}}))
    back = load_space(path)
    assert calls == []
    assert back.points == [0, 1] and not back.exact
    assert back.distances(0, 1) == 1.0


def test_generated_space_saved_by_generator(tmp_path):
    sp = generate_space("grid", sides=[3, 4], metric="linf", spacing="1/2")
    path = tmp_path / "space.json"
    save_space(sp, path)
    doc = json.loads(path.read_text())
    assert "dist" not in doc
    assert doc["generator"] == {"family": "grid", "sides": [3, 4], "metric": "linf",
                                "spacing": "1/2"}
    back = load_space(path)
    assert back.points == sp.points and back.spacing == sp.spacing
    assert np.array_equal(back.dist_int, sp.dist_int)
    assert np.array_equal(back.distances(), sp.distances())


def test_space_without_generator_saved_by_matrix(tmp_path):
    dist = [[0.0, 1.5, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]]
    sp = FiniteMetricSpace(["a", "b", "c"], dist)
    path = tmp_path / "space.json"
    save_space(sp, path)
    doc = json.loads(path.read_text())
    assert doc["dist"] == dist and "generator" not in doc
    back = load_space(path)
    assert back.points == sp.points and not back.exact
    assert np.array_equal(back.distances(), sp.distances())


@pytest.mark.parametrize("doc", [
    {"points": [0, 1]},
    {"points": [0, 1], "generator": {"family": "interval", "sides": [3],
                                     "metric": "linf", "spacing": "1"}},
    {"points": [0, 2, 1], "generator": {"family": "interval", "sides": [3],
                                        "metric": "linf", "spacing": "1"}},
])
def test_space_file_needs_matrix_or_matching_generator(tmp_path, doc):
    from banddim.cli import main
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidParameterError, match="no distance matrix"):
        load_space(path)
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"r": 1.0, "families": [[[0], [1]]]}))
    assert main(["cover", "check", "--space", str(path), "--cover", str(cover),
                 "--r", "1"]) == 3
