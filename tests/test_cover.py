import math

import numpy as np
import pytest

from banddim.cover import (brick_cover, load_cover, make_cover, min_colors_search,
                           save_cover, verify_cover)
from banddim.errors import InvalidParameterError, SizeLimitError
from banddim.space import generate_space


def exhaustive_pair_check(space, cover, r):
    """Oracle: brute-force coverage and same-color separation."""
    union = set()
    for fam in cover.families:
        for s in fam:
            union |= s
    if union != set(range(space.n)):
        return False
    for fam in cover.families:
        for a in range(len(fam)):
            for b in range(a + 1, len(fam)):
                for x in fam[a]:
                    for y in fam[b]:
                        if space.distances(x, y) <= r + 1e-12:
                            return False
    return True


def test_interval_brick_cover_alternates():
    sp = generate_space("interval", length=60)
    cover = brick_cover(sp, 5, 20)
    assert cover.colors == 2
    # alternating length-20 intervals
    assert sorted(len(s) for fam in cover.families for s in fam) == [20, 20, 20]
    report = verify_cover(cover, sp, 5)
    assert report.passed and exhaustive_pair_check(sp, cover, 5)


def test_single_brick_single_color():
    sp = generate_space("interval", length=20)
    cover = brick_cover(sp, 5, 20)
    assert cover.colors == 1
    assert verify_cover(cover, sp, 5).passed


def test_2d_brick_cover_three_colors():
    sp = generate_space("grid", sides=[12, 12], metric="linf")
    cover = brick_cover(sp, 2, 6)
    assert cover.colors <= 3
    assert verify_cover(cover, sp, 2).passed
    assert exhaustive_pair_check(sp, cover, 2)


def test_brick_cover_side_too_small():
    sp = generate_space("interval", length=30)
    with pytest.raises(InvalidParameterError):
        brick_cover(sp, 5, 10)
    with pytest.raises(InvalidParameterError):
        brick_cover(sp, 5, 9)


def test_brick_cover_requires_generated_space():
    import json
    sp = generate_space("interval", length=4)
    from banddim.space import FiniteMetricSpace
    plain = FiniteMetricSpace(sp.points, sp.distances())
    with pytest.raises(InvalidParameterError):
        brick_cover(plain, 1, 3)


def test_brick_cover_randomized_parameters():
    rng = np.random.default_rng(5)
    for _ in range(12):
        length = int(rng.integers(20, 80))
        r = int(rng.integers(1, 6))
        side = int(rng.integers(2 * r + 1, 4 * r + 8))
        sp = generate_space("interval", length=length)
        cover = brick_cover(sp, r, side)
        assert cover.colors <= 2
        assert verify_cover(cover, sp, r).passed
    for sides, r in (([8, 8], 1), ([10, 7], 2), ([9, 9], 1)):
        sp = generate_space("grid", sides=sides, metric="linf")
        margin = (r - 1) // 2 + 1
        side = int(rng.integers(2 * margin * 3, 2 * margin * 3 + 6))
        cover = brick_cover(sp, r, side)
        assert cover.colors <= 3
        assert verify_cover(cover, sp, r).passed


def test_verify_cover_whole_space():
    sp = generate_space("interval", length=9)
    cover = make_cover(sp, [[set(range(9))]], 4)
    report = verify_cover(cover, sp, 4)
    assert report.covers and report.passed
    assert math.isinf(report.color_gaps[0])
    assert report.colors == 1


def test_verify_cover_detects_close_sets():
    sp = generate_space("interval", length=12)
    cover = make_cover(sp, [[{0, 1, 2}, {5, 6, 7}], [{3, 4}, {8, 9, 10, 11}]], 5)
    report = verify_cover(cover, sp, 5)
    assert report.covers
    assert not report.separation_ok[0]  # gap 3 <= 5
    assert report.color_gaps[0] == 3.0
    assert not report.passed


def test_verify_cover_separation_tie_fails():
    sp = generate_space("interval", length=10)
    cover = make_cover(sp, [[{0, 1}, {4, 5, 6, 7, 8, 9}], [{2, 3}]], 3)
    report = verify_cover(cover, sp, 3)
    assert report.color_gaps[0] == 3.0
    assert not report.separation_ok[0]  # separation is strict


def test_min_colors_single_point():
    sp = generate_space("interval", length=1)
    d_min, cover = min_colors_search(sp, 3, 3, 4)
    assert d_min == 0
    assert verify_cover(cover, sp, 3).passed


def test_min_colors_interval12():
    sp = generate_space("interval", length=12)
    d_min, cover = min_colors_search(sp, 3, 3, 4)
    assert d_min == 1
    assert verify_cover(cover, sp, 3).passed
    assert cover.diam_bound_R <= 3

    d_min0, cover0 = min_colors_search(sp, 3, 30, 4)
    assert d_min0 == 0


def test_min_colors_exact_below_greedy():
    rng = np.random.default_rng(9)
    for _ in range(6):
        length = int(rng.integers(4, 14))
        r = int(rng.integers(1, 4))
        R = int(rng.integers(r, 3 * r + 2))
        sp = generate_space("interval", length=length)
        exact = min_colors_search(sp, r, R, 6)
        greedy = min_colors_search(sp, r, R, 6, mode="greedy")
        assert exact is not None and greedy is not None
        assert exact[0] <= greedy[0]
        assert verify_cover(exact[1], sp, r).passed
        assert verify_cover(greedy[1], sp, r).passed


def test_min_colors_size_cap():
    sp = generate_space("interval", length=65)
    with pytest.raises(SizeLimitError):
        min_colors_search(sp, 2, 5, 3)
    assert min_colors_search(sp, 2, 5, 4, mode="greedy") is not None


def test_cover_json_round_trip(tmp_path):
    sp = generate_space("grid", sides=[6, 6], metric="linf")
    cover = brick_cover(sp, 1, 6)
    path = tmp_path / "cover.json"
    save_cover(cover, sp, path)
    back = load_cover(path, sp)
    assert back.scale_r == cover.scale_r
    assert [[sorted(s) for s in fam] for fam in back.families] == \
           [[sorted(s) for s in fam] for fam in cover.families]


def test_min_colors_on_grid():
    sp = generate_space("grid", sides=[3, 3], metric="linf")
    whole = min_colors_search(sp, 1, 8, 4)
    assert whole[0] == 0  # diameter bound above the space diameter
    exact = min_colors_search(sp, 1, 2, 6)
    greedy = min_colors_search(sp, 1, 2, 6, mode="greedy")
    assert exact is not None and exact[0] <= greedy[0]
    assert verify_cover(exact[1], sp, 1).passed
