"""Differential tests: every dist <= r test against the per-pair Fraction rule.

``within_mask`` decides dist(x, y) <= r for all pairs at once.  The reference
below is the per-pair rule it replaced, kept here verbatim; each consumer of
the mask is compared against a plain loop over that rule.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from banddim.cover import brick_cover, make_cover, verify_cover
from banddim.extract import (CornerData, CornerSystem, OperatorImages,
                             PartialTranslationSystem, decompose_neighbors,
                             extract_cover)
from banddim.operators import BandOperator
from banddim.space import (FLOAT_TOL, FiniteMetricSpace, enlarge, generate_space,
                           ulf_profile)
from banddim.witness import build_upper_witness

from conftest import DIFF


def within_ref(space, i, j, radius):
    """The per-pair rule: exact Fraction comparison, or doubles within 1e-12."""
    if space.exact:
        return Fraction(int(space.dist_int[i, j])) * space.spacing <= Fraction(radius)
    return space.distances(i, j) <= float(radius) + FLOAT_TOL


SPACINGS = st.one_of(
    st.sampled_from([1, Fraction(1, 3), 0.1, Fraction(5, 2), Fraction(2, 7)]),
    st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=12))


@st.composite
def exact_spaces(draw):
    spacing = draw(SPACINGS)
    if draw(st.booleans()):
        return generate_space("interval", length=draw(st.integers(1, 12)),
                              spacing=spacing)
    sides = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    return generate_space("grid", sides=sides, metric=draw(st.sampled_from(["l1", "linf"])),
                          spacing=spacing)


@st.composite
def loaded_spaces(draw):
    """Double-mode spaces: a generated matrix without its integer form, or
    points on a line at drawn float coordinates."""
    if draw(st.booleans()):
        sp = draw(exact_spaces())
        return FiniteMetricSpace(sp.points, sp.distances())
    xs = draw(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=10,
                       unique=True))
    x = np.array(xs)
    return FiniteMetricSpace(range(len(xs)), np.abs(x[:, None] - x[None, :]),
                             validate=False)


SPACES = st.one_of(exact_spaces(), loaded_spaces())


@st.composite
def space_and_radius(draw):
    """A space and a radius.  Most radii tie with the distance of a drawn
    pair, given exactly, as a float, one ulp to either side, or slightly off;
    the rest are arbitrary floats and fractions."""
    sp = draw(SPACES)
    i, j = draw(st.integers(0, sp.n - 1)), draw(st.integers(0, sp.n - 1))
    k = draw(st.integers(0, 3))
    if sp.exact:
        tie = Fraction(int(sp.dist_int[i, j]) + k) * sp.spacing
    else:
        tie = Fraction(float(sp.distances(i, j)))
    near = float(tie)
    radius = draw(st.one_of(
        st.sampled_from([tie, near, float(np.nextafter(near, -np.inf)),
                         float(np.nextafter(near, np.inf)), near - 1e-7, near + 1e-13]),
        st.floats(0, 12, allow_nan=False),
        st.fractions(0, 12, max_denominator=20)))
    return sp, max(radius, 0)


def ref_matrix(sp, radius):
    return np.array([[within_ref(sp, i, j, radius) for j in range(sp.n)]
                     for i in range(sp.n)], dtype=bool)


@DIFF
@given(space_and_radius())
def test_within_mask_matches_pair_rule(case):
    sp, radius = case
    assert np.array_equal(sp.within_mask(radius), ref_matrix(sp, radius))


@DIFF
@given(space_and_radius())
def test_neighbor_pairs_and_ball_profile(case):
    sp, radius = case
    pairs = [(x, y) for x in range(sp.n) for y in range(sp.n)
             if within_ref(sp, x, y, radius)]
    ball = max(sum(1 for y in range(sp.n) if within_ref(sp, x, y, radius))
               for x in range(sp.n))
    dec = decompose_neighbors(sp, radius)
    assert dec.pairs == pairs
    assert sorted(p for part in dec.parts for p in part) == pairs
    assert dec.max_ball == ball == ulf_profile(sp, [radius])[radius]


@DIFF
@given(space_and_radius(), st.data())
def test_enlarge_matches_pair_rule(case, data):
    sp, radius = case
    subset = data.draw(st.sets(st.integers(0, sp.n - 1), max_size=4))
    expected = {x for x in range(sp.n)
                if any(within_ref(sp, x, u, radius) for u in subset)}
    assert enlarge(sp, subset, radius) == expected


def random_families(data, n, colors):
    """Partition of range(n) into up to ``colors`` families of point sets."""
    labels = data.draw(st.lists(st.integers(0, 3 * colors - 1), min_size=n, max_size=n))
    families = [[] for _ in range(colors)]
    for key in sorted(set(labels)):
        families[key % colors].append({x for x in range(n) if labels[x] == key})
    return [fam for fam in families if fam]


@DIFF
@given(space_and_radius(), st.data())
def test_cover_separation_matches_pair_rule(case, data):
    sp, radius = case
    cover = make_cover(sp, random_families(data, sp.n, 2), radius)
    expected = [not any(within_ref(sp, x, y, radius)
                        for a in range(len(fam)) for b in range(a + 1, len(fam))
                        for x in fam[a] for y in fam[b])
                for fam in cover.families]
    assert verify_cover(cover, sp, radius).separation_ok == expected


def chain_classes_ref(sp, pool, radius):
    """r-chain classes of a pool by repeated merging over the pair rule."""
    classes = [{x} for x in pool]
    merged = True
    while merged:
        merged = False
        for a in range(len(classes)):
            for b in range(a + 1, len(classes)):
                if any(within_ref(sp, x, y, radius)
                       for x in classes[a] for y in classes[b]):
                    classes[a] |= classes.pop(b)
                    merged = True
                    break
            if merged:
                break
    return sorted((frozenset(c) for c in classes), key=sorted)


@DIFF
@given(space_and_radius(), st.data())
def test_extract_cover_classes_match_pair_rule(case, data):
    """extract_cover on a translation system whose U-sets are drawn directly:
    one corner per color, each U-set one class of a random partition."""
    sp, radius = case
    families = random_families(data, sp.n, data.draw(st.integers(1, 3)))
    zero = BandOperator.zero(sp, 1)
    corners = []
    for color, fam in enumerate(families):
        corner = CornerData(color, 0, color, tuple(range(len(fam))))
        U = {k: tuple(sorted(s)) for k, s in enumerate(fam)}
        f_img = {(k, k): zero for k in U}
        corners.append(CornerSystem(corner, OperatorImages(f_img, {}, len(U)), U))
    pts = PartialTranslationSystem(corners, 0.0, 0.0)
    ec = extract_cover(pts, sp, radius)
    expected = [chain_classes_ref(sp, sorted(set().union(*fam)), radius)
                for fam in families]
    assert ec.cover.families == expected


@st.composite
def brick_witness_inputs(draw):
    """A generated box with a brick cover at scale 3r and its integer r."""
    r = draw(st.integers(1, 2))
    spacing = draw(st.sampled_from([1, Fraction(1, 2), Fraction(2, 3), 2]))
    r_units = 3 * r / spacing
    if draw(st.booleans()):
        side = int(2 * r_units) + draw(st.integers(1, 4))
        sp = generate_space("interval", length=draw(st.integers(1, 3 * side)),
                            spacing=spacing)
    else:
        m = int((r_units - 1) // 2) + 1
        side = 6 * m + draw(st.integers(0, 3))
        sp = generate_space("grid", sides=[draw(st.integers(1, 8)), draw(st.integers(1, 8))],
                            metric=draw(st.sampled_from(["l1", "linf"])), spacing=spacing)
    return sp, brick_cover(sp, 3 * r, side * spacing), r


@settings(max_examples=30, deadline=None, derandomize=True)
@given(brick_witness_inputs())
def test_witness_partition_counts_match_pair_rule(case):
    """Windows and h coefficients of the built witness from the counts
    c_U(x) = |{m in 1..r : dist(x, U) <= m}| evaluated pair by pair."""
    sp, cover, r = case
    witness = build_upper_witness(sp, cover, r, 1, test_set=[], epsilon=1.0)
    counts = [[np.array([sum(1 for m in range(1, r + 1)
                             if any(within_ref(sp, x, u, m) for u in U))
                         for x in range(sp.n)], dtype=np.int64) for U in fam]
              for fam in cover.families]
    color_counts = [sum(cs) for cs in counts]
    grand = sum(color_counts)
    windows = [tuple(int(x) for x in np.nonzero(c)[0]) for cs in counts for c in cs]
    assert witness.psi.windows == windows
    for k, color in enumerate(c for c, cs in enumerate(counts) for _ in cs):
        h = np.sqrt(color_counts[color] / grand)
        got = witness.psi.coefficients[k].blocks
        assert {x: b[0, 0].real for (x, _), b in got.items()} == \
            {x: h[x] for x in range(sp.n) if h[x] > 0}
