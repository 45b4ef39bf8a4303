from fractions import Fraction

import numpy as np
import pytest

from banddim.cover import verify_cover
from banddim.cpmaps import BandAlgebra, CompressionMap, SandwichedMap
from banddim.errors import (AmbiguousSupportError, CoverGapError, DiagonalViolationError,
                            InvalidWitnessError)
from banddim.extract import (IDENTITY_NAMES, CornerData, CornerSystem, _diagonal_columns,
                             _verify_translation_system, assemble_translation_system,
                             build_translation_system, decompose_neighbors,
                             extract_cover, matrix_unit_identities,
                             threshold_constants, threshold_setup)
from banddim.fdalg import FiniteDimAlgebra, Summand
from banddim.operators import BandOperator, spectral_norm
from banddim.space import generate_space, ulf_profile
from banddim.witness import DiagDimWitness

from test_witness import interval_witness, single_point_witness


# -- edge decomposition -----------------------------------------------------

def test_decompose_r_zero():
    sp = generate_space("interval", length=6)
    dec = decompose_neighbors(sp, 0)
    assert dec.M == 1
    assert dec.parts[0] == [(x, x) for x in range(6)]
    assert np.allclose(dec.operators[0].to_dense(), np.eye(6))


def test_decompose_interval5():
    sp = generate_space("interval", length=5)
    dec = decompose_neighbors(sp, 1)
    assert dec.M == 3
    assert dec.max_ball == 3
    for part in dec.parts:
        firsts = [p[0] for p in part]
        seconds = [p[1] for p in part]
        assert len(set(firsts)) == len(firsts)
        assert len(set(seconds)) == len(seconds)
    assert sorted(p for part in dec.parts for p in part) == \
        sorted((x, y) for x in range(5) for y in range(5) if abs(x - y) <= 1)


def test_decompose_grid():
    sp = generate_space("grid", sides=[4, 4], metric="l1")
    dec = decompose_neighbors(sp, 1)
    assert dec.M <= 9
    for part in dec.parts:
        firsts = [p[0] for p in part]
        seconds = [p[1] for p in part]
        assert len(set(firsts)) == len(firsts)
        assert len(set(seconds)) == len(seconds)


def test_decompose_bound_randomized():
    rng = np.random.default_rng(21)
    for _ in range(8):
        family = rng.choice(["interval", "grid"])
        if family == "interval":
            sp = generate_space("interval", length=int(rng.integers(4, 25)))
        else:
            sp = generate_space("grid", sides=[int(rng.integers(2, 5)),
                                               int(rng.integers(2, 5))],
                                metric=str(rng.choice(["l1", "linf"])))
        r = int(rng.integers(0, 4))
        dec = decompose_neighbors(sp, r)
        n_ball = ulf_profile(sp, [r])[r]
        assert dec.M <= 2 * n_ball - 1


# -- thresholding -------------------------------------------------------------

def test_threshold_constants_exact():
    delta, eta, eps = threshold_constants(0)
    assert delta == Fraction(1, 128)
    assert eta == Fraction(1, 8)
    assert eps == Fraction(1, 2 ** 23)
    delta, eta, _ = threshold_constants(1)
    assert delta == Fraction(1, 512)
    assert eta == Fraction(1, 16)


def synthetic_witness(slot_values):
    """One-summand witness whose psi(1) has the given diagonal slot values."""
    sp = generate_space("interval", length=len(slot_values))
    band = BandAlgebra(sp, 1)
    alg = FiniteDimAlgebra([Summand(0, "s", len(slot_values))], 1)
    coeff = BandOperator.diagonal(sp, 1, {x: np.sqrt(v)
                                          for x, v in enumerate(slot_values)})
    psi = CompressionMap(band, alg, [tuple(range(len(slot_values)))], [coeff])
    from banddim.cpmaps import InclusionMap
    phi = InclusionMap(alg, band, [tuple(range(len(slot_values)))])
    return DiagDimWitness(d=0, algebra=alg, band=band, psi=psi, phi=phi,
                          test_set=[BandOperator.identity(sp, 1)], epsilon=1.0)


def test_threshold_selects_strictly_above_delta():
    delta = float(Fraction(1, 128))
    w = synthetic_witness([0.9, delta / 2, delta])
    td = threshold_setup(w)
    # only the 0.9 slot survives the half-open cut; delta itself is excluded
    assert len(td.corners) == 1
    assert td.corners[0].kept_slots == (0,)


def test_threshold_requires_diagonal_psi1():
    w = interval_witness(length=12, r=1, side=4)
    off = w.algebra.matrix_unit(0, 0, 1)

    class _Shifted:
        domain = w.psi.domain
        codomain = w.psi.codomain

        def apply(self, x):
            return w.psi.apply(x) + off

    import dataclasses
    bad = dataclasses.replace(w, psi=_Shifted())
    with pytest.raises(DiagonalViolationError):
        threshold_setup(bad)


def test_threshold_on_reference_witness(witness150):
    td = threshold_setup(witness150)
    # every enlarged-block slot carries weight at least 1/10 > delta, so the
    # kept slots are exactly the 5-enlarged bricks: [0,34], [55,94],
    # [115,149] for color 0 and [25,64], [85,124] for color 1
    sizes = sorted(c.s for c in td.corners)
    assert sizes == [35, 35, 40, 40, 40]
    assert td.s_max == 40


# -- translation system ---------------------------------------------------------

def test_single_point_translation_system():
    w = single_point_witness(fiber=1)
    td = threshold_setup(w)
    pts = build_translation_system(w, td)
    assert len(pts.corners) == 1
    cs = pts.corners[0]
    assert cs.U == {0: {0: (0,)}}
    ec = extract_cover(pts, w.space, 1)
    assert ec.S == 1 and ec.passed


def test_reference_witness_identities(pts150):
    td, pts = pts150
    report = matrix_unit_identities(pts, tol=1e-8)
    assert report.flag
    assert report.worst <= 1e-8


def test_adjoint_identity_via_dense_oracle(pts150):
    _, pts = pts150
    cs = pts.corners[0]
    for (k, l) in [(0, 1), (2, 5), (7, 3)]:
        lhs = cs.images.f_image(k, l).adjoint().to_dense()
        rhs = cs.images.f_image(l, k).to_dense()
        assert np.abs(lhs - rhs).max() <= 1e-8


def test_absorption_identity_via_dense_oracle(pts150):
    _, pts = pts150
    cs = pts.corners[1]
    for (k, l, m) in [(0, 1, 2), (3, 3, 3), (5, 2, 7)]:
        lhs = cs.images.f_image(k, l).to_dense() @ cs.images.g_image(l, m).to_dense()
        rhs = cs.images.f_image(k, m).to_dense()
        assert np.abs(lhs - rhs).max() <= 1e-8


def test_sigma_bar_round_trip(pts150):
    _, pts = pts150
    for cs in pts.corners:
        s = cs.corner.s
        for k in range(s):
            for l in range(0, s, 7):
                for x, ys in cs.U[k].items():
                    assert cs.U[l][ys[l]][k] == x


def test_sigma_bar_conjugate_supported_in_single_point(pts150):
    _, pts = pts150
    cs = pts.corners[0]
    from banddim.extract import _column_compression
    x = next(iter(cs.U[3]))
    img = cs.images
    xi = img.g_image(8, 3) @ _column_compression(img.f_image(3, 3), x) @ img.g_image(3, 8)
    diag_pts = {u for (u, v) in xi.blocks}
    assert len(diag_pts) == 1
    assert diag_pts == {cs.U[3][x][8]}


def test_extract_reference_cover(witness150, pts150):
    _, pts = pts150
    ec = extract_cover(pts, witness150.space, 5)
    assert ec.cover.colors <= 2
    assert ec.cover_report.passed
    assert ec.S <= ec.s_max
    assert not ec.coverage_violations
    # independent exhaustive verification at scale 5
    again = verify_cover(ec.cover, witness150.space, 5)
    assert again.passed


def test_degraded_witness_raises_cover_gap():
    w = interval_witness(length=30, r=2, side=10)
    shrunk = DiagDimWitness(
        d=w.d, algebra=w.algebra, band=w.band,
        psi=SandwichedMap(w.psi, scale=1e-4), phi=w.phi,
        test_set=w.test_set, epsilon=2.0, meta=dict(w.meta))
    td = threshold_setup(shrunk)
    assert not td.corners  # every slot falls below delta
    pts = build_translation_system(shrunk, td)
    with pytest.raises(CoverGapError):
        extract_cover(pts, w.space, 2)


def test_ambiguous_support_raises():
    from banddim.errors import AmbiguousSupportError
    from test_witness import _ConjugatedPhi
    import dataclasses
    import math as _math

    w = interval_witness(length=24, r=2, side=8)
    sp = w.space
    mix = np.array([[1.0, 1.0], [1.0, -1.0]]) / _math.sqrt(2.0)
    blocks = {(x, x): np.eye(1) for x in range(2, sp.n)}
    blocks[(0, 0)] = np.array([[mix[0, 0]]])
    blocks[(0, 1)] = np.array([[mix[0, 1]]])
    blocks[(1, 0)] = np.array([[mix[1, 0]]])
    blocks[(1, 1)] = np.array([[mix[1, 1]]])
    u = BandOperator(sp, 1, blocks)
    bad = dataclasses.replace(w, phi=_ConjugatedPhi(w.phi, u))
    td = threshold_setup(bad)
    with pytest.raises(AmbiguousSupportError) as err:
        build_translation_system(bad, td)
    assert err.value.indices is not None


class _StubImages:
    """Crafted answers to the queries extraction asks of a corner: every
    point of ``targets[k]`` carries norm 1 in the k-th diagonal image, the
    conjugate of (k, x) lands at ``targets[k][x][l]`` for each l, and every
    identity holds exactly."""

    def __init__(self, targets):
        self.targets = targets

    def diagonal_point_norms(self):
        return [[(x, 1.0) for x in row] for row in self.targets]

    def conjugate_targets(self, k, x):
        return list(self.targets[k][x])

    def identity_deviations(self):
        return dict.fromkeys(IDENTITY_NAMES, 0.0)


def stub_system(targets):
    """The translation system of one stub corner with s = len(targets), the
    corner j = 1 of color 2."""
    corner = CornerData(2, 1, 0, tuple(range(len(targets))))
    return assemble_translation_system([CornerSystem(corner, _StubImages(targets))],
                                       0.0, 0.5)


def test_stub_translation_system_verifies():
    # U_0 = (0, 3) and U_1 = (1, 2), swapped by sigma_bar_01 and sigma_bar_10
    pts = stub_system([{0: (0, 1), 3: (3, 2)}, {1: (0, 1), 2: (3, 2)}])
    assert [list(pts.corners[0].U[k]) for k in range(2)] == [[0, 3], [1, 2]]
    assert _verify_translation_system(pts, 1e-8).flag


@pytest.mark.parametrize("targets, message", [
    ([{0: (1,)}], "moves 0 to 1"),
    ([{0: (0, 5)}, {1: (0, 1)}], "lands outside U_1"),
    ([{0: (0, 1), 3: (3, 2)}, {1: (3, 1), 2: (0, 2)}], "round trip fails"),
    # sigma_bar_01 sends both points of U_0 to 1, which no round trip can
    # undo; the check that catches it is not pinned
    ([{0: (0, 1), 3: (3, 1)}, {1: (0, 1)}], None),
], ids=["diagonal-moves", "outside", "round-trip", "non-injective"])
def test_verify_translation_system_branches(targets, message):
    pts = stub_system(targets)
    with pytest.raises(InvalidWitnessError, match=message):
        _verify_translation_system(pts, 1e-8)


def test_assemble_names_ambiguous_conjugate():
    with pytest.raises(AmbiguousSupportError) as err:
        stub_system([{0: (0, 1)}, {1: (None, 1)}])
    assert err.value.indices == (2, 1, 1, 0, 1)


def test_round_trip_on_2d_grid():
    from banddim.cover import brick_cover
    from banddim.witness import build_upper_witness, check_witness

    sp = generate_space("grid", sides=[6, 6], metric="linf")
    cover = brick_cover(sp, 3, 12)  # separation certified at 3r for r = 1
    w = build_upper_witness(sp, cover, 1, 1)
    assert check_witness(w).structural_passed()
    td = threshold_setup(w)
    pts = build_translation_system(w, td)
    ec = extract_cover(pts, sp, 1)
    assert ec.cover_report.passed
    assert ec.cover.colors <= w.d + 1
    assert ec.S <= ec.s_max


def chained_diagonal_columns(pts, color):
    """Reference for the coverage columns: the color's diagonal f-images
    summed one ``BandOperator.__add__`` at a time."""
    total = None
    for cs in pts.corners:
        if cs.corner.color == color:
            for k in range(cs.corner.s):
                op = cs.images.f_image(k, k)
                total = op if total is None else total + op
    cols = {}
    for (u, x), b in total.blocks.items():
        cols.setdefault(x, []).append(b)
    return cols


def test_round_trip_property_over_small_pool():
    from conftest import SMALL_WITNESS_POOL, build_small_witness

    rng = np.random.default_rng(77)
    for idx in range(len(SMALL_WITNESS_POOL)):
        w = build_small_witness(idx, rng)
        td = threshold_setup(w)
        pts = build_translation_system(w, td)
        ec = extract_cover(pts, w.space, w.meta["r"])
        assert ec.cover_report.passed, idx
        assert ec.cover.colors <= w.d + 1, idx
        assert ec.S <= ec.s_max, idx

        colors = sorted({cs.corner.color for cs in pts.corners})
        covered = {x for cs in pts.corners for k in range(cs.corner.s) for x in cs.U[k]}
        mass = np.zeros(w.space.n)
        for color in colors:
            got = _diagonal_columns(pts, color)
            want = chained_diagonal_columns(pts, color)
            assert got.keys() == want.keys(), idx
            for x, blocks in want.items():
                assert len(got[x]) == len(blocks), idx
                assert all(np.array_equal(a, b) for a, b in zip(got[x], blocks)), idx
                mass[x] += spectral_norm(np.vstack(blocks))
        assert ec.coverage_violations == [
            w.space.points[x] for x in range(w.space.n)
            if mass[x] > 0.75 and x not in covered], idx


def test_pipeline_on_double_precision_space(tmp_path):
    """A space loaded without generator metadata runs the whole pipeline in
    double mode with 1e-12 comparisons."""
    import json
    from banddim.cover import make_cover
    from banddim.space import load_space
    from banddim.witness import build_upper_witness, check_witness

    n = 24
    doc = {"points": list(range(n)),
           "dist": [[float(abs(i - j)) for j in range(n)] for i in range(n)]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    sp = load_space(path)
    assert not sp.exact
    fams = [[frozenset(range(0, 8)), frozenset(range(16, 24))],
            [frozenset(range(8, 16))]]
    cover = make_cover(sp, fams, 2)
    w = build_upper_witness(sp, cover, 2, 1)
    assert check_witness(w).structural_passed()
    td = threshold_setup(w)
    pts = build_translation_system(w, td)
    ec = extract_cover(pts, sp, 2)
    assert ec.cover_report.passed and ec.S <= ec.s_max
