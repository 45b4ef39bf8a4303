"""Differential tests: the window reading of the translation system against
the operator path.

``WindowImages`` holds a corner of a map with ``image_of_unit`` as its
window W and the scalars f(1) and g(1), image (k, l) being that scalar times
the fiber identity at (W[k], W[l]); ``OperatorImages`` keeps one band
operator per matrix unit and is the reference.  Both are fed the same
images; the scalars include 0, a negative value and one off by 1e-6, so
that U-sets, conjugates and identities meet their edge cases.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import banddim.extract
from banddim.cpmaps import bump_function
from banddim.errors import AmbiguousSupportError, InvalidWitnessError
from banddim.extract import (CornerData, CornerSystem, OperatorImages, WindowImages,
                             _verify_translation_system, assemble_translation_system,
                             build_translation_system, matrix_unit_identities,
                             threshold_setup)
from banddim.operators import BandOperator
from banddim.space import generate_space

from conftest import DIFF, SMALL_WITNESS_POOL, WINDOW_ORDER_WITNESSES, build_small_witness

# eta = 0.5 puts |0.5|^2 = 1/4 exactly on the eta^2 threshold; a zero g(1)
# makes every conjugate vanish, and a negative or perturbed scalar breaks
# positivity or absorption.
SCALARS = [0.0, 0.5, 1.0, -1.0, 1.0 + 1e-6]


@st.composite
def window_systems(draw):
    """(space, fiber, window, f(1), g(1), eta)."""
    s = draw(st.integers(1, 6))
    m = draw(st.integers(1, 2))
    n = s + draw(st.integers(0, 3))
    window = tuple(draw(st.permutations(range(n)))[:s])
    f1 = draw(st.sampled_from(SCALARS))
    g1 = draw(st.sampled_from(SCALARS))
    eta = draw(st.sampled_from([0.5, 0.9]))
    return generate_space("interval", length=n), m, window, f1, g1, eta


def operator_images(space, m, window, f1, g1):
    """The same images as band operators: scalar times the fiber identity
    at (W[k], W[l])."""
    s = len(window)

    def ops(scale):
        return {(k, l): BandOperator(space, m, {(window[k], window[l]): scale * np.eye(m)})
                for k in range(s) for l in range(s)}
    return OperatorImages(ops(f1), ops(g1), s)


def outcome(images, eta):
    """Translation tables and borderline list, or the indices of the
    ambiguous conjugate that stopped them."""
    cs = CornerSystem(CornerData(0, 0, 0, tuple(range(images.s))), images)
    try:
        pts = assemble_translation_system([cs], 0.0, eta)
    except AmbiguousSupportError as err:
        return cs.U, "ambiguous", err.indices
    return cs.U, pts.borderline


def assert_same_blocks(got, want):
    """Two lists of (point pair, block) with equal keys and equal blocks."""
    assert [key for key, _ in got] == [key for key, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b)


@DIFF
@given(window_systems())
def test_block_path_matches_operator_path(case):
    space, m, window, f1, g1, eta = case
    images = WindowImages(space, m, window, f1, g1)
    ref = operator_images(space, m, window, f1, g1)
    assert outcome(images, eta) == outcome(ref, eta)
    assert images.identity_deviations() == ref.identity_deviations()
    assert_same_blocks(images.diagonal_blocks(), ref.diagonal_blocks())


def test_small_witness_pool_same_system_on_both_paths(tmp_path):
    """The window reading against the corner map factorized and applied to
    every matrix unit: the same blocks bit for bit, the same deviations,
    translation tables and borderline list, on every pool witness, on a
    fiber-2 grid and on bundles whose windows list points out of order."""
    rng = np.random.default_rng(0)
    witnesses = [build_small_witness(idx, rng) for idx in range(len(SMALL_WITNESS_POOL))]
    witnesses += [make(tmp_path / name) for name, make in WINDOW_ORDER_WITNESSES.items()]
    for idx, w in enumerate(witnesses):
        td = threshold_setup(w)
        pts = build_translation_system(w, td)
        f_fun = bump_function("f_delta", delta=pts.delta)
        g_fun = bump_function("g_delta", delta=pts.delta)
        ref_corners = []
        for cs in pts.corners:
            assert isinstance(cs.images, WindowImages), idx
            phi = w.phi.corner_map(cs.corner.summand_index, cs.corner.kept_slots)
            images = OperatorImages.from_corner_map(phi, f_fun, g_fun)
            s = cs.corner.s
            for k in range(s):
                for l in range(s):
                    for got, want in ((cs.images.f_image(k, l), images.f_image(k, l)),
                                      (cs.images.g_image(k, l), images.g_image(k, l))):
                        assert got.blocks.keys() == want.blocks.keys(), idx
                        for key, b in want.blocks.items():
                            assert np.array_equal(got.blocks[key], b), idx
            assert_same_blocks(cs.images.diagonal_blocks(), images.diagonal_blocks())
            assert cs.images.identity_deviations() == images.identity_deviations(), idx
            ref_corners.append(CornerSystem(cs.corner, images))
        ref = assemble_translation_system(ref_corners, pts.delta, pts.eta)
        assert [cs.U for cs in ref.corners] == [cs.U for cs in pts.corners], idx
        assert ref.borderline == pts.borderline, idx


def test_scaled_block_fails_absorb_identity(pts150):
    """g(1) scaled by 1 + 1e-6 in one corner of the reference system must
    show in the absorb deviation and fail verification."""
    _, pts = pts150
    cs = pts.corners[0]
    img = cs.images
    images = WindowImages(img.space, img.fiber_dim, img.window, img.f1,
                          img.g1 * (1 + 1e-6))
    mutated = dataclasses.replace(
        pts, corners=[dataclasses.replace(cs, images=images)] + pts.corners[1:],
        identities=None)
    assert matrix_unit_identities(mutated).deviations["absorb"] >= 1e-7
    with pytest.raises(InvalidWitnessError):
        _verify_translation_system(mutated, 1e-8)


def test_window_reading_needs_no_factorization(witness150, monkeypatch):
    """Corners of an inclusion map are read off their windows: neither the
    order-zero factorization nor the functional calculus is reached."""
    td = threshold_setup(witness150)

    def refuse(*args, **kwargs):
        raise AssertionError("a window corner reached the generic path")
    monkeypatch.setattr(banddim.extract, "factorize_order_zero", refuse)
    monkeypatch.setattr(BandOperator, "funcalc", refuse)
    pts = build_translation_system(witness150, td)
    assert pts.corners and all(isinstance(cs.images, WindowImages) for cs in pts.corners)
