"""Differential tests: the block path of the translation system against the
operator path.

``BlockImages`` holds a corner's f- and g-images as (s, s, m, m) arrays and
batches the U-sets, the sigma_bar conjugates and the identities;
``OperatorImages`` keeps one band operator per matrix unit and is the
reference.  Both are fed the same images, drawn with exact zeros and exact
copies so that some identity differences cancel exactly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from banddim.cpmaps import bump_function
from banddim.errors import AmbiguousSupportError, InvalidWitnessError
from banddim.extract import (BlockImages, CornerData, CornerSystem, OperatorImages,
                             _verify_translation_system, assemble_translation_system,
                             build_translation_system, matrix_unit_identities,
                             threshold_setup)
from banddim.operators import BandOperator
from banddim.space import generate_space

from conftest import DIFF, SMALL_WITNESS_POOL, WINDOW_ORDER_WITNESSES, build_small_witness

# eta = 0.5 puts ||(I/2)(I/2)|| = 1/4 exactly on the eta^2 threshold; fiber
# matrix units are nonzero blocks whose products can vanish, so a conjugate
# taken in the wrong order can change its support.
KINDS = ["zero", "eye", "half", "unit", "unit", "random", "random", "copy", "copy"]


@st.composite
def block_systems(draw):
    """(space, window, F, G, eta) with blocks drawn from a palette: exact
    zeros, the identity, half the identity, fiber matrix units, random
    complex blocks, and exact copies of earlier blocks."""
    s = draw(st.integers(1, 6))
    m = draw(st.integers(1, 2))
    n = s + draw(st.integers(0, 3))
    window = draw(st.permutations(range(n)))[:s]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for _ in range(2 * s * s):
        kind = draw(st.sampled_from(KINDS))
        if kind == "copy" and blocks:
            blk = blocks[draw(st.integers(0, len(blocks) - 1))].copy()
        elif kind == "zero":
            blk = np.zeros((m, m), dtype=complex)
        elif kind == "eye":
            blk = np.eye(m, dtype=complex)
        elif kind == "half":
            blk = 0.5 * np.eye(m, dtype=complex)
        elif kind == "unit":
            blk = np.zeros((m, m), dtype=complex)
            blk[draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))] = 1.0
        else:
            blk = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        blocks.append(blk)
    arrays = np.array(blocks).reshape(2, s, s, m, m)
    eta = draw(st.sampled_from([0.5, 0.9]))
    return generate_space("interval", length=n), tuple(window), arrays[0], arrays[1], eta


def operator_images(space, window, F, G):
    """The same images as single-block band operators."""
    s, m = F.shape[0], F.shape[-1]

    def ops(blocks):
        return {(k, l): BandOperator(space, m, {(window[k], window[l]): blocks[k, l]})
                for k in range(s) for l in range(s)}
    return OperatorImages(ops(F), ops(G), s)


def outcome(images, eta):
    """U-sets, borderline list and sigma_bar, or the indices of the
    ambiguous conjugate that stopped them."""
    cs = CornerSystem(CornerData(0, 0, 0, tuple(range(images.s))), None, None, images)
    try:
        pts = assemble_translation_system([cs], 0.0, eta)
    except AmbiguousSupportError as err:
        return cs.U, "ambiguous", err.indices
    return cs.U, pts.borderline, pts.sigma_bar


def assert_same_deviations(got, ref):
    assert list(got) == list(ref)
    for name in ref:
        assert (got[name] == 0.0) == (ref[name] == 0.0), name
        assert got[name] == pytest.approx(ref[name], rel=1e-12, abs=0.0), name


@DIFF
@given(block_systems())
def test_block_path_matches_operator_path(case):
    space, window, F, G, eta = case
    block = BlockImages(space, window, F, G)
    ref = operator_images(space, window, F, G)
    assert outcome(block, eta) == outcome(ref, eta)
    assert_same_deviations(block.identity_deviations(), ref.identity_deviations())


def test_small_witness_pool_same_system_on_both_paths(tmp_path):
    """The block path reads each corner's unit images off its window; the
    operator path applies the corner map to every matrix unit.  Both give
    the same blocks bit for bit, on every pool witness, on a fiber-2 grid
    and on bundles whose windows list points out of order."""
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
            assert isinstance(cs.images, BlockImages), idx
            fact, s = cs.factorization, cs.corner.s
            images = OperatorImages.from_unit_images(
                cs.phi_map, fact, fact.h.funcalc(f_fun), fact.h.funcalc(g_fun), s)
            for k in range(s):
                for l in range(s):
                    for got, want in ((cs.images.f_image(k, l), images.f_image(k, l)),
                                      (cs.images.g_image(k, l), images.g_image(k, l))):
                        assert got.blocks.keys() == want.blocks.keys(), idx
                        for key, b in want.blocks.items():
                            assert np.array_equal(got.blocks[key], b), idx
            assert_same_deviations(cs.images.identity_deviations(),
                                   images.identity_deviations())
            ref_corners.append(CornerSystem(cs.corner, cs.phi_map, fact, images))
        ref = assemble_translation_system(ref_corners, pts.delta, pts.eta)
        assert [cs.U for cs in ref.corners] == [cs.U for cs in pts.corners], idx
        assert ref.sigma_bar == pts.sigma_bar, idx
        assert ref.borderline == pts.borderline, idx


def test_scaled_block_fails_absorb_identity(pts150):
    """One image scaled by 1 + 1e-6 in the reference system must show in the
    absorb deviation and fail verification."""
    _, pts = pts150
    cs = pts.corners[0]
    F = cs.images.F.copy()
    F[2, 3] *= 1 + 1e-6
    images = BlockImages(cs.images.space, cs.images.window, F, cs.images.G)
    mutated = dataclasses.replace(
        pts, corners=[dataclasses.replace(cs, images=images)] + pts.corners[1:],
        identities=None)
    assert matrix_unit_identities(mutated).deviations["absorb"] >= 1e-7
    with pytest.raises(InvalidWitnessError):
        _verify_translation_system(mutated, 1e-8)
