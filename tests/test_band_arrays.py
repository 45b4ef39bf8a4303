"""Differential tests: the array kernels of ``BandOperator`` against the dict
implementation they replaced, kept in ``conftest`` as the ``ref_*``
functions.

An operator is stored as one key array and one block stack; the dict
implementation held a dict from point pairs to blocks and walked it block by
block.  Every kernel must give the reference's keys in the reference's order
and blocks equal to its blocks bit for bit: signed zeros, NaN and infinite
entries (which only the unvalidated internal constructor can hold) included.
Operands are unpruned raw operators over supports that are empty, diagonal
(both fast paths of ``@``), banded or scattered, listed in a random order.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from banddim.cpmaps import _window_sum
from banddim.errors import InvalidParameterError
from banddim.operators import BandOperator, operator_norm
from banddim.space import generate_space

from conftest import (DIFF, assert_blocks_equal, raw_operator, ref_add, ref_adjoint,
                      ref_construct, ref_diagonal, ref_identity, ref_matmul,
                      ref_operator_norm, ref_partial_translation, ref_rmul, ref_sub,
                      ref_window_sum)

KINDS = ["empty", "diagonal", "band", "scattered"]
# plain blocks; blocks of +-0.0 only; entries of either zero's sign among
# random ones; blocks that prune (1e-16 of the rest); one NaN block; one
# block with an infinite entry
SPECIALS = ["plain", "zeros", "signed-zeros", "tiny", "nan", "inf"]
SCALARS = [2, -1, 0.5, -0.0, 1j, np.float64(1 / 3), complex(-0.5, 0.25)]


def draw_blocks(rng, n, m, kind, special):
    """A dict of blocks over a support of the kind, in a random order."""
    if kind == "empty":
        return {}
    pairs = [(x, y) for x in range(n) for y in range(n)]
    keep = {"diagonal": lambda x, y: x == y and rng.random() < 0.8,
            "band": lambda x, y: abs(x - y) <= 1 and rng.random() < 0.7,
            "scattered": lambda x, y: rng.random() < 0.3}[kind]
    keys = [p for p in pairs if keep(*p)]
    keys = [keys[i] for i in rng.permutation(len(keys))]
    blocks = {}
    for key in keys:
        block = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        if special == "zeros":
            block = np.where(rng.random((m, m)) < 0.5, 0.0, -0.0) \
                + 1j * np.where(rng.random((m, m)) < 0.5, 0.0, -0.0)
        elif special == "signed-zeros":
            block.real[rng.random((m, m)) < 0.4] = -0.0
            block.real[rng.random((m, m)) < 0.2] = 0.0
            block.imag[rng.random((m, m)) < 0.4] = -0.0
            block.imag[rng.random((m, m)) < 0.2] = 0.0
        elif special == "tiny" and rng.random() < 0.5:
            block *= 1e-16
        blocks[key] = block
    if special in ("nan", "inf") and keys:
        key = keys[int(rng.integers(len(keys)))]
        blocks[key][int(rng.integers(m)), int(rng.integers(m))] = \
            np.nan if special == "nan" else complex(0.0, -np.inf)
    return blocks


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 7), m=st.integers(1, 3),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       special=st.sampled_from(SPECIALS))
@example(seed=0, n=5, m=2, kinds=("band", "diagonal"), special="signed-zeros")
@example(seed=1, n=5, m=2, kinds=("diagonal", "band"), special="signed-zeros")
@example(seed=2, n=6, m=3, kinds=("scattered", "band"), special="plain")
@example(seed=3, n=4, m=1, kinds=("empty", "band"), special="zeros")
@example(seed=4, n=6, m=2, kinds=("band", "scattered"), special="nan")
@example(seed=5, n=6, m=2, kinds=("diagonal", "diagonal"), special="inf")
@example(seed=6, n=7, m=2, kinds=("band", "band"), special="tiny")
def test_arithmetic_matches_dict_kernels(seed, n, m, kinds, special):
    """Sum, difference, scalar multiple, adjoint and product in both orders."""
    rng = np.random.default_rng(seed)
    space = generate_space("interval", length=n)
    a, b = (draw_blocks(rng, n, m, kind, special) for kind in kinds)
    A, B = raw_operator(space, m, a, prune=False), raw_operator(space, m, b, prune=False)
    scalar = SCALARS[int(rng.integers(len(SCALARS)))]
    with np.errstate(all="ignore"):
        assert_blocks_equal(A + B, ref_add(a, b))
        assert_blocks_equal(A - B, ref_sub(a, b))
        assert_blocks_equal(B - A, ref_sub(b, a))
        assert_blocks_equal(scalar * A, ref_rmul(scalar, a))
        assert_blocks_equal(A.adjoint(), ref_adjoint(a))
        assert_blocks_equal(A @ B, ref_matmul(a, b))
        assert_blocks_equal(B @ A, ref_matmul(b, a))
        assert_blocks_equal(A @ A.adjoint(), ref_matmul(a, ref_adjoint(a)))


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 7), m=st.integers(1, 3),
       kind=st.sampled_from(KINDS), special=st.sampled_from(["plain", "zeros",
                                                              "signed-zeros", "tiny"]))
@example(seed=0, n=3, m=2, kind="empty", special="plain")
@example(seed=1, n=6, m=3, kind="band", special="tiny")
def test_constructors_match_dict_kernels(seed, n, m, kind, special):
    """The validating constructor (keys of ints and numpy integers),
    identity, diagonal (scalars, blocks and both) and partial translations
    with repeated pairs."""
    rng = np.random.default_rng(seed)
    space = generate_space("interval", length=n)
    blocks = draw_blocks(rng, n, m, kind, special)
    typed = {(np.int64(x) if rng.random() < 0.5 else x, y): b for (x, y), b in blocks.items()}
    assert_blocks_equal(BandOperator(space, m, typed), ref_construct(n, m, blocks))
    assert_blocks_equal(BandOperator.identity(space, m), ref_identity(n, m))
    points = [int(p) for p in rng.permutation(n)[:int(rng.integers(n + 1))]]
    scalars = {p: [0.0, -1.5, 1 / 3, complex(0.25, -2.0), np.float64(-0.0),
                   np.complex128(1e-17)][int(rng.integers(6))] for p in points}
    upper = 0.5 * np.triu(np.ones((m, m)), 1)
    mixed = {p: v if i % 2 else v * np.eye(m) + upper
             for i, (p, v) in enumerate(scalars.items())}
    for values in (scalars, mixed):
        assert_blocks_equal(BandOperator.diagonal(space, m, values), ref_diagonal(n, m, values))
    pairs = list(blocks) + list(blocks)[:2]
    assert_blocks_equal(BandOperator.partial_translation(space, m, pairs),
                        ref_partial_translation(n, m, pairs))


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), m=st.integers(1, 3),
       kind=st.sampled_from(KINDS), special=st.sampled_from(SPECIALS),
       singles=st.integers(0, 4))
@example(seed=0, n=8, m=2, kind="band", special="plain", singles=3)
@example(seed=1, n=8, m=2, kind="scattered", special="inf", singles=2)
def test_operator_norm_matches_dict_kernel(seed, n, m, kind, special, singles):
    """The norm over support components, one-block components (``singles``
    blocks moved to rows and columns of their own) and larger ones mixed,
    equal to the reference's float; a NaN or infinite entry raises in
    both."""
    rng = np.random.default_rng(seed)
    space = generate_space("interval", length=n + singles)
    blocks = draw_blocks(rng, n, m, kind, special)
    for k in range(singles):
        blocks[(n + k, n + singles - 1 - k)] = rng.standard_normal((m, m)) + 0j
    op = raw_operator(space, m, blocks, prune=False)
    if not all(np.isfinite(b).all() for b in blocks.values()):
        for norm in (lambda: operator_norm(op), lambda: ref_operator_norm(blocks, m)):
            with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
                norm()
        return
    got = operator_norm(op)
    assert type(got) is float and got == ref_operator_norm(blocks, m)


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), m=st.integers(1, 3),
       count=st.integers(0, 40), special=st.sampled_from(SPECIALS))
@example(seed=0, n=3, m=2, count=0, special="plain")
@example(seed=1, n=2, m=1, count=30, special="signed-zeros")
def test_window_sum_matches_dict_kernel(seed, n, m, count, special):
    """The window-order sum of blocks listed at repeated point pairs, from 0
    (so a -0.0 sum is +0.0), pruned."""
    rng = np.random.default_rng(seed)
    space = generate_space("interval", length=n)
    codes = rng.integers(0, n * n, count)
    draw = draw_blocks(rng, 1, m, "diagonal", special)
    base = next(iter(draw.values()), np.zeros((m, m), dtype=complex))
    with np.errstate(all="ignore"):
        values = np.array([base * rng.choice([1.0, -1.0, 0.0, 1e-17]) for _ in range(count)],
                          dtype=complex).reshape(-1, m, m)
        assert_blocks_equal(_window_sum(space, m, codes, values),
                            ref_window_sum(n, codes, values))


def test_blocks_view_is_read_only():
    """``blocks`` maps pairs to views of the stack that cannot be written, and
    is only made when asked for."""
    space = generate_space("interval", length=4)
    op = BandOperator.partial_translation(space, 2, [(1, 0), (2, 1)])
    assert op._view is None
    assert list(op.blocks) == [(1, 0), (2, 1)] and len(op.blocks) == 2
    assert (3, 3) not in op.blocks and np.array_equal(op.blocks[(2, 1)], np.eye(2))
    with pytest.raises(ValueError):
        op.blocks[(1, 0)][0, 0] = 5.0
    with pytest.raises(TypeError):
        op.blocks[(3, 3)] = np.eye(2)
    assert np.array_equal(op.stack[0], np.eye(2))


@pytest.mark.parametrize("pairs", [[(0, 1.0)], [(np.bool_(True), 1)], [(0, 1, 2)], [3]],
                         ids=["float", "numpy-bool", "triple", "not-a-pair"])
def test_partial_translation_rejects_bad_pairs(pairs):
    with pytest.raises(InvalidParameterError, match="not a pair of points of range"):
        BandOperator.partial_translation(generate_space("interval", length=4), 1, pairs)
