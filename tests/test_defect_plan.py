"""Differential tests: the compiled defect plan of ``witness.WindowDefects``
against the dense window products of ``conftest.DenseWindowDefects``.

The plan adds every entry of every window and pair block by one gather,
one real scaling and one ordered ``np.add.at``; the reference multiplies
the raw parts with ``@`` and adds block after block through its own flat
index.  Each defect must equal the reference through a float64 view (zero
signs included), with an equal ``gap`` and equal panels: on interval fiber
2, whose left parts are whole diagonals and partial permutations; on a grid
whose coordinates lie in several windows; with a test operator whose fiber
block is dense, so its left parts keep the dense product; and with zero
left parts.
"""

import numpy as np
import pytest

from banddim.cover import brick_cover
from banddim.fdalg import MonomialFactor
from banddim.operators import BandOperator
from banddim.space import generate_space
from banddim.witness import (WindowDefects, build_upper_witness, default_test_set,
                             hat_normalize)

from conftest import DenseWindowDefects, grid_witness, interval_witness


def _with_test_ops(space, r, side, fiber, extra):
    cover = brick_cover(space, r, side)
    return build_upper_witness(space, cover, r, fiber,
                               test_set=default_test_set(space, 1, fiber) + extra)


def _dense_block_witness():
    """Interval 40 at fiber 2 with a test operator of one complex 2 x 2
    block, whose window parts are no real monomial matrices."""
    sp = generate_space("interval", length=40)
    block = np.array([[1.0, 0.5j], [0.25, -1.0]])
    op = BandOperator(sp, 2, {(3, 4): block, (20, 20): block.T})
    return _with_test_ops(sp, 2, 10, 2, [op])


def _zero_part_witness():
    """Interval 40 at fiber 2 with the zero operator and one negative
    operator held by the first window only, so some or all left parts are
    zero and some coefficients negative."""
    sp = generate_space("interval", length=40)
    return _with_test_ops(sp, 2, 10, 2, [BandOperator.zero(sp, 2),
                                         BandOperator.diagonal(sp, 2, {0: -0.5})])


def _corner_elements(w, count, seed):
    psi1 = w.psi.apply(w.band.identity())
    rng = np.random.default_rng(seed)
    for _ in range(count):
        b = psi1 @ w.algebra.random_hermitian(rng) @ psi1
        yield (1.0 / b.norm()) * b


def _left_parts(pair, a):
    """The window left factors P_k X_k of test element a, as the hat forms
    them."""
    x = pair.psi_hat.apply(a)
    return [pk @ xk for pk, xk in zip(pair.p.parts, x.parts)]


@pytest.mark.parametrize("make, kind", [
    (lambda: interval_witness(length=40, r=2, side=10, fiber=2), "diagonal-and-gather"),
    (grid_witness, "several-windows"),
    (_dense_block_witness, "dense"),
    (_zero_part_witness, "zero"),
], ids=["interval-fiber2", "grid", "dense-fiber-block", "zero-part"])
def test_defect_plan_equals_dense_window_products(make, kind):
    w = make()
    pair = hat_normalize(w, samples=1, seed=0)
    windows = WindowDefects(w.phi, pair.p, pair.scale)
    reference = DenseWindowDefects(w.phi, pair.p, pair.scale)
    factors = [MonomialFactor(part) for a in w.test_set for part in _left_parts(pair, a)]
    lefts = [windows.left(pair.psi_hat.apply(a)) for a in w.test_set]
    if kind == "diagonal-and-gather":
        assert any(f.scaling is not None and f.scaling[0] is None for f in factors)
        assert any(f.scaling is not None and f.scaling[0] is not None
                   and 0 < len(f.scaling[0]) for f in factors)
    elif kind == "several-windows":
        holders = np.bincount(np.concatenate(windows.coords))
        assert holders.max() >= 3
    elif kind == "dense":
        assert any(f.scaling is None for f in factors)
        assert any(left[3] for left in lefts)  # a block keeps its dense product
    else:
        assert any(f.scaling is not None and len(f.scaling[2]) == 0 for f in factors)
        assert any(len(left[0]) == 0 for left in lefts)  # the zero operator's plan
    for b in _corner_elements(w, 3, 5):
        right, ref_right = windows.right(b), reference.right(b)
        for a, left in zip(w.test_set, lefts):
            got = windows.defect(left, right)
            want = reference.defect(reference.left(pair.psi_hat.apply(a)), ref_right)
            assert got.approx.shape == want.approx.shape
            assert got.approx.view(np.float64).tobytes() == want.approx.view(np.float64).tobytes()
            assert got.gap == want.gap
            assert got.panels == want.panels
