"""Differential tests: ``fdalg.MonomialFactor`` products against the dense ``@``.

A monomial factor keeps the nonzeros of a part with at most one nonzero in
each row and column, all real, as its ``scaling``; it multiplies a whole
real diagonal as one real scaling and any other part with the dense ``@``.
Parts made of real multiples of the identity and real fiber permutations
as m x m blocks, at most one in each slot row and slot column (the parts
compressions of the identity and of partial translations give), must take
the scaling; every product must equal the dense one bit for bit (a zero's
sign aside).  ``monomial_norm`` must give
``FdElement.norm`` bit for bit on real diagonal elements, and the hat's
report must equal, byte for byte, that of the dense window products kept
in ``conftest``.
"""

import json

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import banddim.witness as witness_mod
from banddim.fdalg import FdElement, FiniteDimAlgebra, MonomialFactor, Summand, monomial_norm
from banddim.witness import WindowDefects, hat_normalize

from conftest import DIFF, DenseWindowDefects, dense_hat, grid_witness, interval_witness

# real c I; real c times a fiber permutation; complex c I; a complex block
BLOCKS = ["scalar", "permutation", "complex-scalar", "mixing"]
EXACT = ("scalar", "permutation")
# a partial slot permutation; a column slot drawn per row, which two rows
# may share; a part with two blocks in one slot row
LAYOUTS = ["permutation", "any", "two-in-a-row"]


def draw_block(rng, height, m, kind):
    if kind in EXACT:
        c = rng.standard_normal()
        fiber = np.eye(m)[rng.permutation(m)] if kind == "permutation" else np.eye(m)
        return c * fiber[:height]
    if kind == "complex-scalar":
        return complex(rng.standard_normal(), rng.standard_normal()) * np.eye(height, m)
    return rng.standard_normal((height, m)) + 1j * rng.standard_normal((height, m))


def draw_part(rng, rows, cols, height, m, kind, layout, empty):
    """A (rows height) x (cols m) part of the layout; each slot row is
    empty with probability ``empty`` (never the doubled one)."""
    part = np.zeros((rows * height, cols * m), dtype=complex)
    targets = (rng.permutation(cols)[:rows] if layout == "permutation"
               else rng.integers(cols, size=rows))
    for i, j in enumerate(targets):
        if rng.random() >= empty:
            part[i * height:(i + 1) * height, j * m:(j + 1) * m] = draw_block(rng, height, m,
                                                                             kind)
    if layout == "two-in-a-row":
        i = int(rng.integers(rows))
        for j in rng.permutation(cols)[:2]:
            part[i * height:(i + 1) * height, j * m:(j + 1) * m] = draw_block(rng, height, m,
                                                                             kind)
    return part


def is_real_monomial(part):
    held = part != 0
    return (not part.imag.any() and held.sum(axis=0).max(initial=0) <= 1
            and held.sum(axis=1).max(initial=0) <= 1)


def assert_equal_product(got, want):
    """Bit for bit, a zero's sign aside (``array_equal`` has 0.0 == -0.0)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2, 3]),
       slots=st.integers(2, 6), width=st.integers(1, 4), row_height=st.booleans(),
       kind=st.sampled_from(BLOCKS), layout=st.sampled_from(LAYOUTS),
       empty=st.sampled_from([0.0, 0.3]))
@example(seed=0, m=2, slots=5, width=3, row_height=False, kind="scalar",
         layout="permutation", empty=0.0)
@example(seed=1, m=2, slots=5, width=3, row_height=False, kind="scalar",
         layout="permutation", empty=0.3)
@example(seed=2, m=3, slots=4, width=2, row_height=False, kind="mixing",
         layout="any", empty=0.3)
@example(seed=3, m=2, slots=4, width=2, row_height=True, kind="permutation",
         layout="any", empty=0.3)
@example(seed=4, m=1, slots=6, width=1, row_height=False, kind="scalar",
         layout="two-in-a-row", empty=0.0)
def test_monomial_products_match_dense(seed, m, slots, width, row_height, kind, layout,
                                       empty):
    """Both products of a square part, and of a part of one-row slot rows
    (as the rows of A_k[:, O] in ``WindowDefects``), against the dense
    ``@``: the scaling exactly for the real monomial parts, the dense path
    for every other one (complex or mixing blocks, two blocks in a slot
    row or a slot column), and the same bits either way."""
    rng = np.random.default_rng(seed)
    height = 1 if row_height else m
    rows = slots * m if row_height else slots
    part = draw_part(rng, rows, slots, height, m, kind, layout, empty)
    factor = MonomialFactor(part)
    assert (factor.scaling is not None) == (kind in EXACT and is_real_monomial(part))
    if layout == "two-in-a-row" or kind not in EXACT:
        assert factor.scaling is None
    elif layout == "permutation":
        assert factor.scaling is not None
    y = rng.standard_normal((slots * m, width)) + 1j * rng.standard_normal((slots * m, width))
    z = (rng.standard_normal((width, rows * height))
         + 1j * rng.standard_normal((width, rows * height)))
    # zero entries, whose products with a negative entry of the part are
    # -0.0, to which the dense sum may or may not add +0.0
    y[rng.random(y.shape) < 0.2] = 0
    z[rng.random(z.shape) < 0.2] = 0
    assert_equal_product(factor @ y, part @ y)
    assert_equal_product(z @ factor, z @ part)


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2, 3]),
       sizes=st.lists(st.integers(1, 50), min_size=1, max_size=3),
       kind=st.sampled_from(["diagonal", "permutation", "mixing"]),
       empty=st.sampled_from([0.0, 0.3]))
@example(seed=0, m=3, sizes=[50, 7], kind="diagonal", empty=0.3)
@example(seed=1, m=2, sizes=[1], kind="diagonal", empty=1.0)
def test_monomial_norm_matches_element_norm(seed, m, sizes, kind, empty):
    """``monomial_norm`` gives ``FdElement.norm`` bit for bit on a real
    diagonal element (psi(1)'s kind, up to 150 x 150 parts, past LAPACK's
    blocked reduction), the exact largest absolute entry on a real monomial
    one, and ``FdElement.norm`` itself on any other."""
    rng = np.random.default_rng(seed)
    algebra = FiniteDimAlgebra([Summand(0, k, s) for k, s in enumerate(sizes)], m)
    parts = []
    for s in sizes:
        d = s * m
        values = rng.standard_normal(d) * (rng.random(d) >= empty)
        if kind == "diagonal":
            parts.append(np.diag(values).astype(complex))
        else:
            parts.append(draw_part(rng, s, s, m, m, "scalar" if kind == "permutation"
                                   else kind, "permutation", empty))
    x = FdElement(algebra, parts)
    got = monomial_norm(x, [MonomialFactor(p) for p in x.parts])
    if kind == "diagonal":
        assert got == x.norm()
    elif kind == "permutation":
        assert got == max(np.abs(p).max() for p in parts)
        assert abs(got - x.norm()) <= 1e-14 * max(1.0, got)
    else:
        assert got == x.norm()


def test_monomial_factor_of_an_empty_part():
    """A zero part takes the scaling with no nonzeros: both products are
    zero."""
    factor = MonomialFactor(np.zeros((4, 4), dtype=complex))
    y = np.ones((4, 3), dtype=complex)
    assert factor.scaling is not None and len(factor.scaling[2]) == 0
    assert np.array_equal(factor @ y, np.zeros((4, 3))) and np.array_equal(y.T @ factor,
                                                                            np.zeros((3, 4)))


def test_hat_report_equals_dense_window_products(monkeypatch):
    """On small built witnesses with overlapping windows, the hat with
    monomial factors writes the report of the dense window products byte
    for byte, and its factors of p took the real scaling."""
    for w in (interval_witness(length=40, r=2, side=10, fiber=2), grid_witness()):
        pair = hat_normalize(w, samples=6, seed=1)
        factors = WindowDefects(w.phi, pair.p, pair.scale).p
        assert all(f.scaling is not None for f in factors)
        with monkeypatch.context() as patch:
            dense_hat(patch)
            assert witness_mod.WindowDefects is DenseWindowDefects
            reference = hat_normalize(w, samples=6, seed=1)
        assert (json.dumps(pair.report, sort_keys=True)
                == json.dumps(reference.report, sort_keys=True))
        assert pair.report["passed"]
