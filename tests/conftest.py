"""Shared fixtures: the interval-150 reference witness and its pipeline
artifacts are expensive, so they are built once per session.  ``DIFF`` is
the hypothesis profile of the differential tests.  ``banddim`` is imported
from ``PYTHONPATH`` or the installed package when either provides it, and
from this checkout's ``src`` otherwise."""

import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import settings

if importlib.util.find_spec("banddim") is None:
    # an uninstalled checkout with no PYTHONPATH tests its own src
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from banddim.cover import brick_cover
from banddim.cpmaps import BandAlgebra, FactoredMap, PointBijectionHom
from banddim.extract import build_translation_system, threshold_setup
from banddim.fdalg import FiniteDimAlgebra, Summand
from banddim.operators import (CERT_PANEL, PRUNE_REL, BandOperator, Nearby, band_panels,
                                spectral_norm)
from banddim.space import _id_to_json, canonical_json, generate_space
from banddim.witness import (WindowDefects, build_upper_witness, default_test_set,
                             load_witness, save_witness)

DIFF = settings(max_examples=60, deadline=None, derandomize=True)


@pytest.fixture(scope="session")
def interval150():
    return generate_space("interval", length=150)


@pytest.fixture(scope="session")
def witness150(interval150):
    """The reference witness: interval 150, r = 5, fiber 2, brick side 30,
    propagation-1 test operators."""
    cover = brick_cover(interval150, 5, 30)
    return build_upper_witness(interval150, cover, 5, 2,
                               test_set=default_test_set(interval150, 1, 2))


@pytest.fixture(scope="session")
def pts150(witness150):
    td = threshold_setup(witness150)
    return td, build_translation_system(witness150, td)


@pytest.fixture()
def condition2_norms(monkeypatch):
    """The operators whose norms ``witness.condition2_errors`` takes, one per
    condition-2 evaluation of one element, recorded as they are taken.  The
    function is wrapped where callers look it up, so a test calls it as
    ``banddim.witness.condition2_errors`` to be counted."""
    import banddim.witness as witness_mod

    measure, norm = witness_mod.condition2_errors, witness_mod.operator_norm
    depth, taken = [0], []

    def counted_errors(*args, **kwargs):
        depth[0] += 1
        try:
            return measure(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_norm(op):
        if depth[0]:
            taken.append(op)
        return norm(op)

    monkeypatch.setattr(witness_mod, "condition2_errors", counted_errors)
    monkeypatch.setattr(witness_mod, "operator_norm", counted_norm)
    return taken


def dense_image(phi, elem):
    """The image of ``elem`` under the inclusion map ``phi`` as a dense N x N
    matrix: each part scattered onto its window's coordinates and added in
    window order.  The reference ``InclusionMap.apply`` and the hat defects
    are tested against."""
    m, n = phi.codomain.fiber_dim, phi.codomain.matrix_dim
    out = np.zeros((n, n), dtype=complex)
    flat = out.reshape(-1)
    for window, part in zip(phi.windows, elem.parts):
        c = np.array([x * m + a for x in window for a in range(m)])
        flat[(c[:, None] * n + c).reshape(-1)] += part.reshape(-1)
    return out


def raw_operator(space, m, blocks, prune=True):
    """``BandOperator._raw`` of a dict of blocks: its keys and blocks, in
    dict order, as the key array and the block stack (of the blocks' own
    dtype)."""
    keys = np.array(list(blocks), dtype=np.intp).reshape(-1, 2)
    stack = np.array(list(blocks.values())) if blocks else np.zeros((0, m, m), dtype=complex)
    return BandOperator._raw(space, m, keys, stack, prune=prune)


def assert_same_operator(op, reference):
    """Equal block keys in equal order, and blocks equal bit for bit (so
    ``np.array_equal``, with NaN where the reference has NaN)."""
    assert list(op.blocks) == list(reference.blocks)
    for key, block in reference.blocks.items():
        assert np.array_equal(op.blocks[key], block, equal_nan=True), key
        assert op.blocks[key].dtype == block.dtype, key
        assert op.blocks[key].tobytes() == block.tobytes(), key


def operator_file_text(op):
    """The text of an operator file by the per-entry rule: one record per
    block in key order, its point ids converted one by one and each entry
    written as ``[float(re), float(im)]``.  The reference
    ``operators.save_operator`` is tested against."""
    points = op.space.points
    return canonical_json({
        "fiber": op.fiber_dim,
        "blocks": [{"x": _id_to_json(points[x]), "y": _id_to_json(points[y]),
                    "block": [[[float(v.real), float(v.imag)] for v in row] for row in b]}
                   for (x, y), b in sorted(op.blocks.items())]})


def mask_profile(mat):
    """The first and last row of the nonzeros ``mat != 0`` of each column,
    (rows, -1) for an empty column, read over the whole matrix at once."""
    rows = mat.shape[0]
    nz = mat != 0
    used = nz.any(axis=0)
    return (np.where(used, nz.argmax(axis=0), rows),
            np.where(used, rows - 1 - nz[::-1].argmax(axis=0), -1))


def mask_panels(mat):
    """The certificate panels of a matrix from its :func:`mask_profile`, with
    the band rule of ``operators.band_panels`` written out again: the
    reference the panels planned from structure are tested against."""
    rows, cols = mat.shape
    count = max(cols // CERT_PANEL, 1)
    if count == 1:
        return [(0, cols, cols, 0, rows)]
    first, last = mask_profile(mat)
    reach = np.minimum.accumulate(first[::-1])[::-1]
    ends = np.maximum(np.searchsorted(reach, last, side="right"), np.arange(1, cols + 1))
    ends = np.maximum.accumulate(ends)
    edges = [cols * i // count for i in range(count + 1)]
    return [(p0, p1, int(ends[p1 - 1]), int(first[p0:p1].min()), int(last[p0:p1].max()) + 1)
            for p0, p1 in zip(edges, edges[1:])]


def random_factored_map(rng, space, fiber=1, slots=None):
    """Random order-zero map h . pi onto partial translations of the space.

    The homomorphism sends slot units to translations between disjoint point
    tuples; h is diagonal, constant along orbit positions (scalar fiber
    blocks), so it commutes with every image.
    """
    n = space.n
    n_slots = slots if slots is not None else int(rng.integers(2, 5))
    orbit_len = int(rng.integers(1, max(2, n // n_slots)))
    needed = n_slots * orbit_len
    pts = rng.permutation(n)[:needed]
    orbits = pts.reshape(n_slots, orbit_len)
    algebra = FiniteDimAlgebra([Summand(0, "rand", n_slots)], fiber)
    band = BandAlgebra(space, fiber)
    hom = PointBijectionHom(algebra, band, [tuple(int(p) for p in row)
                                            for row in orbits])
    h_values = {}
    for t in range(orbit_len):
        val = float(rng.uniform(0.2, 1.0))
        for k in range(n_slots):
            h_values[int(orbits[k][t])] = val
    h = BandOperator.diagonal(space, fiber, h_values)
    return FactoredMap(h, hom)


SMALL_WITNESS_POOL = [
    ("interval", {"length": 10}, 1, 4, 1),
    ("interval", {"length": 12}, 1, 5, 2),
    ("interval", {"length": 14}, 1, 6, 1),
    ("interval", {"length": 16}, 1, 7, 2),
    ("interval", {"length": 18}, 2, 7, 1),
    ("interval", {"length": 20}, 2, 8, 2),
    ("interval", {"length": 15}, 1, 3, 2),
    ("interval", {"length": 9}, 1, 3, 1),
    ("grid", {"sides": [3, 4], "metric": "linf"}, 1, 12, 1),
    ("grid", {"sides": [4, 4], "metric": "linf"}, 1, 12, 2),
    ("grid", {"sides": [4, 5], "metric": "l1"}, 1, 12, 1),
    ("grid", {"sides": [3, 6], "metric": "linf"}, 1, 12, 2),
]


def build_small_witness(index, rng):
    """Deterministic small witness from the pool (|X| <= 20, fiber <= 2)."""
    family, params, r, side, fiber = SMALL_WITNESS_POOL[index % len(SMALL_WITNESS_POOL)]
    space = generate_space(family, **params)
    if family == "interval":
        cover = brick_cover(space, r, side)
    else:
        cover = brick_cover(space, 3 * r, side)
    return build_upper_witness(space, cover, r, fiber)


def interval_witness(length=60, r=5, side=30, fiber=1):
    sp = generate_space("interval", length=length)
    cover = brick_cover(sp, r, side)
    return build_upper_witness(sp, cover, r, fiber)


def grid_witness(side=8, fiber=2):
    """A linf grid witness whose windows overlap and hold non-contiguous
    coordinates (row-major points)."""
    sp = generate_space("grid", sides=[side, side], metric="linf")
    return build_upper_witness(sp, brick_cover(sp, 3, 12), 1, fiber)


def permuted_bundle(w, dirpath):
    """``w`` saved and loaded with points 1 and 2 of every window swapped, so
    that window coordinates and the shared slots of overlapping windows run
    out of order (a window of points 0..9 in fiber 2 holds coordinates
    0, 1, 4, 5, 2, 3, 6, ...)."""
    save_witness(w, dirpath)
    path = dirpath / "witness.json"
    doc = json.loads(path.read_text())
    for rec in doc["summands"]:
        pts = rec["points"]
        if len(pts) > 2:
            pts[1], pts[2] = pts[2], pts[1]
    path.write_text(json.dumps(doc))
    return load_witness(dirpath)


# Witnesses beyond the pool for the window-path differential tests: a fiber-2
# grid, whose windows overlap, and bundles whose windows list points out of
# order; each takes a directory for the bundle.  The grids have side 5, so
# the s^3 operator products of their largest corner (s = 25) stay cheap.
WINDOW_ORDER_WITNESSES = {
    "grid-fiber2": lambda tmp: grid_witness(side=5),
    "permuted-interval": lambda tmp: permuted_bundle(
        interval_witness(length=40, r=2, side=10, fiber=2), tmp),
    "permuted-grid": lambda tmp: permuted_bundle(grid_witness(side=5), tmp),
}


# ---------------------------------------------------------------------------
# The dict implementation of band operators
# ---------------------------------------------------------------------------
# Band operators used to be stored as a dict from point pairs to blocks, and
# every kernel walked it block by block.  The functions below are those
# kernels on plain dicts, kept as the reference that the array kernels are
# tested against: equal keys in equal order and equal bits.


def ref_pruned(blocks):
    """The prune rule: keep the blocks whose largest entry modulus (libm's
    hypot) exceeds PRUNE_REL times the largest; all of them when that is not
    finite."""
    if not blocks:
        return {}
    stack = np.array(list(blocks.values()))
    norms = np.hypot(stack.real, stack.imag).max(axis=(-2, -1))
    biggest = norms.max()
    if not np.isfinite(biggest):
        return blocks
    keep = norms > PRUNE_REL * biggest
    if keep.all():
        return blocks
    return {k: b for (k, b), kept in zip(blocks.items(), keep.tolist()) if kept}


def ref_construct(n, m, blocks):
    """The validating constructor's blocks, for keys that are pairs of ints
    of range(n) and finite m x m blocks."""
    cleaned = {}
    for (x, y), b in blocks.items():
        arr = np.asarray(b, dtype=complex)
        assert arr.shape == (m, m) and 0 <= x < n and 0 <= y < n
        cleaned[(int(x), int(y))] = arr
    assert np.isfinite(np.array(list(cleaned.values()))).all()
    return ref_pruned(cleaned)


def ref_identity(n, m):
    eye = np.eye(m, dtype=complex)
    return ref_construct(n, m, {(x, x): eye for x in range(n)})


def ref_diagonal(n, m, values):
    blocks = {}
    for x, v in values.items():
        v = np.asarray(v, dtype=complex)
        if v.ndim == 0:
            v = complex(v) * np.eye(m)
        blocks[(x, x)] = v
    return ref_construct(n, m, blocks)


def ref_partial_translation(n, m, pairs):
    eye = np.eye(m, dtype=complex)
    return ref_construct(n, m, {(x, y): eye for (x, y) in pairs})


def ref_add(a, b):
    blocks = dict(a)
    for k, v in b.items():
        blocks[k] = blocks[k] + v if k in blocks else v
    return ref_pruned(blocks)


def ref_sub(a, b):
    blocks = dict(a)
    for k, v in b.items():
        blocks[k] = blocks[k] - v if k in blocks else -v
    return ref_pruned(blocks)


def ref_rmul(scalar, a):
    return ref_pruned({k: scalar * v for k, v in a.items()})


def ref_adjoint(a):
    return {(y, x): v.conj().T for (x, y), v in a.items()}


def ref_matmul(a, b):
    """The product, with its two diagonal fast paths and the general one."""
    blocks = {}
    if all(x == y for (x, y) in b):
        for (x, y), u in a.items():
            v = b.get((y, y))
            if v is not None:
                blocks[(x, y)] = u @ v
    elif all(x == y for (x, y) in a):
        for (y, z), v in b.items():
            u = a.get((y, y))
            if u is not None:
                blocks[(y, z)] = u @ v
    else:
        by_row = {}
        for (y, z), v in b.items():
            by_row.setdefault(y, []).append((z, v))
        for (x, y), u in a.items():
            for z, v in by_row.get(y, ()):
                key = (x, z)
                prod = u @ v
                blocks[key] = blocks[key] + prod if key in blocks else prod
    return ref_pruned(blocks)


def ref_components(edges, nodes=()):
    """Union-find: every node mapped to the smallest node of its component."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in edges:
        a, b = find(parent.setdefault(a, a)), find(parent.setdefault(b, b))
        if a != b:
            parent[max(a, b)] = min(a, b)
    return {x: find(x) for x in parent}


def ref_operator_norm(blocks, m):
    """The largest component norm over the bipartite block support, each
    component dense (one block: that block), equal shapes in one stacked
    SVD."""
    labels = ref_components((x, ~y) for x, y in blocks)
    groups = {}
    for key in blocks:
        groups.setdefault(labels[key[0]], []).append(key)
    mats = []
    for keys in groups.values():
        if len(keys) == 1:
            mats.append(blocks[keys[0]])
            continue
        rows = {x: i * m for i, x in enumerate(sorted({x for x, _ in keys}))}
        cols = {y: j * m for j, y in enumerate(sorted({y for _, y in keys}))}
        out = np.zeros((len(rows) * m, len(cols) * m), dtype=complex)
        for x, y in keys:
            out[rows[x]:rows[x] + m, cols[y]:cols[y] + m] = blocks[(x, y)]
        mats.append(out)
    shapes = {}
    for mat in mats:
        shapes.setdefault(mat.shape, []).append(mat)
    return max((float(spectral_norm(np.stack(same, dtype=complex)).max())
                for same in shapes.values()), default=0.0)


def ref_window_sum(n, codes, values):
    """The blocks at codes x n + y summed per pair in list order from 0, the
    pairs in order of first appearance, pruned."""
    blocks = {}
    for code, value in zip(codes.tolist(), values):
        key = divmod(code, n)
        blocks[key] = blocks.get(key, 0) + value
    return ref_pruned(blocks)


def assert_blocks_equal(op, reference):
    """The operator's keys and blocks equal the reference dict's: equal keys
    in equal order and equal bits."""
    assert list(op.blocks) == list(reference)
    for key, block in reference.items():
        got = op.blocks[key]
        assert got.dtype == block.dtype, key
        assert got.tobytes() == block.tobytes(), key


class DenseFactor:
    """A part whose products are the dense ``@``: the reference of
    ``fdalg.MonomialFactor``.  It never takes the scaling, so
    ``monomial_norm`` takes ``FdElement.norm`` for an element of such
    parts."""

    __array_ufunc__ = None
    scaling = None

    def __init__(self, part):
        self.part = part

    def __matmul__(self, y):
        return self.part @ y

    def __rmatmul__(self, y):
        return y @ self.part


class DenseWindowDefects(WindowDefects):
    """``WindowDefects`` with the dense window products it formed before
    monomial factors and the compiled plan: ``left``, ``right`` and
    ``defect`` multiply the raw parts with ``@``, as the hat did, and add
    each window and pair block, one after another, through the flat
    positions of its own index."""

    def __init__(self, phi, p, scale):
        super().__init__(phi, p, scale)
        self.p = p.parts
        self.index = [(c[:, None] * self.n + c).reshape(-1) for c in self.coords]

    def left(self, x):
        px = [pk @ xk for pk, xk in zip(self.p, x.parts)]
        a = [self.scale * (pxk @ pk) for pxk, pk in zip(px, self.p)]
        first = np.full(self.n, self.n)
        last = np.full(self.n, -1)

        def holds(rows, cols):
            if len(rows):
                first[cols] = np.minimum(first[cols], rows.min())
                last[cols] = np.maximum(last[cols], rows.max())

        for c, pxk in zip(self.coords, px):
            holds(c[pxk.any(axis=1)], c)
        pairs = []
        for k, l, rows, _ in self.pairs:
            ak = a[k][:, rows]
            hit = np.flatnonzero(ak.any(axis=1))
            at, cols = self.coords[k][hit], self.coords[l]
            holds(at, cols)
            pairs.append((ak[hit], (at[:, None] * self.n + cols).reshape(-1)))
        return (px, pairs, np.array([np.linalg.norm(xk) for xk in x.parts]),
                band_panels(first, last, self.n))

    def right(self, y):
        yp = [yk @ pk for yk, pk in zip(y.parts, self.p)]
        b = [self.scale * (pk @ ypk) for ypk, pk in zip(yp, self.p)]
        return ([self.scale * (ypk - pk @ bk) for ypk, pk, bk in zip(yp, self.p, b)],
                [-b[l][cols, :] for _, l, _, cols in self.pairs],
                np.array([np.linalg.norm(yk) for yk in y.parts]))

    def defect(self, left, right):
        diag_x, pair_x, x_fro, panels = left
        diag_y, pair_y, y_fro = right
        out = np.zeros((self.n, self.n), dtype=complex)
        flat = out.reshape(-1)
        for idx, lk, rk in zip(self.index, diag_x, diag_y):
            flat[idx] += (lk @ rk).reshape(-1)
        for (lk, idx), rk in zip(pair_x, pair_y):
            flat[idx] += (lk @ rk).reshape(-1)
        s1 = self.scale * float(np.sum(self.p_fro2 * x_fro * y_fro))
        s2 = self.scale ** 2 * float(self.p_fro2 @ x_fro) * float(self.p_fro2 @ y_fro)
        return Nearby(out, 2.0 * self.gamma * (s1 + s2), panels)


def dense_hat(monkeypatch):
    """Make ``witness.hat_normalize`` take the dense products: psi(1)'s
    norm by ``FdElement.norm``, each sample's psi(1) y psi(1) by ``@``,
    and the multiplicativity defects by :class:`DenseWindowDefects`."""
    import banddim.witness as witness_mod

    monkeypatch.setattr(witness_mod, "monomial_factors",
                        lambda x: [DenseFactor(p) for p in x.parts])
    monkeypatch.setattr(witness_mod, "WindowDefects", DenseWindowDefects)
