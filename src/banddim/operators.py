"""Block-sparse band operators on l2(X, C^m).

An operator is stored as one (nnz, 2) integer array of point pairs
``(x, y)`` and one (nnz, m, m) complex stack of the nonzero fiber blocks at
them, in one block order that arithmetic keeps.  The support is the set of
stored pairs and the propagation is the largest distance over the support,
so the sparsity pattern carries the metric content.  Blocks whose norm falls
below 1e-14 of the largest block are pruned after arithmetic to keep support
and propagation meaningful under floating-point fill-in.  The kernels work
on the two arrays; ``blocks`` gives them as a read-only mapping of pairs to
blocks.

Operators are immutable values: arithmetic returns new instances.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .errors import IncompatibilityError, InvalidParameterError, SizeLimitError
from .space import (DENSE_BYTES_LIMIT, _fields, _is_int, _is_list_of, _point_indices,
                    _read_object, canonical_json, check_int, check_real, write_text)

PRUNE_REL = 1e-14
CERT_MARGIN = 1e-10
CERT_PANEL = 48
ENCLOSURE_REL = 1e-9
LANCZOS_BREAKDOWN = 1e-13
LANCZOS_STALL = 1e-15
LANCZOS_SEED = 0


def check_dense_size(rows, cols=None):
    """Raise before a dense complex rows x cols matrix (square when cols is
    None) above DENSE_BYTES_LIMIT bytes is allocated."""
    cols = rows if cols is None else cols
    nbytes = rows * cols * np.dtype(complex).itemsize
    if nbytes > DENSE_BYTES_LIMIT:
        raise SizeLimitError(
            f"a dense {rows}x{cols} complex matrix needs {nbytes} bytes, above the "
            f"limit of {DENSE_BYTES_LIMIT} bytes")


def check_fiber_dim(fiber_dim):
    """The fiber dimension as an int; anything but an integer >= 1 raises."""
    return check_int(fiber_dim, "fiber dimension", 1)


def fiber_unit(m, alpha, beta):
    """The m x m fiber matrix unit E_{alpha, beta}."""
    unit = np.zeros((m, m), dtype=complex)
    unit[alpha, beta] = 1.0
    return unit


def component_labels(a, b, size):
    """The smallest node of the connected component of each node of
    range(size), for the undirected edges (a[i], b[i]) of two index arrays.

    Each round hooks the larger label of every edge whose ends disagree
    under the smaller one, then jumps every node to its root (a node that is
    its own label), until every edge joins equal labels.  A label only falls
    and stays inside its node's component, so the smallest node of a
    component keeps its own label and ends as the label of all of it.
    """
    label = np.arange(size)
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            return label
        np.minimum.at(label, np.maximum(la, lb)[cross], np.minimum(la, lb)[cross])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def group_by(items, label):
    """Lists of the items with equal ``label(item)``, in first-seen order."""
    groups = {}
    for item in items:
        groups.setdefault(label(item), []).append(item)
    return list(groups.values())


def _groups(labels):
    """Index arrays of the positions of equal labels, each in order, the
    groups in order of first appearance."""
    if not len(labels):
        return []
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    groups.sort(key=lambda group: group[0])
    return groups


def _runs(lengths):
    """For runs of the given lengths laid end to end: the run of each item
    and its position within the run."""
    run = np.repeat(np.arange(len(lengths)), lengths)
    return run, np.arange(len(run)) - (np.cumsum(lengths) - lengths)[run]


def _sum_runs(codes, values):
    """The distinct integer ``codes`` (>= 0) in order of first appearance
    and, for each, the sum of the blocks ``values`` listed at it, added in
    list order with the first term as it is: the sums that
    ``blocks[k] = blocks[k] + b if k in blocks else b`` gathers, taken as
    one stacked addition per rank (every code's second block, then its
    third, ...)."""
    if not len(codes):
        return codes, values[:0]
    order = np.argsort(codes, kind="stable")
    first = np.flatnonzero(np.diff(codes[order], prepend=-1))
    group, rank = _runs(np.diff(first, append=len(order)))
    heads = order[first]
    sums = values[heads]
    for r in range(1, int(rank.max()) + 1):
        later = rank == r
        sums[group[later]] += values[order[later]]
    appearance = np.argsort(heads)
    return codes[heads[appearance]], sums[appearance]


def _distinct(values):
    """The sorted distinct entries of an array of integers >= 0.  (numpy's
    ``unique`` imports ``numpy.ma`` on its first call.)"""
    flat = np.sort(values, axis=None)
    return flat[np.diff(flat, prepend=-1) != 0]


def _first_places(codes):
    """The place of the first occurrence of each distinct integer code
    (>= 0), in order."""
    order = np.argsort(codes, kind="stable")
    return np.sort(order[np.diff(codes[order], prepend=-1) != 0])


def _codes(keys, n):
    """The codes x n + y of the keys (x, y)."""
    return keys[:, 0] * n + keys[:, 1]


def _code_keys(codes, n):
    """The keys (x, y) of the codes x n + y."""
    return np.stack(np.divmod(codes, n), axis=1)


def _fiber_identities(m, count):
    """``count`` m x m identity blocks as one stack; ``check_dense_size``
    first, so a fiber too large for memory raises ``SizeLimitError``."""
    check_dense_size(count * m, m)
    stack = np.zeros((count, m, m), dtype=complex)
    stack.reshape(count, m * m)[:, ::m + 1] = 1  # the diagonal of each block
    return stack


def _same_space(s1, s2):
    if s1 is s2:
        return True
    return s1.points == s2.points and np.array_equal(s1.dist, s2.dist)


def _block_norms(stack):
    """The largest entry modulus of each m x m block of a stack (..., m, m).
    The modulus is libm's ``hypot``, as Python's ``abs`` of a complex number
    computes it; numpy's complex ``abs`` can differ from it by an ulp."""
    return np.hypot(stack.real, stack.imag).max(axis=(-2, -1))


def _pruned(keys, stack):
    """The keys and blocks whose largest entry modulus exceeds PRUNE_REL
    times the largest over all blocks, in their order.  None are kept when
    every block is zero, and all of them when the largest modulus is not
    finite."""
    if not len(stack):
        return keys, stack
    norms = _block_norms(stack)
    biggest = norms.max()
    if not np.isfinite(biggest):
        return keys, stack
    keep = norms > PRUNE_REL * biggest
    if keep.all():
        return keys, stack
    return keys[keep], stack[keep]


def _point_array(points, n):
    """The points as an index array, or None when one of them is not a
    point of range(n): an int or numpy integer, not a bool, in range."""
    points = list(points)
    if not all(issubclass(t, numbers.Integral) and not issubclass(t, bool)
               for t in set(map(type, points))):
        return None
    try:
        arr = np.array(points, dtype=np.intp)
    except OverflowError:
        return None
    return arr if ((arr >= 0) & (arr < n)).all() else None


def _is_key(key, n):
    """True for a pair of points of range(n)."""
    try:
        x, y = key
    except (TypeError, ValueError):
        return False
    return all(_is_int(p) and 0 <= p < n for p in (x, y))


def _key_array(keys, n):
    """Block keys as an (nnz, 2) index array; a key that is not a pair of
    points of range(n) raises ``InvalidParameterError``."""
    keys = list(keys)
    try:
        pairs = set(map(len, keys)) <= {2}
    except TypeError:
        pairs = False
    arr = _point_array(itertools.chain.from_iterable(keys), n) if pairs else None
    if arr is None:
        bad = next(key for key in keys if not _is_key(key, n))
        raise InvalidParameterError(f"block key {bad!r} is not a pair of points of range({n})")
    return arr.reshape(-1, 2)


def _block_stack(blocks, m):
    """The list ``blocks`` as one (nnz, m, m) complex stack; anything but m x
    m arrays of numbers raises ``InvalidParameterError``."""
    if not blocks:
        return np.zeros((0, m, m), dtype=complex)
    try:
        stack = np.array(blocks, dtype=complex)
    except (TypeError, ValueError):
        stack = None
    if stack is None or stack.shape != (len(blocks), m, m):
        raise InvalidParameterError(f"a fiber block is not a {m} x {m} array of numbers")
    return stack


def _finite(stack):
    """The stack; an entry that is not finite raises ``InvalidParameterError``."""
    if not np.isfinite(stack).all():
        raise InvalidParameterError("a fiber block has an entry that is not finite")
    return stack


class BlockView(Mapping):
    """The blocks of an operator as a read-only mapping from point pairs
    (x, y) to read-only views of its m x m blocks, in block order, for
    readers that look blocks up by pair.  Its index is made on the first
    lookup; its length and keys come from the key array."""

    __slots__ = ("_keys", "_stack", "_index")

    def __init__(self, keys, stack):
        self._keys = keys
        self._stack = stack.view()
        self._stack.flags.writeable = False
        self._index = None

    def __len__(self):
        return len(self._keys)

    def __iter__(self):
        return map(tuple, self._keys.tolist())

    def __getitem__(self, key):
        if self._index is None:
            self._index = {k: i for i, k in enumerate(self)}
        return self._stack[self._index[key]]


class BandOperator:
    """Finite-propagation operator given by its nonzero fiber blocks: block
    i sits at the point pair ``keys[i]`` of the (nnz, 2) index array and is
    ``stack[i]`` of the (nnz, m, m) complex stack."""

    __slots__ = ("space", "fiber_dim", "keys", "stack", "_diag", "_view")

    def __init__(self, space, fiber_dim, blocks):
        """Validating constructor from a mapping of point pairs to blocks: a
        key that is not a pair of points of range(n) (ints or numpy
        integers, not bools), a block that is not m x m or not finite raise
        ``InvalidParameterError``."""
        m = check_fiber_dim(fiber_dim)
        keys = _key_array(blocks, space.n)
        stack = _finite(_block_stack(list(blocks.values()), m))
        self._assign(space, m, *_pruned(keys, stack))

    def _assign(self, space, fiber_dim, keys, stack):
        self.space = space
        self.fiber_dim = fiber_dim
        self.keys = keys
        self.stack = stack
        self._diag = None
        self._view = None

    @classmethod
    def _raw(cls, space, fiber_dim, keys, stack, prune=True):
        """Internal constructor from distinct in-range keys and their m x m
        blocks, pruned unless ``prune`` is False."""
        op = cls.__new__(cls)
        op._assign(space, fiber_dim, *(_pruned(keys, stack) if prune else (keys, stack)))
        return op

    @classmethod
    def _validated(cls, space, fiber_dim, keys, stack):
        """Internal constructor from distinct keys that checks them and the
        blocks as the validating constructor does, and prunes."""
        m = check_fiber_dim(fiber_dim)
        n = space.n
        outside = ((keys < 0) | (keys >= n)).any(axis=1)
        if outside.any():
            key = tuple(keys[np.argmax(outside)].tolist())
            raise InvalidParameterError(f"block key {key} is not a pair of points of range({n})")
        if stack.shape != (len(keys), m, m):
            raise InvalidParameterError(f"a fiber block is not a {m} x {m} array of numbers")
        return cls._raw(space, m, keys, _finite(stack))

    @property
    def blocks(self):
        """The blocks as a read-only mapping, made on first use (see
        :class:`BlockView`)."""
        if self._view is None:
            self._view = BlockView(self.keys, self.stack)
        return self._view

    @property
    def is_diagonal(self):
        if self._diag is None:
            self._diag = bool((self.keys[:, 0] == self.keys[:, 1]).all())
        return self._diag

    def _diagonal_index(self):
        """For each point p, the index of block (p, p), or -1."""
        at = np.full(self.space.n, -1)
        on = np.flatnonzero(self.keys[:, 0] == self.keys[:, 1])
        at[self.keys[on, 0]] = on
        return at

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, space, fiber_dim):
        m = check_fiber_dim(fiber_dim)
        return cls._raw(space, m, np.zeros((0, 2), dtype=np.intp),
                        np.zeros((0, m, m), dtype=complex), prune=False)

    @classmethod
    def identity(cls, space, fiber_dim):
        m = check_fiber_dim(fiber_dim)
        points = np.arange(space.n)
        return cls._raw(space, m, np.stack((points, points), axis=1),
                        _fiber_identities(m, space.n), prune=False)

    @classmethod
    def diagonal(cls, space, fiber_dim, values):
        """Propagation-zero operator; ``values`` maps point index to block
        (scalar entries are promoted to multiples of the fiber identity)."""
        m = check_fiber_dim(fiber_dim)
        points = _point_array(values, space.n)
        if points is None:
            bad = next(p for p in values if not _is_key((p, p), space.n))
            raise InvalidParameterError(
                f"block key {(bad, bad)!r} is not a pair of points of range({space.n})")
        vals = list(values.values())
        try:
            scalars = np.array(vals, dtype=complex)
        except (TypeError, ValueError):
            scalars = None
        if scalars is not None and scalars.shape == (len(vals),):
            stack = scalars[:, None, None] * np.eye(m)
        else:
            eye = np.eye(m)
            stack = _block_stack([v if np.ndim(v) else complex(v) * eye for v in vals], m)
        return cls._raw(space, m, np.stack((points, points), axis=1), _finite(stack))

    @classmethod
    def partial_translation(cls, space, fiber_dim, pairs):
        """Identity fiber blocks on the given (target, source) pairs; a pair
        listed twice is one block, at its first place."""
        m = check_fiber_dim(fiber_dim)
        keys = _key_array(pairs, space.n)
        keys = keys[_first_places(_codes(keys, space.n))]
        return cls._raw(space, m, keys, _fiber_identities(m, len(keys)), prune=False)

    @classmethod
    def from_dense(cls, space, fiber_dim, mat, tol=0.0):
        """The blocks of an (n m) x (n m) matrix whose largest entry modulus
        exceeds ``tol``."""
        m = check_fiber_dim(fiber_dim)
        n = space.n
        tiles = np.asarray(mat).reshape(n, m, n, m).swapaxes(1, 2)  # tiles[x, y]: block (x, y)
        rows, cols = np.nonzero(_block_norms(tiles) > tol)
        return cls._validated(space, m, np.stack((rows, cols), axis=1),
                              np.asarray(tiles[rows, cols], dtype=complex))

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, BandOperator):
            raise IncompatibilityError("expected a BandOperator")
        if self.fiber_dim != other.fiber_dim or not _same_space(self.space, other.space):
            raise IncompatibilityError("operators live over different spaces or fibers")

    def _plus(self, keys, stack):
        """This operator plus the blocks ``stack`` at the distinct ``keys``:
        a shared pair holds this block plus that one, and the other pairs
        follow this operator's in their order."""
        n = self.space.n
        codes, sums = _sum_runs(np.concatenate((_codes(self.keys, n), _codes(keys, n))),
                                np.concatenate((self.stack, stack)))
        return BandOperator._raw(self.space, self.fiber_dim, _code_keys(codes, n), sums)

    def __add__(self, other):
        self._check_compatible(other)
        return self._plus(other.keys, other.stack)

    def __sub__(self, other):
        # a - b is a + (-b) bit for bit, and a block of other alone is -b
        self._check_compatible(other)
        return self._plus(other.keys, -other.stack)

    def __rmul__(self, scalar):
        return BandOperator._raw(self.space, self.fiber_dim, self.keys, scalar * self.stack)

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def __matmul__(self, other):
        """The product in one stacked matrix product: against a diagonal
        factor each block meets at most one block and keeps its place; else
        block (x, y) meets every block (y, z) of ``other`` in its order, and
        the products of one pair (x, z) are summed in that order."""
        self._check_compatible(other)
        if other.is_diagonal:
            at = other._diagonal_index()[self.keys[:, 1]]
            hit = at >= 0
            keys, stack = self.keys[hit], self.stack[hit] @ other.stack[at[hit]]
        elif self.is_diagonal:
            at = self._diagonal_index()[other.keys[:, 0]]
            hit = at >= 0
            keys, stack = other.keys[hit], self.stack[at[hit]] @ other.stack[hit]
        else:
            n = self.space.n
            by_row = np.argsort(other.keys[:, 0], kind="stable")
            rows = other.keys[by_row, 0]
            start = np.searchsorted(rows, self.keys[:, 1])
            left, rank = _runs(np.searchsorted(rows, self.keys[:, 1], side="right") - start)
            right = by_row[start[left] + rank]
            codes, stack = _sum_runs(self.keys[left, 0] * n + other.keys[right, 1],
                                     self.stack[left] @ other.stack[right])
            keys = _code_keys(codes, n)
        return BandOperator._raw(self.space, self.fiber_dim, keys, stack)

    def adjoint(self):
        return BandOperator._raw(self.space, self.fiber_dim, self.keys[:, ::-1].copy(),
                                 self.stack.conj().transpose(0, 2, 1), prune=False)

    def compress(self, rows, cols):
        """Keep blocks (x, y) with x in rows and y in cols."""
        n = self.space.n
        in_rows, in_cols = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        in_rows[list(rows)] = in_cols[list(cols)] = True
        keep = in_rows[self.keys[:, 0]] & in_cols[self.keys[:, 1]]
        return BandOperator._raw(self.space, self.fiber_dim, self.keys[keep],
                                 self.stack[keep], prune=False)

    # -- queries -----------------------------------------------------------

    def block(self, x, y):
        at = np.flatnonzero((self.keys[:, 0] == x) & (self.keys[:, 1] == y))
        if not len(at):
            return np.zeros((self.fiber_dim, self.fiber_dim), dtype=complex)
        return self.stack[at[0]]

    @property
    def is_zero(self):
        return not len(self.keys)

    def to_dense(self):
        return self.dense_on(range(self.space.n * self.fiber_dim))

    def row_profile(self):
        """The first and last nonzero row of each column of ``to_dense()``,
        (rows, -1) for an empty column, read off the block keys and the
        nonzero entries inside each block: the bounds :func:`band_panels`
        takes."""
        m = self.fiber_dim
        size = self.space.n * m
        first, last = np.full(size, size), np.full(size, -1)
        if len(self.keys):
            corners = m * self.keys  # the first coordinates of each block
            k, i, j = np.nonzero(self.stack)
            np.minimum.at(first, corners[k, 1] + j, corners[k, 0] + i)
            np.maximum.at(last, corners[k, 1] + j, corners[k, 0] + i)
        return first, last

    def active_coords(self):
        """Sorted dense coordinates of the points the operator touches."""
        m = self.fiber_dim
        return (_distinct(self.keys)[:, None] * m + np.arange(m)).ravel().tolist()

    def dense_on(self, coords):
        """Dense matrix on the given sorted coordinates, which must hold the
        whole fiber of every touched point."""
        pts = sorted({c // self.fiber_dim for c in coords})
        return self._dense(pts, pts)

    def _dense(self, rows, cols, which=slice(None)):
        """Dense matrix of the blocks ``which`` (all by default) on the
        sorted point lists ``rows`` x ``cols``: the one place a band
        operator becomes dense."""
        m = self.fiber_dim
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        check_dense_size(len(rows) * m, len(cols) * m)
        keys = self.keys[which]
        out = np.zeros((len(rows), m, len(cols), m), dtype=complex)
        out[np.searchsorted(rows, keys[:, 0]), :, np.searchsorted(cols, keys[:, 1]), :] = \
            self.stack[which]
        return out.reshape(len(rows) * m, len(cols) * m)

    def _eigh_components(self):
        """Sorted points and eigendecomposition of each connected component
        of the block support of a Hermitian operator, the components in the
        order their first blocks come."""
        keys = self.keys
        labels = component_labels(keys[:, 0], keys[:, 1], self.space.n)[keys[:, 0]]
        comps = []
        for group in _groups(labels):
            pts = _distinct(keys[group])
            comps.append((pts, *np.linalg.eigh(self._dense(pts, pts, group))))
        return comps

    def norm(self):
        return operator_norm(self)

    def eigenvalues(self):
        """Eigenvalues of a Hermitian operator, as a one-entry list: those of
        each connected component of its block support, then one zero per
        coordinate of the points it does not touch."""
        ws = [w for _, w, _ in self._eigh_components()]
        untouched = self.space.n * self.fiber_dim - sum(map(len, ws))
        return [np.concatenate(ws + [np.zeros(untouched)])]

    def funcalc(self, f):
        """Scalar functional calculus of a Hermitian operator.

        The operator is block diagonal over the connected components of its
        block support, so each component is diagonalized on its own.  ``f``
        sees the whole spectrum and a final 0 in one call; the points no
        block touches carry f(0) times the identity block.
        """
        m = self.fiber_dim
        comps = self._eigh_components()
        values = np.asarray(f(np.concatenate([w for _, w, _ in comps] + [np.zeros(1)])))
        keys, stacks = [np.zeros((0, 2), dtype=np.intp)], [np.zeros((0, m, m), dtype=complex)]
        start = 0
        for pts, w, v in comps:
            mat = (v * values[start:start + len(w)]) @ v.conj().T
            start += len(w)
            p = len(pts)
            keys.append(np.stack((pts.repeat(p), np.tile(pts, p)), axis=1))
            stacks.append(mat.reshape(p, m, p, m).swapaxes(1, 2).reshape(-1, m, m))
        if values[-1] != 0.0:
            touched = np.zeros(self.space.n, dtype=bool)
            touched[self.keys] = True
            untouched = np.flatnonzero(~touched)
            keys.append(np.stack((untouched, untouched), axis=1))
            stacks.append(np.repeat((complex(values[-1]) * np.eye(m))[None], len(untouched),
                                    axis=0))
        return BandOperator._raw(self.space, m, np.concatenate(keys), np.concatenate(stacks))

    def __repr__(self):
        return f"BandOperator(n={self.space.n}, m={self.fiber_dim}, nnz={len(self.keys)})"


def prop_support(op):
    """Support pairs and propagation (max distance over the support)."""
    support = frozenset(map(tuple, op.keys.tolist()))
    if not support:
        return support, 0.0
    return support, float(op.space.dist[op.keys[:, 0], op.keys[:, 1]].max())


def spectral_norm(mat):
    """Largest singular value of a dense matrix; 0.0 for an empty one.  A
    stack of shape (..., p, q) gives the array of its matrices' values.  An
    entry that is not finite raises ``LinAlgError`` (the SVD gives NaN for inf).
    The entries are finite when their sum is, so no mask is formed unless
    the sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(mat.sum())
    if not (finite or np.isfinite(mat).all()):
        raise np.linalg.LinAlgError("a matrix with an entry that is not finite has no norm")
    if mat.ndim > 2:
        return np.linalg.svd(mat, compute_uv=False)[..., 0]
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def band_panels(first, last, rows):
    """The certificate panels ``(p0, p1, e, r0, r1)`` of a matrix M of
    ``rows`` rows whose column j holds its nonzeros in rows ``first[j]`` to
    ``last[j]`` (an empty column: ``rows`` and -1), bounds that come from
    the structure M was formed from, never from a scan of M: columns
    [p0, p1) reach the columns up to the band end ``e`` of M^H M, and hold
    their nonzeros in rows [r0, r1).  Wider bounds give wider panels, which
    the certificate and the Lanczos products may use all the same.

    (M^H M)_jk vanishes unless columns j and k share a nonzero row.  The band
    end of column j is one past the last column k whose first nonzero row
    lies at or above j's last one, which holds every column whose row range
    meets j's, and at least j + 1.  The ends are made nondecreasing by a
    running maximum, so the Cholesky factor of a Hermitian matrix with this
    band, fill-in included, stays inside it.  Fewer than 2 CERT_PANEL
    columns make one panel.
    """
    cols = len(first)
    count = max(cols // CERT_PANEL, 1)
    if count == 1:
        return [(0, cols, cols, 0, rows)]
    # the suffix minimum of first is sorted, so a search finds the last
    # column k with first[k] <= last[j]
    reach = np.minimum.accumulate(first[::-1])[::-1]
    ends = np.maximum(np.searchsorted(reach, last, side="right"), np.arange(1, cols + 1))
    ends = np.maximum.accumulate(ends)
    edges = [cols * i // count for i in range(count + 1)]
    return [(p0, p1, int(ends[p1 - 1]), int(first[p0:p1].min()), int(last[p0:p1].max()) + 1)
            for p0, p1 in zip(edges, edges[1:])]


def certified_below(mat, bound, panels=None):
    """True when ``||mat|| < bound`` is proved by a Cholesky factor of
    ``G = bound^2 (1 - CERT_MARGIN) I - M^H M``; False says nothing.
    ``panels`` are the :func:`band_panels` of bounds on M's nonzero rows;
    None takes M as dense, one panel ``(0, cols, cols, 0, rows)``.

    The factorization is blocked and right-looking, as LAPACK's banded
    ``zpbtrf``, over panels of about CERT_PANEL columns (a matrix of fewer
    than 2 CERT_PANEL columns is one panel, a dense Cholesky).  The band
    comes from :func:`band_panels`: panel [p0, p1) reaches the columns up
    to the band end ``e`` of its last column, and since the ends are a
    running maximum, the rows an earlier panel's update fills in lie inside
    the band of every later panel.  Each panel keeps one slab, the rows
    ``G[p0:p1, p0:e]``, formed only from the rows of M its own columns touch
    and only once an earlier panel's update reaches it, so the working
    storage is O(cols * band).  In turn, each panel of w = p1 - p0 columns
    takes

    1. the Cholesky factor ``L`` of its diagonal block;
    2. ``X = L^-1 G[p0:p1, p1:e]``, one solve against the w x w factor (an
       LU, numpy having no triangular solve);
    3. the rank-w update ``G[p1:e, p1:e] -= X^H X`` of the later slabs.

    The margin covers the rounding of the Gram products and the backward
    error of the factorization.  Blocked Cholesky with backward-stable panel
    solves has a bound of the same form as the unblocked one,
    ``|Delta G| <= c n u |L| |L^H|``, so the margin that covered a dense
    factorization covers the blocked one.  A factor that is not finite
    proves nothing: numpy's Cholesky returns NaN or infinite factors for a
    matrix with NaN entries or for Gram products and shifts that overflow.
    A non-finite ``X`` reaches the diagonal block of a later panel through
    its update and is refused there.
    """
    if not bound > 0.0:
        return False
    if mat.size == 0:
        return True
    shift = bound * bound * (1.0 - CERT_MARGIN)
    rows, cols = mat.shape
    panels = [(0, cols, cols, 0, rows)] if panels is None else panels
    slabs = []
    for i, (p0, p1, end, _, _) in enumerate(panels):
        while len(slabs) < len(panels) and panels[len(slabs)][0] < end:
            q0, q1, band_end, r0, r1 = panels[len(slabs)]
            slab = -(mat[r0:r1, q0:q1].conj().T @ mat[r0:r1, q0:band_end])
            slab.ravel()[::band_end - q0 + 1] += shift  # the diagonal of G in a fresh array
            slabs.append(slab)
        slab, slabs[i] = slabs[i], None
        try:
            factor = np.linalg.cholesky(slab[:, :p1 - p0])
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(factor).all():
            return False
        if end == p1:
            continue
        x = np.linalg.solve(factor, slab[:, p1 - p0:])
        for q in range(i + 1, len(slabs)):
            q0, q1 = panels[q][:2]
            slabs[q][:min(q1, end) - q0, :end - q0] -= \
                x[:, q0 - p1:q1 - p1].conj().T @ x[:, q0 - p1:]
    return True


class Nearby(NamedTuple):
    """A matrix met through an approximation: the matrix it stands for lies
    within ``gap`` of ``approx`` in spectral norm.  ``panels``, when given,
    are the certificate panels of ``approx`` (see :func:`certified_below`)."""

    approx: np.ndarray
    gap: float
    panels: list = None


def max_spectral_norm(mats):
    """Exactly ``max(spectral_norm(M) for M in mats)``, 0.0 when empty.

    Only a matrix that may raise the running maximum pays for an SVD; any
    other one is skipped on :func:`certified_below`.
    """
    return _running_max(mats, lambda mat, _: (spectral_norm(mat), 0.0))[0]


def max_norm_enclosure(items):
    """``(value, upper)`` for the largest spectral norm of a stream: the
    largest :func:`norm_enclosure` value of a record, and an upper end proved
    for every item; (0.0, 0.0) when empty.

    An item is a matrix or a :class:`Nearby`, whose matrix lies within
    ``gap`` of its ``approx`` and which may carry the certificate panels of
    its ``approx``.  An item whose ``approx`` is certified below
    the running maximum ``best`` less its gap is skipped: the matrix it
    stands for lies below ``best``.  Any other item is a *record*: its
    ``approx`` is valued and its upper end, with its gap added, enters the
    largest upper end.  No certificate is tried unless ``gap < best / 2``.
    """
    return _running_max(items, norm_enclosure)


def _running_max(items, measure):
    """The largest ``measure(approx, panels)`` value over the items
    (matrices or :class:`Nearby`) that :func:`certified_below` cannot place
    below the running maximum less their gap, and the largest of their upper
    ends plus gap.  Each item is released before the next one is formed."""
    best, upper = None, 0.0
    for item in items:
        mat, gap, panels = item if isinstance(item, Nearby) else (item, 0.0, None)
        item = None
        if best is None or not (gap < 0.5 * best and certified_below(mat, best - gap, panels)):
            value, top = measure(mat, panels)
            best = value if best is None else max(best, value)
            upper = max(upper, float(top + gap))
        mat = None
    return (0.0, 0.0) if best is None else (best, upper)


def norm_enclosure(mat, panels=None):
    """``(value, upper)`` for the spectral norm of a dense matrix M:
    ``value`` estimates it, and ``upper = value (1 + ENCLOSURE_REL)`` is
    proved above it by :func:`certified_below`; (0.0, 0.0) when M is empty
    or zero.  An entry that is not finite raises ``LinAlgError``, as the SVD
    does.  ``panels`` are M's certificate panels, as :func:`certified_below`
    takes them; None takes M as dense.

    A matrix of fewer than 2 CERT_PANEL columns (one certificate panel)
    takes its value from LAPACK's SVD.  A larger one takes it from a
    Golub-Kahan-Lanczos bidiagonalization (G. Golub and W. Kahan, SIAM J.
    Numer. Anal. Ser. B 2, 1965) with full reorthogonalization (B. Parlett,
    *The Symmetric Eigenvalue Problem*, SIAM, 1998) of the taller of M and
    M^H, from a start vector drawn with the seed LANCZOS_SEED:

    * a step multiplies by M and by M^H once each, panel by panel over M's
      certificate panels when M is the taller one, so a banded matrix costs
      its band, not its size;
    * each new basis vector is orthogonalized twice against the basis; an
      alpha or beta at most LANCZOS_BREAKDOWN ||M||_F is a breakdown: it is
      taken as 0 and the next vector is drawn afresh, orthogonal to the
      basis, so rounding noise is never normalized into a basis vector;
    * the run stops at a breakdown, or when the top Ritz value rises by at
      most LANCZOS_STALL of itself in one step;
    * the value is ``||M x|| / ||x||`` for the top Ritz vector x, which
      stays below ||M|| up to the rounding of one product, whatever the
      basis;
    * the value counts once the certificate proves its upper end; else the
      run goes on to twice its length, or to full dimension, before the
      next try.  At full dimension the basis spans the space, so a refusal
      there raises ``LinAlgError``.

    Each record of :func:`max_norm_enclosure` is certified on its own: an
    under-valued record could otherwise hide the largest norm.
    """
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("a matrix with an entry that is not finite has no norm")
    if not mat.any():
        return 0.0, 0.0
    if mat.shape[1] < 2 * CERT_PANEL:
        value = spectral_norm(mat)
        if not certified_below(mat, value * (1.0 + ENCLOSURE_REL), panels):
            raise np.linalg.LinAlgError("the SVD value of a matrix could not be certified")
        return value, value * (1.0 + ENCLOSURE_REL)
    return _lanczos_enclosure(mat, panels)


def _lanczos_enclosure(mat, cert_panels):
    """The Golub-Kahan-Lanczos run of :func:`norm_enclosure`; ``cert_panels``
    are M's certificate panels, or None for a dense M.  A wide M is run as
    its adjoint, over one dense panel."""
    if mat.shape[0] >= mat.shape[1]:
        a, a_panels = mat, cert_panels
    else:
        a, a_panels = np.ascontiguousarray(mat.conj().T), None
    rows, n = a.shape
    panels = []
    for p0, p1, _, r0, r1 in a_panels or [(0, n, n, 0, rows)]:
        if panels and panels[-1][2:] == [r0, r1]:
            panels[-1][1] = p1  # panels over the same rows are one product
        else:
            panels.append([p0, p1, r0, r1])

    def times(x):
        out = np.zeros(rows, dtype=complex)
        for p0, p1, r0, r1 in panels:
            out[r0:r1] += a[r0:r1, p0:p1] @ x[p0:p1]
        return out

    def adjoint_times(u):
        return np.concatenate([(u[r0:r1].conj() @ a[r0:r1, p0:p1]).conj()
                               for p0, p1, r0, r1 in panels])

    rng = np.random.default_rng(LANCZOS_SEED)

    def orthogonal(w, basis):
        for _ in range(2):
            w = w - (basis @ w.conj()).conj() @ basis
        return w

    def fresh(size, basis):
        w = orthogonal(rng.standard_normal(size) + 1j * rng.standard_normal(size), basis)
        return w / np.linalg.norm(w)

    tiny = LANCZOS_BREAKDOWN * math.sqrt(np.vdot(a, a).real)  # of ||M||_F, with no copy
    vs = np.zeros((min(n, 32), n), dtype=complex)  # the bases, one vector per row
    us = np.zeros((min(n, 32), rows), dtype=complex)
    alphas, betas = [], []
    v = fresh(n, vs[:0])
    beta = 0.0
    ritz = 0.0
    next_try = 0
    k = 0
    while True:
        if k == len(vs):
            vs = np.concatenate([vs, np.zeros((min(n, 2 * k) - k, n), dtype=complex)])
            us = np.concatenate([us, np.zeros((min(n, 2 * k) - k, rows), dtype=complex)])
        vs[k] = v
        p = times(v)
        if k:
            p -= beta * us[k - 1]
        p = orthogonal(p, us[:k])
        alpha = float(np.linalg.norm(p))
        broke = alpha <= tiny
        if broke:
            alpha = 0.0
            us[k] = fresh(rows, us[:k])
        else:
            us[k] = p / alpha
        alphas.append(alpha)
        k += 1
        w = orthogonal(adjoint_times(us[k - 1]) - alpha * v, vs[:k])
        beta = float(np.linalg.norm(w)) if k < n else 0.0
        if beta <= tiny:
            broke = True
            beta = 0.0
        # the top Ritz pair of M from that of B^T B, B upper bidiagonal
        diag, off = np.array(alphas), np.array(betas)
        gram = np.diag(diag ** 2 + np.concatenate([[0.0], off ** 2]))
        gram += np.diag(diag[:-1] * off, 1) + np.diag(diag[:-1] * off, -1)
        lams, vecs = np.linalg.eigh(gram)
        top = math.sqrt(max(lams[-1], 0.0))
        stalled = top <= ritz * (1.0 + LANCZOS_STALL)
        ritz = max(ritz, top)
        if ((broke or stalled) and k >= next_try) or k == n:
            x = vecs[:, -1] @ vs[:k]
            value = float(np.linalg.norm(times(x)) / np.linalg.norm(x))
            upper = value * (1.0 + ENCLOSURE_REL)
            if certified_below(mat, upper, cert_panels):
                return value, upper
            if k == n:
                raise np.linalg.LinAlgError(
                    "the Lanczos value of a matrix could not be certified at full dimension")
            next_try = 2 * k
        betas.append(beta)
        v = fresh(n, vs[:k]) if beta == 0.0 else w / beta


def operator_norm(op):
    """Largest singular value, exact.

    After permuting rows and columns the operator is block diagonal over the
    connected components of its bipartite block support (row x and column y
    are the nodes x and n + y), so the norm is the largest component norm.
    The components of one block are that block, and all of them take one
    stacked SVD; the larger ones become dense, and those of equal shape
    share one stacked SVD.  An entry that is not finite raises
    ``LinAlgError``, as in :func:`spectral_norm`.
    """
    keys, n = op.keys, op.space.n
    if not len(keys):
        return 0.0
    labels = component_labels(keys[:, 0], n + keys[:, 1], 2 * n)[keys[:, 0]]
    single = np.bincount(labels)[labels] == 1
    stacks = [np.asarray(op.stack[single], dtype=complex)] if single.any() else []
    multi = np.flatnonzero(~single)
    mats = [op._dense(_distinct(keys[group, 0]), _distinct(keys[group, 1]), group)
            for group in (multi[g] for g in _groups(labels[multi]))]
    stacks += [np.stack(same) for same in group_by(mats, np.shape)]
    return max(float(spectral_norm(stack).max()) for stack in stacks)


class DiagonalReport:
    """Outcome of a diagonal-membership test."""

    def __init__(self, flag, offdiag_mass):
        self.flag = bool(flag)
        self.offdiag_mass = float(offdiag_mass)

    def __bool__(self):
        return self.flag

    def __repr__(self):
        return f"DiagonalReport(flag={self.flag}, offdiag_mass={self.offdiag_mass:.3e})"


def diagonal_membership(op, tol):
    """Test membership in the propagation-zero subalgebra.

    Passes when the largest off-diagonal block norm is at most
    ``tol * max(1, ||T||)``, so the zero operator passes at any tolerance.
    """
    check_real(tol, "tolerance", 0)
    off = op.keys[:, 0] != op.keys[:, 1]
    mass = float(spectral_norm(np.asarray(op.stack[off], dtype=complex)).max()) \
        if off.any() else 0.0
    if mass == 0.0:
        return DiagonalReport(True, 0.0)
    scale = max(1.0, operator_norm(op))
    return DiagonalReport(mass <= tol * scale, mass)


def normalizer_check(op, tol):
    """Test whether conjugation by ``op`` maps the diagonal into itself.

    Conjugates every single-point, single-fiber-matrix-unit diagonal
    generator by ``op`` and by its adjoint, and requires each conjugate to
    pass :func:`diagonal_membership`; by linearity the generators suffice.
    Columns (rows) of ``op`` holding at most one block conjugate trivially
    and are skipped.
    """
    worst = 0.0
    m = op.fiber_dim
    for candidate in (op, op.adjoint()):
        cols = {}
        for (x, y), b in candidate.blocks.items():
            cols.setdefault(y, []).append((x, b))
        for x, entries in cols.items():
            if len(entries) < 2:
                continue
            for alpha in range(m):
                for beta in range(m):
                    unit = fiber_unit(m, alpha, beta)
                    conj = {}
                    for (u, bu) in entries:
                        for (v, bv) in entries:
                            blk = bu @ unit @ bv.conj().T
                            key = (u, v)
                            conj[key] = conj.get(key, 0) + blk
                    rep = diagonal_membership(
                        BandOperator(op.space, m, conj), tol)
                    worst = max(worst, rep.offdiag_mass)
                    if not rep.flag:
                        return NormalizerReport(False, worst)
    return NormalizerReport(True, worst)


class NormalizerReport:
    def __init__(self, flag, worst):
        self.flag = bool(flag)
        self.worst = float(worst)

    def __bool__(self):
        return self.flag

    def __repr__(self):
        return f"NormalizerReport(flag={self.flag}, worst={self.worst:.3e})"


# -- JSON interface ------------------------------------------------------

def _block_from_json(rows):
    """A block from its rows of [re, im] pairs; anything else raises
    ``InvalidParameterError``."""
    try:
        block = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError):
        block = None
    if block is None or block.ndim != 2:
        raise InvalidParameterError(
            f"an operator block must be a list of rows of [re, im] pairs, got {rows!r}")
    return block


def save_operator(op, path):
    """Write an operator file: the text ``write_json`` gives the document
    ``{"fiber": m, "blocks": [{"x": x, "y": y, "block": rows}, ...]}``,
    one record per block in key order, each block as rows of [re, im]
    pairs.  The text is joined from fragments, each the ``canonical_json``
    of its part: each distinct block is encoded once (blocks are told apart
    by their bytes, so -0.0 and 0.0 stay apart), and so is each point id."""
    m = op.fiber_dim
    order = np.lexsort((op.keys[:, 1], op.keys[:, 0]))
    stack = np.ascontiguousarray(op.stack[order], dtype=complex)
    raws = [block.tobytes() for block in stack]
    distinct = dict.fromkeys(raws)  # in order of first appearance
    blocks = np.frombuffer(b"".join(distinct), dtype=complex).reshape(-1, m, m)
    rows = np.stack((blocks.real, blocks.imag), -1).tolist()
    texts = dict(zip(distinct, _block_fragments(rows)))
    points = op.space.points
    ids = {p: _id_fragment(points[p]) for p in _distinct(op.keys).tolist()}
    records = ",".join(f'{{"block":{texts[raw]},"x":{ids[x]},"y":{ids[y]}}}'
                       for raw, (x, y) in zip(raws, op.keys[order].tolist()))
    write_text(f'{{"blocks":[{records}],"fiber":{_fragment(m)}}}\n', path)


def _fragment(value):
    """The text ``canonical_json`` gives ``value`` inside a document."""
    return canonical_json(value)[:-1]


def _block_fragments(blocks):
    """The fragment of each block of a list, each block given as rows of
    [re, im] pairs, cut from one ``canonical_json`` of the list: a number
    holds no bracket, so "]]],[[[" occurs only where one block ends and the
    next begins."""
    if not blocks:
        return []
    return _fragment(blocks)[1:-1].replace("]]],[[[", "]]]\n[[[").split("\n")


def _id_fragment(p):
    """The fragment of a point id: an int's decimal string, a tuple's the
    list of its entries' fragments, anything else's ``canonical_json``."""
    if type(p) is int:
        return str(p)
    if type(p) is tuple:
        return "[" + ",".join(map(_id_fragment, p)) + "]"
    return _fragment(p)


def _stack_from_json(rows, m):
    """The blocks of the records, each given as rows of [re, im] pairs, as
    one (nnz, m, m) complex stack: read as one array of numbers when they
    are, else block by block; anything else raises
    ``InvalidParameterError``."""
    try:
        pairs = np.array(rows)
    except (TypeError, ValueError):
        pairs = None
    if pairs is not None and pairs.dtype.kind in "biuf" and pairs.shape[1:] == (m, m, 2):
        return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
    return _block_stack([_block_from_json(block) for block in rows], m)


def load_operator(path, space):
    """The operator of a file of :func:`save_operator` over ``space``.  A
    missing key, a point id that names no point of the space, two records
    at one point pair and a block that is not rows of [re, im] pairs raise
    ``InvalidParameterError`` naming the file."""
    fiber, records = _fields(_read_object(path), ("fiber", "blocks"), path)
    if not _is_list_of(records, dict):
        raise InvalidParameterError(f"{path}: 'blocks' must be a list of block records")
    try:
        xs, ys, rows = ([rec[key] for rec in records] for key in ("x", "y", "block"))
    except KeyError:  # raised again, naming the first record without the key
        for i, rec in enumerate(records):
            _fields(rec, ("x", "y", "block"), path, f"block record {i}")
    points = np.array(_point_indices(space, xs + ys, path), dtype=np.intp)
    keys = points.reshape(2, -1).T.copy()
    codes = _codes(keys, space.n)
    repeated = np.ones(len(codes), dtype=bool)
    repeated[_first_places(codes)] = False
    if repeated.any():
        i = int(np.argmax(repeated))
        raise InvalidParameterError(
            f"{path}: block record {i} repeats the point pair ({xs[i]!r}, {ys[i]!r})")
    m = check_fiber_dim(fiber)
    return BandOperator._validated(space, m, keys, _stack_from_json(rows, m))
