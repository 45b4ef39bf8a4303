"""Block-sparse band operators on l2(X, C^m).

An operator is stored as a sparse map from point pairs ``(x, y)`` to nonzero
``m x m`` complex fiber blocks.  The support is the set of stored pairs and
the propagation is the largest distance over the support, so the sparsity
pattern carries the metric content.  Blocks whose norm falls below 1e-14 of
the largest block are pruned after arithmetic to keep support and propagation
meaningful under floating-point fill-in.

Operators are immutable values: arithmetic returns new instances.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import IncompatibilityError, InvalidParameterError, SizeLimitError
from .space import _id_from_json, _id_to_json, _is_list_of, _read_object, write_json

PRUNE_REL = 1e-14
CERT_MARGIN = 1e-10
CERT_PANEL = 48
ENCLOSURE_REL = 1e-9
LANCZOS_BREAKDOWN = 1e-13
LANCZOS_STALL = 1e-15
LANCZOS_SEED = 0
DENSE_BYTES_LIMIT = 1 << 30


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
    if not (type(fiber_dim) is int or isinstance(fiber_dim, np.integer)) or fiber_dim < 1:
        raise InvalidParameterError(
            f"fiber dimension must be an integer >= 1, got {fiber_dim!r}")
    return int(fiber_dim)


def fiber_unit(m, alpha, beta):
    """The m x m fiber matrix unit E_{alpha, beta}."""
    unit = np.zeros((m, m), dtype=complex)
    unit[alpha, beta] = 1.0
    return unit


def connected_components(edges, nodes=()):
    """Map every node (of ``nodes`` or an endpoint of the pairs ``edges``) to
    the smallest node of its connected component."""
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


def group_by(items, label):
    """Lists of the items with equal ``label(item)``, in first-seen order."""
    groups = {}
    for item in items:
        groups.setdefault(label(item), []).append(item)
    return list(groups.values())


def _same_space(s1, s2):
    if s1 is s2:
        return True
    return s1.points == s2.points and np.array_equal(s1.dist, s2.dist)


def _block_norms(stack):
    """The largest entry modulus of each m x m block of a stack (..., m, m).
    The modulus is libm's ``hypot``, as Python's ``abs`` of a complex number
    computes it; numpy's complex ``abs`` can differ from it by an ulp."""
    return np.hypot(stack.real, stack.imag).max(axis=(-2, -1))


def _pruned(blocks):
    """The blocks whose largest entry modulus exceeds PRUNE_REL times the
    largest over all blocks, in their order: one max-of-modulus over the
    stacked blocks.  None are kept when every block is zero, and all of them
    when the largest modulus is not finite."""
    if not blocks:
        return {}
    norms = _block_norms(np.array(list(blocks.values())))
    biggest = norms.max()
    if not np.isfinite(biggest):
        return blocks
    keep = norms > PRUNE_REL * biggest
    if keep.all():
        return blocks
    return {k: b for (k, b), kept in zip(blocks.items(), keep.tolist()) if kept}


class BandOperator:
    """Finite-propagation operator given by its nonzero fiber blocks."""

    __slots__ = ("space", "fiber_dim", "blocks", "_diag")

    def __init__(self, space, fiber_dim, blocks):
        """Validating constructor: a block key that is not a pair of points of
        range(n), a block that is not m x m or not finite raise
        ``InvalidParameterError``."""
        self.space = space
        self.fiber_dim = m = check_fiber_dim(fiber_dim)
        self._diag = None
        n = space.n
        cleaned = {}
        for (x, y), b in blocks.items():
            arr = np.asarray(b, dtype=complex)
            if arr.shape != (m, m):
                raise InvalidParameterError("fiber block has wrong shape")
            key = (int(x), int(y))
            if not (0 <= key[0] < n and 0 <= key[1] < n):
                raise InvalidParameterError(
                    f"block key {key} is not a pair of points of range({n})")
            cleaned[key] = arr
        if not np.isfinite(np.array(list(cleaned.values()))).all():
            raise InvalidParameterError("a fiber block has an entry that is not finite")
        self.blocks = _pruned(cleaned)

    @classmethod
    def _raw(cls, space, fiber_dim, blocks, prune=True):
        """Internal constructor for blocks already known to be well-shaped."""
        op = cls.__new__(cls)
        op.space = space
        op.fiber_dim = fiber_dim
        op._diag = None
        op.blocks = _pruned(blocks) if prune else blocks
        return op

    @property
    def is_diagonal(self):
        if self._diag is None:
            self._diag = all(x == y for (x, y) in self.blocks)
        return self._diag

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, space, fiber_dim):
        return cls(space, fiber_dim, {})

    @classmethod
    def identity(cls, space, fiber_dim):
        eye = np.eye(check_fiber_dim(fiber_dim), dtype=complex)
        return cls(space, fiber_dim, {(x, x): eye for x in range(space.n)})

    @classmethod
    def diagonal(cls, space, fiber_dim, values):
        """Propagation-zero operator; ``values`` maps point index to block
        (scalar entries are promoted to multiples of the fiber identity)."""
        blocks = {}
        for x, v in values.items():
            v = np.asarray(v, dtype=complex)
            if v.ndim == 0:
                v = complex(v) * np.eye(check_fiber_dim(fiber_dim))
            blocks[(x, x)] = v
        return cls(space, fiber_dim, blocks)

    @classmethod
    def partial_translation(cls, space, fiber_dim, pairs):
        """Identity fiber blocks on the given (target, source) pairs."""
        eye = np.eye(check_fiber_dim(fiber_dim), dtype=complex)
        return cls(space, fiber_dim, {(x, y): eye for (x, y) in pairs})

    @classmethod
    def from_dense(cls, space, fiber_dim, mat, tol=0.0):
        """The blocks of an (n m) x (n m) matrix whose largest entry modulus
        exceeds ``tol``."""
        m = check_fiber_dim(fiber_dim)
        n = space.n
        tiles = np.asarray(mat).reshape(n, m, n, m).swapaxes(1, 2)  # tiles[x, y]: block (x, y)
        rows, cols = np.nonzero(_block_norms(tiles) > tol)
        return cls(space, fiber_dim, {(x, y): tiles[x, y].copy()
                                      for x, y in zip(rows.tolist(), cols.tolist())})

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, BandOperator):
            raise IncompatibilityError("expected a BandOperator")
        if self.fiber_dim != other.fiber_dim or not _same_space(self.space, other.space):
            raise IncompatibilityError("operators live over different spaces or fibers")

    def __add__(self, other):
        self._check_compatible(other)
        blocks = dict(self.blocks)
        for k, b in other.blocks.items():
            blocks[k] = blocks[k] + b if k in blocks else b
        return BandOperator._raw(self.space, self.fiber_dim, blocks)

    def __sub__(self, other):
        self._check_compatible(other)
        blocks = dict(self.blocks)
        for k, b in other.blocks.items():
            blocks[k] = blocks[k] - b if k in blocks else -b
        return BandOperator._raw(self.space, self.fiber_dim, blocks)

    def __rmul__(self, scalar):
        return BandOperator._raw(self.space, self.fiber_dim,
                                 {k: scalar * b for k, b in self.blocks.items()})

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def __matmul__(self, other):
        self._check_compatible(other)
        blocks = {}
        if other.is_diagonal:
            oblocks = other.blocks
            for (x, y), a in self.blocks.items():
                b = oblocks.get((y, y))
                if b is not None:
                    blocks[(x, y)] = a @ b
        elif self.is_diagonal:
            sblocks = self.blocks
            for (y, z), b in other.blocks.items():
                a = sblocks.get((y, y))
                if a is not None:
                    blocks[(y, z)] = a @ b
        else:
            by_row = {}
            for (y, z), b in other.blocks.items():
                by_row.setdefault(y, []).append((z, b))
            for (x, y), a in self.blocks.items():
                for z, b in by_row.get(y, ()):
                    key = (x, z)
                    prod = a @ b
                    blocks[key] = blocks[key] + prod if key in blocks else prod
        return BandOperator._raw(self.space, self.fiber_dim, blocks)

    def adjoint(self):
        return BandOperator._raw(
            self.space, self.fiber_dim,
            {(y, x): b.conj().T for (x, y), b in self.blocks.items()}, prune=False)

    def compress(self, rows, cols):
        """Keep blocks (x, y) with x in rows and y in cols."""
        rows, cols = set(rows), set(cols)
        return BandOperator._raw(
            self.space, self.fiber_dim,
            {k: b for k, b in self.blocks.items() if k[0] in rows and k[1] in cols},
            prune=False)

    # -- queries -----------------------------------------------------------

    def block(self, x, y):
        b = self.blocks.get((x, y))
        return np.zeros((self.fiber_dim, self.fiber_dim), dtype=complex) if b is None else b

    @property
    def is_zero(self):
        return not self.blocks

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
        if self.blocks:
            corners = m * np.array(list(self.blocks))  # the first coordinates of each block
            k, i, j = np.nonzero(np.array(list(self.blocks.values())))
            np.minimum.at(first, corners[k, 1] + j, corners[k, 0] + i)
            np.maximum.at(last, corners[k, 1] + j, corners[k, 0] + i)
        return first, last

    def active_coords(self):
        """Sorted dense coordinates of the points the operator touches."""
        m = self.fiber_dim
        pts = sorted({p for key in self.blocks for p in key})
        return [p * m + a for p in pts for a in range(m)]

    def dense_on(self, coords):
        """Dense matrix on the given sorted coordinates, which must hold the
        whole fiber of every touched point."""
        pts = sorted({c // self.fiber_dim for c in coords})
        return self._dense(pts, pts, self.blocks)

    def _dense(self, rows, cols, keys):
        """Dense matrix of the blocks ``keys`` on the sorted point lists
        ``rows`` x ``cols``: the one place a band operator becomes dense."""
        m = self.fiber_dim
        check_dense_size(len(rows) * m, len(cols) * m)
        row_at = {x: i * m for i, x in enumerate(rows)}
        col_at = row_at if cols is rows else {y: j * m for j, y in enumerate(cols)}
        out = np.zeros((len(rows) * m, len(cols) * m), dtype=complex)
        for x, y in keys:
            i, j = row_at[x], col_at[y]
            out[i:i + m, j:j + m] = self.blocks[(x, y)]
        return out

    def _eigh_components(self):
        """Sorted points and eigendecomposition of each connected component
        of the block support of a Hermitian operator."""
        comps = []
        labels = connected_components(self.blocks)
        for keys in group_by(self.blocks, lambda key: labels[key[0]]):
            pts = sorted({p for key in keys for p in key})
            comps.append((pts, *np.linalg.eigh(self._dense(pts, pts, keys))))
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
        blocks = {}
        start = 0
        for pts, w, v in comps:
            mat = (v * values[start:start + len(w)]) @ v.conj().T
            start += len(w)
            for i, x in enumerate(pts):
                for j, y in enumerate(pts):
                    blocks[(x, y)] = mat[i * m:(i + 1) * m, j * m:(j + 1) * m]
        if values[-1] != 0.0:
            eye = complex(values[-1]) * np.eye(m)
            for x in range(self.space.n):
                blocks.setdefault((x, x), eye)
        return BandOperator._raw(self.space, m, blocks)

    def __repr__(self):
        return f"BandOperator(n={self.space.n}, m={self.fiber_dim}, nnz={len(self.blocks)})"


def prop_support(op):
    """Support pairs and propagation (max distance over the support)."""
    support = frozenset(op.blocks.keys())
    if not support:
        return support, 0.0
    prop = max(float(op.space.dist[x, y]) for (x, y) in support)
    return support, prop


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
    are the nodes x and ~y), so the norm is the largest component norm;
    equal-shape components take one stacked SVD.  A component of one block
    is that block, with no dense copy.  An entry that is not finite raises
    ``LinAlgError``, as in :func:`spectral_norm`.
    """
    labels = connected_components((x, ~y) for x, y in op.blocks)
    mats = [op.blocks[keys[0]] if len(keys) == 1 else
            op._dense(sorted({x for x, _ in keys}), sorted({y for _, y in keys}), keys)
            for keys in group_by(op.blocks, lambda key: labels[key[0]])]
    return max((float(spectral_norm(np.stack(same, dtype=complex)).max())
                for same in group_by(mats, np.shape)), default=0.0)


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
    if tol < 0:
        raise InvalidParameterError("tolerance must be nonnegative")
    mass = 0.0
    for (x, y), b in op.blocks.items():
        if x != y:
            mass = max(mass, spectral_norm(b))
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
    """Write an operator file: the fiber and one record per block, in key
    order, each block as rows of [re, im] pairs.  The blocks are written
    from one stacked array, and the id of each point they touch is
    converted once."""
    keys = sorted(op.blocks)
    stack = np.array([op.blocks[key] for key in keys], dtype=complex)
    rows = np.stack((stack.real, stack.imag), -1).tolist()
    ids = {p: _id_to_json(op.space.points[p]) for p in set().union(*keys)}
    write_json({"fiber": op.fiber_dim,
                "blocks": [{"x": ids[x], "y": ids[y], "block": block}
                           for (x, y), block in zip(keys, rows)]}, path)


def load_operator(path, space):
    doc = _read_object(path)
    records = doc["blocks"]
    if not _is_list_of(records, dict):
        raise InvalidParameterError(f"{path}: 'blocks' must be a list of block records")
    blocks = {}
    for rec in records:
        x = space.index(_id_from_json(rec["x"]))
        y = space.index(_id_from_json(rec["y"]))
        blocks[(x, y)] = _block_from_json(rec["block"])
    return BandOperator(space, doc["fiber"], blocks)
