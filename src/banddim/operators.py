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

import json

import numpy as np

from .errors import (ConvergenceError, IncompatibilityError, InvalidParameterError,
                     SizeLimitError)
from .space import _id_from_json, _id_to_json

PRUNE_REL = 1e-14
CERT_MARGIN = 1e-10
DENSE_NORM_THRESHOLD = 2048
POWER_TOL = 1e-10
POWER_MAXITER = 50_000
DENSE_BYTES_LIMIT = 1 << 30


def check_dense_size(dim):
    """Raise before a dense complex dim x dim matrix above DENSE_BYTES_LIMIT
    bytes is allocated."""
    nbytes = dim * dim * np.dtype(complex).itemsize
    if nbytes > DENSE_BYTES_LIMIT:
        raise SizeLimitError(
            f"a dense {dim}x{dim} complex matrix needs {nbytes} bytes, above the "
            f"limit of {DENSE_BYTES_LIMIT} bytes")


def _same_space(s1, s2):
    if s1 is s2:
        return True
    return s1.points == s2.points and np.array_equal(s1.dist, s2.dist)


def _block_norm(b):
    if b.size <= 16:
        return max(map(abs, b.ravel().tolist()))
    return float(np.abs(b).max())


def _pruned(blocks):
    if not blocks:
        return {}
    norms = [(k, b, _block_norm(b)) for k, b in blocks.items()]
    biggest = max(t[2] for t in norms)
    if biggest == 0.0:
        return {}
    cut = PRUNE_REL * biggest
    return {k: b for (k, b, w) in norms if w > cut}


class BandOperator:
    """Finite-propagation operator given by its nonzero fiber blocks."""

    __slots__ = ("space", "fiber_dim", "blocks", "_diag")

    def __init__(self, space, fiber_dim, blocks, prune=True):
        self.space = space
        self.fiber_dim = int(fiber_dim)
        self._diag = None
        cleaned = {}
        for (x, y), b in blocks.items():
            arr = np.asarray(b, dtype=complex)
            if arr.shape != (self.fiber_dim, self.fiber_dim):
                raise InvalidParameterError("fiber block has wrong shape")
            if _block_norm(arr) > 0.0:
                cleaned[(int(x), int(y))] = arr
        self.blocks = _pruned(cleaned) if prune else cleaned

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
        eye = np.eye(fiber_dim, dtype=complex)
        return cls(space, fiber_dim, {(x, x): eye for x in range(space.n)})

    @classmethod
    def diagonal(cls, space, fiber_dim, values):
        """Propagation-zero operator; ``values`` maps point index to block
        (scalar entries are promoted to multiples of the fiber identity)."""
        blocks = {}
        for x, v in values.items():
            v = np.asarray(v, dtype=complex)
            if v.ndim == 0:
                v = complex(v) * np.eye(fiber_dim)
            blocks[(x, x)] = v
        return cls(space, fiber_dim, blocks)

    @classmethod
    def partial_translation(cls, space, fiber_dim, pairs):
        """Identity fiber blocks on the given (target, source) pairs."""
        eye = np.eye(fiber_dim, dtype=complex)
        return cls(space, fiber_dim, {(x, y): eye for (x, y) in pairs})

    @classmethod
    def single_block(cls, space, fiber_dim, x, y, block=None):
        if block is None:
            block = np.eye(fiber_dim)
        return cls(space, fiber_dim, {(x, y): block})

    @classmethod
    def from_dense(cls, space, fiber_dim, mat, tol=0.0):
        m = fiber_dim
        blocks = {}
        for x in range(space.n):
            for y in range(space.n):
                b = mat[x * m:(x + 1) * m, y * m:(y + 1) * m]
                if _block_norm(b) > tol:
                    blocks[(x, y)] = b.copy()
        return cls(space, fiber_dim, blocks)

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

    def active_coords(self):
        """Sorted dense coordinates of the points the operator touches."""
        m = self.fiber_dim
        pts = sorted({p for key in self.blocks for p in key})
        return [p * m + a for p in pts for a in range(m)]

    def dense_on(self, coords):
        """Dense matrix on the given sorted coordinates, which must hold the
        whole fiber of every touched point."""
        m = self.fiber_dim
        check_dense_size(len(coords))
        pos = {c: i for i, c in enumerate(coords)}
        out = np.zeros((len(coords), len(coords)), dtype=complex)
        for (x, y), b in self.blocks.items():
            i, j = pos[x * m], pos[y * m]
            out[i:i + m, j:j + m] = b
        return out

    def norm(self):
        return operator_norm(self)

    def eigenvalues(self):
        """Eigenvalues of a Hermitian operator, as a one-entry list."""
        return [np.linalg.eigvalsh(self.to_dense())]

    def funcalc(self, f):
        """Scalar functional calculus of a Hermitian operator.

        Propagation-zero operators are handled blockwise; anything else goes
        through a dense eigendecomposition.
        """
        if self.is_diagonal:
            blocks = {}
            for (x, _), b in self.blocks.items():
                w, v = np.linalg.eigh(b)
                blocks[(x, x)] = (v * np.asarray(f(w))) @ v.conj().T
            # Points with no stored block carry the value f(0).
            f0 = complex(np.asarray(f(np.array([0.0])))[0])
            if abs(f0) > 0.0:
                eye = f0 * np.eye(self.fiber_dim)
                for x in range(self.space.n):
                    if (x, x) not in blocks:
                        blocks[(x, x)] = eye.copy()
            return BandOperator(self.space, self.fiber_dim, blocks)
        w, v = np.linalg.eigh(self.to_dense())
        mat = (v * np.asarray(f(w))) @ v.conj().T
        return BandOperator.from_dense(self.space, self.fiber_dim, mat, tol=1e-14)

    def apply(self, vec):
        m = self.fiber_dim
        out = np.zeros_like(vec)
        for (x, y), b in self.blocks.items():
            out[x * m:(x + 1) * m] += b @ vec[y * m:(y + 1) * m]
        return out

    def frobenius(self):
        return float(np.sqrt(sum(float((np.abs(b) ** 2).sum()) for b in self.blocks.values())))

    def __repr__(self):
        return f"BandOperator(n={self.space.n}, m={self.fiber_dim}, nnz={len(self.blocks)})"


class DiagonalOperator(BandOperator):
    """Band operator constrained to propagation zero."""

    def __init__(self, space, fiber_dim, blocks, prune=True):
        super().__init__(space, fiber_dim, blocks, prune=prune)
        if any(x != y for (x, y) in self.blocks):
            raise InvalidParameterError("DiagonalOperator carries an off-diagonal block")


def prop_support(op):
    """Support pairs and propagation (max distance over the support)."""
    support = frozenset(op.blocks.keys())
    if not support:
        return support, 0.0
    prop = max(float(op.space.dist[x, y]) for (x, y) in support)
    return support, prop


def spectral_norm(mat):
    """Largest singular value of a dense matrix; 0.0 for an empty one.  A
    stack of shape (..., p, q) gives the array of its matrices' values."""
    if mat.ndim > 2:
        return np.linalg.svd(mat, compute_uv=False)[..., 0]
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def max_spectral_norm(mats):
    """Exactly ``max(spectral_norm(M) for M in mats)``, 0.0 when empty.

    Only a matrix that may raise the running maximum ``best`` pays for an
    SVD.  Any other matrix M is skipped on a certificate: its entries are
    finite and ``best^2 (1 - CERT_MARGIN) I - M^H M`` has a Cholesky factor,
    so ||M|| < best.  The margin covers the rounding of the Gram product and
    the backward error of the factorization; the finiteness test is needed
    because numpy's Cholesky returns NaN factors where the SVD raises.
    """
    best = None
    for mat in mats:
        if best is not None and np.isfinite(mat).all():
            gram = mat.conj().T @ mat
            shifted = best * best * (1.0 - CERT_MARGIN) * np.eye(len(gram)) - gram
            try:
                np.linalg.cholesky(shifted)
                continue
            except np.linalg.LinAlgError:
                pass
        value = spectral_norm(mat)
        best = value if best is None else max(best, value)
    return 0.0 if best is None else best


def operator_norm(op, dense_threshold=DENSE_NORM_THRESHOLD, tol=POWER_TOL,
                  maxiter=POWER_MAXITER):
    """Largest singular value, by dense SVD below the size threshold and by
    power iteration on T*T above it."""
    if op.is_zero:
        return 0.0
    coords = op.active_coords()
    if len(coords) <= dense_threshold:
        # zero rows and columns do not change singular values
        return spectral_norm(op.dense_on(coords))
    dim = op.space.n * op.fiber_dim
    rng = np.random.default_rng(0)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    adj = op.adjoint()
    residual = np.inf
    for _ in range(maxiter):
        w = adj.apply(op.apply(v))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        lam = float(np.real(np.vdot(v, w)))
        residual = float(np.linalg.norm(w - lam * v))
        v = w / nw
        if residual <= 0.5 * tol * max(lam, 1e-300):
            return float(np.sqrt(max(lam, 0.0)))
    raise ConvergenceError(
        f"power iteration did not converge in {maxiter} steps",
        residual=residual)


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
                    unit = np.zeros((m, m), dtype=complex)
                    unit[alpha, beta] = 1.0
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

def _block_to_json(b):
    return [[[float(v.real), float(v.imag)] for v in row] for row in b]


def _block_from_json(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def save_operator(op, path):
    doc = {
        "fiber": op.fiber_dim,
        "blocks": [
            {"x": _id_to_json(op.space.points[x]),
             "y": _id_to_json(op.space.points[y]),
             "block": _block_to_json(b)}
            for (x, y), b in sorted(op.blocks.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_operator(path, space):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    blocks = {}
    for rec in doc["blocks"]:
        x = space.index(_id_from_json(rec["x"]))
        y = space.index(_id_from_json(rec["y"]))
        blocks[(x, y)] = _block_from_json(rec["block"])
    return BandOperator(space, doc["fiber"], blocks)
