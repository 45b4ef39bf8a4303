"""Finite-dimensional algebras with fiber coefficients.

An algebra here is a direct sum of matrix summands M_{n_k} tensored with a
common fiber M_m; an element is one dense complex array per summand, indexed
by (slot, fiber) pairs.  The canonical diagonal consists of the elements that
are diagonal in the slot index of every summand, with arbitrary fiber blocks.
Summands carry a color tag so a witness can address the color-i part of the
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import IncompatibilityError, InvalidParameterError
from .operators import check_dense_size, max_spectral_norm, spectral_norm


@dataclass(frozen=True)
class Summand:
    color: int
    label: object
    size: int  # number of slots n_k


class FiniteDimAlgebra:
    """Direct sum of slot-matrix algebras over a fixed fiber."""

    def __init__(self, summands, fiber_dim):
        self.summands = list(summands)
        self.fiber_dim = int(fiber_dim)
        if self.fiber_dim < 1 or any(s.size < 1 for s in self.summands):
            raise InvalidParameterError("summand sizes and fiber_dim must be >= 1")

    @property
    def block_dims(self):
        return [s.size * self.fiber_dim for s in self.summands]

    @property
    def coord_dim(self):
        return sum(d * d for d in self.block_dims)

    def colors(self):
        return sorted({s.color for s in self.summands})

    def color_indices(self, color):
        return [k for k, s in enumerate(self.summands) if s.color == color]

    def compatible(self, other):
        return (self.fiber_dim == other.fiber_dim
                and [s.size for s in self.summands] == [s.size for s in other.summands])

    # -- element constructors ------------------------------------------

    def element(self, parts):
        return FdElement(self, parts)

    def zero(self):
        return FdElement(self, [np.zeros((d, d), dtype=complex) for d in self.block_dims])

    def identity(self):
        return FdElement(self, [np.eye(d, dtype=complex) for d in self.block_dims])

    def matrix_unit(self, k, a, b, fiber=None):
        """Slot matrix unit e_{a,b} in summand k, tensored with a fiber block
        (the fiber identity when none is given)."""
        m = self.fiber_dim
        fiber = np.eye(m, dtype=complex) if fiber is None else np.asarray(fiber, dtype=complex)
        parts = [np.zeros((d, d), dtype=complex) for d in self.block_dims]
        parts[k][a * m:(a + 1) * m, b * m:(b + 1) * m] = fiber
        return FdElement(self, parts)

    def random_hermitian(self, rng):
        parts = []
        for d in self.block_dims:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            parts.append((g + g.conj().T) / 2.0)
        return FdElement(self, parts)

    # -- coordinates (small algebras) ------------------------------------

    def corners(self):
        """(matrix dim, coordinate-unit factory (i, j) -> element) per summand."""
        return [(d, partial(self._coord_unit, k)) for k, d in enumerate(self.block_dims)]

    def _coord_unit(self, k, i, j):
        parts = [np.zeros((d, d), dtype=complex) for d in self.block_dims]
        parts[k][i, j] = 1.0
        return FdElement(self, parts)

    def from_dense(self, mat):
        if len(self.summands) != 1:
            raise InvalidParameterError("dense form needs a single-summand algebra")
        return FdElement(self, [mat])

    def pack(self, x):
        return np.concatenate([p.reshape(-1) for p in x.parts])

    def unpack(self, vec):
        parts = []
        pos = 0
        for d in self.block_dims:
            parts.append(vec[pos:pos + d * d].reshape(d, d))
            pos += d * d
        return FdElement(self, parts)

    def __repr__(self):
        sizes = [s.size for s in self.summands]
        return f"FiniteDimAlgebra(sizes={sizes}, fiber={self.fiber_dim})"


class FdElement:
    """One dense array per summand; immutable by convention."""

    __slots__ = ("algebra", "parts")

    def __init__(self, algebra, parts):
        self.algebra = algebra
        self.parts = [np.asarray(p, dtype=complex) for p in parts]
        dims = algebra.block_dims
        if len(self.parts) != len(dims) or any(
                p.shape != (d, d) for p, d in zip(self.parts, dims)):
            raise InvalidParameterError("element parts do not match the algebra")

    def _check(self, other):
        if not isinstance(other, FdElement) or other.algebra is not self.algebra:
            if isinstance(other, FdElement) and self.algebra.compatible(other.algebra):
                return
            raise IncompatibilityError("elements live in different algebras")

    def __add__(self, other):
        self._check(other)
        return FdElement(self.algebra, [a + b for a, b in zip(self.parts, other.parts)])

    def __sub__(self, other):
        self._check(other)
        return FdElement(self.algebra, [a - b for a, b in zip(self.parts, other.parts)])

    def __rmul__(self, scalar):
        return FdElement(self.algebra, [scalar * p for p in self.parts])

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def __matmul__(self, other):
        self._check(other)
        return FdElement(self.algebra, [a @ b for a, b in zip(self.parts, other.parts)])

    def adjoint(self):
        return FdElement(self.algebra, [p.conj().T for p in self.parts])

    def norm(self):
        """The largest spectral norm of a part: an SVD only for the parts
        not certified below the running maximum."""
        return max_spectral_norm(self.parts)

    def eigenvalues(self):
        """Eigenvalues of a Hermitian element, per summand."""
        return [np.linalg.eigvalsh(p) for p in self.parts]

    def funcalc(self, f):
        """Apply a scalar function to a Hermitian element by eigendecomposition."""
        parts = []
        for p in self.parts:
            w, v = np.linalg.eigh(p)
            parts.append((v * np.asarray(f(w))) @ v.conj().T)
        return FdElement(self.algebra, parts)

    def slot_offdiag_mass(self):
        """Largest norm of a slot-off-diagonal fiber block."""
        m = self.algebra.fiber_dim
        mass = 0.0
        for s, p in zip(self.algebra.summands, self.parts):
            view = np.abs(p.reshape(s.size, m, s.size, m)).max(axis=(1, 3))
            np.fill_diagonal(view, 0.0)
            for a, b in np.argwhere(view > 0.0):
                blk = p[a * m:(a + 1) * m, b * m:(b + 1) * m]
                mass = max(mass, spectral_norm(blk))
        return mass

    def is_canonical_diagonal(self, tol):
        mass = self.slot_offdiag_mass()
        if mass == 0.0:
            return True, 0.0
        return mass <= tol * max(1.0, self.norm()), mass

    def to_dense(self):
        """The block-diagonal matrix of the summand parts."""
        return self.dense_on(range(sum(self.algebra.block_dims)))

    def active_coords(self):
        """Sorted block-diagonal coordinates of the nonzero rows and columns."""
        active = set()
        offset = 0
        for p in self.parts:
            mags = np.abs(p)
            used = (mags.max(axis=1) > 0.0) | (mags.max(axis=0) > 0.0)
            active.update((offset + np.flatnonzero(used)).tolist())
            offset += p.shape[0]
        return sorted(active)

    def dense_on(self, coords):
        """The block-diagonal matrix restricted to the given sorted coordinates."""
        coords = np.asarray(coords, dtype=int)
        check_dense_size(len(coords))
        out = np.zeros((len(coords), len(coords)), dtype=complex)
        offset = 0
        for p in self.parts:
            d = p.shape[0]
            sel = np.flatnonzero((coords >= offset) & (coords < offset + d))
            local = coords[sel] - offset
            out[np.ix_(sel, sel)] = p[np.ix_(local, local)]
            offset += d
        return out

    def __repr__(self):
        return f"FdElement({self.algebra!r})"
