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
from .operators import check_dense_size, check_fiber_dim, max_spectral_norm, spectral_norm
from .space import check_int


@dataclass(frozen=True)
class Summand:
    color: int
    label: object
    size: int  # number of slots n_k


class FiniteDimAlgebra:
    """Direct sum of slot-matrix algebras over a fixed fiber."""

    def __init__(self, summands, fiber_dim):
        self.summands = list(summands)
        self.fiber_dim = check_fiber_dim(fiber_dim)
        for s in self.summands:
            check_int(s.size, "a summand size", 1)

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


class MonomialFactor:
    """A dense part read once for its products with dense factors:
    ``factor @ y`` is ``part @ y`` and ``y @ factor`` is ``y @ part``.

    When each row and each column of the part holds at most one nonzero and
    every nonzero is real, as in the compressions of the identity and of
    partial translations (a real scalar or real permutation m x m block in
    at most one slot of each slot row and slot column), the factor keeps the
    places and values of the nonzeros in ``scaling``, which the hat's defect
    plan and ``monomial_norm`` read.  A whole real diagonal, as p, psi(1)
    and the unit are (a Hermitian positive monomial matrix is diagonal), is
    multiplied as one real scaling: every entry of the result is the one
    nonzero term of the dense sum, so it equals the dense ``@`` bit for bit,
    but for the sign of a zero, which the BLAS kernel decides and nothing
    downstream reads.  Any other part keeps the dense ``@``.
    """

    # ndarray @ factor defers to __rmatmul__
    __array_ufunc__ = None
    __slots__ = ("part", "scaling")

    def __init__(self, part):
        self.part = part
        self.scaling = None
        dst, src = np.nonzero(part)
        coef = part[dst, src]
        if coef.imag.any() or max(np.bincount(dst, minlength=1).max(),
                                  np.bincount(src, minlength=1).max()) > 1:
            return
        if part.shape[0] == part.shape[1] == len(dst) and np.array_equal(dst, src):
            dst = src = None
        self.scaling = (dst, src, coef)

    def __matmul__(self, y):
        if self.scaling is None or self.scaling[0] is not None:
            return self.part @ y
        return self.scaling[2][:, None] * y

    def __rmatmul__(self, y):
        if self.scaling is None or self.scaling[0] is not None:
            return y @ self.part
        return y * self.scaling[2]


def monomial_factors(x):
    """The parts of ``x`` as :class:`MonomialFactor`, each read once."""
    return [MonomialFactor(p) for p in x.parts]


def monomial_norm(x, factors):
    """``x.norm()`` for an element whose parts ``factors`` read.  When every
    part took the real scaling, its singular values are the absolute values
    of its nonzeros, so the norm is the largest of them, with no SVD; a
    diagonal part, as psi(1) is for a compression (a Hermitian positive
    monomial matrix is diagonal), gets the very value of LAPACK's SVD, which
    returns a diagonal's absolute values untouched.  Any other element, and
    one with an entry that is not finite, keeps ``x.norm()``."""
    if all(f.scaling is not None for f in factors):
        value = max((float(np.abs(f.scaling[2]).max(initial=0.0)) for f in factors),
                    default=0.0)
        if np.isfinite(value):
            return value
    return x.norm()
