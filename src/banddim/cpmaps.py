"""Completely positive maps between band algebras and finite-dimensional
algebras with fibers.

Maps built by this package carry their structure (compression windows,
inclusion windows, coefficient operators), which yields exact certificates:
a compression or inclusion map is completely positive by construction, and an
inclusion with pairwise disjoint windows is exactly order zero.  Dense maps on
coordinates are supported for small algebras so that falsifiers (transpose
map, sampled positivity checks) run against the same interfaces.

Order-zero maps factor as a positive element times a supporting homomorphism;
the factorization here is the exact finite-dimensional surrogate
``pi(a) = pinv(h) . phi(a)`` on the support of ``h = phi(1)``, and is itself
the map pi.  ``SandwichedMap`` covers every rescaling and conjugation of a
map; a dense conjugation map is ``DenseCpMap.from_callable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (FactorizationError, InvalidFunctionError, InvalidParameterError,
                     SizeLimitError)
from .fdalg import FdElement, FiniteDimAlgebra, Summand
from .operators import (BandOperator, _code_keys, _distinct, _runs, _sum_runs,
                        check_dense_size, check_fiber_dim, fiber_unit, operator_norm)
from .space import check_int


class BandAlgebra:
    """Descriptor of the band-operator algebra over a space and fiber."""

    def __init__(self, space, fiber_dim):
        self.space = space
        self.fiber_dim = check_fiber_dim(fiber_dim)

    @property
    def matrix_dim(self):
        return self.space.n * self.fiber_dim

    @property
    def coord_dim(self):
        return self.matrix_dim ** 2

    def identity(self):
        return BandOperator.identity(self.space, self.fiber_dim)

    def random_hermitian(self, rng):
        d = self.matrix_dim
        check_dense_size(d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return BandOperator.from_dense(self.space, self.fiber_dim, (g + g.conj().T) / 2.0)

    def unit(self, i, j):
        m = self.fiber_dim
        return BandOperator(self.space, m, {(i // m, j // m): fiber_unit(m, i % m, j % m)})

    # -- coordinates (small algebras) ------------------------------------

    def corners(self):
        """(matrix dim, coordinate-unit factory) of the single matrix corner."""
        return [(self.matrix_dim, self.unit)]

    def __repr__(self):
        return f"BandAlgebra(n={self.space.n}, m={self.fiber_dim})"


# ---------------------------------------------------------------------------
# Map classes
# ---------------------------------------------------------------------------

class CpMap:
    """Base class: a linear, adjoint-preserving, completely positive map."""

    domain = None
    codomain = None

    def apply(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.apply(x)

    def order_zero_certificate(self):
        """Structural evidence that the map is order zero, or None."""
        return None

    def diagonal_certificate(self):
        """Structural evidence that the map sends the band diagonal into the
        canonical diagonal of its codomain, or None."""
        return None


def _window_sum(space, m, codes, values):
    """The band operator of the fiber blocks ``values`` at the point pairs
    ``codes`` (x n + y), listed window by window: the blocks of one pair are
    summed in list order, the pairs keep their order of first appearance,
    and the sum is pruned.  Each sum is taken as 0 plus its blocks, so a
    -0.0 entry comes out as +0.0 (adding 0j after the sum gives the same
    bits as adding it to the first block)."""
    codes, sums = _sum_runs(codes, values)
    sums += 0j
    return BandOperator._raw(space, m, _code_keys(codes, space.n), sums)


def _checked_windows(algebra, windows, n):
    """The windows as tuples: one per summand, each as long as its summand,
    listing distinct points of range(n)."""
    if len(windows) != len(algebra.summands):
        raise InvalidParameterError("one window per summand required")
    checked = []
    for w, s in zip(windows, algebra.summands):
        w = tuple(w)
        if len(w) != s.size:
            raise InvalidParameterError("window size must match summand size")
        if len(set(w)) != len(w) or not all(0 <= p < n for p in w):
            raise InvalidParameterError(
                f"a window must list distinct points of range({n}), got {w}")
        checked.append(w)
    return checked


def _checked_coefficients(band, coefficients, count):
    """The coefficients as a list: one per window, each None or a
    propagation-zero band operator with the band's fiber."""
    coefficients = [None] * count if coefficients is None else list(coefficients)
    if len(coefficients) != count:
        raise InvalidParameterError(
            f"one coefficient per window required: {count} windows, "
            f"{len(coefficients)} coefficients")
    for k, c in enumerate(coefficients):
        if c is not None and not (isinstance(c, BandOperator) and c.is_diagonal
                                  and c.fiber_dim == band.fiber_dim):
            raise InvalidParameterError(f"coefficient {k} must be a propagation-zero "
                                        f"band operator with fiber {band.fiber_dim}")
    return coefficients


class CompressionMap(CpMap):
    """Band operators to a finite-dimensional algebra, one window per summand.

    The summand image is the compression of ``c T c`` to the window's points,
    where ``c`` is that window's diagonal coefficient operator (identity when
    None).  Each summand action is a single-Kraus conjugation, so the map is
    completely positive by construction.  Any coefficient list but one entry
    per window, each None or a propagation-zero operator with the band's
    fiber, raises ``InvalidParameterError``.
    """

    def __init__(self, band, algebra, windows, coefficients=None):
        self.domain = band
        self.codomain = algebra
        self.windows = _checked_windows(algebra, windows, band.space.n)
        self.coefficients = _checked_coefficients(band, coefficients, len(self.windows))
        self._index_slots()

    def _index_slots(self):
        """Number the slots (window k, position a) in window order and build
        the owner index: the codes ``p K + k`` of the slots, sorted, with
        their slot numbers, K being the number of windows.  The slots of
        point p are one run of it, and the slot of p in window k is found by
        one search.  Each slot also carries the coefficient block at its
        point (zero when its window has no coefficient, or the coefficient
        no block there), and each window the start of its part in the flat
        buffer that ``apply`` fills."""
        m, count = self.domain.fiber_dim, len(self.windows)
        sizes = np.array([len(w) for w in self.windows], dtype=np.intp)
        points = np.array([p for w in self.windows for p in w], dtype=np.intp)
        self._slot_point = points
        self._slot_window, self._slot_position = _runs(sizes)
        codes = points * count + self._slot_window
        self._owner_slot = np.argsort(codes, kind="stable")
        self._owner_code = codes[self._owner_slot]
        self._scaled = np.array([c is not None for c in self.coefficients], dtype=bool)
        zero = np.zeros((1, m, m), dtype=complex)
        padded = {}  # per coefficient: its blocks then a zero block, which the
        # index -1 of a point without a block picks
        parts = [zero[:0]]
        for w, c in zip(self.windows, self.coefficients):
            if c is None:
                parts.append(zero.repeat(len(w), axis=0))
                continue
            if id(c) not in padded:
                padded[id(c)] = np.concatenate((c.stack, zero)), c._diagonal_index()
            blocks, at = padded[id(c)]
            parts.append(blocks[at[list(w)]])
        self._slot_coefficient = np.concatenate(parts)
        self._dims = sizes * m
        self._part_start = np.cumsum(self._dims ** 2) - self._dims ** 2

    def _slot_images(self, op):
        """The images of the blocks of ``op`` in the windows: for each block
        (x, y) and each window holding both x and y, the window, the slots
        of x and y there, and the block, which a window with a coefficient
        scales to ``(c_x @ b) @ c_y^H`` in one stacked product.  Block
        (x, y) is placed through the owner index, so it is visited once per
        window holding x."""
        count, codes = len(self.windows), self._owner_code
        x, y = op.keys.T
        start = np.searchsorted(codes, x * count)
        block, rank = _runs(np.searchsorted(codes, x * count + count) - start)
        row_slot = self._owner_slot[start[block] + rank]
        window = self._slot_window[row_slot]
        want = y[block] * count + window
        found = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
        hit = codes[found] == want
        block, row_slot, window = block[hit], row_slot[hit], window[hit]
        col_slot = self._owner_slot[found[hit]]
        values = op.stack[block]
        scaled = self._scaled[window]
        coeff = self._slot_coefficient
        values[scaled] = ((coeff[row_slot[scaled]] @ values[scaled])
                          @ coeff[col_slot[scaled]].conj().transpose(0, 2, 1))
        return window, row_slot, col_slot, values

    def apply(self, op):
        """Every block image (:meth:`_slot_images`) added into one zero
        buffer that holds the summand parts."""
        m, dims = self.domain.fiber_dim, self._dims
        flat = np.zeros(int((dims ** 2).sum()), dtype=complex)
        if not op.is_zero:
            window, row_slot, col_slot, values = self._slot_images(op)
            d = dims[window]
            corner = (self._part_start[window] + self._slot_position[row_slot] * m * d
                      + self._slot_position[col_slot] * m)
            fiber = np.arange(m)
            at = corner[:, None, None] + fiber[:, None] * d[:, None, None] + fiber
            flat[at.reshape(-1)] += values.reshape(-1)
        parts = [flat[start:start + d * d].reshape(d, d)
                 for start, d in zip(self._part_start.tolist(), dims.tolist())]
        return FdElement(self.codomain, parts)

    def round_trip(self, op):
        """``phi(psi(op))`` for phi the :class:`InclusionMap` on these
        windows, with no summand part formed: the block images
        (:meth:`_slot_images`) in the order phi reads the parts (window by
        window, slot row by slot row; slots are numbered in window order),
        the zero ones dropped, and those of one point pair summed in window
        order (:func:`_window_sum`).  Blocks, block order and bits equal
        those of ``phi.apply(psi.apply(op))``."""
        space, m = self.domain.space, self.domain.fiber_dim
        if op.is_zero:
            return BandOperator.zero(space, m)
        _, row_slot, col_slot, values = self._slot_images(op)
        order = np.argsort(row_slot * len(self._slot_window) + col_slot)
        order = order[values[order].any(axis=(1, 2))]
        points = self._slot_point
        return _window_sum(space, m, points[row_slot[order]] * space.n
                           + points[col_slot[order]], values[order])

    def diagonal_certificate(self):
        # apply writes block (x, y) only at slot pair (slot(x), slot(y)) of a
        # window, so a single-point block (x, x) lands on a slot-diagonal block
        return ("slot-windows", self.windows)


class InclusionMap(CpMap):
    """Finite-dimensional algebra into band operators, summand by summand.

    The k-th summand is written back onto its window's point pairs and the
    summand images are summed.  Restricting to the summands of one color whose
    windows are pairwise disjoint gives an exactly order-zero map (in fact a
    homomorphism onto a block subalgebra).
    """

    def __init__(self, algebra, band, windows):
        self.domain = algebra
        self.codomain = band
        self.windows = _checked_windows(algebra, windows, band.space.n)

    def apply(self, elem):
        """The nonzero fiber blocks of each part, read off its (s, m, s, m)
        view; a point pair held by several windows gets the sum of their
        blocks in window order, and the blocks keep the order of first
        appearance (window by window, row by row)."""
        m, n = self.domain.fiber_dim, self.codomain.space.n
        codes, values = [], []
        for window, part in zip(self.windows, elem.parts):
            s = len(window)
            # the largest modulus of each fiber block, over its m rows and
            # then over the m column strides: numpy reduces the two short
            # axes of the (s, m, s, m) view several times slower; a NaN
            # entry makes it NaN, which is not zero, so that block is kept
            top = np.abs(part).reshape(s, m, s * m).max(axis=1)
            rows, cols = np.nonzero(np.maximum.reduce([top[:, b::m] for b in range(m)]) != 0.0)
            points = np.array(window, dtype=np.intp)
            codes.append(points[rows] * n + points[cols])
            values.append(part.reshape(s, m, s, m)[rows, :, cols, :])
        if not codes:
            return BandOperator.zero(self.codomain.space, m)
        return _window_sum(self.codomain.space, m, np.concatenate(codes),
                           np.concatenate(values))

    def order_zero_certificate(self):
        if len({s.color for s in self.domain.summands}) != 1:
            return None
        return ("disjoint-windows", self.windows)

    def restrict_to_color(self, color):
        keep = self.domain.color_indices(color)
        algebra = FiniteDimAlgebra([self.domain.summands[k] for k in keep],
                                   self.domain.fiber_dim)
        return InclusionMap(algebra, self.codomain, [self.windows[k] for k in keep])

    def image_of_unit(self, k, a, b):
        """Image of the slot unit e_{a,b} of summand k tensor the fiber
        identity: the identity block at (W[a], W[b]), W = ``windows[k]``.
        Condition 5 holds structurally for a map with this method, and so
        does condition 6 when same-color windows are pairwise disjoint;
        extraction reads its unit images off the windows."""
        w = self.windows[k]
        return BandOperator.partial_translation(self.codomain.space,
                                                self.codomain.fiber_dim, [(w[a], w[b])])

    def corner_map(self, k, kept_slots):
        """Restriction to the corner of summand k given by the kept slots."""
        s = self.domain.summands[k]
        corner = FiniteDimAlgebra(
            [Summand(s.color, ("corner", s.label), len(kept_slots))],
            self.domain.fiber_dim)
        window = tuple(self.windows[k][a] for a in kept_slots)
        return InclusionMap(corner, self.codomain, [window])


class DenseCpMap(CpMap):
    """Explicit matrix action on coordinates, for small algebras."""

    def __init__(self, domain, codomain, matrix):
        self.domain = domain
        self.codomain = codomain
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (codomain.coord_dim, domain.coord_dim):
            raise InvalidParameterError("coordinate matrix has wrong shape")

    def apply(self, x):
        return self.codomain.unpack(self.matrix @ self.domain.pack(x))

    @classmethod
    def from_callable(cls, domain, codomain, fn):
        cols = []
        for u in basis_elements(domain):
            cols.append(codomain.pack(fn(u)))
        return cls(domain, codomain, np.stack(cols, axis=1))


def transpose_map(n):
    """The transpose map on M_n: the canonical completely-bounded non-cp map."""
    alg = FiniteDimAlgebra([Summand(0, "M", n)], 1)
    return DenseCpMap.from_callable(alg, alg,
                                    lambda u: FdElement(alg, [u.parts[0].T.copy()]))


class SandwichedMap(CpMap):
    """scale * post . inner(pre . x . pre) . post, with positive pre/post."""

    def __init__(self, inner, pre=None, post=None, scale=1.0):
        self.inner = inner
        self.pre = pre
        self.post = post
        self.scale = float(scale)
        self.domain = inner.domain
        self.codomain = inner.codomain

    def apply(self, x):
        if self.pre is not None:
            x = self.pre @ x @ self.pre
        y = self.inner.apply(x)
        if self.post is not None:
            y = self.post @ y @ self.post
        return self.scale * y if self.scale != 1.0 else y


class PointBijectionHom(CpMap):
    """Homomorphism of M_n (with fiber) onto partial translations.

    ``orbits`` is an n x T matrix of pairwise distinct point indices, one
    row per slot; the slot unit e_{k,l} tensor a fiber block b is sent to the
    operator carrying b at (orbits[k][t], orbits[l][t]) for every t.  Any
    other orbit matrix raises ``InvalidParameterError``.
    """

    def __init__(self, algebra, band, orbits):
        if len(algebra.summands) != 1:
            raise InvalidParameterError("single-summand domain required")
        self.domain = algebra
        self.codomain = band
        self.orbits = [tuple(row) for row in orbits]
        if (len(self.orbits) != algebra.summands[0].size
                or len({len(row) for row in self.orbits}) != 1):
            raise InvalidParameterError("orbits need one row per slot, all of one length")
        flat = [p for row in self.orbits for p in row]
        n = band.space.n
        if len(set(flat)) != len(flat) or not all(0 <= p < n for p in flat):
            raise InvalidParameterError(
                f"orbit points must be pairwise distinct points of range({n})")

    def apply(self, elem):
        n = self.domain.summands[0].size
        m = self.domain.fiber_dim
        blocks = {}
        part = elem.parts[0]
        for k in range(n):
            for l in range(n):
                blk = part[k * m:(k + 1) * m, l * m:(l + 1) * m]
                if not blk.any():
                    continue
                for key in zip(self.orbits[k], self.orbits[l]):
                    blocks[key] = blocks.get(key, 0) + blk
        return BandOperator(self.codomain.space, self.codomain.fiber_dim, blocks)

    def order_zero_certificate(self):
        return ("point-bijection-hom", self.orbits)


class FactoredMap(CpMap):
    """Order-zero map assembled as ``h . pi`` for a commuting positive h."""

    def __init__(self, h, pi_map):
        self.h = h
        self.pi_map = pi_map
        self.domain = pi_map.domain
        self.codomain = pi_map.codomain

    def apply(self, x):
        return self.h @ self.pi_map.apply(x)

    def order_zero_certificate(self):
        inner = self.pi_map.order_zero_certificate()
        return None if inner is None else ("factored", inner)


def unit_image(phi, k, a, b, fiber=None):
    """phi of the slot matrix unit e_{a,b} of summand k tensor a fiber block
    (the fiber identity when None), by ``apply`` on the unit element."""
    return phi.apply(phi.domain.matrix_unit(k, a, b, fiber))


def basis_elements(algebra):
    for dim, unit in algebra.corners():
        for i in range(dim):
            for j in range(dim):
                yield unit(i, j)


# ---------------------------------------------------------------------------
# Choi certification
# ---------------------------------------------------------------------------

CHOI_COORD_CAP = 512
CHOI_ASSEMBLY_CAP = 4096


def _joint_dense(images):
    """Dense matrices of the images restricted to their joint active coords."""
    coords = sorted(set().union(*(im.active_coords() for im in images))) or [0]
    return [im.dense_on(coords) for im in images]


@dataclass
class ChoiReport:
    min_eigenvalue: float
    flag: bool
    truncated_dims: list
    hermiticity_defect: float

    def __bool__(self):
        return self.flag


def choi_check(phi, truncation=CHOI_COORD_CAP, psd_tol=1e-10):
    """Certify complete positivity by the Choi matrix of the coordinate action.

    The Choi matrix of each matrix corner of the domain is assembled from the
    images of its matrix units (unnormalized, so the transpose map on M_2
    scores exactly -1).  When the domain exceeds the coordinate budget, each
    corner is truncated to a leading corner subalgebra and the codomain is
    compressed to the coordinates the images touch; both reductions preserve
    complete positivity, so a PSD failure on the truncation refutes the map.
    """
    eff = min(phi.domain.coord_dim, truncation)
    if eff > CHOI_COORD_CAP:
        raise SizeLimitError(
            f"domain truncation of coordinate dimension {eff} exceeds the "
            f"{CHOI_COORD_CAP} cap")
    budget = eff
    min_eig = math.inf
    herm_defect = 0.0
    dims = []
    for dim, unit in phi.domain.corners():
        n = min(dim, int(math.isqrt(budget)))
        if n < 1:
            break
        images = [[phi.apply(unit(i, j)) for j in range(n)] for i in range(n)]
        flat = [im for row in images for im in row]
        dense = _joint_dense(flat)
        nc = dense[0].shape[0]
        while n > 1 and n * nc > CHOI_ASSEMBLY_CAP:
            n -= 1
            flat = [images[i][j] for i in range(n) for j in range(n)]
            dense = _joint_dense(flat)
            nc = dense[0].shape[0]
        choi = np.zeros((n * nc, n * nc), dtype=complex)
        for i in range(n):
            for j in range(n):
                choi[i * nc:(i + 1) * nc, j * nc:(j + 1) * nc] = dense[i * n + j]
        herm_defect = max(herm_defect, float(np.abs(choi - choi.conj().T).max()))
        choi = (choi + choi.conj().T) / 2.0
        vals = np.linalg.eigvalsh(choi)
        min_eig = min(min_eig, float(vals[0]))
        dims.append(n)
        budget -= n * n
        if budget < 1:
            break
    if min_eig is math.inf:
        min_eig = 0.0
    return ChoiReport(min_eig, min_eig >= -psd_tol, dims, herm_defect)


# ---------------------------------------------------------------------------
# Order-zero structure
# ---------------------------------------------------------------------------

@dataclass
class OrderZeroReport:
    flag: bool
    worst: float
    mode: str
    trials: int = 0

    def __bool__(self):
        return self.flag


def _windows_disjoint(windows):
    seen = set()
    for w in windows:
        ws = set(w)
        if seen & ws:
            return False
        seen |= ws
    return True


def _split_positives(x, rng):
    """A pair of orthogonal positives carved from a random Hermitian."""
    vals = np.concatenate(x.eigenvalues())
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        return None
    cut = rng.uniform(lo, hi)
    a = x.funcalc(lambda t: np.maximum(t - cut, 0.0))
    b = x.funcalc(lambda t: np.maximum(cut - t, 0.0))
    na, nb = a.norm(), b.norm()
    if na < 1e-9 or nb < 1e-9:
        return None
    return (1.0 / na) * a, (1.0 / nb) * b


def _structural_order_zero(phi):
    """True when the map carries a verified structural order-zero certificate."""
    cert = phi.order_zero_certificate()
    while cert is not None and cert[0] in ("factored", "supported-homomorphism"):
        cert = cert[1]
    if cert is None:
        return False
    kind = cert[0]
    if kind == "disjoint-windows":
        return _windows_disjoint(cert[1])
    return kind == "point-bijection-hom"


def order_zero_check(phi, trials=200, seed=0, tol=1e-9):
    """Certify or falsify orthogonality preservation.

    Maps built with disjoint structural windows pass exactly; everything else
    is sampled on pairs of positives with disjoint spectral supports.  The
    sampling mode is a falsifier, not a prover, and is labeled as such.
    """
    check_int(trials, "trials", 1)
    if _structural_order_zero(phi):
        return OrderZeroReport(True, 0.0, "structural")
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    for _ in range(trials):
        pair = _split_positives(phi.domain.random_hermitian(rng), rng)
        if pair is None:
            continue
        a, b = pair
        worst = max(worst, (phi.apply(a) @ phi.apply(b)).norm())
        done += 1
    return OrderZeroReport(worst <= tol, worst, "sampled", done)


class OrderZeroFactorization(CpMap):
    """The supporting homomorphism pi of an order-zero map phi, with
    h = phi(1): ``apply(a) = pi(a) = pinv(h) . phi(a)``, so phi = h . pi.
    Eigenvalues of h at or below 1e-12 of the largest are treated as kernel.
    """

    PINV_REL_CUTOFF = 1e-12

    def __init__(self, phi, h, pinv, support):
        self.source = phi
        self.h = h
        self.pinv = pinv
        self.support = support
        self.domain = phi.domain
        self.codomain = phi.codomain

    def apply(self, a):
        return self.pinv @ self.source.apply(a)

    pi = apply

    def order_zero_certificate(self):
        cert = self.source.order_zero_certificate()
        return None if cert is None else ("supported-homomorphism", cert)


def factorize_order_zero(phi, tol=1e-10, trials=8, seed=0):
    """Split an order-zero map into its positive part and supporting
    homomorphism, raising when a factorization identity fails.

    Maps with a verified structural certificate are validated on the unit
    alone; everything else is validated on seeded random Hermitian samples.
    """
    if _structural_order_zero(phi):
        trials = 0
    h = phi.apply(phi.domain.identity())

    def pinv_fn(t):
        cut = OrderZeroFactorization.PINV_REL_CUTOFF * max(float(np.max(t)), 0.0)
        return np.where(t > cut, 1.0 / np.maximum(t, 1e-300), 0.0)

    def supp_fn(t):
        cut = OrderZeroFactorization.PINV_REL_CUTOFF * max(float(np.max(t)), 0.0)
        return (t > cut).astype(float)

    pinv = h.funcalc(pinv_fn)
    support = h.funcalc(supp_fn)
    fact = OrderZeroFactorization(phi, h, pinv, support)
    _validate_factorization(fact, tol, trials, seed)
    return fact


def _validate_factorization(fact, tol, trials, seed):
    rng = np.random.default_rng(seed)
    scale = max(1.0, fact.h.norm())
    samples = [fact.domain.identity()]
    for _ in range(trials):
        samples.append(fact.domain.random_hermitian(rng))
    pis = [fact.pi(a) for a in samples]
    for a, pa in zip(samples, pis):
        na = max(1.0, a.norm())
        dev = (fact.source.apply(a) - fact.h @ pa).norm() / (scale * na)
        if dev > tol:
            raise FactorizationError(
                "factorization identity phi(a) = h.pi(a) fails",
                identity="phi=h.pi", deviation=dev)
        dev = (fact.h @ pa - pa @ fact.h).norm() / (scale * na)
        if dev > tol:
            raise FactorizationError(
                "h does not commute with pi(a)", identity="[h,pi]=0", deviation=dev)
    s = fact.support
    for i in range(min(3, len(samples))):
        for j in range(min(3, len(samples))):
            a, b = samples[i], samples[j]
            nn = max(1.0, a.norm() * b.norm())
            lhs = s @ fact.pi(a @ b) @ s
            rhs = (s @ fact.pi(a) @ s) @ (s @ fact.pi(b) @ s)
            dev = (lhs - rhs).norm() / nn
            if dev > tol:
                raise FactorizationError(
                    "pi is not multiplicative on the support of h",
                    identity="pi(ab)=pi(a)pi(b)", deviation=dev)


def functional_calculus(f, phi, tol=1e-10):
    """Order-zero functional calculus f(phi): a -> f(h) . pi(a).

    ``f`` must be continuous on [0, 1] with f(0) = 0; when additionally
    sup|f| <= 1 the result is contractive.
    """
    f0 = float(np.asarray(f(np.array([0.0])))[0])
    if abs(f0) > 1e-14:
        raise InvalidFunctionError("functional calculus requires f(0) = 0")
    fact = phi if isinstance(phi, OrderZeroFactorization) else \
        factorize_order_zero(phi, tol=tol)
    return FactoredMap(fact.h.funcalc(f), fact)


# ---------------------------------------------------------------------------
# Bump functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpFunction:
    """Evaluable scalar function with exact breakpoint metadata."""

    kind: str
    params: tuple
    breakpoints: tuple

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "f_delta":
            (delta,) = self.params
            return np.where(t <= delta, 0.0,
                            np.where(t <= 2 * delta, 2.0 * (t - delta), t))
        if self.kind == "g_delta":
            (delta,) = self.params
            return np.where(t <= delta / 2, 0.0,
                            np.where(t <= delta, (t - delta / 2) * (2.0 / delta), 1.0))
        if self.kind == "zeta":
            d, eps = self.params
            bp = eps ** 2 / (81.0 * 2.0 * (d + 1))
            return np.where(t <= bp, eps / (9.0 * math.sqrt(2.0 * (d + 1))),
                            np.sqrt(np.maximum(t, bp)))
        if self.kind == "zeta_prime":
            d, eps = self.params
            zeta = BumpFunction("zeta", self.params, self.breakpoints)
            return 1.0 / zeta(t)
        raise InvalidParameterError(f"unknown bump kind {self.kind!r}")


def bump_function(kind, *, delta=None, d=None, eps=None):
    """Piecewise scalar functions used throughout the pipeline.

    ``f_delta`` vanishes on [0, delta], rises linearly on [delta, 2 delta],
    and is the identity after; ``g_delta`` vanishes on [0, delta/2], rises to
    1 on [delta/2, delta], and is 1 after (so f.g = f pointwise).  ``zeta``
    is the square root flattened to a positive constant near zero, and
    ``zeta_prime`` its exact reciprocal.
    """
    if kind in ("f_delta", "g_delta"):
        if delta is None or not 0 < delta < 0.5:
            raise InvalidParameterError("delta must lie in (0, 1/2)")
        delta = float(delta)
        bps = (delta, 2 * delta) if kind == "f_delta" else (delta / 2, delta)
        return BumpFunction(kind, (delta,), bps)
    if kind in ("zeta", "zeta_prime"):
        if eps is None or eps <= 0 or d is None or d < 0:
            raise InvalidParameterError("zeta requires eps > 0 and d >= 0")
        bp = float(eps) ** 2 / (81.0 * 2.0 * (d + 1))
        return BumpFunction(kind, (int(d), float(eps)), (bp,))
    raise InvalidParameterError(f"unknown bump kind {kind!r}")


# ---------------------------------------------------------------------------
# Commutation property
# ---------------------------------------------------------------------------

@dataclass
class CopReport:
    flag: bool
    worst: float
    checked: int

    def __bool__(self):
        return self.flag


def _scalar_diagonal(op):
    """True when every block is on the diagonal and exactly scalar."""
    return op.is_diagonal and np.array_equal(op.stack,
                                             op.stack[:, :1, :1] * np.eye(op.fiber_dim))


def cop_check(fact, tol=1e-9):
    """Check that supporting-homomorphism images of minimal diagonal
    projections (with full fiber units) commute with the band diagonal.

    Each image is ``pi(e_aa) = pinv . phi(e_aa)``, with phi applied to the
    unit.  The diagonal is the canonical propagation-zero subalgebra of the
    codomain; commutators are evaluated against its single-point,
    single-fiber-unit generators, except for an image whose blocks are all
    on the diagonal and exactly scalar, which commutes with every one.
    Truncated fibers are unital, so the approximate-unit limit in the
    defining property is evaluated exactly at the unit.
    """
    if not isinstance(fact.domain, FiniteDimAlgebra):
        raise InvalidParameterError("cop_check requires a finite-dimensional domain")
    if not isinstance(fact.codomain, BandAlgebra):
        raise InvalidParameterError("cop_check requires a band-algebra codomain")
    m = fact.codomain.fiber_dim
    worst = 0.0
    checked = 0
    images = (fact.pinv @ unit_image(fact.source, k, a, a)
              for k, s in enumerate(fact.domain.summands) for a in range(s.size))
    for c in images:
        checked += 1
        if _scalar_diagonal(c):
            continue
        for y in _distinct(c.keys).tolist():
            for alpha in range(m):
                for beta in range(m):
                    gen = BandOperator(fact.codomain.space, m,
                                       {(y, y): fiber_unit(m, alpha, beta)})
                    comm = c @ gen - gen @ c
                    if not comm.is_zero:
                        worst = max(worst, operator_norm(comm))
    return CopReport(worst <= tol, worst, checked)
