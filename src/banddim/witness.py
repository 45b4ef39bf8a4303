"""Dimension witnesses: construction from covers, condition checking,
hat-normalization, and permanence combinators.

A witness for the pair (diagonal inside band operators) consists of a
finite-dimensional algebra F with fiber, a compression map psi into F, an
inclusion map phi back, a test set of band operators, and a precision
epsilon.  The six checked conditions are:

  (1) psi is contractive,
  (2) phi . psi moves every test element by less than epsilon,
  (3) the restriction of phi to each color is a contractive order-zero map,
  (4) psi maps the band diagonal into the canonical diagonal of F,
  (5) phi maps diagonal and matrix-unit elements (tensor fiber generators)
      to normalizers of the band diagonal,
  (6) supporting-homomorphism images of minimal diagonal projections commute
      with the band diagonal.

Conditions 4 and 5 hold by construction for a compression psi (its
``diagonal_certificate``) and an inclusion phi with single-block unit images
(``image_of_unit``), and so does condition 6 when, in addition, same-color
windows are pairwise disjoint; other maps are measured or sampled.  Each
verdict records its mode.

The construction from a cover at scale 3r compresses to the r-enlarged
blocks of the cover sets with a diagonal partition of unity: with counts
c_i(x) = sum over sets U of color i of |{m in 1..r : dist(x, U) <= m}| and
c = sum_i c_i, the coefficients are h_i = sqrt(c_i / c), so
sum_i h_i^2 = 1 wherever the cover reaches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cover import verify_cover
from .cpmaps import (BandAlgebra, CompressionMap, InclusionMap, SandwichedMap,
                     _structural_order_zero, bump_function, cop_check,
                     factorize_order_zero, order_zero_check, unit_image)
from .errors import (CoverGapError, IncompatibilityError, InvalidParameterError,
                     InvalidWitnessError, PreconditionError)
from .fdalg import (FdElement, FiniteDimAlgebra, MonomialFactor, Summand, monomial_factors,
                    monomial_norm)
from .operators import (BandOperator, Nearby, band_panels, check_dense_size, fiber_unit,
                        max_norm_enclosure, operator_norm)
from .space import _is_int, _is_list_of, check_int, check_real, glue


@dataclass
class DiagDimWitness:
    """The tuple (F, psi, phi, d) with its test set and precision.

    ``d`` must be an integer >= 0 with every summand color in range(d + 1),
    and ``epsilon`` a finite real number; anything else raises
    ``InvalidParameterError``.
    """

    d: int
    algebra: FiniteDimAlgebra
    band: BandAlgebra
    psi: CompressionMap
    phi: InclusionMap
    test_set: list
    epsilon: float
    meta: dict = field(default_factory=dict)
    # condition2_errors over the test set, measured once
    _errors: tuple = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        if name in ("phi", "psi", "test_set"):
            object.__setattr__(self, "_errors", None)  # measured with the old ones
        object.__setattr__(self, name, value)

    def __post_init__(self):
        check_int(self.d, "witness dimension d", 0)
        outside = [s.color for s in self.algebra.summands
                   if not (_is_int(s.color) and 0 <= s.color <= self.d)]
        if outside:
            raise InvalidParameterError(
                f"summand colors {outside} lie outside range(d + 1) = range({self.d + 1})")
        check_real(self.epsilon, "witness epsilon")

    @property
    def space(self):
        return self.band.space

    @property
    def fiber_dim(self):
        return self.band.fiber_dim

    def color_phis(self):
        return [(i, self.phi.restrict_to_color(i)) for i in self.algebra.colors()]


def _phi_psi(witness):
    """The map a -> phi(psi(a)): the compression's window round trip when
    phi is the inclusion on psi's windows, as in every witness that is
    built, combined or loaded, and ``phi.apply`` after ``psi.apply`` for
    any other phi."""
    phi, psi = witness.phi, witness.psi
    if (isinstance(phi, InclusionMap) and isinstance(psi, CompressionMap)
            and phi.windows == psi.windows):
        return psi.round_trip
    return lambda a: phi.apply(psi.apply(a))


def condition2_errors(witness, test_set=None):
    """Per-element norms ||phi(psi(a)) - a|| over ``test_set``, by default
    the witness's own test set.  Those are measured once (the build keeps
    the ones its epsilon pass measured) and kept on the witness as floats,
    never saved in a bundle; assigning its phi, psi or test set drops them,
    and a witness made by ``dataclasses.replace`` measures its own.  The
    test set list is not watched: replace it rather than edit it."""
    if test_set is not None:
        phi_psi = _phi_psi(witness)
        return [operator_norm(phi_psi(a) - a) for a in test_set]
    if witness._errors is None:
        witness._errors = tuple(condition2_errors(witness, witness.test_set))
    return list(witness._errors)


def default_epsilon(err):
    """Smallest declared precision compatible with a measured approximation
    error: err <= 0.81 * eps^2 / 81, i.e. eps = 10 sqrt(err)."""
    return max(10.0 * math.sqrt(max(err, 0.0)), 1e-6)


def default_test_set(space, scale, fiber_dim):
    """The partial translations that split the scale-neighbour relation.

    Part 0 of the split is the identity: the pairs are placed in
    lexicographic order, so every (x, x) lands in the first part and no
    other pair does.
    """
    from .extract import decompose_neighbors
    return list(decompose_neighbors(space, scale, fiber_dim=fiber_dim).operators)


def build_upper_witness(space, cover, r, fiber_dim, test_set=None, epsilon=None):
    """Witness construction from a verified cover at scale 3r.

    Compresses to the r-enlarged blocks of the cover sets, one summand per
    set, with the square-root partition-of-unity coefficients; the inclusion
    direction is the plain sum of block embeddings, which is exactly order
    zero per color because 3r-separated sets keep disjoint r-enlargements.
    A declared ``epsilon`` is held to the rule of ``DiagDimWitness``; None
    derives it from the measured error.
    """
    r = check_int(r, "the enlargement scale r", 1)
    report = verify_cover(cover, space, 3 * r)
    if not report.covers:
        raise PreconditionError("cover does not cover the space")
    if not all(report.separation_ok):
        raise PreconditionError(f"cover is not {3 * r}-separated")

    band = BandAlgebra(space, fiber_dim)
    color_counts = []
    summands, windows, color_of_summand = [], [], []
    per_set_counts = []
    masks = [space.within_mask(m) for m in range(1, r + 1)]
    for i, fam in enumerate(cover.families):
        total = np.zeros(space.n, dtype=np.int64)
        sets_counts = []
        for j, U in enumerate(fam):
            # |{m in 1..r : dist(x, U) <= m}| for every point x
            cnt = sum(mask[:, list(U)].any(axis=1) for mask in masks)
            sets_counts.append(cnt)
            total += cnt
        color_counts.append(total)
        per_set_counts.append(sets_counts)
    grand = sum(color_counts)
    if np.any(grand == 0):
        x = int(np.argmin(grand))
        raise CoverGapError(
            f"partition of unity vanishes at point {space.points[x]!r}",
            point=space.points[x])

    h_ops = []
    h_square_sum = np.zeros(space.n)
    for i, fam in enumerate(cover.families):
        h_vals = np.sqrt(color_counts[i] / grand)
        h_square_sum += h_vals ** 2
        h_ops.append(BandOperator.diagonal(
            space, fiber_dim, {x: h_vals[x] for x in range(space.n) if h_vals[x] > 0}))
        for j, cnt in enumerate(per_set_counts[i]):
            window = tuple(int(x) for x in np.nonzero(cnt)[0])
            summands.append(Summand(i, (i, j), len(window)))
            windows.append(window)
            color_of_summand.append(i)

    algebra = FiniteDimAlgebra(summands, fiber_dim)
    psi = CompressionMap(band, algebra, windows,
                         [h_ops[c] for c in color_of_summand])
    phi = InclusionMap(algebra, band, windows)

    if test_set is None:
        test_set = default_test_set(space, r, fiber_dim)

    witness = DiagDimWitness(
        d=len(cover.families) - 1,
        algebra=algebra, band=band, psi=psi, phi=phi,
        test_set=list(test_set), epsilon=0.0 if epsilon is None else epsilon,
        meta={"r": r, "cover_scale": float(cover.scale_r),
              "h_sum_defect": float(np.abs(h_square_sum - 1.0).max())})
    if epsilon is None:
        errs = condition2_errors(witness, witness.test_set
                                 + [a @ a for a in witness.test_set])
        witness._errors = tuple(errs[:len(witness.test_set)])
        epsilon = default_epsilon(max(errs))
    witness.epsilon = float(epsilon)
    return witness


# ---------------------------------------------------------------------------
# Condition checking
# ---------------------------------------------------------------------------

@dataclass
class ConditionVerdict:
    """One condition's outcome.  ``mode`` says how it was reached:
    ``computed`` (measured over every generator), ``structural`` (implied by
    the structure the map carries) or ``sampled`` (a seeded falsifier)."""

    condition: int
    verdict: bool
    worst: float
    mode: str
    witness_element: str = ""

    def to_json(self):
        return {"condition": self.condition, "verdict": self.verdict,
                "worst": self.worst, "mode": self.mode,
                "witness_element": self.witness_element}


@dataclass
class ConditionReport:
    verdicts: list
    epsilon: float

    def __getitem__(self, condition):
        return self.verdicts[condition - 1]

    @property
    def passed(self):
        return all(v.verdict for v in self.verdicts)

    def structural_passed(self):
        """Conditions 1, 3, 4, 5, 6 (condition 2 is a measured error)."""
        return all(v.verdict for v in self.verdicts if v.condition != 2)

    def to_json(self):
        return {"epsilon": self.epsilon,
                "conditions": [v.to_json() for v in self.verdicts]}


MATRIX_UNIT_FIBER_SAMPLES = 2048


def _check_condition4(witness, tol):
    """psi of every single-point, single-fiber-unit diagonal generator must be
    slot-diagonal.  A compression map certifies this by its windows; any
    other psi is measured on all n m^2 generators."""
    if getattr(witness.psi, "diagonal_certificate", lambda: None)() is not None:
        return ConditionVerdict(4, True, 0.0, "structural")
    m = witness.fiber_dim
    worst = 0.0
    ok = True
    element = ""
    for x in range(witness.space.n):
        for g in range(m):
            for dd in range(m):
                gen = BandOperator(witness.space, m, {(x, x): fiber_unit(m, g, dd)})
                good, mass = witness.psi.apply(gen).is_canonical_diagonal(tol)
                worst = max(worst, mass)
                if not good:
                    ok = False
                    element = f"diag_gen[{x},{g},{dd}]"
    return ConditionVerdict(4, ok, worst, "computed", element)


def _check_condition5(witness, tol):
    """Normalizer checks for phi images of diagonal and matrix-unit elements.

    A map with ``image_of_unit`` sends every matrix unit (tensor any fiber
    block) to a single block, and a single-block operator normalizes the
    diagonal, so the condition holds structurally.  Any other map is checked
    on all slot pairs conjugated with the fiber unit; fiber matrix units are
    added exhaustively for diagonal slots and on a seeded sample of slot
    pairs.
    """
    from .operators import normalizer_check

    phi = witness.phi
    if hasattr(phi, "image_of_unit"):
        return ConditionVerdict(5, True, 0.0, "structural")
    m = witness.fiber_dim
    worst = 0.0
    rng = np.random.default_rng(0)
    combos = []
    for k, s in enumerate(witness.algebra.summands):
        for a in range(s.size):
            for b in range(s.size):
                combos.append((k, a, b))
    fiber_units = [(g, d) for g in range(m) for d in range(m)]

    def failed(element):
        return ConditionVerdict(5, False, worst, "sampled", element)

    for (k, a, b) in combos:
        rep = normalizer_check(unit_image(phi, k, a, b), tol)
        worst = max(worst, rep.worst)
        if not rep.flag:
            return failed(f"matrix_unit[{k},{a},{b}]x1")
        if a == b and m > 1:
            for (g, dd) in fiber_units:
                rep = normalizer_check(unit_image(phi, k, a, b, fiber_unit(m, g, dd)), tol)
                worst = max(worst, rep.worst)
                if not rep.flag:
                    return failed(f"diagonal[{k},{a}]xe[{g},{dd}]")
    if m > 1 and combos:
        picks = rng.choice(len(combos), size=min(MATRIX_UNIT_FIBER_SAMPLES, len(combos)))
        for t in picks:
            k, a, b = combos[int(t)]
            g, dd = int(rng.integers(m)), int(rng.integers(m))
            rep = normalizer_check(unit_image(phi, k, a, b, fiber_unit(m, g, dd)), tol)
            worst = max(worst, rep.worst)
            if not rep.flag:
                return failed(f"matrix_unit[{k},{a},{b}]xe[{g},{dd}]")
    return ConditionVerdict(5, True, worst, "sampled")


def _check_condition6(witness, tol):
    """Supporting-homomorphism images of the diagonal slot units must commute
    with the band diagonal.  For a map with ``image_of_unit`` whose same-color
    windows are pairwise disjoint, h = phi(1) is the projection onto the
    windows, so pi = phi and pi(e_aa) is the fiber identity at W[a], which
    commutes with the diagonal.  Any other map is factorized color by color
    and every image is checked."""
    colors = witness.color_phis()
    if hasattr(witness.phi, "image_of_unit") and all(
            _structural_order_zero(phi_i) for _, phi_i in colors):
        return ConditionVerdict(6, True, 0.0, "structural")
    worst = 0.0
    ok = True
    element = ""
    for i, phi_i in colors:
        rep = cop_check(factorize_order_zero(phi_i, trials=2), tol=tol)
        worst = max(worst, rep.worst)
        if not rep.flag:
            ok = False
            element = f"color[{i}]"
    return ConditionVerdict(6, ok, worst, "computed", element)


def check_witness(witness, tol=1e-9):
    """Evaluate the six witness conditions; condition 2 is reported as a
    measured error against the declared epsilon, never thresholded silently.
    Condition 1 reads ||psi(1)|| by ``monomial_norm``: the largest absolute
    value of its entries when psi(1) is a real diagonal, as a compression's
    is, the very value of ``FdElement.norm``.

    ``tol`` must be a finite real number >= 0 (bool rejected); anything
    else raises ``InvalidParameterError``.
    """
    check_real(tol, "check tolerance", 0)
    verdicts = []

    psi1 = witness.psi.apply(witness.band.identity())
    norm1 = monomial_norm(psi1, monomial_factors(psi1))
    verdicts.append(ConditionVerdict(1, norm1 <= 1.0 + tol, max(0.0, norm1 - 1.0),
                                     "computed", "1_A"))

    errs = condition2_errors(witness)
    worst2 = max(errs) if errs else 0.0
    which = int(np.argmax(errs)) if errs else -1
    verdicts.append(ConditionVerdict(2, worst2 < witness.epsilon, worst2, "computed",
                                     f"test_set[{which}]"))

    worst3 = 0.0
    ok3 = True
    elem3 = ""
    mode3 = "structural"
    for i, phi_i in witness.color_phis():
        rep = order_zero_check(phi_i)
        if rep.mode != "structural":
            mode3 = "sampled"
        contr = operator_norm(phi_i.apply(phi_i.domain.identity()))
        worst3 = max(worst3, rep.worst, max(0.0, contr - 1.0))
        if not rep.flag or contr > 1.0 + tol:
            ok3 = False
            elem3 = f"color[{i}]"
    verdicts.append(ConditionVerdict(3, ok3, worst3, mode3, elem3))

    verdicts += [_check_condition4(witness, tol), _check_condition5(witness, tol),
                 _check_condition6(witness, tol)]
    return ConditionReport(verdicts, witness.epsilon)


# ---------------------------------------------------------------------------
# Hat normalization
# ---------------------------------------------------------------------------

@dataclass
class HatPair:
    """Spectrally renormalized approximation pair on the witness corner.

    ``p, p_prime`` are the zeta / reciprocal-zeta images of psi(1); the
    renormalized maps satisfy phi.psi = (1 + eps^2/81) phi_hat.psi_hat
    exactly, since p.p_prime is the unit.
    """

    p: object
    p_prime: object
    psi_hat: SandwichedMap
    phi_hat: SandwichedMap
    scale: float
    report: dict

    @property
    def passed(self):
        return self.report["passed"]


class WindowDefects:
    """Multiplicativity defects of a hat map, formed window by window.

    The hat map is ``phi_hat(z) = scale phi(p z p)``, and the inclusion phi
    writes summand k onto the coordinates W_k of its window.  With P_k, X_k
    and Y_k the summand-k parts of p, x and y, ``A_k = scale P_k X_k P_k`` and
    ``B_k = scale P_k Y_k P_k``, the defect
    ``phi_hat(x y) - phi_hat(x) phi_hat(y)`` is the sum of

    * ``scale (P_k X_k)(Y_k P_k) - A_k B_k``, formed as
      ``(P_k X_k) scale (Y_k P_k - P_k B_k)``, at (W_k, W_k), per window, and
    * ``-A_k[:, O] B_l[O', :]`` at (W_k, W_l), per pair k != l of overlapping
      windows, O and O' being the slots of k and l at their shared
      coordinates,

    which costs O(windows s^3 + N^2) against the O(N^3) of the dense
    products; ``left(x)`` and ``right(y)`` hold the factors, so each is
    formed once per test element or sample.

    ``left(x)`` compiles the defect into one flat plan, windows first and
    then pairs, each block's rows in order.  Where a left factor (P_k X_k, or
    the nonzero rows of A_k[:, O]) holds at most one nonzero in each row and
    column, all real (p is a real monomial matrix, and so are the
    compressions of the identity and of partial translations by it), each
    entry of its product is one term: the plan holds, per entry, its flat
    position in the N x N matrix, the position of the right factor's entry
    in ``right(y)``'s raveled blocks, and the real coefficient that scales
    it, which is the dense product bit for bit (a zero's sign aside).  A
    block whose left factor is any other part keeps its dense product, put
    in the same places.  ``defect`` then takes one gather, one scaling and
    one ``np.add.at`` into a zero N x N matrix.  ``add.at`` adds repeated
    positions in array order, so each entry is the floating-point sum it
    would be if the blocks were added one after another, and a sum that
    starts from +0.0 is never -0.0, so zero signs do not show.  Flat
    positions are int32: the size checks keep them below 2**26.

    ``defect`` returns the sum and an a-priori bound ``gap`` on its spectral
    distance from the dense defect ``phi_hat(x y) - phi_hat(x) phi_hat(y)``
    of N x N matrices.  Both equal the same sum in exact arithmetic.  Every
    entry of either is a floating-point sum of products of at most six
    window factors (P X P P Y P), formed by at most five matrix products of
    inner dimension at most N (a gather and scaling has inner dimension 1)
    and at most c^2 + 3 real scalings, scatter
    additions and subtractions, c being the largest number of windows that
    hold one coordinate.  A complex product of inner dimension n satisfies
    ``|fl(AB) - AB| <= sqrt(2) gamma_{n+2} |A||B| <= gamma_{2n+4} |A||B|``
    (``gamma_k = k u / (1 - k u)``, u the unit roundoff), an addition or a
    real scaling adds gamma_1, and errors compose as
    ``(1 + gamma_a)(1 + gamma_b) <= 1 + gamma_{a+b}``.  So each matrix lies
    entrywise within gamma_K of the exact defect, relative to the same sums
    of absolute values, whose Frobenius norm is at most S1 + S2 because
    ``|| |A||B| ||_F <= ||A||_F ||B||_F``:

        S1 = scale sum_k |P_k|_F^2 |X_k|_F |Y_k|_F,
        S2 = scale^2 (sum_k |P_k|_F^2 |X_k|_F) (sum_k |P_k|_F^2 |Y_k|_F),
        gap = 2 gamma_K (S1 + S2),   K = 10 N + c^2 + d^2 + 4 W + 40,

    the spectral norm being at most the Frobenius norm.  The terms
    d^2 + 4 W + 17 of K (d the largest window dimension, W the number of
    windows) cover the rounding of the norms and sums that evaluate the
    bound, since ``gamma_K (1 + gamma_j) <= gamma_{K+j}``.
    """

    def __init__(self, phi, p, scale):
        m, n = phi.codomain.fiber_dim, phi.codomain.matrix_dim
        coords = [np.array([x * m + a for x in w for a in range(m)], dtype=np.int32)
                  for w in phi.windows]
        sizes = [len(c) ** 2 for c in coords]
        check_dense_size(n)
        check_dense_size(1, 2 * sum(sizes))
        self.n = n
        self.scale = scale
        self.p = monomial_factors(p)
        self.p_fro2 = np.array([np.linalg.norm(part) ** 2 for part in p.parts])
        self.coords = coords
        # where the right's raveled blocks start and end: scale (Y_k P_k -
        # P_k B_k) per window, then -B_k per window
        self.bounds = np.cumsum([0] + sizes + sizes).tolist()
        owners = {}
        for k, c in enumerate(coords):
            for slot, x in enumerate(c.tolist()):
                owners.setdefault(x, []).append((k, slot))
        shared = {}
        for holders in owners.values():
            for k, i in holders:
                for l, j in holders:
                    if k != l:
                        rows, cols = shared.setdefault((k, l), ([], []))
                        rows.append(i)
                        cols.append(j)
        self.pairs = [(k, l, np.array(i), np.array(j)) for (k, l), (i, j) in shared.items()]
        c = max(map(len, owners.values()), default=0)
        d = max(map(len, coords), default=0)
        big_k = 10 * n + c * c + d * d + 4 * len(coords) + 40
        u = np.finfo(float).eps / 2
        self.gamma = big_k * u / (1.0 - big_k * u)

    def left(self, x):
        """The compiled plan of every defect with left factor x: flat
        positions, right positions and coefficients, the blocks kept dense,
        the x-side sums of the gap, and the certificate panels.

        A product's nonzero rows lie among those of its left factor, so each
        defect holds its nonzeros in the rectangles (nonzero rows of
        P_k X_k) x W_k and (nonzero rows of A_k[:, O]) x W_l, whatever the
        right factor; the panels are the ``band_panels`` of their first and
        last rows, column by column, and no defect is scanned for them."""
        px = [pk @ xk for pk, xk in zip(self.p, x.parts)]
        a = [self.scale * (pxk @ pk) for pxk, pk in zip(px, self.p)]
        first = np.full(self.n, self.n)
        last = np.full(self.n, -1)
        targets, sources, coefs, dense = [], [], [], []
        size = 0

        def block(rows, cols, part, start, right_rows):
            """``part`` times rows ``right_rows`` of the right's square block
            at ``start``, added at rows x cols of the defect."""
            nonlocal size
            width = len(cols)
            scaling = MonomialFactor(part).scaling
            if scaling is None:
                dense.append((size, part, start, width, right_rows))
                at, held = rows, rows[part.any(axis=1)]
                sources.append(np.zeros(len(at) * width, dtype=np.int32))
                coefs.append(np.zeros(len(at) * width))
            else:
                dst, src, coef = scaling
                if dst is None:
                    dst = src = np.arange(len(coef))
                at = held = rows[dst]
                head = (start + right_rows[src] * width).astype(np.int32)
                sources.append((head[:, None] + np.arange(width, dtype=np.int32)).reshape(-1))
                coefs.append(np.repeat(coef.real, width))
            targets.append(((at * self.n)[:, None] + cols).reshape(-1))
            size += len(at) * width
            if len(held):
                first[cols] = np.minimum(first[cols], held.min())
                last[cols] = np.maximum(last[cols], held.max())

        for k, (c, pxk) in enumerate(zip(self.coords, px)):
            block(c, c, pxk, self.bounds[k], np.arange(len(c)))
        count = len(self.coords)
        for k, l, rows, cols in self.pairs:
            ak = a[k][:, rows]
            hit = np.flatnonzero(ak.any(axis=1))
            block(self.coords[k][hit], self.coords[l], ak[hit], self.bounds[count + l], cols)
        x_fro = np.array([np.linalg.norm(xk) for xk in x.parts])
        return (np.concatenate([np.zeros(0, dtype=np.int32)] + targets),
                np.concatenate([np.zeros(0, dtype=np.int32)] + sources),
                np.concatenate([np.zeros(0)] + coefs), dense,
                self.p_fro2 * x_fro, float(self.p_fro2 @ x_fro), band_panels(first, last, self.n))

    def right(self, y):
        """scale (Y_k P_k - P_k B_k) and then -B_k, per window, raveled into
        one array, each written in place; |Y_k|_F per window and the y-side
        sum of the gap."""
        blocks = np.empty(self.bounds[-1], dtype=complex)
        views = [blocks[i:j] for i, j in zip(self.bounds, self.bounds[1:])]
        count = len(self.p)
        for k, (yk, pk) in enumerate(zip(y.parts, self.p)):
            ypk = yk @ pk
            bk = self.scale * (pk @ ypk)
            np.multiply(self.scale, ypk - pk @ bk, out=views[k].reshape(ypk.shape))
            np.negative(bk, out=views[count + k].reshape(bk.shape))
        y_fro = np.array([np.linalg.norm(yk) for yk in y.parts])
        return blocks, y_fro, float(self.p_fro2 @ y_fro)

    def defect(self, left, right):
        """The N x N defect matrix as a ``Nearby``: with its ``gap`` to the
        dense one and the left's certificate panels."""
        targets, sources, coefs, dense, px_fro, x_sum, panels = left
        blocks, y_fro, y_sum = right
        vals = blocks[sources]
        vals *= coefs
        for start, part, first, width, rows in dense:
            product = part @ blocks[first:first + width * width].reshape(width, width)[rows]
            vals[start:start + product.size] = product.reshape(-1)
        flat = np.zeros(self.n * self.n, dtype=complex)
        np.add.at(flat, targets, vals)
        s1 = self.scale * float(np.sum(px_fro * y_fro))
        s2 = self.scale ** 2 * x_sum * y_sum
        return Nearby(flat.reshape(self.n, self.n), 2.0 * self.gamma * (s1 + s2), panels)


def hat_normalize(witness, samples=50, seed=0, tol=1e-9):
    """Renormalize psi(1) away from the identity by spectral functions.

    Requires conditions 1 and 2; reports the scale identity, the
    approximation bound eps^2/27 over the test set and its squares, and the
    multiplicativity defect bound 6 (eps^2/81)^{1/2} over sampled unit-ball
    corner elements.  Each worst case is reported as an enclosure
    (``max_norm_enclosure``): a value (``scale_identity_deviation``,
    ``approximation_worst``, ``multiplicativity_worst``), that of one defect
    matrix from LAPACK's SVD below 2 CERT_PANEL columns and from a certified
    Golub-Kahan-Lanczos run from there up, and a key ending in ``_upper``,
    an upper end proved for every defect: each record's value times
    1 + ENCLOSURE_REL is certified, and every other defect is certified
    below the running maximum by a block-banded Cholesky factorization.  The
    multiplicativity defects are formed from window pairs
    (:class:`WindowDefects`) and certified against the running maximum less
    their a-priori gap; a record's upper end has its gap added, so the upper
    end bounds the dense defects ``phi_hat(x y) - phi_hat(x) phi_hat(y)``
    too.  No dense product of hat images is formed.  The verdict ``passed``
    is decided on the upper ends.

    psi(1) is read once (``monomial_factors``).  Where it is a real
    diagonal, as a compression of the identity is, its norm is the largest
    absolute value of its entries (``monomial_norm``), the very value of
    ``FdElement.norm``, and each sample ``psi(1) y psi(1)`` is two real
    scalings, bit for bit the dense products (a zero's sign aside).

    ``samples`` must be an integer >= 1 and ``seed`` an integer >= 0;
    anything else raises ``InvalidParameterError``.
    """
    check_int(samples, "hat samples", 1)
    check_int(seed, "hat seed", 0)
    eps = witness.epsilon
    psi1 = witness.psi.apply(witness.band.identity())
    unit = monomial_factors(psi1)
    if monomial_norm(psi1, unit) > 1.0 + tol:
        raise PreconditionError("condition 1 fails: psi is not contractive")
    errs = condition2_errors(witness)
    if errs and max(errs) >= eps:
        raise PreconditionError("condition 2 fails against the declared epsilon")

    min_eig = min(float(v.min()) for v in psi1.eigenvalues())
    if min_eig < -1e-12:
        raise InvalidWitnessError(f"psi(1) has negative spectrum ({min_eig:.3e})")

    zeta = bump_function("zeta", d=witness.d, eps=eps)
    zeta_prime = bump_function("zeta_prime", d=witness.d, eps=eps)
    clip = lambda t: np.maximum(t, 0.0)
    p = psi1.funcalc(lambda t: zeta(clip(t)))
    p_prime = psi1.funcalc(lambda t: zeta_prime(clip(t)))
    scale = 1.0 / (1.0 + eps ** 2 / 81.0)
    psi_hat = SandwichedMap(witness.psi, post=p_prime)
    phi_hat = SandwichedMap(witness.phi, pre=p, scale=scale)

    bp = zeta.breakpoints[0]
    above = psi1.funcalc(lambda t: (t > bp).astype(float))
    unit_dev = ((p @ p_prime) @ above - above).norm()

    # The few scale and approximation defects are band operators made dense,
    # with the certificate panels of their own row profile.
    def banded(op):
        return Nearby(op.to_dense(), 0.0,
                      band_panels(*op.row_profile(), witness.band.matrix_dim))

    # psi_hat(a) and phi_hat(psi_hat(a)) are formed once per test element:
    # the left factor of its multiplicativity defects is read off the first,
    # and the scale and approximation defects share the second
    windows = WindowDefects(witness.phi, p, scale)
    lefts, hat_round_trips = [], []
    for a in witness.test_set:
        hat_a = psi_hat.apply(a)
        lefts.append(windows.left(hat_a))
        hat_round_trips.append(phi_hat.apply(hat_a))
    phi_psi = _phi_psi(witness)
    scale_dev, scale_upper = max_norm_enclosure(
        banded(hat - scale * phi_psi(a)) for a, hat in zip(witness.test_set, hat_round_trips))
    squares = [a @ a for a in witness.test_set]
    approx_worst, approx_upper = max_norm_enclosure(itertools.chain(
        (banded(hat - a) for a, hat in zip(witness.test_set, hat_round_trips)),
        (banded(phi_hat.apply(psi_hat.apply(a)) - a) for a in squares)))
    approx_bound = eps ** 2 / 27.0

    def mult_defects():
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            y = witness.algebra.random_hermitian(rng)
            b = FdElement(witness.algebra, [u @ yk @ u for u, yk in zip(unit, y.parts)])
            nb = b.norm()
            if nb < 1e-12:
                continue
            right = windows.right((1.0 / nb) * b)
            for left in lefts:
                yield windows.defect(left, right)

    mult_worst, mult_upper = max_norm_enclosure(mult_defects())
    mult_bound = 6.0 * math.sqrt(eps ** 2 / 81.0)

    report = {
        "unit_on_range_deviation": unit_dev,
        "scale_identity_deviation": scale_dev,
        "scale_identity_deviation_upper": scale_upper,
        "approximation_worst": approx_worst,
        "approximation_worst_upper": approx_upper,
        "approximation_bound": approx_bound,
        "multiplicativity_worst": mult_worst,
        "multiplicativity_worst_upper": mult_upper,
        "multiplicativity_bound": mult_bound,
        "passed": (unit_dev <= tol and scale_upper <= tol
                   and approx_upper < approx_bound and mult_upper < mult_bound),
    }
    return HatPair(p, p_prime, psi_hat, phi_hat, scale, report)


# ---------------------------------------------------------------------------
# Permanence combinators
# ---------------------------------------------------------------------------

def _is_identity(op):
    """True when the operator is exactly the identity."""
    return (len(op.keys) == op.space.n and op.is_diagonal
            and np.array_equal(op.stack, np.broadcast_to(np.eye(op.fiber_dim), op.stack.shape)))


def _lift_operator(op, new_space, offset, fiber_dim):
    return BandOperator._validated(new_space, fiber_dim, op.keys + offset, op.stack)


def _kron_operator(op, new_space, n):
    """Each block b of ``op`` as ``np.kron(b, I_n)``, in one broadcast product."""
    m = op.fiber_dim
    stack = (op.stack[:, :, None, :, None] * np.eye(n)[:, None, :]).reshape(-1, m * n, m * n)
    return BandOperator._validated(new_space if new_space is not None else op.space,
                                   m * n, op.keys, stack)


def permanence_combine(kind, w1, other):
    """Direct sums of witnesses and matrix amplifications.

    ``direct_sum`` glues the spaces at a distance beyond every scale in play
    and takes the direct sum of algebras and maps; the dimension is the
    maximum of the two.  ``tensor_matrix`` amplifies the fiber by n and keeps
    the dimension.
    """
    if kind == "direct_sum":
        w2 = other
        if w1.fiber_dim != w2.fiber_dim:
            raise IncompatibilityError("direct sum requires equal fiber dimensions")
        m = w1.fiber_dim
        r1, r2 = w1.meta.get("r", 1), w2.meta.get("r", 1)
        gap = max(w1.space.diameter(), w2.space.diameter(), float(3 * r1), float(3 * r2), 1.0)
        space = glue(w1.space, w2.space, gap)
        band = BandAlgebra(space, m)
        n1 = w1.space.n

        summands, windows, coeffs = [], [], []
        for src, offset in ((w1, 0), (w2, n1)):
            for k, s in enumerate(src.algebra.summands):
                summands.append(Summand(s.color, ("ds", offset, s.label), s.size))
                windows.append(tuple(p + offset for p in src.psi.windows[k]))
                c = src.psi.coefficients[k]
                coeffs.append(None if c is None else
                              _lift_operator(c, space, offset, m))
        algebra = FiniteDimAlgebra(summands, m)
        psi = CompressionMap(band, algebra, windows, coeffs)
        phi = InclusionMap(algebra, band, windows)
        test_set = [BandOperator.identity(space, m)]
        for src, offset in ((w1, 0), (w2, n1)):
            for a in src.test_set:
                if not _is_identity(a):
                    test_set.append(_lift_operator(a, space, offset, m))
        return DiagDimWitness(
            d=max(w1.d, w2.d), algebra=algebra, band=band, psi=psi, phi=phi,
            test_set=test_set, epsilon=max(w1.epsilon, w2.epsilon),
            meta={"r": max(r1, r2), "combined": "direct_sum"})

    if kind == "tensor_matrix":
        n = check_int(other, "matrix amplification n", 1)
        m = w1.fiber_dim * n
        band = BandAlgebra(w1.space, m)
        algebra = FiniteDimAlgebra(list(w1.algebra.summands), m)
        coeffs = [None if c is None else _kron_operator(c, None, n)
                  for c in w1.psi.coefficients]
        psi = CompressionMap(band, algebra, list(w1.psi.windows), coeffs)
        phi = InclusionMap(algebra, band, list(w1.psi.windows))
        test_set = [BandOperator.identity(w1.space, m)] + [
            _kron_operator(a, None, n) for a in w1.test_set if not _is_identity(a)]
        return DiagDimWitness(
            d=w1.d, algebra=algebra, band=band, psi=psi, phi=phi,
            test_set=test_set, epsilon=w1.epsilon,
            meta=dict(w1.meta, combined="tensor_matrix", amplification=n))

    raise InvalidParameterError(f"unknown permanence kind {kind!r}")


# ---------------------------------------------------------------------------
# Witness bundle serialization
# ---------------------------------------------------------------------------

def save_witness(witness, dirpath):
    """Write a witness bundle: space file, summand windows, coefficient
    operator files, and one operator file per test element."""
    import os

    from .operators import save_operator
    from .space import _id_to_json, save_space, write_json

    os.makedirs(dirpath, exist_ok=True)
    save_space(witness.space, os.path.join(dirpath, "space.json"))

    coeff_names = {}
    coeff_refs = []
    for c in witness.psi.coefficients:
        if c is None:
            coeff_refs.append(None)
            continue
        key = id(c)
        if key not in coeff_names:
            name = f"coeff_{len(coeff_names):03d}.json"
            coeff_names[key] = name
            save_operator(c, os.path.join(dirpath, name))
        coeff_refs.append(coeff_names[key])

    test_refs = []
    for t, op in enumerate(witness.test_set):
        name = f"test_{t:03d}.json"
        save_operator(op, os.path.join(dirpath, name))
        test_refs.append(name)

    doc = {
        "space": "space.json",
        "fiber": witness.fiber_dim,
        "d": witness.d,
        "epsilon": witness.epsilon,
        "summands": [
            {"color": s.color, "label": list(s.label) if isinstance(s.label, tuple)
             else s.label,
             "points": [_id_to_json(witness.space.points[p]) for p in w]}
            for s, w in zip(witness.algebra.summands, witness.psi.windows)
        ],
        "coefficients": coeff_refs,
        "test_set": test_refs,
        "meta": {k: v for k, v in witness.meta.items()
                 if isinstance(v, (int, float, str, bool))},
    }
    write_json(doc, os.path.join(dirpath, "witness.json"))


def load_witness(dirpath):
    """A bundle of ``save_witness``; a ``witness.json`` that is not an
    object, a missing key, a point id that names no point of the space, a
    key or point id of the wrong type in it, or a ``meta.r`` that is not a
    finite real number >= 0, raises ``InvalidParameterError``."""
    import os

    from .operators import load_operator
    from .space import _fields, _point_indices, _read_object, load_space

    path = os.path.join(dirpath, "witness.json")
    doc = _read_object(path)
    space_ref, fiber, d, epsilon, records, coeff_refs, test_refs = _fields(
        doc, ("space", "fiber", "d", "epsilon", "summands", "coefficients", "test_set"), path)
    meta = doc.get("meta", {})
    for key, ok, rule in [
            ("space", isinstance(space_ref, str), "a file name"),
            ("summands", _is_list_of(records, dict) and all(
                isinstance(rec.get("points"), list) for rec in records),
             "a list of records with a 'points' list"),
            ("coefficients", _is_list_of(coeff_refs, str, type(None)),
             "a list of file names or nulls"),
            ("test_set", _is_list_of(test_refs, str), "a list of file names"),
            ("meta", isinstance(meta, dict), "an object")]:
        if not ok:
            raise InvalidParameterError(f"witness bundle key {key!r} must be {rule}")
    if "r" in meta:
        check_real(meta["r"], f"{path}: the key 'meta.r'", 0)
    space = load_space(os.path.join(dirpath, space_ref))
    band = BandAlgebra(space, fiber)

    summands, windows = [], []
    for i, rec in enumerate(records):
        color, label = _fields(rec, ("color", "label"), path, f"summand {i}")
        pts = tuple(_point_indices(space, rec["points"], path))
        summands.append(Summand(color, tuple(label) if isinstance(label, list) else label,
                                len(pts)))
        windows.append(pts)
    algebra = FiniteDimAlgebra(summands, fiber)

    loaded = {ref: load_operator(os.path.join(dirpath, ref), space)
              for ref in dict.fromkeys(coeff_refs) if ref is not None}
    coeffs = [None if ref is None else loaded[ref] for ref in coeff_refs]
    psi = CompressionMap(band, algebra, windows, coeffs)
    phi = InclusionMap(algebra, band, windows)
    test_set = [load_operator(os.path.join(dirpath, ref), space) for ref in test_refs]
    return DiagDimWitness(d=d, algebra=algebra, band=band, psi=psi, phi=phi,
                          test_set=test_set, epsilon=epsilon, meta=dict(meta))
