"""Cover extraction from witnesses.

The pipeline runs in four stages.  ``decompose_neighbors`` splits the
r-neighbor relation into partial bijections and their translation operators.
``threshold_setup`` fixes the constants delta = 1/(2^7 (d+1)^2),
eta = 1/(2^3 (d+1)), eps = delta^3/4, thresholds psi(1) spectrally at delta,
and promotes the surviving diagonal slots to full fiber units, which cuts the
witness algebra down to matrix corners over the fiber.
``build_translation_system`` pushes the generalized matrix units of each
corner through the f_delta / g_delta functional calculus of the corner's
order-zero map, reads off the sets U_k where the diagonal images carry more
than eta^2 of a point, and extracts the partial bijections sigma_bar between
them from singleton supports of conjugated operators.  Each corner keeps one
translation table, ``U[k]`` sending each x in U_k to its s targets
sigma_bar_kl(x), and verification checks sigma_bar_kk(x) = x and the round
trip sigma_bar_lk(sigma_bar_kl(x)) = x on it, which also makes every
sigma_bar_kl injective.  When the corner map has ``image_of_unit`` (an
inclusion map), h = phi(1) is the projection onto the corner window W, so
the image of unit (k, l) is f(1) times the fiber identity at (W[k], W[l]):
the corner is held as W and the two scalars f_delta(1) and g_delta(1), with
no factorization and no functional calculus.  Any other corner map is
factorized and held as one band operator per matrix unit.  ``extract_cover``
closes each color's U-set under r-chains; the classes form the extracted
colored cover and their sizes are compared against the corner sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cover import cover_to_json, make_cover, verify_cover
from .cpmaps import bump_function, factorize_order_zero, unit_image
from .errors import (AmbiguousSupportError, CoverGapError, DiagonalViolationError,
                     InvalidWitnessError)
from .operators import (BandOperator, _groups, _pruned, component_labels, group_by,
                        operator_norm, spectral_norm)
from .space import ulf_profile


# ---------------------------------------------------------------------------
# Edge decomposition
# ---------------------------------------------------------------------------

@dataclass
class EdgeDecomposition:
    """Partition of the r-neighbor pairs into partial bijections."""

    scale_r: float
    pairs: list
    parts: list
    operators: list
    max_ball: int

    @property
    def M(self):
        return len(self.parts)


def decompose_neighbors(space, r, fiber_dim=1):
    """Greedy deterministic split of {(x, y) : dist <= r} into parts whose
    first and second coordinates are each pairwise distinct.

    Pairs are processed in lexicographic order and placed into the first
    compatible part; with N the maximal ball cardinality at radius r this
    needs at most 2N - 1 parts.
    """
    # argwhere walks the mask row by row, so the pairs come out in the
    # lexicographic order the greedy split depends on.
    pairs = [tuple(p) for p in np.argwhere(space.within_mask(r)).tolist()]
    parts, firsts, seconds = [], [], []
    for (x, y) in pairs:
        for t in range(len(parts)):
            if x not in firsts[t] and y not in seconds[t]:
                parts[t].append((x, y))
                firsts[t].add(x)
                seconds[t].add(y)
                break
        else:
            parts.append([(x, y)])
            firsts.append({x})
            seconds.append({y})
    max_ball = ulf_profile(space, [r])[r]
    if len(parts) > 2 * max_ball - 1:
        raise InvalidWitnessError(
            f"edge decomposition produced {len(parts)} parts, above the "
            f"2N-1 = {2 * max_ball - 1} bound")
    ops = [BandOperator.partial_translation(space, fiber_dim, part)
           for part in parts]
    return EdgeDecomposition(float(r), pairs, parts, ops, max_ball)


# ---------------------------------------------------------------------------
# Thresholding
# ---------------------------------------------------------------------------

THRESHOLD_EIG_MARGIN = 1e-9


@dataclass
class CornerData:
    color: int
    j: int
    summand_index: int
    kept_slots: tuple

    @property
    def s(self):
        return len(self.kept_slots)


@dataclass
class ThresholdData:
    d: int
    delta: Fraction
    eta: Fraction
    eps: Fraction
    corners: list

    @property
    def s_max(self):
        return max((c.s for c in self.corners), default=0)


def threshold_constants(d):
    delta = Fraction(1, 2 ** 7 * (d + 1) ** 2)
    eta = Fraction(1, 2 ** 3 * (d + 1))
    return delta, eta, delta ** 3 / 4


def threshold_setup(witness, tol=1e-9):
    """Spectral thresholding of psi(1) and the corner bookkeeping.

    A slot survives when its fiber block of psi(1) has an eigenvalue strictly
    above delta (eigenvalues within 1e-9 of delta are excluded, matching the
    half-open spectral interval) and is promoted to a full fiber unit.
    Corners enumerate, per color, the summands with surviving slots.
    """
    d = witness.d
    delta, eta, eps = threshold_constants(d)
    psi1 = witness.psi.apply(witness.band.identity())
    good, mass = psi1.is_canonical_diagonal(tol)
    if not good:
        raise DiagonalViolationError(
            f"psi(1) is not in the canonical diagonal (off-diagonal mass {mass:.3e})")

    algebra = witness.algebra
    m = algebra.fiber_dim
    cut = float(delta) + THRESHOLD_EIG_MARGIN
    kept = []
    for s, part in zip(algebra.summands, psi1.parts):
        slots = np.arange(s.size)
        blocks = part.reshape(s.size, m, s.size, m)[slots, :, slots, :]
        # the eigenvalues of eigh, not eigvalsh, keep the slot decisions
        # bit for bit; one stacked call per summand
        w, _ = np.linalg.eigh((blocks + blocks.conj().swapaxes(1, 2)) / 2.0)
        kept.append(tuple(np.flatnonzero((w > cut).any(axis=1)).tolist()))

    corners = []
    for color in algebra.colors():
        j = 0
        for k in algebra.color_indices(color):
            if kept[k]:
                corners.append(CornerData(color, j, k, kept[k]))
                j += 1
    return ThresholdData(d, delta, eta, eps, corners)


# ---------------------------------------------------------------------------
# Partial translation system
# ---------------------------------------------------------------------------

SUPPORT_RESIDUAL_TOL = 1e-6
IDENTITY_NAMES = ("diag_positive_f", "diag_positive_g", "adjoint_f", "adjoint_g",
                  "absorb")


def _point_compression_norm(op, x):
    """||T 1_x T|| computed from the column and row of T at x."""
    col = [b for (u, y), b in op.blocks.items() if y == x]
    row = [b for (u, y), b in op.blocks.items() if u == x]
    if not col or not row:
        return 0.0
    B = np.vstack(col)
    C = np.hstack(row)
    return spectral_norm(B @ C)


def _column_compression(op, x):
    """The operator T 1_x T as a band operator."""
    left = op.compress(range(op.space.n), [x])
    right = op.compress([x], range(op.space.n))
    return left @ right


def _diag_positive_deviation(op):
    """Distance from being a positive propagation-zero operator."""
    dev = 0.0
    for (x, y), b in op.blocks.items():
        if x != y:
            dev = max(dev, spectral_norm(b))
        else:
            h = (b + b.conj().T) / 2.0
            dev = max(dev, float(np.abs(b - h).max()))
            w = np.linalg.eigvalsh(h)
            dev = max(dev, max(0.0, -float(w[0])))
    return dev


class OperatorImages:
    """A corner's f- and g-images as one band operator per matrix unit.

    The path for corner maps without single-block unit images, and the
    reference the window reading is tested against; its identities cost s^3
    operator products.
    """

    def __init__(self, f_img, g_img, s):
        self.f_img = f_img
        self.g_img = g_img
        self.s = s

    @classmethod
    def from_corner_map(cls, phi, f, g):
        """Images f(h) pi(u_kl) and g(h) pi(u_kl) through the order-zero
        factorization of the corner map, each unit applied by ``apply``."""
        fact = factorize_order_zero(phi, trials=2)
        f_of_h, g_of_h = fact.h.funcalc(f), fact.h.funcalc(g)
        s = phi.domain.summands[0].size
        f_img, g_img = {}, {}
        for k in range(s):
            for l in range(s):
                pi_kl = fact.pinv @ unit_image(phi, 0, k, l)
                f_img[(k, l)] = f_of_h @ pi_kl
                g_img[(k, l)] = g_of_h @ pi_kl
        return cls(f_img, g_img, s)

    def f_image(self, k, l):
        return self.f_img[(k, l)]

    def g_image(self, k, l):
        return self.g_img[(k, l)]

    def diagonal_blocks(self):
        """(point pair, block) of every block of the diagonal f-images."""
        return [item for k in range(self.s) for item in self.f_img[(k, k)].blocks.items()]

    def diagonal_point_norms(self):
        """Per k, the pairs (x, ||f_kk 1_x f_kk||) over the points f_kk touches."""
        out = []
        for k in range(self.s):
            fkk = self.f_img[(k, k)]
            pts = sorted({x for (x, y) in fkk.blocks} | {y for (x, y) in fkk.blocks})
            out.append([(x, _point_compression_norm(fkk, x)) for x in pts])
        return out

    def conjugate_targets(self, k, x):
        """Per l, the one point carrying g_lk (f_kk 1_x f_kk) g_kl, or None
        when its mass is zero or spreads beyond the residual bound."""
        inner = _column_compression(self.f_img[(k, k)], x)
        targets = []
        for l in range(self.s):
            xi = self.g_img[(l, k)] @ inner @ self.g_img[(k, l)]
            masses = {}
            total = 0.0
            best_y, best = None, -1.0
            for (u, v), b in xi.blocks.items():
                w = float(np.linalg.norm(b))
                total += w
                if u == v:
                    masses[u] = masses.get(u, 0.0) + w
            for y, w in masses.items():
                if w > best:
                    best_y, best = y, w
            if total <= 0.0 or (total - best) > SUPPORT_RESIDUAL_TOL * total:
                best_y = None
            targets.append(best_y)
        return targets

    def identity_deviations(self):
        s, f_img, g_img = self.s, self.f_img, self.g_img
        devs = dict.fromkeys(IDENTITY_NAMES, 0.0)

        def record(name, diff):
            if not diff.is_zero:
                devs[name] = max(devs[name], operator_norm(diff))

        for k in range(s):
            for name, img in (("diag_positive_f", f_img), ("diag_positive_g", g_img)):
                devs[name] = max(devs[name], _diag_positive_deviation(img[(k, k)]))
            for l in range(s):
                record("adjoint_f", f_img[(k, l)].adjoint() - f_img[(l, k)])
                record("adjoint_g", g_img[(k, l)].adjoint() - g_img[(l, k)])
                for mm in range(s):
                    record("absorb", f_img[(k, l)] @ g_img[(l, mm)] - f_img[(k, mm)])
                    record("absorb", g_img[(k, l)] @ f_img[(l, mm)] - f_img[(k, mm)])
        return devs


class WindowImages:
    """A corner's f- and g-images read off the corner window.

    For a corner map with ``image_of_unit`` the unit u_kl is the fiber
    identity I at (W[k], W[l]) and h = phi(1) is the projection onto the
    window W, so pinv(h) = h and f(h) pi(u_kl) = f(1) u_kl.  Every query is
    answered from W and the scalars f(1) and g(1), with the values the
    operator path computes on the same images.
    """

    def __init__(self, space, fiber_dim, window, f1, g1):
        self.space = space
        self.fiber_dim = fiber_dim
        self.window = tuple(window)
        self.s = len(self.window)
        self.f1 = f1
        self.g1 = g1
        self._eye = np.eye(fiber_dim, dtype=complex)

    @classmethod
    def from_corner_map(cls, phi, f, g):
        (window,) = phi.windows
        band = phi.codomain
        return cls(band.space, band.fiber_dim, window, float(f(1.0)), float(g(1.0)))

    def f_image(self, k, l):
        return BandOperator(self.space, self.fiber_dim,
                            {(self.window[k], self.window[l]): self.f1 * self._eye})

    def g_image(self, k, l):
        return BandOperator(self.space, self.fiber_dim,
                            {(self.window[k], self.window[l]): self.g1 * self._eye})

    def diagonal_blocks(self):
        """((W[k], W[k]), f(1) I) for every k, or nothing when f(1) = 0."""
        blk = self.f1 * self._eye
        return [((x, x), blk) for x in self.window] if self.f1 != 0.0 else []

    def diagonal_point_norms(self):
        """Per k, the pair (W[k], |f(1)|^2), or nothing when f(1) = 0."""
        return [[(x, abs(self.f1) ** 2)] if self.f1 != 0.0 else [] for x in self.window]

    def conjugate_targets(self, k, x):
        """Per l, the point W[l] carrying g(1) f(1) f(1) g(1) I, or None when
        that product is zero; x is W[k], the only point a U-set can hold."""
        hit = self.g1 * self.f1 * self.f1 * self.g1 != 0.0
        return [y if hit else None for y in self.window]

    def identity_deviations(self):
        """f(1) I and g(1) I are positive when the scalars are, real scalars
        have exact adjoints, and f_kl g_lm - f_km = (f(1) g(1) - f(1)) u_km."""
        return {"diag_positive_f": max(0.0, -self.f1), "diag_positive_g": max(0.0, -self.g1),
                "adjoint_f": 0.0, "adjoint_g": 0.0, "absorb": abs(self.f1 * self.g1 - self.f1)}


@dataclass
class CornerSystem:
    """A corner's images and its translation table: ``U[k]`` maps each x in
    U_k, in point order, to its targets (sigma_bar_k0(x), ...,
    sigma_bar_k,s-1(x)), so its keys are the set U_k."""

    corner: CornerData
    images: object  # WindowImages or OperatorImages
    U: dict = field(default_factory=dict)


@dataclass
class PartialTranslationSystem:
    corners: list
    delta: float
    eta: float
    borderline: list = field(default_factory=list)
    identities: object = None  # IdentityReport, set by build_translation_system


def build_translation_system(witness, td, tol=1e-8):
    """Functional-calculus images of the generalized matrix units and the
    partial bijections they induce, verified against the matrix-unit
    identities.

    A corner map with single-block unit images (``image_of_unit``) is read
    off its window, with f_delta(1) and g_delta(1) as the image scalars;
    any other corner map is factorized and its images formed as band
    operators.  The translation tables follow from
    :func:`assemble_translation_system`.
    """
    delta = float(td.delta)
    eta = float(td.eta)
    f_fun = bump_function("f_delta", delta=delta)
    g_fun = bump_function("g_delta", delta=delta)

    corners = []
    for corner in td.corners:
        phi_ij = witness.phi.corner_map(corner.summand_index, corner.kept_slots)
        images = WindowImages if hasattr(phi_ij, "image_of_unit") else OperatorImages
        corners.append(CornerSystem(corner, images.from_corner_map(phi_ij, f_fun, g_fun)))

    pts = assemble_translation_system(corners, delta, eta)
    pts.identities = _verify_translation_system(pts, tol)
    return pts


def assemble_translation_system(corners, delta, eta):
    """Translation tables of corner systems whose images are computed.

    U_k collects the points where the k-th diagonal f-image compresses to
    norm strictly above eta^2 (values within 1e-9 of eta^2 are flagged as
    borderline).  For x in U_k and every l the conjugate g_{l,k} (f_{k,k}
    1_x f_{k,k}) g_{k,l} must be supported in a single point, which defines
    sigma_bar_{k,l}(x); zero mass, or residual mass above 1e-6 of the total,
    raises an error naming the indices.
    """
    borderline = []
    eta_sq = eta * eta
    for ci, cs in enumerate(corners):
        for k, norms in enumerate(cs.images.diagonal_point_norms()):
            row = {}
            for x, val in norms:
                if abs(val - eta_sq) <= 1e-9:
                    borderline.append((ci, k, x, val))
                if val > eta_sq:
                    ys = tuple(cs.images.conjugate_targets(k, x))
                    if None in ys:
                        raise AmbiguousSupportError(
                            "conjugated operator is not supported in a single point",
                            indices=(cs.corner.color, cs.corner.j, k, ys.index(None), x))
                    row[x] = ys
            cs.U[k] = row
    return PartialTranslationSystem(corners, delta, eta, borderline)


def _verify_translation_system(pts, tol):
    """sigma_bar_kk is the identity on U_k, and sigma_bar_lk undoes
    sigma_bar_kl, which makes each sigma_bar_kl a bijection onto its image
    in U_l."""
    for ci, cs in enumerate(pts.corners):
        for k, row in cs.U.items():
            for x, ys in row.items():
                if ys[k] != x:
                    raise InvalidWitnessError(
                        f"sigma_bar[{ci},{k},{k}] moves {x} to {ys[k]}")
                for l, y in enumerate(ys):
                    back = cs.U[l].get(y)
                    if back is None:
                        raise InvalidWitnessError(
                            f"sigma_bar[{ci},{k},{l}]({x}) = {y} lands outside U_{l}")
                    if back[k] != x:
                        raise InvalidWitnessError(
                            f"sigma_bar round trip fails at corner {ci}, "
                            f"({k},{l}), point {x}")
    rep = matrix_unit_identities(pts, tol)
    if not rep.flag:
        raise InvalidWitnessError(
            f"matrix-unit identity {rep.worst_identity} deviates by {rep.worst:.3e}")
    return rep


# ---------------------------------------------------------------------------
# Matrix-unit identities
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    deviations: dict
    tol: float

    @property
    def worst(self):
        return max(self.deviations.values()) if self.deviations else 0.0

    @property
    def worst_identity(self):
        if not self.deviations:
            return ""
        return max(self.deviations, key=self.deviations.get)

    @property
    def flag(self):
        return self.worst <= self.tol

    def __bool__(self):
        return self.flag

    def to_json(self):
        return {"deviations": self.deviations, "tol": self.tol,
                "worst": self.worst, "flag": self.flag}


def matrix_unit_identities(pts, tol=1e-8):
    """Evaluate the five matrix-unit-image identities on every index tuple:
    diagonal images are positive diagonal operators, adjoints swap indices,
    and f-images absorb g-images under composition."""
    devs = dict.fromkeys(IDENTITY_NAMES, 0.0)
    for cs in pts.corners:
        for name, dev in cs.images.identity_deviations().items():
            devs[name] = max(devs[name], dev)
    return IdentityReport(devs, tol)


# ---------------------------------------------------------------------------
# Cover extraction
# ---------------------------------------------------------------------------

@dataclass
class ExtractedCover:
    cover: object
    cover_report: object
    class_sizes: list
    S: int
    s_max: int
    bound_ok: bool
    coverage_violations: list

    @property
    def passed(self):
        return (self.cover_report.passed and self.bound_ok
                and not self.coverage_violations)

    def to_json(self, space=None):
        doc = {"S": self.S, "s_max": self.s_max,
               "class_sizes": self.class_sizes,
               "bound_ok": self.bound_ok,
               "cover_report": self.cover_report.to_json(),
               "coverage_violations": self.coverage_violations}
        if space is not None:
            doc.update(cover_to_json(self.cover, space))
        return doc


def _diagonal_columns(pts, color):
    """Per point x, the blocks in column x of the sum of the color's diagonal
    f-images.  Same-color corners have disjoint windows, so the images never
    share a block and their sum is their union, pruned once."""
    blocks = {key: b for cs in pts.corners if cs.corner.color == color
              for key, b in cs.images.diagonal_blocks()}
    cols = {}
    if blocks:
        keys, stack = _pruned(np.array(list(blocks)), np.array(list(blocks.values())))
        for (u, x), b in zip(keys.tolist(), stack):
            cols.setdefault(x, []).append(b)
    return cols


def extract_cover(pts, space, r):
    """Equivalence classes of r-chains inside the U-sets, one color at a time.

    Every point must lie in some U-set; a gap means the witness approximated
    the identity too poorly at this scale and raises a cover-gap error.  The
    classes are emitted as the color families of a cover that is then run
    through the cover checker at scale r, and the largest class size S is
    compared against the largest corner size.
    """
    colors = sorted({cs.corner.color for cs in pts.corners})
    per_color = {}
    for color in colors:
        pool = set()
        for cs in pts.corners:
            if cs.corner.color == color:
                for k in range(cs.corner.s):
                    pool.update(cs.U[k])
        per_color[color] = sorted(pool)

    covered = set()
    for pool in per_color.values():
        covered.update(pool)

    # Coverage guarantee: a point whose summed diagonal f-image column
    # carries norm above 3/4 must lie in some U-set; record violations of
    # the implication before raising on uncovered points.  The colors'
    # column norms are added in color order, one stacked SVD per column height.
    mass = np.zeros(space.n)
    for color in colors:
        cols = _diagonal_columns(pts, color)
        for xs in group_by(cols, lambda x: len(cols[x])):
            stack = np.array([cols[x] for x in xs])
            mass[xs] += spectral_norm(stack.reshape(len(xs), -1, stack.shape[-1]))
    coverage_violations = [space.points[x] for x in np.flatnonzero(mass > 0.75).tolist()
                           if x not in covered]

    for x in range(space.n):
        if x not in covered:
            raise CoverGapError(
                f"point {space.points[x]!r} lies in no U-set; the witness error "
                "is too large for this scale", point=space.points[x])

    families = []
    class_sizes = []
    near = space.within_mask(r)
    for color in colors:
        pool = np.array(per_color[color], dtype=np.intp)
        chains = np.argwhere(np.triu(near[np.ix_(pool, pool)], 1))
        labels = component_labels(chains[:, 0], chains[:, 1], len(pool))
        fam = [frozenset(pool[group].tolist()) for group in _groups(labels)]
        fam.sort(key=lambda c: sorted(c))
        families.append(fam)
        class_sizes.append(sorted(len(c) for c in fam))

    cover = make_cover(space, families, r)
    report = verify_cover(cover, space, r)
    S = max((max(sz) for sz in class_sizes if sz), default=0)
    s_max = max((cs.corner.s for cs in pts.corners), default=0)
    return ExtractedCover(cover, report, class_sizes, S, s_max,
                          S <= s_max, coverage_violations)
