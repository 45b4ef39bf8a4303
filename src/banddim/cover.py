"""Colored covers certifying a dimension bound at one scale.

A cover at scale ``r`` is a family of uniformly bounded point sets split into
color classes whose distinct members are strictly more than ``r`` apart.  The
number of color classes minus one is the dimension the cover witnesses at that
scale.  Separation is strict, so ties at exactly ``r`` fail.

``brick_cover`` produces such covers on generated boxes.  In one dimension it
alternates full bricks between two colors.  In dimension ``d >= 2`` it uses
``d + 1`` copies of the cube grid of side ``s``, the i-th copy shifted
diagonally by ``floor(i * s / (d + 1))``, with every cube shrunk by a margin
``m`` on all faces.  Each coordinate residue is then too close to the cube
boundary for at most one shift, so at least one of the ``d + 1`` shifted grids
owns every point, while shrunk cubes of one grid are at least ``2m + 1`` grid
units apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError, SizeLimitError
from .space import (_fields, _id_to_json, _is_list_of, _point_indices, _read_object,
                    check_int, check_positive, check_scale, write_json)


@dataclass
class ColoredCover:
    """Point-set families indexed by color, with their scale and diameter."""

    families: list  # per color: list of frozensets of point indices
    scale_r: float
    diam_bound_R: float = 0.0

    @property
    def colors(self):
        return len(self.families)

    def all_sets(self):
        for fam in self.families:
            yield from fam

    def point_union(self):
        out = set()
        for s in self.all_sets():
            out |= s
        return out


def _computed_diameter(space, families):
    diam = 0.0
    for fam in families:
        for s in fam:
            diam = max(diam, space.diameter(s))
    return diam


def make_cover(space, families, scale_r):
    families = [[frozenset(s) for s in fam] for fam in families]
    return ColoredCover(families, float(scale_r), _computed_diameter(space, families))


def _separation_margin(r_units):
    # Smallest integer m with 2m + 1 > r_units.
    m = int(math.floor((Fraction(r_units) - 1) / 2)) + 1
    return max(m, 0)


def witness_brick(space, r, brick_side=None):
    """Scale and brick side of a brick cover for a witness at scale ``r``,
    which needs the cover 3r-separated.

    One-dimensional alternating bricks of side ``s`` put same-color bricks
    ``s + 1`` apart, so the cover is built at ``r`` (default side ``6r``).  In
    dimension ``d >= 2`` it is built at ``3r``, with the default side
    ``max(6r, 2m(d + 1))`` for the margin ``m`` at ``3r``.  A scale that
    ``check_scale`` refuses raises ``InvalidParameterError``; ``brick_cover``
    rejects a space that is not a generated box.
    """
    check_scale(r)
    meta = space.grid_meta
    if meta is None or len(meta.sides) == 1:
        return r, 6 * r if brick_side is None else brick_side
    if brick_side is None:
        m = _separation_margin(Fraction(3 * r) / meta.spacing)
        brick_side = max(6 * r, 2 * m * (len(meta.sides) + 1) * meta.spacing)
    return 3 * r, brick_side


def brick_cover(space, r, brick_side):
    """Cover a generated box at scale ``r`` by shifted bricks of the given side.

    Empty color classes are dropped, so a single brick yields one color.
    """
    meta = space.grid_meta
    if meta is None:
        raise InvalidParameterError("brick_cover requires a generated interval or grid")
    r_units = Fraction(check_scale(r)) / meta.spacing
    s_units = check_positive(brick_side, "brick_side") / meta.spacing
    if s_units.denominator != 1:
        raise InvalidParameterError("brick_side must be a positive multiple of the spacing")
    s = int(s_units)
    if s_units <= 2 * r_units:
        raise InvalidParameterError(
            f"brick_side {brick_side} <= 2r = {2 * float(r)}: separation impossible "
            "by this construction")

    dim = len(meta.sides)
    coords = (lambda p: (p,)) if meta.family == "interval" else (lambda p: p)

    if dim == 1:
        # Alternating full bricks; same-color bricks are s + 1 units apart.
        bricks = {}
        for i, p in enumerate(space.points):
            v = coords(p)[0] // s
            bricks.setdefault(v, set()).add(i)
        families = [[], []]
        for v in sorted(bricks):
            families[v % 2].append(frozenset(bricks[v]))
    else:
        m = _separation_margin(r_units)
        shifts = [(i * s) // (dim + 1) for i in range(dim + 1)]
        gaps = [shifts[i + 1] - shifts[i] for i in range(dim)] + [s - shifts[dim]]
        if m > 0 and min(gaps) < 2 * m:
            raise InvalidParameterError(
                f"brick_side {brick_side} too small for {dim}-dimensional separation "
                f"at scale {r}; need at least {2 * m * (dim + 1)} grid units")
        families = []
        for t in shifts:
            cores = {}
            for i, p in enumerate(space.points):
                key = []
                ok = True
                for c in coords(p):
                    u = (c - t) % s
                    if not (m <= u < s - m):
                        ok = False
                        break
                    key.append((c - t) // s)
                if ok:
                    cores.setdefault(tuple(key), set()).add(i)
            families.append([frozenset(cores[k]) for k in sorted(cores)])

    families = [fam for fam in families if fam]
    return make_cover(space, families, r)


@dataclass
class CoverReport:
    """Verification verdicts for one cover at one scale."""

    covers: bool
    color_gaps: list
    separation_ok: list
    max_diameter: float
    colors: int
    passed: bool
    missing_points: list = field(default_factory=list)

    def to_json(self):
        return {
            "covers": self.covers,
            "color_gaps": [None if math.isinf(g) else g for g in self.color_gaps],
            "separation_ok": self.separation_ok,
            "max_diameter": self.max_diameter,
            "colors": self.colors,
            "passed": self.passed,
            "missing_points": self.missing_points,
        }


def verify_cover(cover, space, r):
    """Exhaustively check coverage and strict same-color separation at scale r."""
    for s in cover.all_sets():
        for i in s:
            if not 0 <= i < space.n:
                raise InvalidParameterError(f"cover references invalid point index {i}")
    union = cover.point_union()
    missing = sorted(set(range(space.n)) - union)
    gaps, seps = [], []
    max_diam = 0.0
    near = space.within_mask(r)
    for fam in cover.families:
        for s in fam:
            max_diam = max(max_diam, space.diameter(s))
        gap = math.inf
        separated = True
        for a in range(len(fam)):
            for b in range(a + 1, len(fam)):
                block = np.ix_(list(fam[a]), list(fam[b]))
                gap = min(gap, float(space.dist[block].min()))
                if near[block].any():
                    separated = False
        gaps.append(gap)
        seps.append(separated)
    covers = not missing
    return CoverReport(
        covers=covers,
        color_gaps=gaps,
        separation_ok=seps,
        max_diameter=max_diam,
        colors=cover.colors,
        passed=covers and all(seps),
        missing_points=[_id_to_json(space.points[i]) for i in missing[:16]],
    )


# -- minimal color search ----------------------------------------------

EXACT_SEARCH_CAP = 64


def _diam_ok(wide, pts):
    pts = list(pts)
    if len(pts) < 2:
        return True
    return bool(wide[np.ix_(pts, pts)].all())


def _place(near, wide, comps, p):
    """Add point p to a color's component list; None if a diameter breaks R.

    ``near`` and ``wide`` are the within-r and within-R masks of the space.
    """
    touching, rest = [], []
    for c in comps:
        (touching if near[p, list(c)].any() else rest).append(c)
    merged = {p}
    for c in touching:
        merged |= c
    if not _diam_ok(wide, merged):
        return None
    return rest + [merged]


def _search(near, wide, order, pos, state, limit):
    if pos == len(order):
        return state
    p = order[pos]
    used = sum(1 for comps in state if comps)
    for c in range(min(used + 1, limit)):
        placed = _place(near, wide, state[c], p)
        if placed is None:
            continue
        nxt = list(state)
        nxt[c] = placed
        found = _search(near, wide, order, pos + 1, nxt, limit)
        if found is not None:
            return found
    return None


def min_colors_search(space, r, R, max_colors, mode="exact"):
    """Minimal color count for covers by diameter-<=R sets separated beyond r.

    Returns ``(d_min, cover)`` with ``d_min = colors - 1``, or ``None`` when
    no cover with at most ``max_colors`` colors exists.  Exact mode searches
    colorings exhaustively and is capped at 64 points; greedy mode first-fits
    points in order and returns an upper bound.
    """
    check_int(max_colors, "max_colors", 1)
    order = list(range(space.n))
    near, wide = space.within_mask(r), space.within_mask(R)
    if mode == "greedy":
        state = [[]]
        for p in order:
            for c in range(len(state) + 1):
                if c == len(state):
                    if len(state) == max_colors:
                        return None
                    state.append([])
                placed = _place(near, wide, state[c], p)
                if placed is not None:
                    state[c] = placed
                    break
        used = [comps for comps in state if comps]
        return len(used) - 1, make_cover(space, used, r)
    if mode != "exact":
        raise InvalidParameterError(f"unknown search mode {mode!r}")
    if space.n > EXACT_SEARCH_CAP:
        raise SizeLimitError(
            f"exact search capped at {EXACT_SEARCH_CAP} points; use mode='greedy'")
    for limit in range(1, max_colors + 1):
        state = _search(near, wide, order, 0, [[] for _ in range(limit)], limit)
        if state is not None:
            used = [comps for comps in state if comps]
            return len(used) - 1, make_cover(space, used, r)
    return None


# -- JSON interface ----------------------------------------------------

def cover_to_json(cover, space):
    """The ``r`` and ``families`` fields of a cover file, points by id."""
    return {
        "r": float(cover.scale_r),
        "families": [[sorted(_id_to_json(space.points[i]) for i in s) for s in fam]
                     for fam in cover.families],
    }


def save_cover(cover, space, path):
    write_json(cover_to_json(cover, space), path)


def load_cover(path, space):
    """A cover file's cover of ``space``; a file that is not an object, a
    missing key, a point id that names no point of the space, and a
    ``families``, point id or ``r`` of the wrong type raise
    ``InvalidParameterError``."""
    families, r = _fields(_read_object(path), ("families", "r"), path)
    if not (_is_list_of(families, list) and all(_is_list_of(fam, list) for fam in families)):
        raise InvalidParameterError(f"{path}: 'families' must be a list of lists of point lists")
    families = [[frozenset(_point_indices(space, s, path)) for s in fam] for fam in families]
    return make_cover(space, families, check_scale(r))
