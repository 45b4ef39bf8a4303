"""Finite metric spaces with exact distance bookkeeping.

A :class:`FiniteMetricSpace` is an ordered list of point ids together with a
full symmetric distance matrix.  Spaces generated from integer boxes keep an
integer distance matrix plus a rational spacing, so every comparison against a
scale ``r`` is exact; spaces loaded from JSON fall back to doubles with a
1e-12 comparison tolerance.  Every test of dist <= r in the package (cover
separation, enlargements, the r-neighbor relation, r-chains, ball counts)
goes through :meth:`FiniteMetricSpace.within_mask`, the one place that rule
lives.  All other modules reference points by their index into ``points``.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterError

FLOAT_TOL = 1e-12


def _is_int(value):
    """True for an integer that is not a bool (numpy integers included)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int(value, name, low):
    """``value`` as an int, when it is an integer >= ``low`` that is not a
    bool (numpy integers included; no float, however whole); anything else
    raises ``InvalidParameterError`` naming ``name``."""
    if not (_is_int(value) and value >= low):
        raise InvalidParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_real(value, name, low=None):
    """``value``, when it is a finite real number that is not a bool
    (``Fraction`` and numpy numbers included) and, given ``low``, is at
    least ``low``; anything else raises ``InvalidParameterError`` naming
    ``name``."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Real) and -math.inf < value < math.inf
            and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise InvalidParameterError(
            f"{name} must be a finite real number{bound}, got {value!r}")
    return value


def check_scale(radius):
    """The radius, when it is a finite real number >= 0 by ``check_real``."""
    return check_real(radius, "a scale", 0)


def _is_list_of(value, *types):
    """True for a list whose items are all instances of ``types``."""
    return isinstance(value, list) and all(isinstance(item, types) for item in value)


def check_positive(value, name):
    """``value`` as a Fraction > 0: a finite real number, by the rule of
    ``check_scale``, or a string that ``Fraction`` reads, such as "1/2";
    anything else raises ``InvalidParameterError`` naming ``name``."""
    try:
        exact = Fraction(value if isinstance(value, str) else check_scale(value))
    except (InvalidParameterError, ValueError, ZeroDivisionError):
        exact = 0
    if exact <= 0:
        raise InvalidParameterError(
            f"{name} must be a positive finite number, got {value!r}")
    return exact


@dataclass(frozen=True)
class GridMeta:
    """Construction parameters of a generated integer box."""

    family: str
    sides: tuple
    metric: str
    spacing: Fraction


class FiniteMetricSpace:
    """Point set with an exact nonnegative symmetric distance matrix.

    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(self, points, dist, *, dist_int=None, spacing=None, grid_meta=None,
                 validate=True):
        self.points = list(points)
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise InvalidParameterError("duplicate point ids")
        self.dist = np.asarray(dist, dtype=float)
        self.dist_int = None if dist_int is None else np.asarray(dist_int)
        self.spacing = None if spacing is None else Fraction(spacing)
        self.grid_meta = grid_meta
        if validate:
            self._validate_axioms()

    # -- basic queries -------------------------------------------------

    @property
    def n(self):
        return len(self.points)

    @property
    def exact(self):
        return self.dist_int is not None

    def index(self, point):
        return self._index[point]

    def within_mask(self, radius):
        """Boolean n x n matrix of dist(i, j) <= radius.

        Exact spaces compare integer distances against floor(radius / spacing),
        which is exact because the integer distances are integral; loaded
        spaces compare doubles with a 1e-12 tolerance.  A radius that is not
        a finite real number >= 0 raises ``InvalidParameterError``.
        """
        check_scale(radius)
        if self.exact:
            return self.dist_int <= math.floor(Fraction(radius) / self.spacing)
        return self.dist <= float(radius) + FLOAT_TOL

    def diameter(self, subset=None):
        idx = list(subset) if subset is not None else range(self.n)
        if len(idx) < 2:
            return 0.0
        sub = self.dist[np.ix_(idx, idx)]
        return float(sub.max())

    # -- validation ----------------------------------------------------

    def _validate_axioms(self):
        d = self.dist
        if d.shape != (self.n, self.n):
            raise InvalidParameterError("distance matrix shape mismatch")
        if not np.all(np.isfinite(d)):
            raise InvalidParameterError("non-finite distance (inf or NaN)")
        if np.any(d < 0):
            raise InvalidParameterError("negative distance")
        if not np.allclose(d, d.T, atol=FLOAT_TOL, rtol=0.0):
            raise InvalidParameterError("distance matrix not symmetric")
        if np.any(np.abs(np.diag(d)) > FLOAT_TOL):
            raise InvalidParameterError("nonzero diagonal distance")
        off = d + np.diag(np.full(self.n, np.inf))
        if self.n > 1 and off.min() <= FLOAT_TOL:
            raise InvalidParameterError("zero distance between distinct points")
        # Triangle inequality, checked one intermediate point at a time to
        # keep memory at O(n^2).
        for k in range(self.n):
            if np.any(d > d[:, k:k + 1] + d[k:k + 1, :] + FLOAT_TOL):
                raise InvalidParameterError(
                    f"triangle inequality fails through point {self.points[k]!r}")

    def __repr__(self):
        kind = self.grid_meta.family if self.grid_meta else "loaded"
        return f"FiniteMetricSpace({kind}, n={self.n})"


def generate_space(family, *, length=None, sides=None, metric="linf", spacing=1):
    """Generate an integer interval or box with an exact metric.

    ``interval`` takes ``length`` and yields points ``0..length-1`` with
    distance ``spacing * |i - j|``.  ``grid`` takes ``sides`` (a list or
    tuple, one entry per dimension) and the ``l1`` or ``linf`` metric on
    integer coordinates, scaled by ``spacing``.  The length and every side
    must be an integer >= 1 that is not a bool (no float, however whole);
    anything else raises ``InvalidParameterError``.
    """
    spacing = check_positive(spacing, "spacing")
    if family == "interval":
        if length is None:
            raise InvalidParameterError("interval requires a length")
        n = check_int(length, "interval length", 1)
        points = list(range(n))
        idx = np.arange(n)
        dist_int = np.abs(idx[:, None] - idx[None, :])
        meta = GridMeta("interval", (n,), "linf", spacing)
    elif family == "grid":
        if not sides:
            raise InvalidParameterError("grid requires side lengths")
        if not isinstance(sides, (list, tuple)):
            raise InvalidParameterError(
                f"grid sides must be a list of integers >= 1, got {sides!r}")
        sides = tuple(check_int(s, "a grid side", 1) for s in sides)
        if metric not in ("l1", "linf"):
            raise InvalidParameterError(f"unknown metric {metric!r}")
        points = [tuple(p) for p in itertools.product(*(range(s) for s in sides))]
        n = len(points)
        coords = np.array(points, dtype=np.int64)
        if metric == "l1":
            dist_int = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        else:
            dist_int = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)
        meta = GridMeta("grid", sides, metric, spacing)
    else:
        raise InvalidParameterError(f"unknown space family {family!r}")
    dist = dist_int.astype(float) * float(spacing)
    return FiniteMetricSpace(points, dist, dist_int=dist_int, spacing=spacing,
                             grid_meta=meta, validate=False)


def ulf_profile(space, radii):
    """The dict r -> max_x |{y : dist(x, y) <= r}| over the given radii."""
    profile = {}
    for r in radii:
        profile[r] = int(space.within_mask(r).sum(axis=1).max(initial=0))
    return profile


def enlarge(space, subset, r):
    """Metric enlargement {x : dist(x, subset) <= r}; empty subset gives {}."""
    near = space.within_mask(r)[:, list(subset)].any(axis=1)
    return frozenset(np.nonzero(near)[0].tolist())


# -- JSON interface ----------------------------------------------------
#
# Every file the package writes or reads goes through ``write_json`` and
# ``read_json``: one canonical form (sorted keys, no spaces, a trailing
# newline), so identical content gives identical bytes.  The reader accepts
# any JSON layout, so files written in an older style still load.

def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(doc, path):
    write_text(canonical_json(doc), path)


def write_text(text, path):
    """Write ``text`` to ``path`` as UTF-8: the one place files are written."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_object(path):
    """The document of a file whose top level must be a JSON object, as
    every space, cover, operator and witness file is; anything else raises
    ``InvalidParameterError``."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"{path}: the file must hold a JSON object")
    return doc


def _fields(doc, keys, path, owner="the file"):
    """The values of ``keys`` in ``doc``, an object read from ``path``; a
    missing key raises ``InvalidParameterError`` naming the file and the
    key."""
    for key in keys:
        if key not in doc:
            raise InvalidParameterError(f"{path}: {owner} has no key {key!r}")
    return [doc[key] for key in keys]


def _point_indices(space, ids, path):
    """The indices in ``space`` of the point ids of a list read from
    ``path``; an id that names no point raises ``InvalidParameterError``
    naming the file and the id."""
    try:
        return [space.index(_id_from_json(p)) for p in ids]
    except KeyError as exc:
        raise InvalidParameterError(
            f"{path}: the point id {exc.args[0]!r} names no point of the space") from None


def _id_to_json(p):
    return [_id_to_json(v) for v in p] if isinstance(p, tuple) else p


def _id_from_json(p):
    """A point id read from JSON, a list becoming a tuple; an object, which
    names no point, raises ``InvalidParameterError``."""
    if isinstance(p, dict):
        raise InvalidParameterError(
            f"a point id must be a number, a string or a list of them, got {p!r}")
    return tuple(_id_from_json(v) for v in p) if isinstance(p, list) else p


def save_space(space, path):
    """Write a space file: the point ids, and the generator block of a
    generated space or the full distance matrix of any other."""
    doc = {"points": [_id_to_json(p) for p in space.points]}
    if space.grid_meta is not None:
        meta = space.grid_meta
        doc["generator"] = {"family": meta.family, "sides": list(meta.sides),
                            "metric": meta.metric, "spacing": str(meta.spacing)}
    else:
        doc["dist"] = [[float(v) for v in row] for row in space.dist]
    write_json(doc, path)


def _regenerate(gen, path):
    family, sides, spacing = _fields(gen, ("family", "sides", "spacing"), path, "the generator")
    if family not in ("interval", "grid"):
        raise InvalidParameterError(
            f"{path}: the generator family must be 'interval' or 'grid', got {family!r}")
    if family == "interval":
        return generate_space("interval", length=sides[0], spacing=spacing)
    metric, = _fields(gen, ("metric",), path, "the generator")
    return generate_space("grid", sides=sides, metric=metric, spacing=spacing)


def load_space(path):
    """Load a space file.

    A file without ``"dist"`` is regenerated from its generator block, which
    must name exactly the stored points; a file with neither raises.  A file
    with ``"dist"`` is validated against all three metric axioms (double
    mode), unless it also carries a generator block whose regenerated space
    has the same points and agrees with the stored matrix: then the exact
    integer representation is returned without validation, since it is a
    metric by construction.  A file that is not an object, a ``points``,
    ``dist`` or ``generator`` of the wrong type, and a generator ``family``
    other than ``interval`` or ``grid``, raise ``InvalidParameterError``
    naming the file.
    """
    doc = _read_object(path)
    points, = _fields(doc, ("points",), path)
    if not isinstance(points, list):
        raise InvalidParameterError(f"{path}: 'points' must be a list of point ids")
    points = [_id_from_json(p) for p in points]
    gen = doc.get("generator")
    if gen is not None and not isinstance(gen, dict):
        raise InvalidParameterError(f"{path}: 'generator' must be an object")
    # A block naming another point count cannot match; regenerating it could
    # build a far larger space than the file holds.
    fits = (bool(gen) and _is_list_of(gen.get("sides"), numbers.Integral)
            and math.prod(gen["sides"]) == len(points))
    if "dist" not in doc:
        regen = _regenerate(gen, path) if fits else None
        if regen is None or regen.points != points:
            raise InvalidParameterError(
                f"{path}: the file has no distance matrix and no generator block that "
                "yields its points")
        return regen
    try:
        dist = np.asarray(doc["dist"], dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{path}: 'dist' must be a matrix of numbers") from None
    if fits:
        regen = _regenerate(gen, path)
        if regen.points == points and regen.dist.shape == dist.shape and \
                np.allclose(regen.dist, dist, atol=FLOAT_TOL, rtol=0.0):
            return regen
    return FiniteMetricSpace(points, dist)
