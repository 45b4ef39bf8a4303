"""One stored distance matrix per space, read through ``space.py`` only.

A generated space stores its integer distances and spacing, a loaded one its
doubles, and ``FiniteMetricSpace.distances`` derives every double of an
exact space by the rule ``dist_int.astype(float) * float(spacing)`` that the
package used to store beside the integers.  ``space.glue`` builds a direct
sum's one matrix; ``ref_direct_sum_space`` in ``conftest`` is the builder of
both matrices it replaced.
"""

import ast
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import banddim
from banddim.errors import IncompatibilityError
from banddim.operators import BandOperator
from banddim.space import FiniteMetricSpace, generate_space, glue, load_space, save_space
from banddim.witness import permanence_combine

from conftest import DIFF, interval_witness, ref_direct_sum_space, ref_glue_gap

SPACINGS = [1, "1/3", "0.7", "5/2"]


def bits(a):
    """The bits of an array of doubles, so that equality is bit for bit."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def ref_dist_int(points, metric):
    """Integer distances from the coordinates, pair by pair."""
    coords = [p if isinstance(p, tuple) else (p,) for p in points]
    combine = sum if metric == "l1" else max
    return np.array([[combine(abs(a - b) for a, b in zip(p, q)) for q in coords]
                     for p in coords], dtype=np.int64)


def stored_matrices(sp):
    """The n x n arrays a space holds."""
    return [v for v in vars(sp).values()
            if isinstance(v, np.ndarray) and v.shape == (sp.n, sp.n)]


@st.composite
def generated(draw):
    spacing = draw(st.sampled_from(SPACINGS))
    if draw(st.booleans()):
        return generate_space("interval", length=draw(st.integers(1, 12)), spacing=spacing)
    sides = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    return generate_space("grid", sides=sides, metric=draw(st.sampled_from(["l1", "linf"])),
                          spacing=spacing)


@DIFF
@given(sp=generated(), data=st.data())
def test_distances_are_the_integers_times_the_spacing(sp, data):
    """Whole, as a block and as a pair list, the doubles of a generated space
    are ``dist_int.astype(float) * float(spacing)`` bit for bit, with
    ``dist_int`` the integer distances of the coordinates; the space holds
    that one integer matrix and no other."""
    metric = sp.grid_meta.metric
    ref_int = ref_dist_int(sp.points, metric)
    ref = ref_int.astype(float) * float(sp.spacing)
    assert np.array_equal(sp.dist_int, ref_int)
    assert [m is sp.dist_int for m in stored_matrices(sp)] == [True]
    index = st.integers(0, sp.n - 1)
    a = np.array(data.draw(st.lists(index, max_size=6)), dtype=int)
    b = np.array(data.draw(st.lists(index, max_size=6)), dtype=int)
    assert np.array_equal(bits(sp.distances()), bits(ref))
    assert np.array_equal(bits(sp.distances(*np.ix_(a, b))), bits(ref[np.ix_(a, b)]))
    pairs = min(len(a), len(b))
    assert np.array_equal(bits(sp.distances(a[:pairs], b[:pairs])),
                          bits(ref[a[:pairs], b[:pairs]]))
    if pairs:
        assert bits(sp.distances(a[0], b[0])) == bits(ref[a[0], b[0]])


def test_loaded_space_holds_its_doubles_only():
    """A space made from doubles holds them and reads them back as they
    are, as a block or pair list too."""
    sp = generate_space("grid", sides=[3, 2], metric="l1", spacing="1/3")
    plain = FiniteMetricSpace(sp.points, sp.distances())
    assert not plain.exact and plain.spacing is None
    (held,) = stored_matrices(plain)
    assert held.dtype == float and np.array_equal(bits(held), bits(sp.distances()))
    assert np.array_equal(bits(plain.distances([0, 5], [5, 1])),
                          bits(sp.distances([0, 5], [5, 1])))


# Pairs of spaces to glue: two intervals of 7 and 5 points, and an interval
# beside a grid, at one spacing each.
PAIRS = {
    "intervals": lambda s: (generate_space("interval", length=7, spacing=s),
                            generate_space("interval", length=5, spacing=s)),
    "interval-grid": lambda s: (generate_space("interval", length=4, spacing=s),
                                generate_space("grid", sides=[3, 2], metric="l1", spacing=s)),
}
DYADIC = (1, "1/2", "5/2")


def permanence_gap(s1, s2, r):
    """The gap ``permanence_combine`` asks of two witnesses at scale r."""
    return max(s1.diameter(), s2.diameter(), float(3 * r), 1.0)


@pytest.mark.parametrize("spacing", DYADIC + ("1/3", "0.7"))
@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_glue_matches_the_reference(pair, spacing, r):
    """The glued space has the reference's points, spacing and integer
    blocks, and across it the units the reference's doubles name; it holds
    one integer matrix.  At a dyadic spacing its doubles are the
    reference's bit for bit.  At 1/3 and 0.7 every double is its integer
    times the float of the spacing, which the reference's doubles across
    were not (they were the float of the exact product)."""
    s1, s2 = PAIRS[pair](spacing)
    gap = permanence_gap(s1, s2, r)
    glued = glue(s1, s2, gap)
    ref = ref_direct_sum_space(s1, s2, ref_glue_gap(s1, s2, gap))
    n1 = s1.n
    assert glued.points == ref.points and glued.spacing == ref.spacing
    assert [m is glued.dist_int for m in stored_matrices(glued)] == [True]
    assert np.array_equal(glued.dist_int[:n1, :n1], ref.dist_int[:n1, :n1])
    assert np.array_equal(glued.dist_int[n1:, n1:], ref.dist_int[n1:, n1:])
    across = Fraction(float(ref.dist[0, n1])) / glued.spacing
    assert (glued.dist_int[:n1, n1:] == round(across)).all()
    assert (glued.dist_int[n1:, :n1] == round(across)).all()
    assert glued.distances(0, n1) > gap
    doubles = glued.distances()
    assert np.array_equal(bits(doubles),
                          bits(glued.dist_int.astype(float) * float(glued.spacing)))
    if spacing in DYADIC:
        assert np.array_equal(glued.dist_int, ref.dist_int)
        assert np.array_equal(bits(doubles), bits(ref.dist))


@pytest.mark.parametrize("spacing", ["1/3", "0.7"])
def test_glue_at_non_dyadic_spacings_keeps_one_rule(spacing):
    """Intervals of 7 and 5 points at scale 3: the reference's doubles
    across were the float of ten spacings, one ulp from ten times the float
    of the spacing; the glued space has one rule for all 144 doubles."""
    s1, s2 = PAIRS["intervals"](spacing)
    glued = glue(s1, s2, permanence_gap(s1, s2, 1))
    ref = ref_direct_sum_space(s1, s2, ref_glue_gap(s1, s2, permanence_gap(s1, s2, 1)))
    derived = ref.dist_int.astype(float) * float(ref.spacing)
    assert np.count_nonzero(ref.dist != derived) == 70
    assert np.array_equal(glued.dist_int, ref.dist_int)
    assert np.array_equal(bits(glued.distances()), bits(derived))


def test_glue_counts_the_units_the_gap_names():
    """At spacing 1/3 a gap of 4 rounds to 13 spacings; the reference's
    doubles said 4.333333333333333 across, but its integers, truncating the
    quotient of that double (just below 13/3) by the spacing, said 12.  The
    glued space says 13, with the same double."""
    s1, s2 = (generate_space("interval", length=3, spacing="1/3") for _ in range(2))
    ref = ref_direct_sum_space(s1, s2, ref_glue_gap(s1, s2, 4.0))
    assert ref.dist[0, 3] == 4.333333333333333 and ref.dist_int[0, 3] == 12
    glued = glue(s1, s2, 4.0)
    assert glued.dist_int[0, 3] == glued.dist_int[3, 0] == 13
    assert (glued.dist_int[:3, 3:] == 13).all() and (glued.dist_int[3:, :3] == 13).all()
    assert glued.distances(0, 3) == ref.dist[0, 3]


@pytest.mark.parametrize("case", ["loaded", "spacings"])
def test_glue_of_doubles_matches_the_reference(case):
    """A loaded space, or two spacings, glue as doubles with ``gap + 1.0``
    across: the reference's matrix bit for bit, the one matrix held."""
    s1 = generate_space("interval", length=6, spacing="1/3")
    s2 = generate_space("grid", sides=[2, 3], metric="linf", spacing="0.7")
    if case == "loaded":
        s2 = FiniteMetricSpace(s2.points, s2.distances())
    gap = permanence_gap(s1, s2, 2)
    glued = glue(s1, s2, gap)
    ref = ref_direct_sum_space(s1, s2, ref_glue_gap(s1, s2, gap))
    assert ref.dist_int is None and not glued.exact
    assert glued.points == ref.points
    (held,) = stored_matrices(glued)
    assert np.array_equal(bits(held), bits(ref.dist))


def test_direct_sum_of_witnesses_glues_as_the_reference(tmp_path):
    """``permanence_combine`` glues its spaces as the reference did, at
    spacing 1, and the saved space file holds the reference's doubles."""
    w1, w2 = interval_witness(length=20, r=2, side=10), interval_witness(length=12, r=3,
                                                                         side=8)
    combined = permanence_combine("direct_sum", w1, w2)
    s1, s2 = w1.space, w2.space
    gap = max(s1.diameter(), s2.diameter(), 6.0, 9.0, 1.0)
    ref = ref_direct_sum_space(s1, s2, ref_glue_gap(s1, s2, gap))
    assert combined.space.points == ref.points
    assert np.array_equal(combined.space.dist_int, ref.dist_int)
    save_space(combined.space, tmp_path / "space.json")
    back = load_space(tmp_path / "space.json")
    assert np.array_equal(bits(back.distances()), bits(ref.dist))


def parent_same_space(s1, s2):
    """The verdict operators drew from comparing both spaces' doubles."""
    return s1 is s2 or (s1.points == s2.points
                        and np.array_equal(s1.distances(), s2.distances()))


def test_same_metric_verdicts():
    """The same object, two equal generated spaces, and a generated space
    against its loaded copy are one metric; other metrics on the same
    points, or other points, are not.  Operators over one metric add, and
    over two raise ``IncompatibilityError``."""
    sp = generate_space("grid", sides=[3, 3], metric="l1", spacing="1/3")
    same = [
        (sp, sp),
        (sp, generate_space("grid", sides=[3, 3], metric="l1", spacing="1/3")),
        (sp, FiniteMetricSpace(sp.points, sp.distances())),
        (FiniteMetricSpace(sp.points, sp.distances()), sp),
    ]
    other = [
        (sp, generate_space("grid", sides=[3, 3], metric="linf", spacing="1/3")),
        (sp, generate_space("grid", sides=[3, 3], metric="l1", spacing="0.7")),
        (sp, FiniteMetricSpace(sp.points, 2 * sp.distances())),
        (generate_space("interval", length=9), sp),
    ]
    for s1, s2 in same + other:
        expected = (s1, s2) in same
        assert s1.same_metric(s2) == parent_same_space(s1, s2) == expected
        a, b = BandOperator.identity(s1, 1), BandOperator.identity(s2, 1)
        if expected:
            assert len((a + b).keys) == s1.n
        else:
            with pytest.raises(IncompatibilityError):
                a + b


def test_only_space_reads_the_distance_matrix():
    """No module of the package but ``space.py`` reads a space's stored
    matrices, ``dist_int`` or the doubles; the others ask
    ``distances``, ``within_mask``, ``diameter`` or ``same_metric``."""
    package = pathlib.Path(banddim.__file__).resolve().parent
    reads = []
    for path in sorted(package.glob("*.py")):
        if path.name == "space.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("dist", "dist_int", "_dist"):
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert reads == []
