import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from banddim.errors import IncompatibilityError, InvalidParameterError
from banddim.operators import (CERT_PANEL, ENCLOSURE_REL, LANCZOS_SEED, PRUNE_REL,
                               BandOperator, Nearby, _pruned, band_panels, certified_below,
                               component_labels, diagonal_membership, load_operator,
                               max_norm_enclosure, max_spectral_norm, norm_enclosure,
                               normalizer_check, operator_norm, prop_support, save_operator,
                               spectral_norm)
from banddim.space import FiniteMetricSpace, generate_space

from conftest import DIFF, mask_panels, mask_profile, operator_file_text, raw_operator


@pytest.fixture()
def interval8():
    return generate_space("interval", length=8)


def rand_band(space, m, prop, rng, density=0.7):
    blocks = {}
    for x in range(space.n):
        for y in range(space.n):
            if abs(x - y) <= prop and rng.random() < density:
                blocks[(x, y)] = (rng.standard_normal((m, m))
                                  + 1j * rng.standard_normal((m, m)))
    return BandOperator(space, m, blocks)


def unit_shift(space, m):
    return BandOperator.partial_translation(space, m,
                                            [(x + 1, x) for x in range(space.n - 1)])


def test_compose_identity(interval8):
    rng = np.random.default_rng(0)
    T = rand_band(interval8, 2, 2, rng)
    I = BandOperator.identity(interval8, 2)
    assert np.allclose((I @ T).to_dense(), T.to_dense())
    assert np.allclose((T @ I).to_dense(), T.to_dense())


def test_shift_times_adjoint_is_projection(interval8):
    s = unit_shift(interval8, 2)
    proj = s @ s.adjoint()
    assert set(proj.blocks) == {(x, x) for x in range(1, 8)}
    assert np.allclose(proj.to_dense() @ proj.to_dense(), proj.to_dense())


def test_compose_matches_dense_and_propagation(interval8):
    rng = np.random.default_rng(1)
    S = rand_band(interval8, 2, 1, rng)
    T = rand_band(interval8, 2, 2, rng)
    P = S @ T
    assert np.allclose(P.to_dense(), S.to_dense() @ T.to_dense())
    assert prop_support(P)[1] <= 3
    assert prop_support(S + T)[1] <= max(prop_support(S)[1], prop_support(T)[1])
    assert prop_support(S.adjoint())[1] == prop_support(S)[1]


def test_compose_incompatible():
    a = BandOperator.identity(generate_space("interval", length=4), 2)
    b = BandOperator.identity(generate_space("interval", length=5), 2)
    with pytest.raises(IncompatibilityError):
        a @ b
    c = BandOperator.identity(generate_space("interval", length=4), 1)
    with pytest.raises(IncompatibilityError):
        a + c


def test_prop_support_examples(interval8):
    zero = BandOperator.zero(interval8, 2)
    assert prop_support(zero) == (frozenset(), 0.0)
    ident = BandOperator.identity(interval8, 2)
    supp, prop = prop_support(ident)
    assert prop == 0.0 and supp == frozenset((x, x) for x in range(8))
    assert prop_support(unit_shift(interval8, 2))[1] == 1.0


def test_operator_norm_examples(interval8):
    assert operator_norm(BandOperator.identity(interval8, 2)) == 1.0
    d = BandOperator.diagonal(interval8, 2, {0: np.diag([0.5, 2.0])})
    assert operator_norm(d) == 2.0


def test_operator_norm_matches_dense_svd():
    sp = generate_space("interval", length=20)
    rng = np.random.default_rng(2)
    T = rand_band(sp, 2, 3, rng)  # 40 x 40 dense
    expected = np.linalg.svd(T.to_dense(), compute_uv=False)[0]
    assert abs(operator_norm(T) - expected) < 1e-12


def test_cstar_identity():
    sp = generate_space("interval", length=10)
    rng = np.random.default_rng(3)
    for _ in range(5):
        T = rand_band(sp, 2, 2, rng)
        lhs = operator_norm(T.adjoint() @ T)
        assert abs(lhs - operator_norm(T) ** 2) <= 1e-9 * max(1.0, lhs)


def test_compress(interval8):
    rng = np.random.default_rng(4)
    T = rand_band(interval8, 2, 2, rng)
    everything = range(interval8.n)
    assert np.allclose(T.compress(everything, everything).to_dense(), T.to_dense())
    assert T.compress([], everything).is_zero
    s = unit_shift(interval8, 2)
    single = s.compress([3], [2])
    assert set(single.blocks) == {(3, 2)}
    # compress equals 1_V T 1_U against the dense oracle
    V, U = [1, 2, 3], [2, 3, 4]
    pv = np.zeros((16, 16)); pu = np.zeros((16, 16))
    for x in V:
        pv[2 * x:2 * x + 2, 2 * x:2 * x + 2] = np.eye(2)
    for x in U:
        pu[2 * x:2 * x + 2, 2 * x:2 * x + 2] = np.eye(2)
    assert np.allclose(T.compress(V, U).to_dense(), pv @ T.to_dense() @ pu)


def test_diagonal_membership(interval8):
    ident = BandOperator.identity(interval8, 2)
    assert diagonal_membership(ident, 0.0).flag
    rep = diagonal_membership(unit_shift(interval8, 2), 1e-9)
    assert not rep.flag and rep.offdiag_mass == 1.0
    assert diagonal_membership(BandOperator.zero(interval8, 2), 0.0).flag


def test_normalizer_examples(interval8):
    d = BandOperator.diagonal(interval8, 2,
                              {x: np.diag([x + 1.0, 0.5]) for x in range(8)})
    assert normalizer_check(d, 1e-9).flag
    s = unit_shift(interval8, 2)
    assert normalizer_check(s, 1e-9).flag
    mixed = s + BandOperator.identity(interval8, 2)
    assert not normalizer_check(mixed, 1e-9).flag


def test_normalizer_closed_under_adjoint(interval8):
    rng = np.random.default_rng(7)
    for _ in range(8):
        T = rand_band(interval8, 2, 2, rng, density=0.3)
        assert normalizer_check(T, 1e-9).flag == \
            normalizer_check(T.adjoint(), 1e-9).flag


def test_pruning_keeps_support_clean(interval8):
    big = BandOperator(interval8, 1, {(0, 0): np.array([[1.0]]),
                                      (0, 1): np.array([[1e-20]])})
    assert set(big.blocks) == {(0, 0)}


def scalar_pruned(blocks):
    """The pruning rule block by block: keep a block whose largest entry
    modulus exceeds PRUNE_REL times the largest over all blocks."""
    norms = {k: max(abs(v) for v in b.ravel().tolist()) for k, b in blocks.items()}
    cut = PRUNE_REL * max(norms.values(), default=0.0)
    return {k: b for k, b in blocks.items() if norms[k] > cut}


# Block sizes for the pruning rule: ties with the largest block, zeros, and
# blocks exactly at, one ulp above and one ulp below PRUNE_REL of the largest.
PRUNE_KINDS = ["random", "tie", "zero", "cut", "above", "below", "tiny"]


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([1, 2, 3]),
       kinds=st.lists(st.sampled_from(PRUNE_KINDS), max_size=10))
@example(seed=0, m=1, kinds=[])
@example(seed=0, m=2, kinds=["zero", "zero"])
@example(seed=0, m=2, kinds=["random", "cut", "above", "below", "tie", "zero"])
def test_pruned_matches_scalar_rule(seed, m, kinds):
    rng = np.random.default_rng(seed)
    top = 10.0 ** rng.uniform(-3, 3)
    cut = PRUNE_REL * top
    size = {"random": lambda: top * rng.uniform(0.0, 1.0), "tie": lambda: top,
            "zero": lambda: 0.0, "cut": lambda: cut,
            "above": lambda: np.nextafter(cut, np.inf),
            "below": lambda: np.nextafter(cut, 0.0), "tiny": lambda: cut * 1e-3}
    blocks = {}
    for i, kind in enumerate(["tie"] + kinds if kinds else []):
        # the largest entry sits at a random place, real, imaginary or
        # complex with the same modulus; the rest are smaller
        block = (rng.uniform(-0.5, 0.5, (m, m)) + 1j * rng.uniform(-0.5, 0.5, (m, m)))
        value = size[kind]()
        block *= value
        turn = rng.choice([1.0, 1j, -1.0, (0.6 + 0.8j)])
        block[rng.integers(m), rng.integers(m)] = value * turn
        blocks[(i, i + 1)] = block
    keys = np.array(list(blocks), dtype=np.intp).reshape(-1, 2)
    stack = np.array(list(blocks.values())).reshape(-1, m, m)
    got_keys, got_stack = _pruned(keys, stack)
    want = scalar_pruned(blocks)
    assert list(map(tuple, got_keys.tolist())) == list(want)
    assert all(np.array_equal(b, want[k]) for k, b in zip(want, got_stack))


def test_pruned_keeps_every_block_when_not_finite(interval8):
    """A block that is not finite makes the largest norm meaningless, so
    arithmetic keeps every block; it used to empty the operator (inf) or
    drop blocks in an order-dependent way (NaN)."""
    for bad in (np.inf, -np.inf, np.nan, complex(np.nan, 1.0)):
        keys = np.array([(0, 0), (1, 1), (2, 2)])
        stack = np.array([[[bad]], [[1.0]], [[0.0]]], dtype=complex)
        got_keys, got_stack = _pruned(keys, stack)
        assert got_keys is keys and got_stack is stack
    op = BandOperator.partial_translation(interval8, 2, [(1, 0), (2, 1)])
    with np.errstate(invalid="ignore"):  # inf * 0 off the fiber diagonal
        assert set((np.inf * op).blocks) == set(op.blocks)


@pytest.mark.parametrize("blocks, message", [
    ({(-1, 0): 1.0}, "not a pair of points of range(4)"),
    ({(0, -1): 1.0}, "not a pair of points of range(4)"),
    ({(9, 0): 1.0}, "not a pair of points of range(4)"),
    ({(0, 4): 1.0}, "not a pair of points of range(4)"),
    ({(0, 0): 1.0, (1, 1): np.nan}, "not finite"),
    ({(0, 0): 1.0, (1, 2): complex(0.0, np.inf)}, "not finite"),
    ({(0, 0): -np.inf}, "not finite"),
    ({(1.7, 0): 1.0}, "not a pair of points of range(4)"),
    ({(True, 0): 1.0}, "not a pair of points of range(4)"),
    ({("2", 0): 1.0}, "not a pair of points of range(4)"),
], ids=["row-negative", "column-negative", "row-past-end", "column-past-end", "nan",
        "inf-imaginary", "inf-alone", "row-float", "row-bool", "row-string"])
def test_constructor_rejects_bad_blocks(blocks, message):
    """The validating constructor refuses a key outside range(n), which an
    array lookup would wrap to point n - 1, a key whose points are not ints
    or numpy integers (it used to store (1.7, 0) and (True, 0) as (1, 0) and
    ("2", 0) as (2, 0)), and a block that is not finite, which it used to
    drop (NaN) or let empty the operator (inf)."""
    sp = generate_space("interval", length=4)
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        BandOperator(sp, 1, {k: np.array([[v]]) for k, v in blocks.items()})


def test_operator_json_round_trip(tmp_path, interval8):
    rng = np.random.default_rng(8)
    T = rand_band(interval8, 2, 2, rng, density=0.4)
    path = tmp_path / "op.json"
    save_operator(T, path)
    back = load_operator(path, interval8)
    assert back.fiber_dim == 2
    assert np.allclose(back.to_dense(), T.to_dense())


def test_dense_size_guard(monkeypatch, tmp_path, capsys):
    """Dense (n m)^2 allocations above the byte limit raise SizeLimitError
    naming the size, and a run that reaches one exits 3.  The limit is
    lowered to 1 MiB: the 300-point interval with fiber 2 needs 5760000
    bytes per dense matrix.  The stages up to check take every norm per
    support component and allocate no such matrix; hat does."""
    import json

    import banddim.operators
    from banddim.cli import main
    from banddim.cpmaps import BandAlgebra
    from banddim.errors import SizeLimitError

    monkeypatch.setattr(banddim.operators, "DENSE_BYTES_LIMIT", 1 << 20)
    sp = generate_space("interval", length=300)
    with pytest.raises(SizeLimitError, match="5760000 bytes"):
        BandOperator.identity(sp, 2).to_dense()
    with pytest.raises(SizeLimitError, match="5760000 bytes"):
        BandAlgebra(sp, 2).random_hermitian(np.random.default_rng(0))
    cfg = {"space": {"family": "interval", "length": 300}, "cover": {"brick_side": 30},
           "r": 5, "fiber": 2, "test_scale": 1,
           "stages": ["space", "cover", "witness", "check", "hat"],
           "out_dir": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    # every stage up to check completes; the first failure is hat's
    assert (tmp_path / "out" / "check_report.json").is_file()
    assert "stage 'hat' failed" in err and "5760000 bytes" in err


# Matrices for the certified maximum: fresh random ones, exact ties, copies
# of the first one a few ulps below it (the certificate's margin must refuse
# them) and 1e-13 above it, and zeros.
STACK_KINDS = (["random", "tie", "zero", "up"]
               + [f"down{k}" for k in range(6)])


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 32),
       cols=st.integers(1, 32), kinds=st.lists(st.sampled_from(STACK_KINDS),
                                              max_size=12))
@example(seed=0, rows=3, cols=3, kinds=[])
@example(seed=0, rows=3, cols=3, kinds=["random"])
@example(seed=0, rows=3, cols=2, kinds=["zero", "zero"])
def test_max_spectral_norm_matches_svd_loop(seed, rows, cols, kinds):
    rng = np.random.default_rng(seed)

    def draw():
        scale = 10.0 ** rng.uniform(-3, 3)
        return scale * (rng.standard_normal((rows, cols))
                        + 1j * rng.standard_normal((rows, cols)))

    base = draw()
    mats = []
    for kind in kinds:
        if kind == "random":
            mats.append(draw())
        elif kind == "tie":
            mats.append((mats[-1] if mats else base).copy())
        elif kind == "zero":
            mats.append(np.zeros((rows, cols), dtype=complex))
        elif kind == "up":
            mats.append(base * (1 + 1e-13))
        else:
            mats.append(base * (1 - int(kind[4:]) * 1e-16))
    stacks = [mats]
    # a copy a few ulps below the running maximum, met in both orders: the
    # certificate decides on rounding-level gaps here
    for k in range(1, 6):
        down = base * (1 - k * 1e-16)
        stacks += [[down, base], [base, down], [down, base * (1 + 1e-13)]]
    for stack in stacks:
        want = max((spectral_norm(m) for m in stack), default=0.0)
        got = max_spectral_norm(iter(stack))
        assert type(got) is float
        assert got == want


# Matrices for the banded certificate: banded squares and rectangles with
# unequal lower and upper bandwidths (several panels once there are 2
# CERT_PANEL columns or more, a Gram band spanning two or more of them once
# the bandwidths are wide; a wide one ends in empty columns), a band whose
# column extents are not monotone (every 17th column at full height), the
# zero matrix, a full band, and a single row or column.
BAND_KINDS = ["square", "tall", "wide", "profile", "zero", "full", "row", "col"]


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 200),
       lower=st.integers(0, 60), upper=st.integers(0, 60),
       kind=st.sampled_from(BAND_KINDS), k=st.integers(1, 6))
@example(seed=0, n=120, lower=3, upper=9, kind="square", k=1)
@example(seed=1, n=100, lower=0, upper=0, kind="wide", k=2)
@example(seed=0, n=40, lower=0, upper=0, kind="zero", k=1)
@example(seed=2, n=200, lower=60, upper=45, kind="square", k=3)
@example(seed=3, n=200, lower=7, upper=2, kind="profile", k=1)
@example(seed=4, n=190, lower=30, upper=55, kind="tall", k=5)
def test_certified_below_against_svd(seed, n, lower, upper, kind, k):
    """The certificate refuses every bound at or a few ulps around the SVD
    value and 1e-13 above it, all inside its margin, and proves one 1e-8
    above it: as a dense matrix (no panels, one dense panel) and over the
    reference panels of its band."""
    rng = np.random.default_rng(seed)
    short = max(1, (2 * n) // 3)
    rows, cols = {"tall": (n, short), "wide": (short, n), "row": (1, n),
                  "col": (n, 1)}.get(kind, (n, n))
    mat = 10.0 ** rng.uniform(-3, 3) * (rng.standard_normal((rows, cols))
                                        + 1j * rng.standard_normal((rows, cols)))
    i, j = np.indices((rows, cols))
    if kind in ("square", "tall", "wide", "profile"):
        outside = (i - j > lower) | (j - i > upper)
        if kind == "profile":
            outside &= j % 17 > 0  # every 17th column at full height
        mat[outside] = 0.0
    elif kind == "zero":
        mat[:] = 0.0
    sigma = spectral_norm(mat)
    bad = mat.copy()
    bad[-1, -1] = np.nan
    for panels, bad_panels in ((None, None), (mask_panels(mat), mask_panels(bad))):
        if sigma == 0.0:
            assert certified_below(mat, 1e-100, panels)
            assert not certified_below(mat, 0.0, panels)
            continue
        for bound in (sigma * (1 - k * 1e-16), sigma, sigma * (1 + k * 1e-16),
                      sigma * (1 + 1e-13)):
            assert not certified_below(mat, bound, panels)
        assert certified_below(mat, sigma * (1 + 1e-8), panels)
        assert not certified_below(bad, 2.0 * sigma, bad_panels)


def test_certified_below_refuses_nan_at_panel_edge():
    """A NaN that enters G in the last row of the first panel's off-diagonal
    block, not at [-1, -1], makes that panel's solve non-finite; its update
    carries the NaN into a later diagonal block, which is refused."""
    n, half = 3 * CERT_PANEL, 8
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    i, j = np.indices((n, n))
    mat[abs(i - j) > half] = 0.0
    sigma = spectral_norm(mat)
    panels = mask_panels(mat)
    assert certified_below(mat, 2.0 * sigma, panels)
    # The first panel holds columns [0, CERT_PANEL); its band ends one past
    # column `edge`, which meets the panel in the one row `row`.
    edge, row = CERT_PANEL + 2 * half - 1, CERT_PANEL - 1 + half
    assert panels[0][2] == edge + 1
    bad = mat.copy()
    bad[row, edge] = np.nan  # inside the band: the panels of bad are those of mat
    assert mask_panels(bad) == panels
    assert not certified_below(bad, 2.0 * sigma, panels)


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), m=st.integers(1, 3),
       count=st.integers(0, 60), spread=st.integers(0, 40), zeros=st.booleans())
@example(seed=0, n=4, m=2, count=0, spread=0, zeros=False)  # the zero operator
@example(seed=1, n=5, m=3, count=6, spread=1, zeros=True)  # blocks of zeros only
@example(seed=2, n=40, m=3, count=60, spread=2, zeros=False)  # several panels
def test_row_profile_matches_dense_mask(seed, n, m, count, spread, zeros):
    """``BandOperator.row_profile`` is the ``mat != 0`` profile of
    ``to_dense()``, and its ``band_panels`` the reference panels of that
    matrix: on unpruned blocks within ``spread`` of the diagonal whose
    entries are real, purely imaginary, both or zero, with zero rows and
    columns inside blocks and signed zeros (``zeros`` stores blocks of
    zeros only)."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for _ in range(count):
        x = int(rng.integers(n))
        y = int(np.clip(x + rng.integers(-spread, spread + 1), 0, n - 1))
        re = rng.standard_normal((m, m)) * (rng.random((m, m)) < 0.6)  # 0.0 or -0.0 off it
        im = rng.standard_normal((m, m)) * (rng.random((m, m)) < 0.4)
        block = re + 1j * im
        if rng.random() < 0.3:
            block[int(rng.integers(m)), :] = 0.0
        if rng.random() < 0.3:
            block[:, int(rng.integers(m))] = complex(-0.0, -0.0)
        blocks[(x, y)] = 0.0 * block if zeros else block
    op = raw_operator(generate_space("interval", length=n), m, blocks, prune=False)
    mat = op.to_dense()
    first, last = op.row_profile()
    want_first, want_last = mask_profile(mat)
    assert np.array_equal(first, want_first) and np.array_equal(last, want_last)
    assert band_panels(first, last, n * m) == mask_panels(mat)


def test_certified_below_refuses_overflow():
    """A Gram product or a shift that overflows proves nothing; numpy's
    Cholesky factors such a matrix without raising."""
    big = np.full((3, 3), 1e160 + 0j)  # norm 3e160, and its Gram overflows
    assert spectral_norm(big) > 1e155
    with np.errstate(all="ignore"):
        assert not certified_below(big, 1e155)
        assert not certified_below(np.eye(2, dtype=complex), 1e200)
        assert max_spectral_norm([1e-5 * big, big]) == spectral_norm(big)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_max_spectral_norm_raises_on_nan(position):
    rng = np.random.default_rng(position)
    mats = [rng.standard_normal((4, 4)) + 0j for _ in range(3)]
    mats[0] *= 10.0  # the running maximum is set before the NaN arrives
    mats[position] = mats[position].copy()
    mats[position][1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        max(spectral_norm(m) for m in mats)
    with pytest.raises(np.linalg.LinAlgError):
        max_spectral_norm(mats)


def test_spectral_norm_raises_on_infinite_entries():
    """An infinite entry raises ``LinAlgError``, alone, in a stack and in a
    stream, where the SVD gives NaN; finite entries whose sum overflows are
    valued as before."""
    big = np.array([[1e308, 1e308], [1e308, -1e308]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(big.sum())
    assert spectral_norm(big) == np.linalg.svd(big, compute_uv=False)[0] > 1e308
    for bad in (np.inf, complex(0, -np.inf)):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = bad
        for call in (lambda: spectral_norm(mat), lambda: spectral_norm(np.stack([big, mat])),
                     lambda: max_spectral_norm([big, mat])):
            with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
                call()


# Matrices for the norm enclosure, square or rectangular, small enough for
# LAPACK or with 2 CERT_PANEL columns or more for the Lanczos run: random
# ones, tied top singular values, zero, rank one, rank-deficient ones at
# rounding level (1e-16) and near overflow (1e150), and one whose top right
# singular vector is orthogonal to the Lanczos start vector, so the run
# breaks down on the second singular value and the certificate sends it on.
ENCLOSURE_KINDS = ["random", "tie", "zero", "rank1", "deficient16", "deficient150",
                   "hidden"]


def _unitary(rng, n, first=None):
    """A random n x n unitary matrix, with first column ``first`` when
    given (a unit vector)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if first is not None:
        g[:, 0] = first
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / abs(np.diag(r)))


def _enclosure_matrix(rng, rows, cols, kind):
    k = min(rows, cols)
    if kind == "random":
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=complex)
    if kind in ("rank1", "deficient16", "deficient150"):
        rank = 1 if kind == "rank1" else int(rng.integers(1, min(k, 4) + 1))
        scale = {"rank1": 1.0, "deficient16": 1e-16, "deficient150": 1e150}[kind]
        left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        return scale * (left @ right)
    # the taller of M and M^H, which the Lanczos run takes, is a = Q1 S Q2^H
    values = np.sort(rng.uniform(0.1, 0.5, k))[::-1]
    first = None
    if kind == "tie":
        values[:3] = 0.5
    elif k > 1:  # "hidden": top singular value 1, its right vector orthogonal
        # to the start, over two other values, so the run breaks down on them
        values = np.where(np.arange(k) % 2, 0.5, 0.25)
        values[0] = 1.0
        start = np.random.default_rng(LANCZOS_SEED)
        v0 = start.standard_normal(k) + 1j * start.standard_normal(k)
        first = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        first -= v0 * (np.vdot(v0, first) / np.vdot(v0, v0))
        first /= np.linalg.norm(first)
    a = (_unitary(rng, max(rows, cols))[:, :k] * values) @ _unitary(rng, k, first).conj().T
    return a if rows >= cols else a.conj().T


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 160),
       cols=st.integers(1, 160), kind=st.sampled_from(ENCLOSURE_KINDS))
@example(seed=0, rows=150, cols=150, kind="hidden")
@example(seed=1, rows=120, cols=100, kind="hidden")
@example(seed=2, rows=130, cols=130, kind="deficient16")
@example(seed=3, rows=100, cols=140, kind="deficient150")
@example(seed=4, rows=110, cols=110, kind="tie")
@example(seed=5, rows=100, cols=100, kind="rank1")
@example(seed=6, rows=120, cols=120, kind="zero")
def test_norm_enclosure_against_svd(seed, rows, cols, kind):
    """The SVD value lies in the enclosure, and the value lies within
    1e-13 of it (relative): on LAPACK's path below 2 CERT_PANEL columns and
    on the Lanczos run from there up."""
    mat = _enclosure_matrix(np.random.default_rng(seed), rows, cols, kind)
    sigma = spectral_norm(mat)
    value, upper = norm_enclosure(mat)
    assert type(value) is float and type(upper) is float
    if sigma == 0.0:
        assert (value, upper) == (0.0, 0.0)
        return
    assert value <= sigma * (1 + 1e-13) and sigma <= upper
    assert abs(value - sigma) <= 1e-13 * sigma
    assert upper == value * (1.0 + ENCLOSURE_REL)


@pytest.mark.parametrize("cols", [8, 2 * CERT_PANEL + 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_norm_enclosure_refuses_non_finite(cols, bad):
    rng = np.random.default_rng(cols)
    mat = rng.standard_normal((cols + 3, cols)) + 0j
    mat[2, cols - 1] = bad
    with pytest.raises(np.linalg.LinAlgError):
        norm_enclosure(mat)
    with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
        max_norm_enclosure([np.eye(cols + 3, cols, dtype=complex), mat])


def test_max_norm_enclosure_adds_the_gap_of_a_record():
    """A Nearby record contributes its upper end plus its gap; an item
    certified below the running maximum less its gap is skipped."""
    rng = np.random.default_rng(9)
    big = rng.standard_normal((120, 120)) + 0j
    sigma = spectral_norm(big)
    value, upper = max_norm_enclosure([Nearby(big, 1e-3), Nearby(0.5 * big, 1e-3)])
    assert abs(value - sigma) <= 1e-13 * sigma
    assert upper == value * (1 + ENCLOSURE_REL) + 1e-3
    assert max_norm_enclosure([]) == (0.0, 0.0)


# Block supports for the component split: the zero operator, one giant
# (tridiagonal) component, equal-shape components with exactly equal blocks,
# rectangular bipartite components (row x against columns x and x + 1, and
# rows x and x + 1 against column x), a shift chain, strictly upper blocks
# (so T + T* has (x, y) and (y, x) blocks and no diagonal), random banded
# ones and scattered ones.  Blocks are stored in a random order, which is the
# order the union-find meets them.
SUPPORT_KINDS = ["zero", "giant", "ties", "rect", "shift", "upper", "random",
                 "scattered"]

# f(0) = 0, and two with f(0) = 1 that reach the untouched points.
SCALAR_FNS = [lambda t: t * t, lambda t: np.exp(-t * t), lambda t: np.cos(t) + t]


def _component_support(kind, n, rng):
    if kind == "zero":
        return []
    if kind == "giant":
        return [(x, y) for x in range(n) for y in range(n) if abs(x - y) <= 1]
    if kind == "ties":
        return [(x, y) for k in range(0, n - 1, 3)
                for x in (k, k + 1) for y in (k, k + 1)]
    if kind == "rect":
        return [pair for x in range(0, n - 1, 3)
                for pair in (((x, x), (x, x + 1)) if x % 2 else ((x, x), (x + 1, x)))]
    if kind == "shift":
        return [(x, x + 1) for x in range(n - 1)]
    if kind == "upper":
        return [(x, y) for x in range(n) for y in range(x + 1, min(n, x + 3))
                if rng.random() < 0.6]
    if kind == "random":
        return [(x, y) for x in range(n) for y in range(n)
                if abs(x - y) <= 2 and rng.random() < 0.3]
    return [(x, y) for x in range(n) for y in range(n) if rng.random() < 1.5 / n]


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 14), m=st.integers(1, 3),
       kind=st.sampled_from(SUPPORT_KINDS), fn=st.integers(0, len(SCALAR_FNS) - 1))
@example(seed=0, n=9, m=2, kind="zero", fn=1)
@example(seed=0, n=12, m=2, kind="ties", fn=2)
@example(seed=0, n=10, m=1, kind="upper", fn=1)
def test_component_split_matches_dense(seed, n, m, kind, fn):
    """operator_norm, funcalc and eigenvalues, taken per support component,
    against the SVD and eigendecomposition of the full dense matrix."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-1, 1)
    tied = scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    blocks = {}
    support = _component_support(kind, n, rng)
    for i in rng.permutation(len(support)):
        blocks[support[i]] = tied if kind in ("ties", "shift") else \
            scale * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    sp = generate_space("interval", length=n)
    T = BandOperator(sp, m, blocks)
    dense = T.to_dense()
    want = np.linalg.svd(dense, compute_uv=False)[0]
    got = operator_norm(T)
    assert type(got) is float
    assert abs(got - want) <= 1e-12 * want
    assert (got == 0.0) == T.is_zero

    H = T + T.adjoint()
    f = SCALAR_FNS[fn]
    w, v = np.linalg.eigh(H.to_dense())
    want_f = (v * f(w)) @ v.conj().T
    F = H.funcalc(f)
    got_f = F.to_dense()
    assert spectral_norm(got_f - want_f) <= 1e-12 * max(spectral_norm(want_f), 1e-300)
    # funcalc prunes its blocks as the validating constructor does
    assert F.blocks.keys() == BandOperator(sp, m, F.blocks).blocks.keys()
    eig = np.sort(np.concatenate(H.eigenvalues()))
    assert len(eig) == n * m
    assert np.abs(eig - w).max() <= 1e-12 * max(np.abs(w).max(), 1e-300)


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), m=st.integers(1, 3),
       singles=st.integers(0, 12), density=st.sampled_from([0.0, 0.2, 0.5]),
       bad=st.sampled_from([None, np.nan, np.inf]))
@example(seed=0, n=6, m=2, singles=6, density=0.0, bad=None)
@example(seed=1, n=8, m=2, singles=3, density=0.5, bad=np.nan)
@example(seed=2, n=6, m=2, singles=6, density=0.0, bad=np.inf)  # in a one-block component
@example(seed=3, n=8, m=2, singles=0, density=0.5, bad=np.inf)  # in a larger one
def test_operator_norm_mixed_components_match_dense(seed, n, m, singles, density, bad):
    """operator_norm, which passes a one-block component to the stacked SVD
    as that block, against the SVD of the full dense matrix, on supports
    that mix one-block components (``singles`` rows each paired with one
    column of its own) with random larger ones on the other rows and
    columns.  A NaN or infinite entry, which only unvalidated arithmetic
    can hold, raises ``LinAlgError``; an infinite one used to give NaN."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(n), rng.permutation(n)
    k = min(singles, n)
    support = list(zip(rows[:k].tolist(), cols[:k].tolist()))
    support += [(x, y) for x in rows[k:].tolist() for y in cols[k:].tolist()
                if rng.random() < density]
    blocks = {key: 10.0 ** rng.uniform(-1, 1)
              * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
              for key in support}
    sp = generate_space("interval", length=n)
    if bad is not None and blocks:
        key = support[int(rng.integers(len(support)))]
        blocks[key][int(rng.integers(m)), int(rng.integers(m))] = bad
        with pytest.raises(np.linalg.LinAlgError):
            operator_norm(raw_operator(sp, m, blocks, prune=False))
        return
    T = BandOperator(sp, m, blocks)
    got = operator_norm(T)
    assert type(got) is float
    if T.is_zero:
        assert got == 0.0
    else:
        want = np.linalg.svd(T.to_dense(), compute_uv=False)[0]
        assert abs(got - want) <= 1e-12 * want


@DIFF
@given(n=st.integers(1, 16), edges=st.lists(st.tuples(st.integers(0, 15),
                                                      st.integers(0, 15)), max_size=24))
def test_component_labels_match_reachability(n, edges):
    """Labels against the transitive closure of the adjacency matrix."""
    edges = [(a % n, b % n) for a, b in edges]
    a, b = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    labels = component_labels(a, b, n).tolist()
    reach = np.eye(n, dtype=bool)
    for a, b in edges:
        reach[a, b] = reach[b, a] = True
    for _ in range(n):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    for x in range(n):
        assert labels[x] == min(np.flatnonzero(reach[x]))


def _serialized_operators():
    """Operators whose files test the fragment writer: signed zeros,
    subnormals, entries of +-1e308, integer-valued entries (complex, and
    raw blocks of integer dtype only, which are written as floats), grid
    point ids, ids of a space file (strings, floats and nested lists), one
    block at every key, every block distinct, and no block at all.  Each
    keeps every block through the pruning of ``load_operator``."""
    line, grid = generate_space("interval", length=4), generate_space("grid", sides=[2, 3])
    ids = [("a", 1), 2.5, 'x"\u00e9', (0, (1, -2)), -7, ()]
    named = FiniteMetricSpace(ids, [[abs(i - j) for j in range(6)] for i in range(6)])
    big = 1e308
    rng = np.random.default_rng(7)
    return {
        "one-block-everywhere": BandOperator(grid, 2, {
            (x, y): [[0.5, -0.0], [1j, 2.0]] for x in range(6) for y in range(6)}),
        "all-distinct": BandOperator(line, 3, {
            (x, y): rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for x in range(4) for y in range(4)}),
        "signed-zeros": raw_operator(line, 2, {
            (0, 1): np.array([[-0.0 - 0.0j, 1.0 - 0.0j], [-0.0 + 2.0j, 0.0]]),
            (1, 0): np.array([[0.5, -0.0j], [-0.0, -1.5]], dtype=complex)}),
        "subnormals": raw_operator(line, 1, {
            (2, 2): np.array([[5e-324 - 2.5e-310j]]), (0, 3): np.array([[-1e-320 + 0j]])}),
        "huge": raw_operator(line, 2, {
            (3, 3): np.array([[big, -big * 1j], [-big + big * 1j, 1.0]]),
            (2, 3): np.array([[-big, 0.0], [0.0, big * 1j]])}),
        "integers": raw_operator(line, 2, {
            (1, 1): np.array([[1.0, -3.0 + 2.0j], [2.0 ** 53, 0.0]]),
            (1, 2): np.array([[7.0, -2.0], [0.0, 4.0]], dtype=complex)}),
        "integer-dtype": raw_operator(line, 2, {(1, 2): np.array([[7, -2], [0, 4]])}),
        "grid-ids": BandOperator(grid, 1, {((x * 7) % 6, (x * 5) % 6): [[x + 0.25j]]
                                           for x in range(1, 6)}),
        "empty": BandOperator.zero(grid, 3),
        "space-file-ids": BandOperator(named, 1, {(x, (x + 1) % 6): [[x - 0.5j]]
                                                  for x in range(6)}),
    }


@pytest.mark.parametrize("name", sorted(_serialized_operators()))
def test_save_operator_matches_per_entry_writer(name, tmp_path):
    """The fragment writer's file equals, byte for byte, the one written
    entry by entry, and reads back to equal blocks."""
    op = _serialized_operators()[name]
    path = tmp_path / "op.json"
    save_operator(op, path)
    assert path.read_text(encoding="utf-8") == operator_file_text(op)
    back = load_operator(path, op.space)
    assert sorted(back.blocks) == sorted(op.blocks)
    for key, block in op.blocks.items():
        assert np.array_equal(back.blocks[key], block), key


def _zero_signs_flipped(block):
    """The block with the sign of each zero real or imaginary part flipped."""
    re, im = block.real.copy(), block.imag.copy()
    re[re == 0] *= -1
    im[im == 0] *= -1
    flipped = np.empty_like(block)
    flipped.real, flipped.imag = re, im
    return flipped


POOL_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, 1e308])


@DIFF
@example(grid=False, m=2, data=None)  # the empty operator: no block at all
@given(grid=st.booleans(), m=st.integers(1, 3), data=st.data())
def test_save_operator_shares_blocks(tmp_path_factory, grid, m, data):
    """Operators drawn from a small pool of blocks, in which blocks that
    differ only in the signs of their zeros sit side by side, are written
    with the bytes of the per-entry rule, on interval and grid point ids: a
    block met at many keys is encoded once, and -0.0 stays apart from 0.0."""
    space = (generate_space("grid", sides=[2, 3]) if grid
             else generate_space("interval", length=6))
    blocks = {}
    if data is not None:
        pairs = st.tuples(POOL_ENTRIES, POOL_ENTRIES).map(lambda p: complex(*p))
        pool = data.draw(st.lists(st.lists(pairs, min_size=m * m, max_size=m * m),
                                  min_size=1, max_size=3))
        pool = [np.array(entries).reshape(m, m) for entries in pool]
        pool += [_zero_signs_flipped(block) for block in pool]
        keys = data.draw(st.lists(st.tuples(st.integers(0, space.n - 1),
                                            st.integers(0, space.n - 1)),
                                  unique=True, max_size=space.n ** 2))
        for key in keys:
            blocks[key] = pool[data.draw(st.integers(0, len(pool) - 1))]
    op = raw_operator(space, m, blocks, prune=False)
    path = tmp_path_factory.mktemp("shared") / "op.json"
    save_operator(op, path)
    assert path.read_text(encoding="utf-8") == operator_file_text(op)
