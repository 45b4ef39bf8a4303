import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from banddim.cpmaps import (BandAlgebra, CompressionMap, DenseCpMap, FactoredMap,
                            InclusionMap, OrderZeroFactorization,
                            PointBijectionHom, bump_function, choi_check, cop_check,
                            factorize_order_zero, functional_calculus, order_zero_check,
                            transpose_map)
from banddim.errors import (FactorizationError, InvalidFunctionError,
                            InvalidParameterError, SizeLimitError)
from banddim.fdalg import FdElement, FiniteDimAlgebra, Summand
from banddim.operators import BandOperator
from banddim.space import generate_space

from conftest import (DIFF, assert_same_operator, build_small_witness, dense_image,
                      random_factored_map, raw_operator)


def matrix_algebra(n, fiber=1):
    return FiniteDimAlgebra([Summand(0, "M", n)], fiber)


def dense_oracle(x):
    """Dense matrix written directly from the stored blocks or parts."""
    if isinstance(x, BandOperator):
        m = x.fiber_dim
        out = np.zeros((x.space.n * m,) * 2, dtype=complex)
        for (u, v), b in x.blocks.items():
            out[u * m:(u + 1) * m, v * m:(v + 1) * m] = b
        return out
    dims = [p.shape[0] for p in x.parts]
    out = np.zeros((sum(dims),) * 2, dtype=complex)
    for p, o in zip(x.parts, np.cumsum([0] + dims)):
        out[o:o + p.shape[0], o:o + p.shape[0]] = p
    return out


def sparse_elements(rng):
    sp = generate_space("interval", length=9)
    op = BandOperator(sp, 2, {k: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                              for k in [(1, 2), (2, 2), (6, 4)]})
    alg = FiniteDimAlgebra([Summand(0, "a", 2), Summand(1, "b", 3)], 2)
    parts = [np.zeros((d, d), dtype=complex) for d in alg.block_dims]
    parts[0][1, 3] = 1.0 + 2j
    parts[1][4, 4] = -1.0
    parts[1][0, 5] = 0.5
    return [op, FdElement(alg, parts)]


# -- element interface ----------------------------------------------------

def test_active_coords_and_dense_on_match_dense_oracle():
    for x in sparse_elements(np.random.default_rng(3)):
        dense = dense_oracle(x)
        coords = x.active_coords()
        rest = [c for c in range(dense.shape[0]) if c not in coords]
        assert not dense[rest].any() and not dense[:, rest].any()
        assert np.array_equal(x.dense_on(coords), dense[np.ix_(coords, coords)])
        assert np.array_equal(x.to_dense(), dense)
        assert x.norm() == pytest.approx(np.linalg.svd(dense, compute_uv=False)[0],
                                         rel=1e-12)


def test_band_funcalc_blockwise_matches_dense_oracle():
    rng = np.random.default_rng(4)
    sp = generate_space("interval", length=6)
    blocks = {}
    for x in (0, 2, 3):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        blocks[(x, x)] = g + g.conj().T
    op = BandOperator(sp, 2, blocks)
    f = lambda t: np.maximum(t, 0.0) + 0.5  # f(0) != 0 reaches the blockless points
    w, v = np.linalg.eigh(dense_oracle(op))
    assert np.allclose(op.funcalc(f).to_dense(), (v * f(w)) @ v.conj().T, atol=1e-12)
    assert np.allclose(np.sort(op.eigenvalues()[0]), w, atol=1e-12)


# -- Choi checks ----------------------------------------------------------

def test_choi_identity_map():
    alg = matrix_algebra(2)
    rep = choi_check(DenseCpMap.from_callable(alg, alg, lambda u: u))
    assert rep.flag and rep.min_eigenvalue >= -1e-12
    assert abs(rep.min_eigenvalue) < 1e-12


def test_choi_transpose_rejected():
    rep = choi_check(transpose_map(2))
    assert not rep.flag
    # eigensolve of the 4x4 Choi matrix of the transpose gives exactly -1
    assert abs(rep.min_eigenvalue + 1.0) < 1e-12


def test_choi_conjugation_maps_pass():
    rng = np.random.default_rng(12)
    alg = matrix_algebra(3)
    for _ in range(5):
        kraus = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(int(rng.integers(1, 4)))]
        phi = DenseCpMap.from_callable(alg, alg, lambda u, kraus=kraus: FdElement(
            alg, [sum(V @ u.parts[0] @ V.conj().T for V in kraus)]))
        assert choi_check(phi).flag


def test_choi_size_limit():
    sp = generate_space("interval", length=40)
    band = BandAlgebra(sp, 1)
    win = tuple(range(40))
    alg = FiniteDimAlgebra([Summand(0, "w", 40)], 1)
    phi = InclusionMap(alg, band, [win])
    with pytest.raises(SizeLimitError):
        choi_check(phi, truncation=40 * 40)
    assert choi_check(phi, truncation=512).flag


# -- order zero -----------------------------------------------------------

def test_order_zero_homomorphism_passes():
    sp = generate_space("interval", length=8)
    hom = PointBijectionHom(matrix_algebra(2), BandAlgebra(sp, 1), [(0, 4), (1, 5)])
    rep = order_zero_check(hom)
    assert rep.flag and rep.worst == 0.0 and rep.mode == "structural"


def test_order_zero_sandwich_fails():
    alg = matrix_algebra(2)
    h = np.diag([1.0, 0.3])
    phi = DenseCpMap.from_callable(alg, alg,
                                   lambda u: FdElement(alg, [h @ u.parts[0] @ h]))
    rep = order_zero_check(phi, trials=80, seed=3)
    assert not rep.flag and rep.worst > 1e-3 and rep.mode == "sampled"


def test_order_zero_single_color_inclusion_structural():
    sp = generate_space("interval", length=10)
    band = BandAlgebra(sp, 1)
    alg = FiniteDimAlgebra([Summand(0, "a", 3), Summand(0, "b", 3)], 1)
    phi = InclusionMap(alg, band, [(0, 1, 2), (5, 6, 7)])
    assert order_zero_check(phi).mode == "structural"
    # orthogonality holds exactly for block-supported positives in distinct blocks
    a = alg.matrix_unit(0, 0, 0)
    b = alg.matrix_unit(1, 1, 1)
    assert (phi.apply(a) @ phi.apply(b)).is_zero


# -- factorization ----------------------------------------------------------

def test_factorize_homomorphism():
    sp = generate_space("interval", length=8)
    hom = PointBijectionHom(matrix_algebra(2), BandAlgebra(sp, 1), [(0, 4), (1, 5)])
    fact = factorize_order_zero(hom)
    h_dense = fact.h.to_dense()
    assert np.allclose(h_dense @ h_dense, h_dense)  # image of the unit is a projection
    a = matrix_algebra(2).matrix_unit(0, 0, 1)
    assert (fact.pi(a) - hom.apply(a)).norm() < 1e-12


def test_factorize_scalar_multiple_of_identity():
    alg = matrix_algebra(2)
    for t in (1.0, 0.35):
        phi = DenseCpMap.from_callable(alg, alg, lambda u, t=t: t * u)
        fact = factorize_order_zero(phi)
        assert np.allclose(fact.h.parts[0], t * np.eye(2))
        a = alg.random_hermitian(np.random.default_rng(1))
        assert (fact.pi(a) - a).norm() < 1e-10


def test_factorize_recovers_random_factored_maps():
    rng = np.random.default_rng(42)
    sp = generate_space("interval", length=12)
    for _ in range(10):
        phi = random_factored_map(rng, sp)
        fact = factorize_order_zero(phi)
        assert (fact.h - phi.apply(phi.domain.identity())).norm() < 1e-12
        for _ in range(3):
            a = phi.domain.random_hermitian(rng)
            assert (phi.apply(a) - fact.h @ fact.pi(a)).norm() <= 1e-10
        rebuilt = FactoredMap(fact.h, fact)
        a = phi.domain.random_hermitian(rng)
        assert (rebuilt.apply(a) - phi.apply(a)).norm() <= 1e-10


def test_factorize_rejects_non_order_zero():
    alg = matrix_algebra(2)
    h = np.diag([1.0, 0.3])
    phi = DenseCpMap.from_callable(alg, alg,
                                   lambda u: FdElement(alg, [h @ u.parts[0] @ h]))
    with pytest.raises(FactorizationError) as err:
        factorize_order_zero(phi)
    assert err.value.identity is not None


# -- functional calculus ------------------------------------------------------

def test_functional_calculus_identity_function():
    rng = np.random.default_rng(5)
    sp = generate_space("interval", length=10)
    phi = random_factored_map(rng, sp)
    f_phi = functional_calculus(lambda t: t, phi)
    a = phi.domain.random_hermitian(rng)
    assert (f_phi.apply(a) - phi.apply(a)).norm() < 1e-10


def test_functional_calculus_square_spectral_mapping():
    alg = matrix_algebra(2)
    sp = generate_space("interval", length=4)
    hom = PointBijectionHom(alg, BandAlgebra(sp, 1), [(0,), (1,)])
    h = BandOperator.diagonal(sp, 1, {0: 1.0, 1: 0.5})
    phi = FactoredMap(h, hom)
    f_phi = functional_calculus(lambda t: t ** 2, phi)
    out = f_phi.apply(alg.identity())
    assert abs(out.block(0, 0)[0, 0] - 1.0) < 1e-12
    assert abs(out.block(1, 1)[0, 0] - 0.25) < 1e-12


def test_functional_calculus_f_delta_stays_order_zero():
    rng = np.random.default_rng(6)
    sp = generate_space("interval", length=12)
    phi = random_factored_map(rng, sp)
    f = bump_function("f_delta", delta=0.1)
    rep = order_zero_check(functional_calculus(f, phi), trials=40, seed=1)
    assert rep.flag


@pytest.mark.parametrize("which", ["witness color", "random factored map"])
def test_functional_calculus_keeps_structural_order_zero(which):
    """The factorization is the map pi itself, so f(h) . pi keeps the
    certificate chain of phi: factored, supported homomorphism, source."""
    rng = np.random.default_rng(9)
    if which == "witness color":
        phi = build_small_witness(1, rng).color_phis()[0][1]
    else:
        phi = random_factored_map(rng, generate_space("interval", length=12))
    fact = factorize_order_zero(phi)
    f = bump_function("f_delta", delta=0.1)
    assert order_zero_check(fact).mode == "structural"
    assert order_zero_check(functional_calculus(f, fact)).mode == "structural"


def test_functional_calculus_requires_vanishing_at_zero():
    rng = np.random.default_rng(7)
    phi = random_factored_map(rng, generate_space("interval", length=8))
    with pytest.raises(InvalidFunctionError):
        functional_calculus(lambda t: t + 1.0, phi)


def test_contractive_functions_give_contractive_images():
    rng = np.random.default_rng(8)
    phi = random_factored_map(rng, generate_space("interval", length=10))
    g = bump_function("g_delta", delta=0.3)
    image = functional_calculus(g, phi).apply(phi.domain.identity())
    assert image.norm() <= 1.0 + 1e-12


# -- bump functions ---------------------------------------------------------

def test_f_delta_values():
    delta = 0.11
    f = bump_function("f_delta", delta=delta)
    assert f(delta) == 0.0
    assert abs(f(2 * delta) - 2 * delta) < 1e-15
    assert f(1.0) == 1.0
    assert f(0.0) == 0.0


def test_g_delta_values():
    delta = 0.11
    g = bump_function("g_delta", delta=delta)
    assert g(delta / 2) == 0.0
    assert abs(g(delta) - 1.0) < 1e-15
    assert g(1.0) == 1.0


def test_zeta_reciprocal():
    z = bump_function("zeta", d=1, eps=0.4)
    zp = bump_function("zeta_prime", d=1, eps=0.4)
    ts = np.linspace(0.0, 1.0, 10_001)
    assert np.abs(z(ts) * zp(ts) - 1.0).max() < 1e-12


def test_f_absorbs_g_pointwise():
    delta = 0.07
    f = bump_function("f_delta", delta=delta)
    g = bump_function("g_delta", delta=delta)
    ts = np.linspace(0.0, 1.0, 10_001)
    assert np.abs(f(ts) * g(ts) - f(ts)).max() < 1e-12


def test_bump_delta_range():
    with pytest.raises(InvalidParameterError):
        bump_function("f_delta", delta=0.5)
    with pytest.raises(InvalidParameterError):
        bump_function("g_delta", delta=0.0)
    with pytest.raises(InvalidParameterError):
        bump_function("zeta", d=1, eps=0.0)


# -- commutation property ------------------------------------------------------

def test_cop_disjoint_projections_pass():
    rng = np.random.default_rng(9)
    sp = generate_space("interval", length=14)
    phi = random_factored_map(rng, sp, fiber=2)
    fact = factorize_order_zero(phi)
    rep = cop_check(fact, tol=1e-9)
    assert rep.flag and rep.worst == 0.0


class _FiberwiseConjugationHom:
    """M_2 with half-size fiber onto constant diagonal blocks v (.) v*.

    v glues two copies of the half fiber into the full fiber, so the images
    of the two diagonal slot units are complementary non-full projections at
    every point: they share their support and fail to commute with the
    diagonal."""

    def __init__(self, space, half):
        self.space = space
        self.half = half
        self.domain = FiniteDimAlgebra([Summand(0, "M", 2)], half)
        self.codomain = BandAlgebra(space, 2 * half)

    def apply(self, elem):
        mat = elem.parts[0]  # (2*half) x (2*half), exactly the glued fiber block
        return BandOperator(self.space, 2 * self.half,
                            {(x, x): mat.copy() for x in range(self.space.n)})

    def order_zero_certificate(self):
        return None


def test_cop_counterexample_fails():
    sp = generate_space("interval", length=5)
    pi = _FiberwiseConjugationHom(sp, half=2)
    fact = factorize_order_zero(pi, trials=4)
    rep = cop_check(fact, tol=1e-9)
    assert not rep.flag and rep.worst > 0.1
    # the two diagonal slot images are supported on the same set
    p_img = fact.pi(pi.domain.matrix_unit(0, 0, 0))
    q_img = fact.pi(pi.domain.matrix_unit(0, 1, 1))
    assert set(p_img.blocks) == set(q_img.blocks)


@pytest.mark.parametrize("spread", [1e-6, 1e-4])
def test_cop_sees_nonscalar_pinv_blocks(spread):
    """A pinv block diag(1, 1 + spread) does not commute with the fiber
    units at its point; the check must measure it, however small."""
    w = build_small_witness(1, np.random.default_rng(1))
    assert w.fiber_dim == 2
    _, phi = w.color_phis()[0]
    fact = factorize_order_zero(phi)
    y = phi.windows[0][0]
    pinv = BandOperator.diagonal(w.space, 2, {y: np.diag([1.0, 1.0 + spread])})
    rep = cop_check(OrderZeroFactorization(phi, fact.h, pinv, fact.support), tol=1e-9)
    assert not rep.flag
    assert rep.worst == pytest.approx(spread, rel=1e-6)


def test_cop_automatic_for_abelian_fiber():
    rng = np.random.default_rng(10)
    for _ in range(10):
        sp = generate_space("interval", length=int(rng.integers(8, 15)))
        phi = random_factored_map(rng, sp, fiber=1)
        fact = factorize_order_zero(phi)
        assert cop_check(fact, tol=1e-9).flag


def test_cop_invariant_under_domain_fiber_conjugation():
    rng = np.random.default_rng(11)
    sp = generate_space("interval", length=12)
    phi = random_factored_map(rng, sp, fiber=2, slots=2)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u, _ = np.linalg.qr(g)

    class _Conjugated:
        domain = phi.domain
        codomain = phi.codomain

        def apply(self, elem):
            n = phi.domain.summands[0].size
            big = np.kron(np.eye(n), u)
            return phi.apply(FdElement(phi.domain,
                                       [big @ elem.parts[0] @ big.conj().T]))

        def order_zero_certificate(self):
            return None

    f1 = factorize_order_zero(phi)
    f2 = factorize_order_zero(_Conjugated())
    assert cop_check(f1).flag == cop_check(f2).flag


# -- compression maps ------------------------------------------------------

@pytest.mark.parametrize("window", [(2, 5, 2), (0, 1, 8), (-1, 0, 1)])
def test_maps_reject_bad_windows(window):
    """A window must list distinct points of the space: a repeated point
    would send two orthogonal slot units onto one block."""
    sp = generate_space("interval", length=8)
    band = BandAlgebra(sp, 1)
    alg = FiniteDimAlgebra([Summand(0, "w", 3)], 1)
    with pytest.raises(InvalidParameterError, match="distinct points"):
        CompressionMap(band, alg, [window])
    with pytest.raises(InvalidParameterError, match="distinct points"):
        InclusionMap(alg, band, [window])


@pytest.mark.parametrize("orbits", [[(0,), (99,)], [(0,), (-1,)], [(0, 1)],
                                    [(0, 1), (2,)], [(0, 1), (1, 2)]])
def test_point_bijection_hom_rejects_bad_orbits(orbits):
    """One orbit row per slot, all of one length, listing distinct points of
    the space: anything else would write blocks off the space or leave a
    slot without an image."""
    band = BandAlgebra(generate_space("interval", length=8), 1)
    with pytest.raises(InvalidParameterError, match="orbit"):
        PointBijectionHom(matrix_algebra(2), band, orbits)


def test_compression_map_choi_small_instance():
    sp = generate_space("interval", length=6)
    band = BandAlgebra(sp, 1)
    alg = FiniteDimAlgebra([Summand(0, "w", 3), Summand(1, "v", 3)], 1)
    h = BandOperator.diagonal(sp, 1, {x: 0.7 for x in range(6)})
    psi = CompressionMap(band, alg, [(0, 1, 2), (3, 4, 5)], [h, h])
    rep = choi_check(psi)
    assert rep.flag


def test_maps_preserve_adjoints():
    rng = np.random.default_rng(31)
    sp = generate_space("interval", length=8)
    band = BandAlgebra(sp, 2)
    alg = FiniteDimAlgebra([Summand(0, "w", 3), Summand(1, "v", 3)], 2)
    h = BandOperator.diagonal(sp, 2, {x: 0.9 - 0.05 * x for x in range(8)})
    psi = CompressionMap(band, alg, [(0, 1, 2), (4, 5, 6)], [h, h])
    phi = InclusionMap(alg, band, [(0, 1, 2), (4, 5, 6)])
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    T = BandOperator.from_dense(sp, 2, g)
    assert (psi.apply(T.adjoint()) - psi.apply(T).adjoint()).norm() < 1e-10
    e = alg.random_hermitian(rng) @ alg.random_hermitian(rng)
    from banddim.operators import operator_norm
    assert operator_norm(phi.apply(e.adjoint()) - phi.apply(e).adjoint()) < 1e-10


def test_unit_image_identities_with_nontrivial_h():
    """Adjoint symmetry and absorption of the f/g images hold for order-zero
    maps whose positive part has spectrum across both breakpoint regions,
    not only for projections."""
    delta = 1.0 / 128.0
    sp = generate_space("interval", length=12)
    band = BandAlgebra(sp, 1)
    alg = matrix_algebra(3)
    orbits = [(0, 6), (1, 7), (2, 8)]
    hom = PointBijectionHom(alg, band, orbits)
    # one orbit position below delta (killed), one between delta and 2*delta
    vals = {0: delta / 2, 1: delta / 2, 2: delta / 2,
            6: 1.5 * delta, 7: 1.5 * delta, 8: 1.5 * delta}
    phi = FactoredMap(BandOperator.diagonal(sp, 1, vals), hom)
    fact = factorize_order_zero(phi)
    f_map = functional_calculus(bump_function("f_delta", delta=delta), fact)
    g_map = functional_calculus(bump_function("g_delta", delta=delta), fact)
    f_img = {(k, l): f_map.apply(alg.matrix_unit(0, k, l))
             for k in range(3) for l in range(3)}
    g_img = {(k, l): g_map.apply(alg.matrix_unit(0, k, l))
             for k in range(3) for l in range(3)}
    for k in range(3):
        for l in range(3):
            assert (f_img[(k, l)].adjoint() - f_img[(l, k)]).norm() <= 1e-12
            assert (g_img[(k, l)].adjoint() - g_img[(l, k)]).norm() <= 1e-12
            for m in range(3):
                assert (f_img[(k, l)] @ g_img[(l, m)]
                        - f_img[(k, m)]).norm() <= 1e-12
    # the sub-delta orbit position is annihilated, the middle one survives
    assert all(abs(x) >= 6 for (x, y) in f_img[(0, 0)].blocks)
    assert f_img[(0, 0)].block(6, 6)[0, 0] > 0


# -- window maps against the dense oracle -----------------------------------

def random_windows(rng, n, count):
    """``count`` windows of distinct points of range(n), overlapping at
    random; a point may lie in no window."""
    return [tuple(int(p) for p in rng.permutation(n)[:rng.integers(1, n + 1)])
            for _ in range(count)]


def random_blocks(rng, keys, m):
    return {k: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for k in keys}


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), m=st.sampled_from([1, 2, 3]),
       count=st.integers(1, 4), density=st.sampled_from([0.0, 0.3, 1.0]),
       scaled=st.sampled_from(["none", "some", "all"]))
@example(seed=0, n=1, m=1, count=1, density=0.0, scaled="all")
@example(seed=1, n=6, m=2, count=3, density=1.0, scaled="some")
def test_compression_apply_matches_dense_compression(seed, n, m, count, density, scaled):
    """Each part of psi(T) is the window's corner of the dense ``c T c^H``
    (c the window's coefficient, identity when None), over overlapping
    windows, blocks outside every window and the zero operator; without a
    coefficient the corner is copied exactly."""
    rng = np.random.default_rng(seed)
    sp = generate_space("interval", length=n)
    windows = random_windows(rng, n, count)
    alg = FiniteDimAlgebra([Summand(k % 2, k, len(w)) for k, w in enumerate(windows)], m)
    coefficients = [
        None if scaled == "none" or scaled == "some" and rng.random() < 0.5 else
        BandOperator(sp, m, random_blocks(rng, [(p, p) for p in range(n)
                                                if rng.random() < 0.8], m))
        for _ in windows]
    op = BandOperator(sp, m, random_blocks(
        rng, [(x, y) for x in range(n) for y in range(n) if rng.random() < density], m))
    psi = CompressionMap(BandAlgebra(sp, m), alg, windows, coefficients)
    image = psi.apply(op)
    dense = op.to_dense()
    for window, c, part in zip(windows, coefficients, image.parts):
        coords = [p * m + a for p in window for a in range(m)]
        if c is None:
            assert np.array_equal(part, dense[np.ix_(coords, coords)])
        else:
            cd = c.to_dense()
            expected = (cd @ dense @ cd.conj().T)[np.ix_(coords, coords)]
            np.testing.assert_allclose(part, expected, rtol=0, atol=1e-12)


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), m=st.sampled_from([1, 2, 3]),
       count=st.integers(1, 4), density=st.sampled_from([0.0, 0.3, 1.0]))
@example(seed=0, n=1, m=1, count=1, density=0.0)
@example(seed=2, n=5, m=2, count=4, density=1.0)
def test_inclusion_apply_matches_apply_dense(seed, n, m, count, density):
    """phi(x) as a band operator is exactly the dense scatter of the parts,
    overlapping windows summed in window order, on elements whose nonzero
    fiber blocks sit far above PRUNE_REL of the largest."""
    rng = np.random.default_rng(seed)
    sp = generate_space("interval", length=n)
    windows = random_windows(rng, n, count)
    alg = FiniteDimAlgebra([Summand(0, k, len(w)) for k, w in enumerate(windows)], m)
    parts = []
    for d in alg.block_dims:
        s = d // m
        part = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        tiles = part.reshape(s, m, s, m)
        tiles *= (rng.random((s, 1, s, 1)) < density)  # zero fiber blocks
        part *= rng.random((d, d)) < 0.7                 # zero single entries
        parts.append(part)
    elem = FdElement(alg, parts)
    phi = InclusionMap(alg, BandAlgebra(sp, m), windows)
    image = phi.apply(elem)
    assert np.array_equal(image.to_dense(), dense_image(phi, elem))
    # the blocks keep their order of first appearance, window by window and
    # row by row, which fixes the summation order of later products
    first_seen = {}
    for window, part in zip(windows, parts):
        s = len(window)
        for a, c in np.argwhere(np.abs(part.reshape(s, m, s, m)).max(axis=(1, 3)) > 0):
            first_seen.setdefault((window[a], window[c]), None)
    assert list(image.blocks) == list(first_seen)


def test_inclusion_apply_keeps_nan_block():
    """A NaN entry shows in phi(x) as it does in the dense scatter; its
    block is not read as zero."""
    sp = generate_space("interval", length=2)
    alg = FiniteDimAlgebra([Summand(0, 0, 2)], 1)
    phi = InclusionMap(alg, BandAlgebra(sp, 1), [(0, 1)])
    x = FdElement(alg, [np.array([[1.0, np.nan], [0.0, 2.0]], dtype=complex)])
    image = phi.apply(x)
    assert list(image.blocks) == [(0, 0), (0, 1), (1, 1)]
    assert np.isnan(image.blocks[(0, 1)]).all()
    assert np.array_equal(image.to_dense(), dense_image(phi, x), equal_nan=True)


@DIFF
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), m=st.sampled_from([1, 2, 3]),
       count=st.integers(1, 4), density=st.sampled_from([0.0, 0.3, 1.0]),
       scaled=st.sampled_from(["none", "some", "all"]), nan=st.booleans())
@example(seed=0, n=1, m=1, count=1, density=0.0, scaled="all", nan=False)
@example(seed=1, n=6, m=2, count=3, density=1.0, scaled="some", nan=False)
@example(seed=2, n=5, m=3, count=4, density=0.3, scaled="all", nan=True)
def test_round_trip_matches_inclusion_after_compression(seed, n, m, count, density, scaled,
                                                        nan):
    """``psi.round_trip(T)`` is ``phi.apply(psi.apply(T))`` for phi the
    inclusion on psi's windows, in keys, key order and bits, over windows
    that overlap and list their points out of order, coefficients with
    missing blocks (whose images vanish), blocks outside every window, the
    zero operator and a block of NaN, which is kept."""
    rng = np.random.default_rng(seed)
    sp = generate_space("interval", length=n)
    band = BandAlgebra(sp, m)
    windows = random_windows(rng, n, count)
    alg = FiniteDimAlgebra([Summand(k % 2, k, len(w)) for k, w in enumerate(windows)], m)
    coefficients = [
        None if scaled == "none" or scaled == "some" and rng.random() < 0.5 else
        BandOperator(sp, m, random_blocks(rng, [(p, p) for p in range(n)
                                                if rng.random() < 0.8], m))
        for _ in windows]
    blocks = random_blocks(
        rng, [(x, y) for x in range(n) for y in range(n) if rng.random() < density], m)
    if nan:
        blocks[(int(rng.integers(n)), int(rng.integers(n)))] = np.full((m, m), np.nan + 0j)
    op = raw_operator(sp, m, blocks)
    psi = CompressionMap(band, alg, windows, coefficients)
    reference = InclusionMap(alg, band, windows).apply(psi.apply(op))
    assert_same_operator(psi.round_trip(op), reference)
