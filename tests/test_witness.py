import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import banddim.witness as witness_mod
from banddim.cover import brick_cover, make_cover
from banddim.cpmaps import CompressionMap, InclusionMap, order_zero_check
from banddim.errors import IncompatibilityError, PreconditionError
from banddim.operators import (CERT_PANEL, BandOperator, Nearby, certified_below,
                               normalizer_check, operator_norm, spectral_norm)
from banddim.space import generate_space
from banddim.witness import (WindowDefects, build_upper_witness, check_witness,
                             condition2_errors, default_test_set, hat_normalize,
                             load_witness, permanence_combine, save_witness)

from conftest import (DIFF, assert_same_operator, dense_image, grid_witness, interval_witness,
                      mask_panels, permuted_bundle, raw_operator)


def single_point_witness(fiber=2):
    sp = generate_space("interval", length=1)
    cover = make_cover(sp, [[{0}]], 3)
    return build_upper_witness(sp, cover, 1, fiber)


def test_single_point_witness_is_identity():
    w = single_point_witness()
    assert w.d == 0
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    T = BandOperator(w.space, 2, {(0, 0): g})
    round_trip = w.phi.apply(w.psi.apply(T))
    assert operator_norm(round_trip - T) < 1e-14
    report = check_witness(w)
    assert report.passed
    assert report[2].worst == 0.0


def test_partition_of_unity_values():
    # Direct evaluation of the count formula: deep inside a brick of one
    # color the unity weight concentrates there.
    w = interval_witness()
    sp = w.space
    r = 5
    # point 10 sits more than r inside [0, 30): only color 0 contributes
    counts = []
    for fam in (range(0, 30), range(30, 60)):
        cnt = sum(1 for m in range(1, r + 1)
                  if min(abs(10 - u) for u in fam) <= m)
        counts.append(cnt)
    assert counts == [5, 0]
    h0 = w.psi.coefficients[0]
    assert abs(h0.block(10, 10)[0, 0] - 1.0) < 1e-14
    assert w.meta["h_sum_defect"] < 1e-12


def test_witness_conditions_and_dense_oracle():
    w = interval_witness()
    report = check_witness(w, tol=1e-9)
    for k in (1, 3, 4, 5, 6):
        assert report[k].verdict, f"condition {k}"
    # condition 2: error値 validated against a dense recomputation
    errs = condition2_errors(w)
    a = w.test_set[int(np.argmax(errs))]
    dense = dense_image(w.phi, w.psi.apply(a)) - a.to_dense()
    expected = np.linalg.svd(dense, compute_uv=False)[0]
    assert abs(max(errs) - expected) < 1e-12
    assert math.isfinite(report[2].worst)


def test_cover_not_separated_rejected():
    sp = generate_space("interval", length=30)
    cover = brick_cover(sp, 1, 4)  # 5 > 2*2=... gaps of 5 are not 15-separated
    with pytest.raises(PreconditionError):
        build_upper_witness(sp, cover, 5, 1)


def test_cover_gap_rejected():
    sp = generate_space("interval", length=10)
    cover = make_cover(sp, [[{0, 1, 2}]], 3)  # misses points 3..9
    with pytest.raises(PreconditionError):
        build_upper_witness(sp, cover, 1, 1)


class _ConjugatedPhi:
    """phi composed with a unitary that mixes two neighboring points; stays
    order zero but destroys normalizer and commutation structure."""

    def __init__(self, inner, u_op):
        self.inner = inner
        self.u = u_op
        self.domain = inner.domain
        self.codomain = inner.codomain

    def apply(self, x):
        return self.u @ self.inner.apply(x) @ self.u.adjoint()

    def restrict_to_color(self, color):
        return _ConjugatedPhi(self.inner.restrict_to_color(color), self.u)

    def corner_map(self, k, kept_slots):
        return _ConjugatedPhi(self.inner.corner_map(k, kept_slots), self.u)

    def order_zero_certificate(self):
        return None


def test_perturbed_phi_fails_normalizer_condition():
    w = interval_witness(length=24, r=2, side=8)
    sp = w.space
    mix = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    blocks = {(x, x): np.eye(1) for x in range(2, sp.n)}
    blocks[(0, 0)] = np.array([[mix[0, 0]]])
    blocks[(0, 1)] = np.array([[mix[0, 1]]])
    blocks[(1, 0)] = np.array([[mix[1, 0]]])
    blocks[(1, 1)] = np.array([[mix[1, 1]]])
    u = BandOperator(sp, 1, blocks)
    perturbed = _ConjugatedPhi(w.phi, u)
    # the perturbation keeps order zero per color
    assert order_zero_check(perturbed.restrict_to_color(0), trials=30, seed=0).flag
    # but the image of a matrix unit touching point 0 stops normalizing
    k0 = next(k for k, win in enumerate(w.psi.windows) if 0 in win and 1 in win)
    a0 = w.psi.windows[k0].index(0)
    bad = perturbed.apply(w.algebra.matrix_unit(k0, a0, a0 + 2))
    assert not normalizer_check(bad, 1e-9).flag
    import dataclasses
    errs = condition2_errors(w)
    w_bad = dataclasses.replace(w, phi=perturbed)
    report = check_witness(w_bad, tol=1e-9)
    assert not report[5].verdict
    assert report[3].verdict
    # condition 2 is measured through the perturbed phi, not read off w
    bad_errs = [operator_norm(perturbed.apply(w.psi.apply(a)) - a) for a in w.test_set]
    assert condition2_errors(w_bad) == bad_errs != errs
    assert report[2].worst == max(bad_errs)
    assert condition2_errors(w) == errs


def test_assigned_maps_and_test_set_are_measured_afresh(condition2_norms):
    """The build's condition-2 values serve until the witness's phi, psi or
    test set is assigned; then the new ones are measured, once."""
    w = interval_witness(length=24, r=2, side=8)
    t = len(w.test_set)
    assert len(condition2_norms) == 2 * t  # the test set and its squares
    errs = witness_mod.condition2_errors(w)
    assert len(condition2_norms) == 2 * t
    w.test_set = w.test_set[:1]
    assert witness_mod.condition2_errors(w) == errs[:1] and len(condition2_norms) == 2 * t + 1
    for name in ("phi", "psi"):
        setattr(w, name, getattr(w, name))
        assert witness_mod.condition2_errors(w) == errs[:1]
    assert witness_mod.condition2_errors(w) == errs[:1] and len(condition2_norms) == 2 * t + 3


def test_declared_epsilon_measures_condition2_in_check(condition2_norms):
    """A declared epsilon needs no condition-2 pass in the build: the first
    check measures the test set, and a second check and the hat read those
    values."""
    sp = generate_space("interval", length=24)
    w = build_upper_witness(sp, brick_cover(sp, 2, 8), 2, 1, epsilon=3.0)
    assert condition2_norms == []
    report = check_witness(w)
    t = len(w.test_set)
    assert len(condition2_norms) == t
    assert report[2].worst == max(map(operator_norm, condition2_norms))
    assert check_witness(w).to_json() == report.to_json()
    hat_normalize(w, samples=2, seed=0)  # its precondition reads condition 2
    assert len(condition2_norms) == t


def test_loaded_bundle_measures_its_own_condition2(tmp_path, condition2_norms):
    """A bundle holds no condition-2 values, and values written into one are
    never read: the loaded witness measures its test set on first use."""
    w = interval_witness(length=24, r=2, side=8)
    errs = witness_mod.condition2_errors(w)
    save_witness(w, tmp_path)
    path = tmp_path / "witness.json"
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["coefficients", "d", "epsilon", "fiber", "meta", "space",
                           "summands", "test_set"]
    assert sorted(doc["meta"]) == ["cover_scale", "h_sum_defect", "r"]
    doc["errors"] = doc["meta"]["errors"] = [0.0] * len(errs)
    path.write_text(json.dumps(doc))
    condition2_norms.clear()
    back = load_witness(tmp_path)
    assert condition2_norms == []
    assert check_witness(back)[2].worst == max(errs)
    assert witness_mod.condition2_errors(back) == errs
    assert len(condition2_norms) == len(errs)


def test_hat_normalize_single_point():
    w = single_point_witness(fiber=1)
    pair = hat_normalize(w, samples=5, seed=0)
    # psi(1) = 1, so zeta(1) = 1 and both hat maps reduce to the originals
    assert abs(pair.p.parts[0][0, 0] - 1.0) < 1e-12
    assert abs(pair.p_prime.parts[0][0, 0] - 1.0) < 1e-12
    assert pair.report["passed"]


def test_hat_bounds_on_interval_witness():
    w = interval_witness()
    pair = hat_normalize(w, samples=20, seed=1)
    rep = pair.report
    assert rep["scale_identity_deviation"] <= 1e-9
    assert rep["unit_on_range_deviation"] <= 1e-9
    assert rep["approximation_worst"] < w.epsilon ** 2 / 27.0
    assert rep["multiplicativity_worst"] < 6.0 * math.sqrt(w.epsilon ** 2 / 81.0)


def test_hat_worst_cases_match_brute_force():
    """The certified maxima equal the SVD of every defect matrix, drawn in
    the same rng order."""
    w = interval_witness(length=40, r=2, side=10, fiber=2)
    pair = hat_normalize(w, samples=10, seed=3)
    psi1 = w.psi.apply(w.band.identity())

    def phi_hat_dense(x):
        return pair.scale * dense_image(w.phi, pair.p @ x @ pair.p)

    scale_dev = max(spectral_norm(
        phi_hat_dense(pair.psi_hat.apply(a))
        - pair.scale * dense_image(w.phi, w.psi.apply(a))) for a in w.test_set)
    approx = max(spectral_norm(phi_hat_dense(pair.psi_hat.apply(a)) - a.to_dense())
                 for a in w.test_set + [a @ a for a in w.test_set])
    rng = np.random.default_rng(3)
    mult = []
    for _ in range(10):
        b = psi1 @ w.algebra.random_hermitian(rng) @ psi1
        b = (1.0 / b.norm()) * b
        for a in w.test_set:
            pa = pair.psi_hat.apply(a)
            mult.append(spectral_norm(phi_hat_dense(pa @ b)
                                      - phi_hat_dense(pa) @ phi_hat_dense(b)))
    assert len(mult) == 10 * len(w.test_set)
    rep = pair.report
    assert w.space.n * w.fiber_dim < 2 * CERT_PANEL
    _assert_lapack_values(rep, scale_dev, approx)
    _assert_encloses(rep, "scale_identity_deviation", scale_dev)
    _assert_encloses(rep, "approximation_worst", approx)
    _assert_encloses(rep, "multiplicativity_worst", max(mult),
                     _largest_gap(w, pair, _sampled_corner_elements(w, 10, 3)))


def _assert_lapack_values(report, scale_dev, approx):
    """Below 2 CERT_PANEL columns each reported worst case is LAPACK's value
    of one defect, so it equals the brute-force maximum over the defects of
    the dense reference."""
    assert report["scale_identity_deviation"] == scale_dev
    assert report["approximation_worst"] == approx


def _assert_encloses(report, key, brute, gap=0.0):
    """The brute-force dense SVD ``brute`` of a worst case lies at or below
    its reported upper end, and within 1e-13 (relative) or ``gap`` of its
    reported value."""
    assert brute <= report[key + "_upper"]
    assert abs(brute - report[key]) <= max(1e-13 * brute, gap)


def _largest_gap(w, pair, corner_elements):
    """The largest a-priori gap of the window-form multiplicativity defects
    over the test set and the given corner elements: the reported maximum
    of the window forms lies within it of the dense maximum."""
    windows = WindowDefects(w.phi, pair.p, pair.scale)
    lefts = [windows.left(pair.psi_hat.apply(a)) for a in w.test_set]
    return max(windows.defect(left, windows.right(b)).gap
               for b in corner_elements for left in lefts)


def _sampled_corner_elements(w, samples, seed):
    """The normalized corner elements hat_normalize draws, in its rng order."""
    psi1 = w.psi.apply(w.band.identity())
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        b = psi1 @ w.algebra.random_hermitian(rng) @ psi1
        yield (1.0 / b.norm()) * b


@pytest.mark.parametrize("make", [
    lambda tmp: grid_witness(),
    lambda tmp: single_point_witness(),
    lambda tmp: permuted_bundle(interval_witness(length=40, r=2, side=10, fiber=2), tmp),
    lambda tmp: interval_witness(length=75, r=2, side=10, fiber=2),
], ids=["grid", "point", "permuted-interval", "interval-lanczos"])
def test_hat_worst_cases_match_brute_force_off_intervals(make, tmp_path):
    """The brute force of test_hat_worst_cases_match_brute_force on a grid
    witness, on the single point, where every defect sits at rounding
    level and is a record because its gap is not below the running
    maximum, on a bundle whose windows list points out of order, and at
    N = 150, where the records are valued by the Lanczos run."""
    w = make(tmp_path)
    pair = hat_normalize(w, samples=6, seed=2)

    def phi_hat_dense(x):
        return pair.scale * dense_image(w.phi, pair.p @ x @ pair.p)

    scale_dev = max(spectral_norm(
        phi_hat_dense(pair.psi_hat.apply(a))
        - pair.scale * dense_image(w.phi, w.psi.apply(a))) for a in w.test_set)
    approx = max(spectral_norm(phi_hat_dense(pair.psi_hat.apply(a)) - a.to_dense())
                 for a in w.test_set + [a @ a for a in w.test_set])
    mult = [spectral_norm(phi_hat_dense(pa @ b) - phi_hat_dense(pa) @ phi_hat_dense(b))
            for b in _sampled_corner_elements(w, 6, 2)
            for pa in map(pair.psi_hat.apply, w.test_set)]
    assert len(mult) == 6 * len(w.test_set)
    rep = pair.report
    if w.space.n * w.fiber_dim < 2 * CERT_PANEL:
        _assert_lapack_values(rep, scale_dev, approx)
    _assert_encloses(rep, "scale_identity_deviation", scale_dev)
    _assert_encloses(rep, "approximation_worst", approx)
    _assert_encloses(rep, "multiplicativity_worst", max(mult),
                     _largest_gap(w, pair, _sampled_corner_elements(w, 6, 2)))
    if w.space.n == 1:
        windows = WindowDefects(w.phi, pair.p, pair.scale)
        b = next(_sampled_corner_elements(w, 1, 2))
        gap = windows.defect(windows.left(pair.psi_hat.apply(w.test_set[0])),
                             windows.right(b)).gap
        assert max(mult) < 1e-12 and gap > max(mult)


@pytest.mark.parametrize("make", [
    lambda tmp: interval_witness(length=40, r=2, side=10, fiber=2),
    lambda tmp: grid_witness(),
    lambda tmp: permuted_bundle(interval_witness(length=40, r=2, side=10, fiber=2), tmp),
    lambda tmp: permuted_bundle(grid_witness(), tmp),
    lambda tmp: interval_witness(length=75, r=2, side=10, fiber=2),
], ids=["interval", "grid", "permuted-interval", "permuted-grid", "interval-panels"])
def test_window_defects_match_dense(make, tmp_path):
    """Window-pair defects against the dense N x N products, to 1e-13
    relative, and within their a-priori gap; also where the windows list
    their points out of order.  The banded certificate refuses each window
    defect at the SVD value of the dense one and proves it 1e-8 above, on
    three panels or more at N = 150."""
    w = make(tmp_path)
    pair = hat_normalize(w, samples=1, seed=0)
    windows = WindowDefects(w.phi, pair.p, pair.scale)
    assert windows.pairs  # the windows overlap

    def phi_hat_dense(x):
        return pair.scale * dense_image(w.phi, pair.p @ x @ pair.p)

    for b in _sampled_corner_elements(w, 3, 7):
        right = windows.right(b)
        for a in w.test_set + [a @ a for a in w.test_set]:
            pa = pair.psi_hat.apply(a)
            got, gap, panels = windows.defect(windows.left(pa), right)
            want = phi_hat_dense(pa @ b) - phi_hat_dense(pa) @ phi_hat_dense(b)
            sigma = spectral_norm(want)
            diff = spectral_norm(got - want)
            assert diff <= 1e-13 * sigma
            assert diff <= gap < 1e-3 * sigma
            assert not certified_below(got, sigma, panels)
            assert certified_below(got, sigma * (1 + 1e-8), panels)


@pytest.mark.parametrize("make, samples, seed", [
    (lambda request, tmp: request.getfixturevalue("witness150"), 50, 0),
    (lambda request, tmp: grid_witness(), 6, 2),
    (lambda request, tmp: single_point_witness(), 6, 2),
    (lambda request, tmp: permuted_bundle(
        interval_witness(length=40, r=2, side=10, fiber=2), tmp), 6, 2),
    (lambda request, tmp: interval_witness(length=75, r=2, side=10, fiber=2), 6, 2),
], ids=["readme", "grid", "point", "permuted-interval", "interval-lanczos"])
def test_left_panels_match_every_defect(make, samples, seed, request, tmp_path,
                                        monkeypatch):
    """Every matrix the hat certifies carries the reference panels of its
    nonzero mask, planned from structure: the scale and approximation
    defects from their band operators' row profiles, and the
    multiplicativity defects from their left factors, for every sample of
    the hat."""
    w = make(request, tmp_path)
    enclose, streams = witness_mod.max_norm_enclosure, []

    def checked(items):
        streams.append(0)
        for item in items:
            assert isinstance(item, Nearby) and item.panels == mask_panels(item.approx)
            streams[-1] += 1
            yield item

    monkeypatch.setattr(witness_mod, "max_norm_enclosure", lambda items: enclose(checked(items)))
    hat_normalize(w, samples=samples, seed=seed)
    k = len(w.test_set)
    assert streams == [k, 2 * k, samples * k]


def test_hat_takes_no_large_svd(monkeypatch):
    """At N = 150 the hat passes no matrix of 2 CERT_PANEL columns or more
    to LAPACK's SVD: such records are valued by the certified Lanczos run."""
    w = interval_witness(length=75, r=2, side=10, fiber=2)
    svd, columns = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        columns.append(np.shape(a)[-1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert hat_normalize(w, samples=3, seed=0).passed
    assert columns and max(columns) < 2 * CERT_PANEL <= w.space.n * w.fiber_dim


def test_hat_verdict_reads_the_upper_end():
    """A tolerance between the scale identity's value and its upper end
    fails the hat; the upper end itself passes it."""
    w = interval_witness()
    rep = hat_normalize(w, samples=2, seed=0).report
    low, high = rep["scale_identity_deviation"], rep["scale_identity_deviation_upper"]
    assert rep["unit_on_range_deviation"] <= low < high
    assert hat_normalize(w, samples=2, seed=0, tol=low).report["passed"] is False
    assert hat_normalize(w, samples=2, seed=0, tol=high).report["passed"] is True


def test_hat_requires_condition2():
    w = interval_witness()
    w.epsilon = 1e-9  # far below the measured error
    with pytest.raises(PreconditionError):
        hat_normalize(w)


def test_direct_sum_of_single_points():
    w1, w2 = single_point_witness(1), single_point_witness(1)
    combined = permanence_combine("direct_sum", w1, w2)
    assert combined.d == 0
    assert check_witness(combined).structural_passed()


def test_direct_sum_mixed_dimensions():
    w1 = interval_witness()
    w2 = single_point_witness(1)
    combined = permanence_combine("direct_sum", w1, w2)
    assert combined.d == 1
    report = check_witness(combined)
    assert report.structural_passed()
    assert report[2].verdict


def test_direct_sum_fiber_mismatch():
    with pytest.raises(IncompatibilityError):
        permanence_combine("direct_sum", single_point_witness(1),
                           single_point_witness(2))


def test_tensor_matrix_keeps_dimension():
    w = interval_witness()
    amplified = permanence_combine("tensor_matrix", w, 2)
    assert amplified.d == w.d
    assert amplified.fiber_dim == 2 * w.fiber_dim
    report = check_witness(amplified)
    assert report.structural_passed() and report[2].verdict
    # amplification leaves the approximation error unchanged
    assert abs(max(condition2_errors(amplified)) -
               max(condition2_errors(w))) < 1e-12


@pytest.mark.parametrize("kind", ["direct_sum", "tensor_matrix"])
def test_permanence_drops_only_the_exact_identity(kind):
    """A summand's test element (1 + 1e-7) I is not the identity: the
    combined test set keeps it, lifted, beside the one new identity."""
    import dataclasses
    w = single_point_witness(1)
    w = dataclasses.replace(w, test_set=w.test_set + [(1 + 1e-7) * w.test_set[0]])
    combined = permanence_combine(kind, w, w if kind == "direct_sum" else 2)
    m = combined.fiber_dim
    lifted = combined.test_set[1:]
    assert len(lifted) == (2 if kind == "direct_sum" else 1)
    for op in lifted:
        assert [np.array_equal(b, (1 + 1e-7) * np.eye(m)) for b in op.blocks.values()] \
            == [True]


def test_error_monotone_along_scales():
    sp = generate_space("interval", length=150)
    test_set = default_test_set(sp, 1, 1)
    errors = []
    for r in (5, 10, 20, 40):
        cover = brick_cover(sp, r, 6 * r)
        w = build_upper_witness(sp, cover, r, 1, test_set=test_set)
        errors.append(max(condition2_errors(w)))
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(3))


@pytest.mark.parametrize("family,params", [
    ("interval", {"length": 12}),
    ("grid", {"sides": [4, 5], "metric": "linf"}),
])
@pytest.mark.parametrize("scale", [0, 1, 3])
def test_default_test_set_is_identity_then_distinct(family, params, scale):
    sp = generate_space(family, **params)
    ops = default_test_set(sp, scale, 2)
    eye = BandOperator.identity(sp, 2)
    assert ops[0].blocks.keys() == eye.blocks.keys()
    assert all(np.array_equal(b, eye.blocks[k]) for k, b in ops[0].blocks.items())
    supports = [frozenset(op.blocks) for op in ops]
    assert len(set(supports)) == len(ops)


def assert_same_maps(back, w):
    """The bundle keeps the windows, the summands, every coefficient block,
    and so the action of both maps."""
    assert back.psi.windows == w.psi.windows
    assert back.phi.windows == w.phi.windows
    assert [(s.color, s.label, s.size) for s in back.algebra.summands] == \
        [(s.color, s.label, s.size) for s in w.algebra.summands]
    for c, c_back in zip(w.psi.coefficients, back.psi.coefficients, strict=True):
        assert c_back.blocks.keys() == c.blocks.keys()
        assert all(np.array_equal(c_back.blocks[k], b) for k, b in c.blocks.items())
    rng = np.random.default_rng(0)
    T = w.band.random_hermitian(rng)
    assert (w.psi.apply(T) - back.psi.apply(T)).norm() < 1e-12
    e = w.algebra.random_hermitian(rng)
    assert (w.phi.apply(e) - back.phi.apply(e)).norm() < 1e-12


def test_witness_save_load_round_trip(tmp_path):
    w = interval_witness(length=30, r=2, side=10, fiber=2)
    save_witness(w, tmp_path / "w")
    back = load_witness(tmp_path / "w")
    assert back.d == w.d and back.fiber_dim == w.fiber_dim
    assert abs(back.epsilon - w.epsilon) < 1e-15
    assert_same_maps(back, w)
    assert max(condition2_errors(back)) == pytest.approx(
        max(condition2_errors(w)), abs=1e-12)
    assert check_witness(back).structural_passed()


def test_spaced_json_bundle_loads(tmp_path):
    """A bundle whose files were written with json.dump's spaced separators,
    as the package once wrote them, loads to the same witness."""
    w = interval_witness(length=30, r=2, side=10, fiber=2)
    save_witness(w, tmp_path / "w")
    for path in (tmp_path / "w").glob("*.json"):
        doc = json.loads(path.read_text())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        assert ", " in path.read_text()
    back = load_witness(tmp_path / "w")
    assert (back.d, back.fiber_dim, back.epsilon) == (w.d, w.fiber_dim, w.epsilon)
    for a, a_back in zip(w.test_set, back.test_set, strict=True):
        assert np.array_equal(a_back.to_dense(), a.to_dense())
    assert_same_maps(back, w)


def test_color_restriction_is_exactly_order_zero():
    w = interval_witness(length=90)
    phi0 = w.phi.restrict_to_color(0)
    assert order_zero_check(phi0).mode == "structural"
    # block-supported positives in distinct enlarged blocks multiply to zero
    dom = phi0.domain
    a = dom.matrix_unit(0, 1, 1)
    b = dom.matrix_unit(1, 2, 2)
    assert (phi0.apply(a) @ phi0.apply(b)).is_zero
    # the enlarged blocks of each color are pairwise disjoint
    for i in range(w.d + 1):
        wins = w.phi.restrict_to_color(i).windows
        seen = set()
        for win in wins:
            assert not (seen & set(win))
            seen |= set(win)


def test_phi_image_of_diagonal_unit_is_diagonal():
    from banddim.operators import diagonal_membership
    w = interval_witness(fiber=2)
    for k in range(len(w.algebra.summands)):
        image = w.phi.image_of_unit(k, 2, 2)
        assert diagonal_membership(image, 1e-9).flag


def test_hat_rejects_negative_spectrum():
    from banddim.cpmaps import SandwichedMap
    from banddim.errors import InvalidWitnessError
    import dataclasses
    w = interval_witness(length=12, r=1, side=4)
    flipped = dataclasses.replace(w, psi=SandwichedMap(w.psi, scale=-1.0),
                                  epsilon=10.0)
    with pytest.raises(InvalidWitnessError):
        hat_normalize(flipped, samples=2)


def test_checker_detects_noncontractive_psi():
    import dataclasses
    from banddim.cpmaps import SandwichedMap
    w = interval_witness(length=24, r=2, side=8)
    loud = dataclasses.replace(w, psi=SandwichedMap(w.psi, scale=1.3), epsilon=10.0)
    report = check_witness(loud)
    assert not report[1].verdict
    assert report[1].worst > 0.2


def test_checker_detects_offdiagonal_psi():
    import dataclasses
    w = interval_witness(length=24, r=2, side=8)
    bump = w.algebra.matrix_unit(0, 0, 1)

    class _Leaky:
        domain = w.psi.domain
        codomain = w.psi.codomain

        def apply(self, x):
            weight = x.block(0, 0)[0, 0]
            return w.psi.apply(x) + complex(weight) * bump

    leaky = dataclasses.replace(w, psi=_Leaky(), epsilon=10.0)
    report = check_witness(leaky)
    assert not report[4].verdict


def overlapping_window_witness():
    """Same-color summands with overlapping windows: the inclusion is no
    longer order zero."""
    from banddim.cpmaps import BandAlgebra, CompressionMap, InclusionMap
    from banddim.fdalg import FiniteDimAlgebra, Summand
    from banddim.witness import DiagDimWitness
    from banddim.space import generate_space

    sp = generate_space("interval", length=8)
    band = BandAlgebra(sp, 1)
    alg = FiniteDimAlgebra([Summand(0, "a", 4), Summand(0, "b", 4)], 1)
    windows = [(0, 1, 2, 3), (2, 3, 4, 5)]
    h = BandOperator.diagonal(sp, 1, {x: 0.8 for x in range(8)})
    psi = CompressionMap(band, alg, windows, [h, h])
    phi = InclusionMap(alg, band, windows)
    return DiagDimWitness(d=0, algebra=alg, band=band, psi=psi, phi=phi,
                          test_set=[BandOperator.identity(sp, 1)], epsilon=10.0)


def test_checker_detects_order_zero_failure():
    from banddim.cpmaps import order_zero_check
    w = overlapping_window_witness()
    rep = order_zero_check(w.phi.restrict_to_color(0), trials=60, seed=0)
    assert not rep.flag and rep.mode == "sampled"


def test_checker_propagates_factorization_errors():
    from banddim.errors import FactorizationError
    w = overlapping_window_witness()
    with pytest.raises(FactorizationError):
        check_witness(w)


class _PassThroughPsi:
    """psi seen only through ``apply``: no diagonal certificate, so condition
    4 is measured on every diagonal generator."""

    def __init__(self, inner):
        self.inner = inner
        self.domain = inner.domain
        self.codomain = inner.codomain

    def apply(self, x):
        return self.inner.apply(x)


def _forty_point_cli_witness():
    """The witness that the 40-point config of test_cli builds (interval 40,
    brick side 10, r=2, fiber 1)."""
    sp = generate_space("interval", length=40)
    return build_upper_witness(sp, brick_cover(sp, 2, 10), 2, 1,
                               test_set=default_test_set(sp, 1, 1))


def _differential_witnesses():
    from conftest import SMALL_WITNESS_POOL, build_small_witness
    return ([pytest.param(lambda i=i: build_small_witness(i, None), id=f"pool{i}")
             for i in range(len(SMALL_WITNESS_POOL))]
            + [pytest.param(_forty_point_cli_witness, id="cli40"),
               pytest.param(lambda: permanence_combine(
                   "tensor_matrix", build_small_witness(1, None), 2), id="tensor-fiber4")])


@pytest.mark.parametrize("make", _differential_witnesses())
def test_structural_conditions_4_5_match_generic_path(make):
    """Conditions 4, 5 and 6 decided from the structure the maps carry give
    the verdict, worst case and element of the generic path, which sees the
    same maps only through ``apply``."""
    import dataclasses
    from banddim.witness import _check_condition4, _check_condition5, _check_condition6
    w = make()
    generic = dataclasses.replace(
        w, psi=_PassThroughPsi(w.psi),
        phi=_ConjugatedPhi(w.phi, BandOperator.identity(w.space, w.fiber_dim)))
    for check, fast_mode, slow_mode in ((_check_condition4, "structural", "computed"),
                                        (_check_condition5, "structural", "sampled"),
                                        (_check_condition6, "structural", "computed")):
        fast = check(w, 1e-9)
        slow = check(generic, 1e-9)
        assert (fast.mode, slow.mode) == (fast_mode, slow_mode)
        assert ((fast.verdict, fast.worst, fast.witness_element)
                == (slow.verdict, slow.worst, slow.witness_element))


@pytest.mark.parametrize("make", _differential_witnesses())
def test_compression_certificate_holds_through_apply(make):
    """The claim behind ``CompressionMap.diagonal_certificate``: the image of
    every single-point generator has no slot-off-diagonal mass at all."""
    w = make()
    assert w.psi.diagonal_certificate() is not None
    m = w.fiber_dim
    for x in range(w.space.n):
        for g in range(m):
            for dd in range(m):
                blk = np.zeros((m, m), dtype=complex)
                blk[g, dd] = 1.0
                image = w.psi.apply(BandOperator(w.space, m, {(x, x): blk}))
                assert image.slot_offdiag_mass() == 0.0, (x, g, dd)


def test_check_report_modes():
    import dataclasses
    w = interval_witness(length=12, r=1, side=4, fiber=2)
    rows = check_witness(w).to_json()["conditions"]
    assert [row["mode"] for row in rows] == ["computed", "computed", "structural",
                                             "structural", "structural", "structural"]
    generic = dataclasses.replace(
        w, psi=_PassThroughPsi(w.psi),
        phi=_ConjugatedPhi(w.phi, BandOperator.identity(w.space, w.fiber_dim)))
    report = check_witness(generic)
    assert report.passed
    assert [v.mode for v in report.verdicts] == ["computed", "computed", "sampled",
                                                 "computed", "sampled", "computed"]


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf, "1e-9"])
def test_check_rejects_invalid_tolerance(tol):
    from banddim.errors import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        check_witness(single_point_witness(), tol=tol)


def test_check_accepts_zero_tolerance():
    assert check_witness(single_point_witness(), tol=0).passed


# -- condition 2 through the window round trip --------------------------------

@functools.lru_cache(maxsize=None)
def round_trip_witness(family, fiber):
    """A witness on interval 20, or on an l1 or linf grid whose windows
    overlap."""
    if family == "interval":
        sp = generate_space("interval", length=20)
        return build_upper_witness(sp, brick_cover(sp, 2, 8), 2, fiber)
    sp = generate_space("grid", sides=[4, 5] if family == "l1" else [5, 5], metric=family)
    return build_upper_witness(sp, brick_cover(sp, 3, 12), 1, fiber)


def round_trip_elements(w, seed):
    """The test set, its squares, a random band operator of propagation at
    most 2, the zero operator, and a raw operator with a block of NaN."""
    rng = np.random.default_rng(seed)
    sp, m = w.space, w.fiber_dim
    near = [(x, y) for x in range(sp.n) for y in range(sp.n) if sp.distances(x, y) <= 2]
    keys = [near[i] for i in np.flatnonzero(rng.random(len(near)) < 0.5)]
    blocks = {k: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for k in keys}
    nan = dict(w.test_set[-1].blocks)
    nan[near[int(rng.integers(len(near)))]] = np.full((m, m), np.nan + 0j)
    return (w.test_set + [a @ a for a in w.test_set]
            + [BandOperator(sp, m, blocks), BandOperator.zero(sp, m),
               raw_operator(sp, m, nan)])


def assert_round_trip(psi, phi, a):
    """psi's round trip gives phi(psi(a)), and condition 2 the same norm:
    a NaN block has none either way."""
    image, reference = psi.round_trip(a), phi.apply(psi.apply(a))
    assert_same_operator(image, reference)
    if all(np.isfinite(b).all() for b in reference.blocks.values()):
        assert operator_norm(image - a) == operator_norm(reference - a)
    else:
        for op in (image, reference):
            with pytest.raises(np.linalg.LinAlgError):
                operator_norm(op - a)


@DIFF
@given(family=st.sampled_from(["interval", "l1", "linf"]), fiber=st.integers(1, 3),
       coefficients=st.sampled_from(["built", "none", "some"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_round_trip_matches_phi_psi(family, fiber, coefficients, seed):
    """On intervals and l1 and linf grids, at fibers 1 to 3, with the
    built coefficients, none, or some windows' dropped, the round trip
    equals phi(psi(a)) on every kind of element, and a witness with that
    psi takes it for condition 2."""
    w = round_trip_witness(family, fiber)
    rng = np.random.default_rng(seed)
    coeffs = {"built": w.psi.coefficients, "none": None,
              "some": [None if rng.random() < 0.5 else c for c in w.psi.coefficients]}
    psi = CompressionMap(w.band, w.algebra, w.psi.windows, coeffs[coefficients])
    for a in round_trip_elements(w, seed):
        assert_round_trip(psi, w.phi, a)
    w = dataclasses.replace(w, psi=psi)
    assert witness_mod._phi_psi(w) == psi.round_trip


def _combined(kind):
    def make(tmp_path):
        w = interval_witness(length=24, r=2, side=8, fiber=2)
        other = grid_witness(side=5) if kind == "direct_sum" else 2
        return permanence_combine(kind, w, other)
    return make


@pytest.mark.parametrize("make", [
    pytest.param(_combined("direct_sum"), id="direct_sum"),
    pytest.param(_combined("tensor_matrix"), id="tensor_matrix"),
    pytest.param(lambda tmp: permuted_bundle(grid_witness(side=5), tmp), id="loaded-bundle"),
])
def test_combined_and_loaded_witnesses_take_the_round_trip(make, tmp_path, monkeypatch):
    """Witnesses made by ``permanence_combine`` or loaded from a bundle keep
    phi the inclusion on psi's windows: the round trip equals phi(psi(a)),
    and condition 2 is measured through it alone, with the reference's
    values."""
    w = make(tmp_path)
    for a in round_trip_elements(w, 0):
        assert_round_trip(w.psi, w.phi, a)
    reference = [operator_norm(w.phi.apply(w.psi.apply(a)) - a) for a in w.test_set]

    def refused(self, x):
        raise AssertionError("condition 2 applied a window map")

    monkeypatch.setattr(CompressionMap, "apply", refused)
    monkeypatch.setattr(InclusionMap, "apply", refused)
    assert condition2_errors(w, w.test_set) == reference
