"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to calibration.  The
reference instance is the interval of length 150 with spacing 1, fiber 2,
brick side 30, scale r = 5, and propagation-1 test operators (session
fixtures in conftest).
"""

import math
import time
from fractions import Fraction

import numpy as np

from banddim.cover import brick_cover, make_cover, verify_cover
from banddim.cpmaps import choi_check, cop_check, factorize_order_zero, transpose_map
from banddim.extract import (build_translation_system, decompose_neighbors,
                             extract_cover, matrix_unit_identities,
                             threshold_constants, threshold_setup)
from banddim.space import generate_space, ulf_profile
from banddim.witness import (build_upper_witness, check_witness, condition2_errors,
                             hat_normalize, permanence_combine)

from conftest import build_small_witness, random_factored_map


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_constants():
    threshold_constants(0)  # warm-up
    t0 = time.perf_counter()
    d0 = threshold_constants(0)
    d1 = threshold_constants(1)
    elapsed = time.perf_counter() - t0
    ok = (d0 == (Fraction(1, 128), Fraction(1, 8), Fraction(1, 2 ** 23))
          and d1[0] == Fraction(1, 512) and d1[1] == Fraction(1, 16)
          and elapsed < 1e-3)
    assert _line(1, ok, f"constants exact, {elapsed * 1e6:.0f} us")
    assert ok


def test_criterion_2_upper_bound_witness(interval150, witness150):
    t0 = time.monotonic()
    report = check_witness(witness150, tol=1e-9)
    structural = all(report[k].verdict for k in (1, 3, 4, 5, 6))
    err5 = report[2].worst

    errors = [err5]
    for r in (10, 20, 40):
        cover = brick_cover(interval150, r, 6 * r)
        w = build_upper_witness(interval150, cover, r, 2,
                                test_set=witness150.test_set)
        errors.append(max(condition2_errors(w)))
    elapsed = time.monotonic() - t0
    monotone = all(errors[i + 1] <= errors[i] + 1e-12 for i in range(3))
    finite = all(math.isfinite(e) for e in errors)
    ok = structural and finite and monotone and elapsed < 60.0
    assert _line(2, ok, "verdicts 1,3,4,5,6 pass at 1e-9; errors along r=5,10,20,40: "
                        + ", ".join(f"{e:.4f}" for e in errors)
                        + f"; {elapsed:.1f}s")
    assert ok


def test_criterion_3_round_trip(interval150, witness150):
    t0 = time.monotonic()
    td = threshold_setup(witness150)
    pts = build_translation_system(witness150, td)
    extracted = extract_cover(pts, interval150, 5)
    elapsed = time.monotonic() - t0
    recheck = verify_cover(extracted.cover, interval150, 5)
    ok = (recheck.passed and extracted.cover.colors <= 2
          and extracted.S <= extracted.s_max and elapsed < 120.0)
    assert _line(3, ok, f"extracted cover passes at r=5 with "
                        f"{extracted.cover.colors} colors, S={extracted.S} <= "
                        f"s_max={extracted.s_max}; {elapsed:.1f}s")
    assert ok


def test_criterion_4_matrix_unit_identities(pts150):
    _, pts = pts150
    worst = matrix_unit_identities(pts, tol=1e-8).worst
    rng = np.random.default_rng(2024)
    for t in range(25):
        w = build_small_witness(int(rng.integers(0, 12)), rng)
        td = threshold_setup(w)
        small_pts = build_translation_system(w, td)
        worst = max(worst, matrix_unit_identities(small_pts, tol=1e-8).worst)
    ok = worst <= 1e-8
    assert _line(4, ok, f"worst identity deviation {worst:.2e} over the reference "
                        "witness and 25 randomized small witnesses")
    assert ok


def test_criterion_5_hat_normalization(witness150):
    pair = hat_normalize(witness150, samples=50, seed=0)
    rep = pair.report
    eps = witness150.epsilon
    ok = (rep["approximation_worst"] < eps ** 2 / 27.0
          and rep["multiplicativity_worst"] < 6.0 * math.sqrt(eps ** 2 / 81.0))
    assert _line(5, ok, f"approx {rep['approximation_worst']:.4f} < "
                        f"{eps ** 2 / 27.0:.4f}; defect "
                        f"{rep['multiplicativity_worst']:.4f} < "
                        f"{6.0 * math.sqrt(eps ** 2 / 81.0):.4f} over 50 samples")
    assert ok


def test_criterion_6_factorization_round_trip():
    rng = np.random.default_rng(606)
    worst_resid = 0.0
    worst_mult = 0.0
    for t in range(100):
        sp = generate_space("interval", length=int(rng.integers(8, 18)))
        phi = random_factored_map(rng, sp, fiber=int(rng.integers(1, 3)))
        fact = factorize_order_zero(phi)
        s = fact.support
        for _ in range(3):
            a = phi.domain.random_hermitian(rng)
            b = phi.domain.random_hermitian(rng)
            worst_resid = max(worst_resid,
                              (phi.apply(a) - fact.h @ fact.pi(a)).norm())
            lhs = s @ fact.pi(a @ b) @ s
            rhs = (s @ fact.pi(a) @ s) @ (s @ fact.pi(b) @ s)
            nn = max(1.0, a.norm() * b.norm())
            worst_mult = max(worst_mult, (lhs - rhs).norm() / nn)
    ok = worst_resid <= 1e-10 and worst_mult <= 1e-10
    assert _line(6, ok, f"100 seeded maps: residual {worst_resid:.2e}, "
                        f"multiplicativity {worst_mult:.2e}")
    assert ok


def test_criterion_7_choi_certification(witness150):
    rep_psi = choi_check(witness150.psi, truncation=512)
    rep_phi = choi_check(witness150.phi, truncation=512)
    rejections = [choi_check(transpose_map(2)) for _ in range(5)]
    ok = (rep_psi.min_eigenvalue >= -1e-10 and rep_phi.min_eigenvalue >= -1e-10
          and all(not r.flag for r in rejections)
          and all(abs(r.min_eigenvalue + 1.0) < 1e-12 for r in rejections))
    assert _line(7, ok, f"compression min eig {rep_psi.min_eigenvalue:.2e}, "
                        f"inclusion min eig {rep_phi.min_eigenvalue:.2e}, "
                        "transpose rejected on every run")
    assert ok


def test_criterion_8_permanence(witness150):
    spt = generate_space("interval", length=1)
    trivial = build_upper_witness(spt, make_cover(spt, [[{0}]], 3), 1, 2)
    combined = permanence_combine("direct_sum", witness150, trivial)
    rep_sum = check_witness(combined, tol=1e-9)
    amplified = permanence_combine("tensor_matrix", witness150, 2)
    rep_amp = check_witness(amplified, tol=1e-9)
    ok = (combined.d == 1 and rep_sum.passed
          and amplified.d == witness150.d and rep_amp.passed)
    assert _line(8, ok, f"direct sum passes with d={combined.d}; matrix "
                        f"amplification passes with d={amplified.d}")
    assert ok


def test_criterion_9_cop_automatic_abelian_fiber():
    rng = np.random.default_rng(909)
    worst = 0.0
    for t in range(50):
        sp = generate_space("interval", length=int(rng.integers(8, 16)))
        phi = random_factored_map(rng, sp, fiber=1)
        fact = factorize_order_zero(phi)
        rep = cop_check(fact, tol=1e-9)
        worst = max(worst, rep.worst)
        if not rep.flag:
            break
    ok = worst <= 1e-9
    assert _line(9, ok, f"50 seeded abelian-fiber maps: worst commutator {worst:.2e}")
    assert ok


def test_criterion_10_edge_decomposition():
    sp = generate_space("interval", length=5)
    dec = decompose_neighbors(sp, 1)
    injective = True
    for part in dec.parts:
        firsts = [p[0] for p in part]
        seconds = [p[1] for p in part]
        injective &= len(set(firsts)) == len(firsts)
        injective &= len(set(seconds)) == len(seconds)
    bound_ok = True
    rng = np.random.default_rng(1010)
    for _ in range(20):
        if rng.random() < 0.5:
            rsp = generate_space("interval", length=int(rng.integers(3, 30)))
        else:
            rsp = generate_space("grid", sides=[int(rng.integers(2, 6)),
                                                int(rng.integers(2, 6))],
                                 metric=str(rng.choice(["l1", "linf"])))
        r = int(rng.integers(0, 4))
        d = decompose_neighbors(rsp, r)
        bound_ok &= d.M <= 2 * ulf_profile(rsp, [r])[r] - 1
    ok = dec.M == 3 and injective and bound_ok
    assert _line(10, ok, f"interval(5), r=1 gives exactly M={dec.M} injective "
                         "parts; M <= 2N-1 on 20 randomized instances")
    assert ok
