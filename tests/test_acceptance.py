"""End-to-end acceptance criteria, one test per numbered criterion.

Each test prints a single summary line (visible with pytest -s / -v) and
asserts the stated tolerance.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import indicator_coeff_oracle, volume_coeff_oracle
from qmcnet.cli import IntegrandSpec
from qmcnet.cs import (
    CSParams,
    CodeSpace,
    cs_code_space,
    cs_generating_matrices,
    cs_point_set,
    dual_code,
    verify_dual_properties,
)
from qmcnet.families import balanced_hammersley
from qmcnet.field import gf_rank
from qmcnet.haar import BesovParams, besov_quasi_norm, indicator_coeff, parseval_l2, volume_coeff
from qmcnet.nets import GeneratingMatrices, char_sum, dual_set, generate_points, is_net
from qmcnet.norms import coeff_bound_audit, scaling_table, warnock_l2_sq
from qmcnet.walsh import (
    fine_price_coeff,
    group_walsh_transform,
    interval_coeff_vector,
    residual_check,
    v_gamma_lambda,
    word_index,
)

CS_PARAMS = CSParams(b=11, d=2, w=1)


@pytest.fixture(scope="module")
def cs_points():
    return cs_point_set(CS_PARAMS)


@pytest.fixture(scope="module")
def cs_matrices():
    return cs_generating_matrices(CS_PARAMS)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_cs_instance_is_net(cs_points):
    t0 = time.time()
    check = is_net(cs_points)
    elapsed = time.time() - t0
    report(
        1,
        check.ok and cs_points.size == 11**4 and elapsed < 30,
        f"d=2 b=11 w=1 net over all box shapes, N={cs_points.size}, {elapsed:.2f}s",
    )


def test_criterion_2_dual_code_properties():
    rep = verify_dual_properties(cs_code_space(CS_PARAMS))
    report(
        2,
        rep.passed and rep.kappa_min >= 5 and rep.delta_min >= 5,
        f"by rank over the dual's {rep.words_checked} words: "
        f"kappa_min={rep.kappa_min}, delta_min={rep.delta_min}",
    )


def _random_haar_index(rng, b, d, max_level):
    j, m, l = [], [], []
    for _ in range(d):
        ji = int(rng.integers(-1, max_level + 1))
        j.append(ji)
        m.append(int(rng.integers(0, b**ji)) if ji >= 0 else 0)
        l.append(int(rng.integers(1, b)) if ji >= 0 else 1)
    from qmcnet.haar import HaarIndex

    return HaarIndex(tuple(j), tuple(m), tuple(l))


def test_criterion_3_haar_closed_forms_vs_oracle():
    rng = np.random.default_rng(11)
    cases = 0
    worst = 0.0
    for b in (2, 3, 5):
        for d in (1, 2, 3):
            for _ in range(12):
                idx = _random_haar_index(rng, b, d, 3)
                worst = max(
                    worst, abs(volume_coeff(idx, b) - volume_coeff_oracle(idx, b))
                )
                z = tuple(
                    Fraction(int(rng.integers(0, b**5)), b**5) for _ in range(d)
                )
                worst = max(
                    worst,
                    abs(indicator_coeff(z, idx, b) - indicator_coeff_oracle(z, idx, b)),
                )
                cases += 2
    report(3, cases >= 200 and worst < 1e-12, f"{cases} cases, max abs err {worst:.2e}")


def test_criterion_4_fine_price_vs_oracle():
    worst = 0.0
    checked = 0
    rng = np.random.default_rng(12)
    for b in (2, 3, 5):
        n = 3
        ys = [Fraction(int(v), b**4) for v in rng.integers(0, b**4, 50)]
        for y in ys:
            # independent route: digit-by-digit analysis of the cell sums
            vec = interval_coeff_vector(y, b, n)
            for t in range(b**n):
                worst = max(worst, abs(fine_price_coeff(t, y, b) - complex(vec[t])))
                checked += 1
    report(4, worst < 1e-12, f"{checked} (t, y) pairs, max abs err {worst:.2e}")


def test_criterion_5_theta_duality_and_residual(cs_points, cs_matrices):
    worst_gap = 0.0
    sup_resid = 0.0
    for n in (2, 3, 4):
        ident = np.eye(n, dtype=np.int64)
        g = GeneratingMatrices(
            2, n, 2, np.stack([ident, np.fliplr(ident).copy()])
        )
        p = generate_points(g)
        rep = residual_check(p, g, sample_count=100, seed=5)
        worst_gap = max(worst_gap, rep.max_theta_gap)
        sup_resid = max(sup_resid, rep.max_scaled_residual)
    cs_rep = residual_check(cs_points, cs_matrices, sample_count=100, seed=5)
    worst_gap = max(worst_gap, cs_rep.max_theta_gap)
    ok = worst_gap < 1e-12 and math.isfinite(cs_rep.max_scaled_residual)
    report(
        5,
        ok,
        f"theta route gap {worst_gap:.2e}; sup|R| b^n: small nets "
        f"{sup_resid:.3f}, CS {cs_rep.max_scaled_residual:.3f}",
    )


def test_criterion_6_parseval_vs_warnock(cs_points):
    # Parseval's exact sum is Warnock's exact value, and the report's value
    # is its correctly rounded float, within tail_bound = ulp / 2
    ident = np.eye(6, dtype=np.int64)
    p1 = generate_points(GeneratingMatrices(2, 6, 1, ident[None]))
    gaps = []
    for p in (cs_points, p1):
        rep = parseval_l2(p)
        exact = warnock_l2_sq(p)
        assert Fraction(rep.metadata["exact"]) == exact
        assert rep.value == float(exact) and rep.tail_bound == math.ulp(rep.value) / 2
        gaps.append(abs(Fraction(rep.value) - exact) / exact)
    report(6, all(g <= 2.0**-53 for g in gaps),
           f"exact == Warnock; CS rel rounding {float(gaps[0]):.2e}; d=1 {float(gaps[1]):.2e}")


def test_criterion_7_coefficient_bound_audit(cs_points):
    rep = coeff_bound_audit(cs_points, cap=2 * cs_points.n)
    max_exc = max(rep.exceptional_counts.values()) if rep.exceptional_counts else 0
    ok = (
        rep.passed
        and rep.part_iv_exceptions == 0
        and rep.part_iii_ok
        and max_exc <= 11**4
        and math.isfinite(rep.const_full_cube)
        and math.isfinite(rep.const_small_levels)
    )
    report(
        7,
        ok,
        f"part (iv) exact on {rep.part_iv_levels_checked} levels; part (iii) "
        f"max exceptional {max_exc} <= {11**4}; constants "
        f"(i)={rep.const_full_cube:.3f} (ii)={rep.const_small_levels:.1f} "
        f"(iii)={rep.const_typical:.4f}/{rep.const_exceptional:.4f}",
    )


def test_criterion_8a_single_instance_besov_envelope(cs_points):
    params = BesovParams(2, 2, 0.25)
    rep = besov_quasi_norm(cs_points, params)
    n_pts = cs_points.size
    envelope = n_pts ** (params.r - 1.0) * math.log(n_pts) ** 0.5
    c_measured = rep.value / envelope
    report(
        "8a",
        math.isfinite(c_measured) and c_measured < 1.0,
        f"besov(2,2,1/4) = {rep.value:.3e} <= C N^(r-1) sqrt(log N) with "
        f"C = {c_measured:.3f}",
    )


def test_criterion_8b_multi_size_scaling():
    study = scaling_table(
        balanced_hammersley,
        range(4, 15),
        BesovParams(2, 2, 0.25),
        kinds=("parseval",),
    )
    slope_n = study.slope("parseval")
    slope_corr = study.log_log_slope_vs_logn("parseval")
    ok = -1.05 <= slope_n <= -0.85 and 0.4 <= slope_corr <= 0.6
    report(
        "8b",
        ok,
        f"n=4..14: slope of log||D||_2 vs log N = {slope_n:.3f} (target -1 "
        f"with log correction); slope of log(N||D||_2) vs log log N = "
        f"{slope_corr:.3f} in [0.4, 0.6]",
    )


def test_criterion_9_group_lemma_suite(cs_points):
    # character-sum lemma, exhaustive b=2 n=3 d=2
    n = 3
    ident = np.eye(n, dtype=np.int64)
    g = GeneratingMatrices(2, n, 2, np.stack([ident, np.fliplr(ident).copy()]))
    p = generate_points(g)
    dual = dual_set(g)
    char_ok = True
    for t0 in range(8):
        for t1 in range(8):
            s = char_sum(p, (t0, t1))
            expect = p.size if (t0, t1) in dual or (t0, t1) == (0, 0) else 0
            char_ok &= s == expect

    # Poisson summation and the V cardinality identity over random subspaces
    rng = np.random.default_rng(13)
    poisson_ok = True
    identity_ok = True
    tested = 0
    while tested < 10:
        basis = rng.integers(0, 3, size=(2, 4))
        if gf_rank(basis, 3) != 2:
            continue
        tested += 1
        c = CodeSpace(3, 2, 2, basis)
        f = rng.normal(size=81) + 1j * rng.normal(size=81)
        fh = group_walsh_transform(f, 3, 4)
        lhs = sum(f[word_index(w, 3)] for w in c.words())
        rhs = sum(fh[word_index(w, 3)] for w in dual_code(c).words()) * 9 / 81
        poisson_ok &= abs(lhs - rhs) < 1e-9
        for gamma in itertools.product(range(3), repeat=2):
            for lam in itertools.product(range(3), repeat=2):
                if any(l > gg for l, gg in zip(lam, gamma)):
                    continue
                identity_ok &= v_gamma_lambda(c, gamma, lam).identity_ok

    # counting proposition bound on the CS dual
    code = cs_code_space(CS_PARAMS)
    nn, dd = CS_PARAMS.n, CS_PARAMS.d
    bound_ok = True
    pairs = 0
    for gamma in itertools.product(range(nn + 1), repeat=dd):
        if sum(gamma) < nn + 1:
            continue
        for lam in itertools.product(range(nn + 1), repeat=dd):
            if any(l > gg for l, gg in zip(lam, gamma)):
                continue
            if sum(lam) + dd > nn:
                continue
            rep = v_gamma_lambda(code, gamma, lam, check_bound=True)
            bound_ok &= rep.bound_ok and rep.identity_ok
            pairs += 1
            if pairs >= 24:
                break
        if pairs >= 24:
            break
    ok = char_ok and poisson_ok and identity_ok and bound_ok and pairs >= 20
    report(
        9,
        ok,
        f"char sums 64/64; Poisson+identity on {tested} random subspaces; "
        f"counting bound <= {11**dd} on {pairs} admissible pairs",
    )


def test_criterion_10_qmc_smoke(cs_points):
    pts = cs_points.coordinates()
    f_one = IntegrandSpec("product_monomial", 2, 0)
    err_one = abs(float(f_one.evaluate(pts).mean()) - f_one.exact())
    f_xy = IntegrandSpec("product_monomial", 2, 1)
    err_xy = abs(float(f_xy.evaluate(pts).mean()) - f_xy.exact())
    report(
        10,
        err_one == 0.0 and err_xy <= 1e-2,
        f"f=1 error {err_one}; f=x1 x2 error {err_xy:.2e} <= 1e-2",
    )
