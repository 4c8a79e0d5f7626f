import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    cell_average_oracle,
    dense_group_transform,
    interval_coeff_oracle,
    theta_definition_oracle,
    truncated_indicator_1d,
    v_set_counts_oracle,
    walsh_synthesis,
)
from qmcnet import walsh
from qmcnet.cs import CodeSpace, CSParams, cs_code_space, cs_point_set, dual_code
from qmcnet.errors import InvalidParams, InvalidRange, NonTerminatingExpansion
from qmcnet.field import gf_rank
from qmcnet import nets
from qmcnet.nets import GeneratingMatrices, PointSet, dual_set, generate_points
from qmcnet.walsh import (
    _definition_sum,
    _digit_dft,
    fine_price_coeff,
    group_walsh_transform,
    interval_coeff_vector,
    residual_check,
    terminating_digits,
    theta,
    v_gamma_lambda,
    walsh_eval_1d,
    word_index,
)


def hammersley_g(n, b=2):
    ident = np.eye(n, dtype=np.int64)
    return GeneratingMatrices(b, n, 2, np.stack([ident, np.fliplr(ident).copy()]))


def test_terminating_digits():
    assert terminating_digits(Fraction(3, 4), 2) == [1, 1]
    assert terminating_digits(Fraction(0), 5) == []
    with pytest.raises(NonTerminatingExpansion):
        terminating_digits(Fraction(1, 3), 2)


def test_walsh_eval_basics():
    assert walsh_eval_1d(0, Fraction(1, 3), 3) == 1
    # wal_1 in base 2 is the Rademacher function on half-intervals
    assert walsh_eval_1d(1, Fraction(1, 4), 2) == pytest.approx(1)
    assert walsh_eval_1d(1, Fraction(3, 4), 2) == pytest.approx(-1)
    with pytest.raises(InvalidParams):
        walsh_eval_1d(-1, Fraction(0), 2)


def test_walsh_orthonormality_on_grid():
    b, n = 3, 2
    grid = [Fraction(g, b**n) for g in range(b**n)]
    for s in range(b**n):
        for t in range(b**n):
            ip = sum(
                walsh_eval_1d(s, x, b) * walsh_eval_1d(t, x, b).conjugate()
                for x in grid
            ) / len(grid)
            assert abs(ip - (1.0 if s == t else 0.0)) < 1e-12


def test_walsh_group_character():
    # wal_t(x (+) y) = wal_t(x) wal_t(y) for digitwise addition mod b
    b, n = 3, 3
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = int(rng.integers(0, b**n))
        ax, ay = (int(v) for v in rng.integers(0, b**n, 2))
        az, mult, u, v = 0, 1, ax, ay
        for _ in range(n):
            az += ((u % b + v % b) % b) * mult
            u //= b
            v //= b
            mult *= b
        wx = walsh_eval_1d(t, Fraction(ax, b**n), b)
        wy = walsh_eval_1d(t, Fraction(ay, b**n), b)
        wz = walsh_eval_1d(t, Fraction(az, b**n), b)
        assert abs(wz - wx * wy) < 1e-12


def test_fine_price_t0_and_hand_value():
    assert fine_price_coeff(0, Fraction(3, 4), 2) == pytest.approx(0.75)
    assert fine_price_coeff(1, Fraction(3, 4), 2) == pytest.approx(0.25, abs=1e-15)


def test_y_outside_the_unit_interval_is_rejected():
    # a negative y once sliced the cell weights from the end and fed theta
    # a definition route of 0.5 against a dual route of 0
    p = generate_points(hammersley_g(3))
    for bad in (Fraction(-1, 4), Fraction(5, 4)):
        with pytest.raises(InvalidParams):
            interval_coeff_vector(bad, 2, 3)
        with pytest.raises(InvalidParams):
            fine_price_coeff(0, bad, 2)
        with pytest.raises(InvalidParams):
            theta(p, hammersley_g(3), [bad, Fraction(1, 2)])
    with pytest.raises(InvalidParams):
        theta(p, hammersley_g(3), [Fraction(1, 2)])
    # both ends of [0, 1] stay legal
    assert np.allclose(interval_coeff_vector(Fraction(1), 2, 3), np.eye(8)[0])
    assert fine_price_coeff(0, Fraction(1), 2) == 1
    assert fine_price_coeff(5, Fraction(1), 3) == 0
    res = theta(p, hammersley_g(3), [Fraction(1), Fraction(0)])
    assert res.dual_sum == res.definition_sum == 0


def test_fine_price_vs_digit_by_digit_route():
    # the digit-by-digit analysis of the cell sums is an independent route
    rng = np.random.default_rng(3)
    for b in (2, 3):
        n = 3
        for _ in range(5):
            y = Fraction(int(rng.integers(0, b**4)), b**4)
            vec = interval_coeff_vector(y, b, n)
            for t in range(b**n):
                assert fine_price_coeff(t, y, b) == pytest.approx(
                    complex(vec[t]), abs=1e-12
                )


def test_truncated_indicator_mean_value():
    # the synthesized coefficient vector is the partial Walsh sum at every
    # grid point, term by term, and integrates to y over [0,1)
    for b, n, y in ((2, 3, Fraction(5, 8)), (3, 2, Fraction(7, 27))):
        vals = walsh_synthesis(interval_coeff_vector(y, b, n), b, n)
        for g in range(b**n):
            ref = truncated_indicator_1d(y, n, Fraction(g, b**n), b)
            assert abs(vals[g] - ref) < 1e-12
        assert sum(vals) / len(vals) == pytest.approx(float(y), abs=1e-12)


def test_cell_averages_are_the_synthesized_partial_sums():
    # theta's definition route reads cell averages; they equal the partial
    # Walsh sums synthesized from the analysed coefficients at every cell
    rng = np.random.default_rng(8)
    for b, n in ((2, 5), (3, 3), (5, 2)):
        cells = np.arange(b**n)
        ys = [Fraction(0), Fraction(1), Fraction(1, b**n), Fraction(b**n - 1, b**n)]
        ys += [Fraction(int(k), b ** (n + 2)) for k in rng.integers(0, b ** (n + 2), 4)]
        ys.append(Fraction(1, 3) if b != 3 else Fraction(1, 7))
        for y in ys:
            vals = walsh_synthesis(interval_coeff_vector(y, b, n), b, n)
            assert np.abs(cell_average_oracle(y, b, n, cells) - vals).max() < 1e-12


def test_synthesis_matches_pointwise_walsh():
    b, n = 3, 3
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=b**n) + 1j * rng.normal(size=b**n)
    grid_vals = walsh_synthesis(coeffs, b, n)
    for g in (0, 1, 7, 13, 26):
        direct = sum(
            coeffs[t] * walsh_eval_1d(t, Fraction(g, b**n), b)
            for t in range(b**n)
        )
        assert abs(grid_vals[g] - direct) < 1e-10


def test_theta_two_routes_agree():
    g = hammersley_g(3)
    p = generate_points(g)
    rng = np.random.default_rng(1)
    dual = dual_set(g)
    for _ in range(10):
        y = [Fraction(int(v), 2**4) for v in rng.integers(0, 2**4, 2)]
        res = theta(p, g, y, dual=dual)
        assert res.gap < 1e-12


def test_theta_transforms_once_per_coordinate(monkeypatch):
    # one digit-by-digit analysis per coordinate and no radix-b transform:
    # a reintroduced analysis or synthesis transform would call _digit_dft
    transforms, vectors = [], []
    kernel, vector = walsh._digit_dft, walsh.interval_coeff_vector
    monkeypatch.setattr(walsh, "_digit_dft", lambda *a: transforms.append(a) or kernel(*a))
    monkeypatch.setattr(
        walsh, "interval_coeff_vector", lambda *a: vectors.append(a) or vector(*a)
    )
    rng = np.random.default_rng(6)
    for g in (hammersley_g(3), GeneratingMatrices(2, 3, 3, rng.integers(0, 2, (3, 3, 3)))):
        p = generate_points(g)
        transforms.clear()
        vectors.clear()
        res = theta(p, g, [Fraction(3, 8)] * g.d)
        assert (len(transforms), len(vectors)) == (0, g.d)
        assert res.gap < 1e-12


def test_theta_definition_sum_against_the_full_product_oracle():
    # the prefix count, rounded once, against every point's float product of
    # cell averages: nets and multisets with repeated points and points on
    # the grid lines, y in {0, 1}, on the b^-n grid, at a point's own
    # coordinate, on the b^-(n+1) grid and off every b-adic grid
    rng = np.random.default_rng(37)
    sets = [generate_points(hammersley_g(5)), cs_point_set(CSParams(11, 2, 1))]
    for b, n, d in [(2, 4, 1), (3, 3, 2), (5, 2, 3), (11, 2, 2)]:
        rows = rng.integers(0, b**n, size=(40, d))
        rows[:8] -= rows[:8] % b  # on the grid lines of b^-(n-1)
        sets.append(PointSet(b, n, d, np.concatenate([rows, rows[:12], np.zeros((2, d), int)])))
    for p in sets:
        b, top = p.b, p.b**p.n
        ys = [Fraction(0), Fraction(1), Fraction(int(rng.integers(0, top)), top),
              Fraction(int(p.numerators[0, 0]), top), Fraction(1, 3) if b != 3 else Fraction(2, 7)]
        ys += [Fraction(int(k), top * b) for k in rng.integers(0, top * b, 3)]
        for y in itertools.product(ys, repeat=p.d) if p.d < 3 else rng.choice(ys, (60, 3)):
            y = [Fraction(v) for v in y]
            value = _definition_sum(p, y)
            expected = Fraction(theta_definition_oracle(p, y)) - p.size * math.prod(y)
            assert abs(p.size * Fraction(value) - expected) <= Fraction(1e-15) * p.size, (b, y)
            if all(v in (0, 1) for v in y):
                assert value == 0
    g = hammersley_g(5)
    y = [Fraction(3, 64), Fraction(1)]
    assert theta(generate_points(g), g, y).definition_sum == _definition_sum(generate_points(g), y)


def test_theta_rejects_another_nets_matrices_or_dual_set():
    # a dual set of n = 2 indexes the n = 3 coefficient vectors below b^2
    # only, and both routes once read 0 at y = (1/2, 1/2): a wrong pass
    g = hammersley_g(3)
    p = generate_points(g)
    y = [Fraction(1, 2)] * 2
    d3 = GeneratingMatrices(2, 3, 3, np.zeros((3, 3, 3)))
    for wrong in (hammersley_g(2), hammersley_g(3, b=3), d3):
        with pytest.raises(InvalidParams, match="point set"):
            theta(p, wrong, y)
        with pytest.raises(InvalidParams, match="point set"):
            theta(p, g, y, dual=dual_set(wrong))
        with pytest.raises(InvalidParams, match="point set"):
            residual_check(p, wrong, sample_count=5)
    assert theta(p, g, y, dual=dual_set(g)).gap < 1e-12


def test_residual_check_needs_a_sample():
    # sample_count = 0 once reported residual 0 and gap 0, a perfect check
    g = hammersley_g(3)
    p = generate_points(g)
    for count in (0, -1):
        with pytest.raises(InvalidParams, match="sample_count"):
            residual_check(p, g, sample_count=count)
    assert residual_check(p, g, sample_count=1).samples == 1


def interval_test_points(b, n, rng):
    """y = 0 and 1, two points of the b^-n grid (theta = 0), three of the
    b^-(n+1) grid and two off every b-adic grid."""
    ys = [Fraction(0), Fraction(1)]
    ys += [Fraction(int(k), b**n) for k in rng.integers(0, b**n, 2)]
    ys += [Fraction(int(k), b ** (n + 1)) for k in rng.integers(0, b ** (n + 1), 3)]
    ys.append(Fraction(1, 3) if b != 3 else Fraction(2, 5))
    return ys + [Fraction(1, 7) if b != 7 else Fraction(3, 10)]


def test_interval_coeff_vector_matches_the_transform_oracle():
    rng = np.random.default_rng(30)
    for b in (2, 3, 5, 7, 11):
        for n in range(6):
            if b**n > 2 * 10**5:
                continue
            for y in interval_test_points(b, n, rng):
                vec = interval_coeff_vector(y, b, n)
                assert vec.shape == (b**n,) and vec.dtype == complex
                assert np.abs(vec - interval_coeff_oracle(y, b, n)).max() < 2e-15, (b, n, y)
    assert interval_coeff_vector(Fraction(2, 7), 5, 0).tolist() == [2 / 7]
    assert interval_coeff_vector(Fraction(1), 5, 0).tolist() == [1]


def test_interval_coeff_vector_matches_fine_price_on_the_paper_grid():
    # (b, n) = (11, 4) is the CS-11 net's grid; fine_price_coeff costs about
    # 50 us per t, so a seeded sample stands in for all 14641
    b, n = 11, 4
    rng = np.random.default_rng(31)
    ys = [Fraction(0), Fraction(3, b**2), 1 - Fraction(1, b**5)]
    ys += [Fraction(int(k), b**5) for k in rng.integers(0, b**5, 3)]
    for y in ys:
        vec = interval_coeff_vector(y, b, n)
        for t in [0, b**n - 1, *rng.integers(1, b**n - 1, 150)]:
            assert abs(vec[t] - fine_price_coeff(int(t), y, b)) < 5e-16, (y, t)


def test_theta_closed_form_route_agrees():
    g = hammersley_g(2)
    p = generate_points(g)
    y = [Fraction(3, 8), Fraction(5, 8)]
    closed = sum(
        math.prod(fine_price_coeff(ti, yi, 2) for ti, yi in zip(t, y))
        for t in dual_set(g).elements
    )
    assert abs(theta(p, g, y).dual_sum - closed) < 1e-12


def test_residual_check_reports_finite_constant():
    g = hammersley_g(3)
    p = generate_points(g)
    rep = residual_check(p, g, sample_count=40, seed=0)
    assert rep.max_theta_gap < 1e-12
    assert math.isfinite(rep.max_scaled_residual)
    assert rep.samples == 40


def test_group_walsh_transform_is_scaled_involution():
    b, width = 3, 4
    rng = np.random.default_rng(2)
    f = rng.normal(size=b**width) + 1j * rng.normal(size=b**width)
    fh = group_walsh_transform(f, b, width)
    # applying the conjugate transform returns b^width f
    back = group_walsh_transform(fh.conjugate(), b, width).conjugate()
    assert np.allclose(back, f * b**width)


def test_group_walsh_transform_matches_dense_definition():
    rng = np.random.default_rng(9)
    for b, width in ((2, 1), (2, 5), (3, 3), (5, 2), (11, 2), (3, 0)):
        f = rng.normal(size=b**width) + 1j * rng.normal(size=b**width)
        ref = dense_group_transform(f, b, width)
        assert np.abs(group_walsh_transform(f, b, width) - ref).max() < 1e-12 * b**width


def test_digit_dft_on_a_non_contiguous_input():
    rng = np.random.default_rng(10)
    for b, k in ((2, 4), (3, 3), (5, 2)):
        base = rng.normal(size=(b,) * k + (2,)) + 1j * rng.normal(size=(b,) * k + (2,))
        a = base[..., 1].transpose()  # strided and axis-permuted view
        assert not a.flags.c_contiguous
        before = a.copy()
        for sign in (1, -1):
            out = _digit_dft(a, b, sign)
            ref = dense_group_transform(a, b, k, sign).reshape((b,) * k)
            assert out.shape == a.shape
            assert np.abs(out - ref).max() < 1e-12 * b**k
        assert np.array_equal(a, before)
    scalar = np.array(2.5 + 1j)
    assert _digit_dft(scalar, 3, 1) == scalar


def test_poisson_summation_over_random_subspaces():
    # sum over C of f = (#C / b^w) sum over C-perp of f-hat
    b, width = 3, 4
    rng = np.random.default_rng(4)
    for _ in range(10):
        basis = rng.integers(0, b, size=(2, width))
        if gf_rank(basis, b) != 2:
            continue
        c = CodeSpace(b, 2, 2, basis)  # d=2, n=2 gives width 4
        f = rng.normal(size=b**width) + 1j * rng.normal(size=b**width)
        fh = group_walsh_transform(f, b, width)
        lhs = sum(f[word_index(w, b)] for w in c.words())
        dual = dual_code(c)
        rhs = sum(fh[word_index(w, b)] for w in dual.words()) * len(
            c.words()
        ) / b**width
        assert abs(lhs - rhs) < 1e-9


def test_v_gamma_lambda_identity_exhaustive_small():
    basis = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.int64)
    c = CodeSpace(2, 2, 2, basis)
    for gamma in itertools.product(range(3), repeat=2):
        for lam in itertools.product(range(3), repeat=2):
            if any(l > g for l, g in zip(lam, gamma)):
                continue
            rep = v_gamma_lambda(c, gamma, lam)
            assert rep.identity_ok


def admissible_pairs(d, n):
    """Every (gamma, lambda) with 0 <= lambda_i <= gamma_i <= n."""
    per = [(g, l) for g in range(n + 1) for l in range(g + 1)]
    return [tuple(zip(*gl)) for gl in itertools.product(per, repeat=d)]


def assert_v_counts_match_oracle(c):
    pairs = admissible_pairs(c.d, c.n)
    for (gamma, lam), counts in zip(pairs, v_set_counts_oracle(c, pairs)):
        rep = v_gamma_lambda(c, gamma, lam)
        assert (rep.count_in_code, rep.count_in_dual) == counts, (gamma, lam)


def test_v_counts_match_the_definition_on_the_cs11_code():
    c = cs_code_space(CSParams(11, 2, 1))
    assert len(admissible_pairs(c.d, c.n)) == 225
    assert_v_counts_match_oracle(c)


def test_v_counts_match_the_definition_on_random_codes():
    rng = np.random.default_rng(29)
    tested = 0
    while tested < 40:
        b, d, n = int(rng.choice([2, 3, 5])), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        dim = int(rng.integers(0, d * n + 1))
        basis = rng.integers(0, b, size=(dim, d * n))
        if b ** max(dim, d * n - dim) > 5**5 or (dim and gf_rank(basis, b) != dim):
            continue
        assert_v_counts_match_oracle(CodeSpace(b, d, n, basis))
        tested += 1


def test_v_gamma_lambda_enumerates_no_words(monkeypatch):
    from qmcnet import cs

    calls = []
    span = cs.enumerate_span
    monkeypatch.setattr(cs, "enumerate_span", lambda *a: calls.append(a) or span(*a))
    c = CodeSpace(2, 2, 2, np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.int64))
    first = v_gamma_lambda(c, (2, 1), (1, 0))
    assert v_gamma_lambda(c, (2, 1), (1, 0)) == first
    assert v_gamma_lambda(c, (1, 1), (0, 0)).identity_ok
    cs11 = cs_code_space(CSParams(11, 2, 1))
    assert all(v_gamma_lambda(cs11, g, l).identity_ok for g, l in admissible_pairs(2, 4))
    assert calls == []  # the counts come from ranks
    # the cached words cannot be changed through the returned array
    assert not c.words().flags.writeable
    with pytest.raises(ValueError):
        c.words()[0, 0] = 1


def test_residual_check_builds_the_dual_set_once_per_matrices(monkeypatch):
    calls = []
    build = nets.dual_set
    monkeypatch.setattr(nets, "dual_set", lambda g: calls.append(g) or build(g))
    g = hammersley_g(3)
    p = generate_points(g)
    first = residual_check(p, g, sample_count=5, seed=2)
    assert residual_check(p, g, sample_count=5, seed=2) == first
    theta(p, g, [Fraction(1, 2)] * 2)
    assert calls == [g]
    other = hammersley_g(3)
    residual_check(p, other, sample_count=3)
    assert calls == [g, other]


def test_v_gamma_lambda_range_checks():
    basis = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.int64)
    c = CodeSpace(2, 2, 2, basis)
    with pytest.raises(InvalidRange):
        v_gamma_lambda(c, (3, 0), (0, 0))
    with pytest.raises(InvalidRange):
        v_gamma_lambda(c, (1, 1), (2, 0))
