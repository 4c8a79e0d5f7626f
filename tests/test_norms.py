import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import warnock_sq_oracle
from qmcnet import norms
from qmcnet.cs import CSParams, cs_point_set
from qmcnet.errors import InvalidParams
from qmcnet.families import balanced_hammersley, hammersley, shifted_hammersley
from qmcnet.haar import (
    BesovParams,
    besov_quasi_norm,
    haar_levels,
    haar_norms,
    levels_up_to,
    parseval_l2,
)
from qmcnet.nets import PointSet, is_net
from qmcnet.norms import (
    _pair_min_sum,
    _interior_counts,
    coeff_bound_audit,
    disc_eval,
    fit_slope,
    scaling_table,
    warnock_l2,
    warnock_l2_sq,
)


def test_disc_eval_examples():
    p = PointSet(2, 1, 1, np.array([[0]]))
    assert disc_eval(p, [Fraction(0)]) == 0
    assert disc_eval(p, [Fraction(1, 2)]) == Fraction(1, 2)


def test_disc_eval_is_exact_past_int64_products():
    # k * 3^39 passes 2^63 (it wrapped), and 3^41 is past int64 (it raised)
    p = hammersley(20)
    nums = p.numerators.astype(object)  # Python-int products
    for tiny in (Fraction(1, 3**39), Fraction(1, 3**41)):
        x = (Fraction(1, 3) + tiny, Fraction(1, 2))
        inside = np.ones(p.size, dtype=bool)
        for i, xi in enumerate(x):
            inside &= nums[:, i] * xi.denominator < xi.numerator * p.denominator
        exact = Fraction(int(inside.sum()), p.size) - x[0] * x[1]
        assert abs(exact) < 1e-6
        assert disc_eval(p, x) == exact

def test_disc_eval_is_exact_rational():
    p = hammersley(3)
    v = disc_eval(p, [Fraction(3, 8), Fraction(5, 8)])
    assert isinstance(v, Fraction)
    count = sum(
        1
        for row in p.numerators
        if Fraction(int(row[0]), 8) < Fraction(3, 8)
        and Fraction(int(row[1]), 8) < Fraction(5, 8)
    )
    assert v == Fraction(count, 8) - Fraction(15, 64)


def test_disc_eval_right_continuity_on_grid():
    # stepping the box edge past a grid point changes the count exactly there
    p = hammersley(2)
    eps = Fraction(1, 64)
    for g in range(1, 4):
        edge = Fraction(g, 4)
        before = disc_eval(p, [edge, Fraction(1)])
        after = disc_eval(p, [edge + eps, Fraction(1)])
        jump = (after - before) + (edge + eps - edge)  # count change only
        assert jump * p.size == int(jump * p.size)


def test_warnock_hand_values():
    p0 = PointSet(2, 1, 1, np.array([[0]]))
    assert warnock_l2(p0) == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    # {0, 1/2}: D(x) = x - ceil-free exact integral, symbolic value
    p01 = PointSet(2, 1, 1, np.array([[0], [1]]))
    # direct integral: D(x) = #(z < x)/2 - x; pieces give 1/48 + ... = 1/24?
    # compute the exact integral independently with Fractions
    pieces = Fraction(0)
    for a, b_, c in [
        (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1), Fraction(1)),
    ]:
        # on [a, b): D(x) = c - x; integral of (c - x)^2
        pieces += ((c - a) ** 3 - (c - b_) ** 3) / 3
    assert warnock_l2(p01) == pytest.approx(math.sqrt(float(pieces)), abs=1e-12)


def test_warnock_matches_integer_double_sum_oracle():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 4):
        for size in (1, 2, 5, 16, 41):
            for b, n in ((2, 3), (3, 2), (5, 2)):
                # few grid values per coordinate, so coordinates repeat
                nums = rng.integers(0, b**n, size=(size, d))
                p = PointSet(b, n, d, nums)
                assert warnock_l2_sq(p) == warnock_sq_oracle(nums, b**n)


def test_two_coordinate_base_case_matches_weighted_double_sum():
    # weights as the recursion passes them (products of coordinates), and few
    # grid values, so both coordinates repeat and tie across points
    rng = np.random.default_rng(8)
    for size in (1, 2, 3, 7, 30):
        for values in (1, 2, 4, 9):
            rows = rng.integers(0, values, size=(size, 2)).tolist()
            w = rng.integers(0, 10**12, size=size).tolist()
            w[0] = 0
            brute = sum(
                wa * wb * min(ra[0], rb[0]) * min(ra[1], rb[1])
                for ra, wa in zip(rows, w)
                for rb, wb in zip(rows, w)
            )
            assert _pair_min_sum(rows, w, 0) == brute


def test_warnock_2d_matches_oracle_on_repeated_coordinates():
    rng = np.random.default_rng(9)
    for b, n in ((2, 1), (2, 4), (3, 2)):
        for size in (2, 17, 64):
            nums = rng.integers(0, b**n, size=(size, 2))
            nums[: size // 2, 1] = nums[0, 1]  # one shared second coordinate
            p = PointSet(b, n, 2, nums)
            assert warnock_l2_sq(p) == warnock_sq_oracle(nums, b**n)


def test_parseval_at_cap_n_minus_1_matches_exact_warnock():
    # the Besov (2, 2, 0) value squared is the same q-sum, exact tail included
    for p, tol in (
        (balanced_hammersley(14), 1e-13),
        (cs_point_set(CSParams(b=11, d=2, w=1)), 1e-12),
    ):
        exact = warnock_l2_sq(p)
        value = Fraction(parseval_l2(p).value)
        assert abs(value - exact) <= tol * exact
        besov_sq = Fraction(besov_quasi_norm(p, BesovParams(2, 2, 0)).value) ** 2
        assert abs(besov_sq - exact) <= tol * exact


def test_parseval_within_warnock_tail():
    for n in (3, 4, 5):
        p = hammersley(n)
        rep = parseval_l2(p)
        w = warnock_l2(p)
        assert abs(rep.value - w * w) <= rep.tail_bound + 1e-15
        exact = warnock_l2_sq(p)
        assert abs(Fraction(rep.value) - exact) <= Fraction(1, 10**14) * exact


def test_roundoff_allowance_covers_exact_gap_and_is_relative():
    for p in (cs_point_set(CSParams(b=11, d=2, w=1)), balanced_hammersley(14)):
        rep = parseval_l2(p)
        assert abs(Fraction(rep.value) - warnock_l2_sq(p)) <= rep.tail_bound
        assert rep.tail_bound < 1e-6 * rep.value


def _interior_count_by_fractions(p, j) -> int:
    """Points z with z_i b^j_i not an integer (strictly inside the box) in
    every active coordinate of level j, from the exact fractions."""
    return sum(
        all(ji < 0 or (z * p.b**ji).denominator != 1 for z, ji in zip(row, j))
        for row in p.fractions()
    )


@pytest.mark.parametrize("p", [
    hammersley(4),
    # repeated points, points on coarse grid lines and the origin
    PointSet(3, 2, 2, np.array([[0, 0], [3, 6], [3, 6], [1, 4], [8, 2], [4, 3], [4, 3]])),
], ids=["hammersley4", "repeated_and_grid"])
def test_interior_counts_match_the_fraction_route_on_every_level(p):
    counts = _interior_counts(p, p.n + 1)
    # the grid ends where no point is interior: at most n + 1 cells per axis
    assert max(counts.shape) <= p.n + 1
    for j in levels_up_to(p.n + 1, p.d):
        expected = _interior_count_by_fractions(p, j)
        c = tuple(v + 1 for v in j)
        count = counts[c] if all(ci < si for ci, si in zip(c, counts.shape)) else 0
        assert count == expected, j
        if max(j) >= p.n:
            assert expected == 0
    # below n points are inside boxes, also on levels with active coordinates
    assert counts[(slice(1, p.n + 1),) * p.d].any()


def test_audit_flags_a_regime_iv_level_that_holds_a_point(monkeypatch):
    # the audit reads the counts on the levels with some j_i >= n only
    p = hammersley(2)
    monkeypatch.setattr(norms, "_interior_counts", lambda p, cap: np.ones((cap + 2,) * p.d, int))
    rep = coeff_bound_audit(p, cap=3)
    assert rep.part_iv_levels_checked == rep.part_iv_exceptions == 5**2 - 3**2
    assert not rep.passed


def test_audit_counts_regime_iv_on_every_level_within_the_cap():
    p = cs_point_set(CSParams(b=11, d=2, w=1))
    for cap, levels in ((-1, 0), (1, 0), (4, 11), (6, 39), (8, 75)):
        rep = coeff_bound_audit(p, cap=cap)
        assert (rep.part_iv_levels_checked, rep.part_iv_exceptions) == (levels, 0)


def _small_level_constant(p, cap) -> float:
    """sup |mu| b^(|j| + n) over the boxes of the regime-(ii) levels: the
    occupied boxes' mu joined from the blocks, and -volume only on levels
    with an empty box."""
    sup = 0.0
    for agg in haar_levels(p, cap):
        if max(agg.j) == -1 or agg.total_level > p.n:
            continue
        values = [float(np.abs(oracles.joined_mu_blocks(agg)).max(initial=0.0))]
        if agg.empty_count > 0:
            values.append(float(np.abs(agg.volume).max()))
        sup = max(sup, max(values) * float(p.b) ** (agg.total_level + p.n))
    return sup


@pytest.mark.parametrize("p, cap", [
    (cs_point_set(CSParams(b=11, d=2, w=1)), 6),
    (cs_point_set(CSParams(b=11, d=2, w=1)), 1),
    # not a net: level (1, 1) has an empty box of its four
    (PointSet(2, 2, 2, np.array([[1, 1], [1, 3], [3, 1]])), 4),
], ids=["cs11", "cs11-cap1", "three-points"])
def test_audit_small_level_constant_ranges_over_existing_boxes(p, cap):
    # the volume of an empty box counted on fully occupied levels too: on
    # CS-11 every regime-(ii) level is full, and the report read 1181.08
    rep = coeff_bound_audit(p, cap=cap)
    assert rep.const_small_levels == _small_level_constant(p, cap)
    if p.size == 11**4:
        assert rep.const_small_levels < 1


def test_audit_passes_where_b_to_the_level_exceeds_int64():
    # b^j_i >= 2^63 from j_i = 9 on: the audit up to cap 10 runs past int64
    p = PointSet(131, 2, 1, np.arange(131**2)[:, None])
    assert coeff_bound_audit(p, cap=10).passed


def test_audit_small_net_passes():
    p = hammersley(3)
    rep = coeff_bound_audit(p, cap=5)
    assert rep.passed
    assert rep.part_iii_ok
    assert rep.part_iv_exceptions == 0
    assert all(v <= 2**3 for v in rep.exceptional_counts.values())
    assert math.isfinite(rep.const_full_cube)
    assert math.isfinite(rep.const_small_levels)


def _largest_mu_bytes(p):
    """The bytes of the largest level's whole complex mu array."""
    return max(agg.occupied * len(agg.l_combos) * 16 for agg in haar_levels(p))


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_audit_keeps_one_level_alive():
    # the audit drops each level before the sweep builds the next one, so its
    # peak stays below two of the largest level's mu array
    p = cs_point_set(CSParams(b=11, d=2, w=1))
    largest = _largest_mu_bytes(p)
    assert _peak_bytes(lambda: coeff_bound_audit(p)) <= 2 * largest


def test_audit_and_besov_never_hold_a_whole_level_of_mu():
    # both reduce mu block by block, so neither peak reaches one level's mu
    # array (23 MB at CS-11; whole arrays peaked at 37 and 48 MB)
    p = cs_point_set(CSParams(b=11, d=2, w=1))
    largest = _largest_mu_bytes(p)
    assert _peak_bytes(lambda: coeff_bound_audit(p)) < largest
    assert _peak_bytes(lambda: haar_norms(p, BesovParams(1.5, 3, 0.3))) < largest


def test_audit_rejects_a_cap_below_minus_one():
    # cap -2 would sweep no level and still report "passed" with zero constants
    with pytest.raises(InvalidParams, match="cap -2"):
        coeff_bound_audit(hammersley(2), cap=-2)
    assert coeff_bound_audit(hammersley(2), cap=-1).passed


def test_audit_report_json():
    p = hammersley(2)
    rep = coeff_bound_audit(p, cap=3)
    import json

    obj = json.loads(rep.to_json())
    assert obj["schema"] == 1
    assert obj["passed"] is True


def test_families_are_nets():
    for fam in (hammersley, shifted_hammersley, balanced_hammersley):
        assert is_net(fam(5)).ok


@pytest.mark.parametrize("fam", [hammersley, shifted_hammersley, balanced_hammersley])
@pytest.mark.parametrize("n", [0, -2])
def test_families_reject_n_below_one(fam, n):
    # balanced_hammersley took sqrt(n) first: a math domain error at n = -2
    with pytest.raises(InvalidParams, match="need n >= 1"):
        fam(n)


def test_families_xor_their_recorded_shift():
    # shifted: digits 2, 4, ... of y from the most significant; balanced: the
    # lowest ell with n - 2 ell = round(2.8 sqrt(n))
    cases = (
        (shifted_hammersley, 5, 0b01010),
        (shifted_hammersley, 6, 0b010101),
        (balanced_hammersley, 9, 0),
        (balanced_hammersley, 14, 0b11),
        (balanced_hammersley, 20, 0b111),
    )
    for fam, n, shift in cases:
        p, plain = fam(n), hammersley(n).numerators
        assert p.provenance == {"family": fam.__name__, "n": n, "shift": shift}
        assert np.array_equal(p.numerators[:, 0], plain[:, 0])
        assert np.array_equal(p.numerators[:, 1], plain[:, 1] ^ shift)


def test_fit_slope():
    assert fit_slope([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]) == pytest.approx(2.0)
    assert math.isnan(fit_slope([0.0], [1.0]))


def test_scaling_table_rows_and_degenerate_flag():
    study = scaling_table(
        hammersley, range(3, 6), BesovParams(2, 2, 0.25), kinds=("l2",)
    )
    assert len(study.rows) == 3
    assert not study.degenerate
    assert math.isnan(study.rows[0].slope_running)
    assert not math.isnan(study.rows[-1].slope_running)
    assert study.csv().startswith("n,N,norm_kind,value,tail_bound,envelope")
    single = scaling_table(
        hammersley, [4], BesovParams(2, 2, 0.25), kinds=("l2",)
    )
    assert single.degenerate


def test_scaling_table_rejects_no_sizes_and_repeated_kinds():
    params = BesovParams(2, 2, 0.25)
    with pytest.raises(InvalidParams, match="sizes"):
        scaling_table(hammersley, range(5, 5), params)
    with pytest.raises(InvalidParams, match="sizes"):
        scaling_table(hammersley, [4, 4], params)
    # a repeated kind printed every row twice and fit slopes over repeated sizes
    with pytest.raises(InvalidParams, match="norm kind twice"):
        scaling_table(hammersley, range(3, 5), params, kinds=("l2", "l2"))


def test_scaling_parseval_row_is_in_norm_units():
    # the row reports ||D||_2, so its tail is that of the root, not of ||D||_2^2
    params = BesovParams(2, 2, 0.25)
    (row,) = scaling_table(hammersley, [5], params, kinds=("parseval",)).rows
    pv, _ = haar_norms(hammersley(5), params)
    assert row.value == math.sqrt(pv.value)
    upper = (row.value + row.tail_bound) ** 2
    assert upper == pytest.approx(pv.value + pv.tail_bound, rel=1e-15)
