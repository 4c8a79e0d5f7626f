import itertools
import math
import multiprocessing
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import disc_eval_oracle, warnock_sq_oracle
from qmcnet import norms
from qmcnet.cs import CSParams, cs_point_set
from qmcnet.errors import InvalidParams, InvalidRange, SizeOverflow
from qmcnet.families import balanced_hammersley, hammersley, shifted_hammersley
from qmcnet.haar import (
    PARSEVAL,
    ROUNDOFF_ALLOWANCE,
    BesovParams,
    haar_levels,
    haar_norms,
    levels_up_to,
    parseval_l2,
)
from qmcnet.nets import GeneratingMatrices, PointSet, generate_points, is_net
from qmcnet.norms import (
    _pair_min_sum,
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

def test_disc_eval_matches_the_fraction_count_on_multisets():
    # repeated points, points on grid lines and at the corners; x in {0, 1},
    # on the b^-n grid (at a point's own coordinate too) and off every grid
    rng = np.random.default_rng(43)
    for b, n, d in [(2, 4, 1), (3, 2, 2), (5, 2, 3), (11, 1, 2), (2, 6, 2)]:
        top = b**n
        rows = rng.integers(0, top, size=(30, d))
        rows[:8] -= rows[:8] % b  # on the grid lines of b^-(n-1)
        corners = np.array([[0] * d, [top - 1] * d])
        p = PointSet(b, n, d, np.concatenate([rows, rows[:10], corners, corners]))
        xs = [Fraction(0), Fraction(1), Fraction(int(rng.integers(1, top)), top),
              Fraction(int(rows[0, 0]), top), Fraction(int(rows[9, 0]) + 1, top),
              Fraction(1, 3) if b != 3 else Fraction(2, 7), Fraction(int(rng.integers(0, top * b)), top * b)]
        for x in itertools.product(xs, repeat=d) if d < 3 else rng.choice(xs, (80, 3)):
            assert disc_eval(p, x) == disc_eval_oracle(p, x), (b, n, d, x)
    # b^n past int64: the thresholds stay Python ints
    big = PointSet(257, 85, 2, rng.integers(0, 2**62, size=(20, 2)))
    for x in [(1, 1), (Fraction(1, 2), 1), (Fraction(2**61, 257**85), Fraction(2**62, 257**85))]:
        assert disc_eval(big, x) == disc_eval_oracle(big, x), x


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
            assert _pair_min_sum(rows, w) == brute


def test_warnock_2d_matches_oracle_on_repeated_coordinates():
    rng = np.random.default_rng(9)
    for b, n in ((2, 1), (2, 4), (3, 2)):
        for size in (2, 17, 64):
            nums = rng.integers(0, b**n, size=(size, 2))
            nums[: size // 2, 1] = nums[0, 1]  # one shared second coordinate
            p = PointSet(b, n, 2, nums)
            assert warnock_l2_sq(p) == warnock_sq_oracle(nums, b**n)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 2000])
def test_pair_min_sum_2d_matches_the_fenwick_oracle(size):
    # few values tie in u and in v; unit weights, and weights up to 2^40,
    # whose sums pass 2^62 at N = 2000 and run on Python ints; one group,
    # and the same points cut into three groups with signed coefficients
    rng = np.random.default_rng(size)
    cuts = sorted(rng.integers(0, size, 2, endpoint=True).tolist())
    sizes = [cuts[0], cuts[1] - cuts[0], size - cuts[1]]
    coefs = [3, -(2**70), 1]
    python_ints = False
    for values in (1, 3, 50, 2**20):
        us = rng.integers(0, values, size, endpoint=True).tolist()
        vs = rng.integers(0, values, size, endpoint=True).tolist()
        for w in ([1] * size, rng.integers(0, 2**40, size, endpoint=True).tolist()):
            got = norms._pair_min_sum_2d(us, vs, w, [size], [1])
            assert got == oracles.pair_min_sum_2d_fenwick(us, vs, w)
            grouped = sum(
                coef * oracles.pair_min_sum_2d_fenwick(us[a:b], vs[a:b], w[a:b])
                for coef, a, b in zip(coefs, [0] + cuts, cuts + [size])
            )
            assert norms._pair_min_sum_2d(us, vs, w, sizes, coefs) == grouped
            python_ints |= size * max(w, default=0) * max(vs, default=0) >= 2**62
    assert python_ints or size < 2000


def test_warnock_values_are_pinned():
    # the exact values of the divide and conquer with a Fenwick-tree base case
    # and a Python-int linear term, d = 2, 3 and 4
    rng = np.random.default_rng(21)
    pins = [
        (hammersley(10), "260281343/79164837199872"),
        (shifted_hammersley(9), "14162687/4947802324992"),
        (balanced_hammersley(13), "19226431487/324259173170675712"),
        (cs_point_set(CSParams(11, 2, 1)), "6634118939/827095137544298898"),
        (PointSet(3, 4, 3, rng.integers(0, 81, (500, 3))), "12595743812981/35303692060125000"),
        (PointSet(2, 5, 4, rng.integers(0, 32, (300, 4))), "27891506296553/178120883699712000"),
    ]
    for p, value in pins:
        assert warnock_l2_sq(p) == Fraction(value)


def test_parseval_at_cap_n_minus_1_matches_exact_warnock():
    # Parseval is exact; the Besov (2, 2, 0) value squared is the same sum
    # in floats, exact tail included
    for p, tol in (
        (balanced_hammersley(14), 1e-13),
        (cs_point_set(CSParams(b=11, d=2, w=1)), 1e-12),
    ):
        exact = warnock_l2_sq(p)
        pv, bs = haar_norms(p, BesovParams(2, 2, 0))
        assert Fraction(pv.metadata["exact"]) == exact
        assert abs(Fraction(bs.value) ** 2 - exact) <= tol * exact


def _random_digital_net(rng, b, n, d):
    mats = rng.integers(0, b, size=(d, n, n))
    return generate_points(GeneratingMatrices(b, n, d, mats))


def test_parseval_is_warnock_exactly():
    # sets of every kind: nets with d = 1, 2, CS-13, random digital nets up
    # to d = 4, a multiset, and a set where N b^(nd) = 6 * 2^80 passes
    # int64, so the box sums are Python ints (balanced Hammersley n = 14
    # and CS-11 are checked in the test above)
    rng = np.random.default_rng(3)
    sets = [hammersley(5), hammersley(8)]
    sets += [balanced_hammersley(n) for n in range(4, 16) if n != 14]
    sets.append(cs_point_set(CSParams(b=13, d=2, w=1)))
    for b, n, d in [(2, 4, 3), (3, 3, 3), (5, 2, 3), (2, 5, 1), (3, 4, 1), (2, 3, 4)]:
        sets += [_random_digital_net(rng, b, n, d) for _ in range(2)]
    sets.append(PointSet(3, 3, 2, rng.integers(0, 27, size=(40, 2))))
    sets.append(PointSet(2, 40, 2, rng.integers(0, 2**40, size=(6, 2))))
    for p in sets:
        rep = parseval_l2(p)
        exact = warnock_l2_sq(p)
        assert Fraction(rep.metadata["exact"]) == exact, (p.b, p.n, p.d, p.size)
        assert rep.value == float(exact) and rep.tail_bound == math.ulp(rep.value) / 2


def test_parseval_within_warnock_tail():
    for n in (3, 4, 5):
        p = hammersley(n)
        rep = parseval_l2(p)
        exact = warnock_l2_sq(p)
        assert Fraction(rep.metadata["exact"]) == exact
        assert abs(Fraction(rep.value) - exact) <= rep.tail_bound


def test_roundoff_allowance_covers_exact_gap_and_is_relative():
    # Parseval's tail_bound is half an ulp of its correctly rounded value,
    # rigorous; the Besov allowance stays relative
    for p in (cs_point_set(CSParams(b=3, d=1, w=2)), balanced_hammersley(9)):
        pv, bs = haar_norms(p, BesovParams(2, 2, 0))
        assert abs(Fraction(pv.value) - warnock_l2_sq(p)) <= pv.tail_bound
        assert pv.tail_bound == math.ulp(pv.value) / 2
        assert bs.tail_bound == ROUNDOFF_ALLOWANCE * bs.value < 1e-6 * bs.value


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
    cs_point_set(CSParams(b=3, d=1, w=2)),
], ids=["hammersley4", "repeated_and_grid", "cs312"])
def test_regime_iv_levels_hold_no_interior_point(p):
    # every point k / b^n lies on the grid of a level with some j_i >= n, so
    # the audit counts nothing there: by the exact fractions no point is
    # interior on any such level of {-1..n+1}^d, while below n some level
    # with an active coordinate holds one
    for j in levels_up_to(p.n + 1, p.d):
        if max(j) >= p.n:
            assert _interior_count_by_fractions(p, j) == 0, j
    assert any(_interior_count_by_fractions(p, j) for j in levels_up_to(p.n - 1, p.d) if max(j) >= 0)
    rep = coeff_bound_audit(p, cap=p.n + 1)
    assert rep.part_iv_exceptions == 0
    assert rep.part_iv_levels_checked == (p.n + 3) ** p.d - (p.n + 1) ** p.d


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


@pytest.mark.parametrize("cap, exact", [(0, 0.08066967120191419), (1, 0.2863342174802974)])
def test_audit_small_level_constant_is_that_of_the_exact_mu(cap, exact):
    # the sup of b^(|j| + n) |mu| over `exact_mu_oracle`, every l, on CS-11's
    # levels up to the cap, where every box is occupied: float box sums had
    # left the audit 4.3e-13 off at cap 0
    p = cs_point_set(CSParams(b=11, d=2, w=1))
    sup = 0.0
    for agg in haar_levels(p, cap):
        if max(agg.j) >= 0:
            assert agg.empty_count == 0
            _, mu = oracles.exact_mu_oracle(p, agg.j)
            sup = max(sup, float(np.abs(mu).max()) * float(p.b) ** (agg.total_level + p.n))
    assert abs(sup - exact) <= 1e-15 * exact
    assert abs(coeff_bound_audit(p, cap=cap).const_small_levels - sup) <= 1e-15 * sup


def test_audit_passes_where_b_to_the_level_exceeds_int64():
    # b^j_i >= 2^63 from j_i = 9 on: the audit up to cap 10 runs past int64
    p = PointSet(131, 2, 1, np.arange(131**2)[:, None])
    assert coeff_bound_audit(p, cap=10).passed


def test_audit_occupancy_holds_on_every_net_of_the_suite():
    # a (0, n, d)-net holds b^(n - |j|) points in each box of volume b^-|j|
    # and at most one when |j| >= n, so no box of a swept level holds more
    # interior points than b^max(n - |j|, 0), and the audit passes; the
    # bound is tight, as the level (-1, ..., -1) holds all N = b^n points
    nets = [hammersley(n) for n in range(1, 9)] + [balanced_hammersley(n) for n in range(1, 11)]
    nets += [cs_point_set(CSParams(b=b, d=d, w=w)) for b, d, w in [(11, 2, 1), (3, 1, 2), (2, 1, 3), (2, 1, 1)]]
    nets.append(PointSet(131, 2, 1, np.arange(131**2)[:, None]))
    for p in nets:
        rep = coeff_bound_audit(p, cap=min(p.n + 2, 6))
        assert rep.occupancy_ok and rep.passed, (p.b, p.n, p.d)
        full = next(haar_levels(p))
        assert full.j == (-1,) * p.d and int(full.counts.max()) == p.size == p.b**p.n


def test_audit_occupancy_fails_past_the_net_bound():
    # a seeded random set of 2^10 points at b = 2, d = 2, a net with one
    # point doubled and one with a point moved: a box holds more points than
    # a net's would
    p = PointSet(2, 10, 2, np.random.default_rng(12).integers(0, 2**10, size=(2**10, 2)))
    rep = coeff_bound_audit(p)
    assert not rep.occupancy_ok and rep.part_iii_ok and not rep.passed
    net = hammersley(6)
    doubled = PointSet(2, 6, 2, np.vstack([net.numerators, net.numerators[5:6]]))
    assert coeff_bound_audit(net).passed and not coeff_bound_audit(doubled).occupancy_ok
    # the CS net b = 11, d = 2 with one point moved next to another, into
    # the interior of its box of level (2, 2), |j| = n, which held only it
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    nums = cs.numerators.copy()
    a = next(i for i, row in enumerate(nums) if all(1 <= k % 121 <= 119 for k in row))
    nums[(a + 1) % len(nums)] = nums[a] + 1
    moved = coeff_bound_audit(PointSet(11, 4, 2, nums), cap=2)
    assert not moved.occupancy_ok and not moved.passed and coeff_bound_audit(cs, cap=2).passed


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


def test_audit_keeps_one_level_alive(peak_bytes):
    # the audit drops each level before the sweep builds the next one, so its
    # peak stays below two of the largest level's mu array
    p = cs_point_set(CSParams(b=11, d=2, w=1))
    largest = _largest_mu_bytes(p)
    assert peak_bytes(coeff_bound_audit, p) <= 2 * largest


def test_audit_and_besov_peak_below_the_largest_full_width_mu_array(peak_bytes):
    # mu is read at one l-combination of each conjugate pair, a level with a
    # multi-point box as one block, so neither peak reaches one level's mu
    # array at every l-combination (23 MB at CS-11; whole arrays peaked at
    # 37 and 48 MB).  The sweep holds the prefix's running sums, one block
    # of box sums and DFT factors per offset where there are fewer offsets
    # than rows, and takes mu's DFT without whole-level copies: on fresh
    # sets the audit, Besov and Parseval peak at 6.26, 6.24 and 5.34 MiB on
    # CS-11 and 14.56, 14.53 and 10.12 MiB on CS-13 (9.94, 9.91, 6.36 and
    # 22.76, 22.73, 14.58 MiB with per-row factors and whole-level box
    # sums).  On 200 points at b = 19, n = 6 the factors of the levels
    # j_i <= 4 stay per row, as their b^(6 - j_i) offsets outnumber the
    # rows: a table of 19^3 offsets alone would take 2 MB, one of 19^6
    # offsets 13.5 GB
    MiB = 2**20
    besov = lambda p: haar_norms(p, BesovParams(1.5, 3, 0.3))
    parseval = lambda p: haar_norms(p, PARSEVAL)
    cs = lambda b: cs_point_set(CSParams(b=b, d=2, w=1))
    for b, bounds in [(11, (6.5, 6.5, 6.0)), (13, (15, 15, 11))]:
        peaks = [peak_bytes(run, cs(b)) for run in (coeff_bound_audit, besov, parseval)]
        assert all(peak <= bound * MiB for peak, bound in zip(peaks, bounds)), (b, peaks)
        if b == 11:
            assert max(peaks[:2]) < _largest_mu_bytes(cs(11))
    sparse = lambda: PointSet(19, 6, 2, np.random.default_rng(0).integers(0, 19**6, size=(200, 2)))
    assert peak_bytes(coeff_bound_audit, sparse()) <= 2.5 * MiB
    assert peak_bytes(besov, sparse()) <= 2.5 * MiB


def test_norms_read_mu_only_through_the_level_aggregate(monkeypatch):
    # the audit and Besov leave mu's block and conjugate-column layout to
    # `LevelAggregate`: they read it through `sups` and `mass` alone
    import qmcnet.haar as haar

    source = Path(norms.__file__).read_text()
    assert "mu_blocks" not in source and ".volume" not in source
    inside = []

    def within(method):
        def wrapped(self, *args):
            inside.append(method.__name__)
            try:
                return method(self, *args)
            finally:
                inside.pop()

        return wrapped

    mu_blocks = haar.LevelAggregate.mu_blocks

    def guarded(self):
        if not inside:
            raise AssertionError(f"mu of level {self.j} read outside sups and mass")
        return mu_blocks(self)

    for name in ("sups", "mass"):
        monkeypatch.setattr(haar.LevelAggregate, name, within(getattr(haar.LevelAggregate, name)))
    monkeypatch.setattr(haar.LevelAggregate, "mu_blocks", guarded)
    repeated_and_grid = PointSet(3, 2, 2, np.array([[0, 0], [3, 6], [3, 6], [1, 4], [8, 2], [4, 3]]))
    for p in (hammersley(6), cs_point_set(CSParams(b=3, d=1, w=2)), repeated_and_grid):
        assert coeff_bound_audit(p).passed
        for power in (1.5, math.inf):
            assert haar_norms(p, BesovParams(power, 2, 0.25))[1].value > 0
    with pytest.raises(AssertionError, match="outside sups and mass"):
        next(haar_levels(hammersley(2))).mu_blocks()


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
    # scanned from the points alone, whatever the provenance
    for fam in (hammersley, shifted_hammersley, balanced_hammersley):
        check = is_net(PointSet(2, 5, 2, fam(5).numerators))
        assert check.ok and check.route == "points"


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


@pytest.mark.parametrize(
    "family",
    [hammersley, shifted_hammersley, balanced_hammersley, lambda n: hammersley(n)],
    ids=["hammersley", "shifted_hammersley", "balanced_hammersley", "lambda"],
)
def test_pooled_scaling_rows_equal_in_process_rows(family, monkeypatch):
    params, kinds = BesovParams(2, 2, 0.25), ("l2", "parseval", "besov")
    monkeypatch.setattr(norms, "_usable_cpus", lambda: 1)
    serial = scaling_table(family, [6, 4, 5], params, kinds)
    forked = []
    spy = norms._forked_values
    monkeypatch.setattr(norms, "_forked_values", lambda *a: forked.append(a) or spy(*a))
    monkeypatch.setattr(norms, "_usable_cpus", lambda: 3)
    pooled = scaling_table(family, [6, 4, 5], params, kinds)
    assert [sizes for _, sizes, _ in forked] == [[6, 4, 5]]
    assert [r.n for r in pooled.rows] == [6] * 3 + [4] * 3 + [5] * 3
    # repr round-trips a float, so equal CSV text is equal floats
    assert pooled.csv() == serial.csv()
    assert multiprocessing.active_children() == []


def test_unknown_kind_is_rejected_before_any_point_set_is_built():
    built = []

    def family(n):
        built.append(n)
        return hammersley(n)

    with pytest.raises(InvalidParams, match="unknown norm kind 'nope'"):
        scaling_table(family, [4, 5], BesovParams(2, 2, 0.25), ("parseval", "nope"))
    assert built == []


def test_pooled_scaling_raises_the_first_failing_size_in_the_callers_order(monkeypatch):
    # 6 is submitted, and fails, first; the caller's order puts 4 before it
    def family(n):
        if n == 4:
            raise InvalidRange("size 4 is out of range")
        if n == 6:
            raise InvalidParams("size 6 is invalid")
        return hammersley(n)

    monkeypatch.setattr(norms, "_usable_cpus", lambda: 2)
    with pytest.raises(InvalidParams) as caught:
        scaling_table(family, [3, 4, 6], BesovParams(2, 2, 0.25))
    assert type(caught.value) is InvalidRange
    assert str(caught.value) == "size 4 is out of range"
    assert multiprocessing.active_children() == []


def test_a_dead_worker_is_a_size_overflow_naming_its_size(monkeypatch):
    parent = os.getpid()

    def family(n):
        if n == 5 and os.getpid() != parent:
            os._exit(1)
        return hammersley(n)

    monkeypatch.setattr(norms, "_usable_cpus", lambda: 2)
    with pytest.raises(SizeOverflow, match="^size n = 5: its worker process died"):
        scaling_table(family, [3, 4, 5, 6], BesovParams(2, 2, 0.25))
    assert multiprocessing.active_children() == []


def test_an_unpicklable_worker_exception_is_that_sizes_pickling_error(monkeypatch):
    # size 4's exception holds a lambda, so its worker cannot send it back:
    # the pool raises the pickling error in 4's place, ahead of 6's own
    # error and not as a dead worker
    def family(n):
        if n == 4:
            exc = InvalidParams("size 4 is invalid")
            exc.hook = lambda: None
            raise exc
        if n == 6:
            raise InvalidParams("size 6 is invalid")
        return hammersley(n)

    monkeypatch.setattr(norms, "_usable_cpus", lambda: 2)
    with pytest.raises(AttributeError, match="^Can't pickle local object .*<lambda>"):
        scaling_table(family, [3, 4, 5, 6], BesovParams(2, 2, 0.25))
    assert multiprocessing.active_children() == []


def test_pooled_scaling_prints_pending_output_once(python):
    # a forked worker flushes its copy of the parent's stdout buffer on exit,
    # so the buffer must be flushed before each fork (multiprocessing's fork
    # start method does so)
    out = python(
        "import sys\n"
        "from qmcnet import norms\n"
        "from qmcnet.families import hammersley\n"
        "from qmcnet.haar import BesovParams\n"
        "norms._usable_cpus = lambda: 2\n"
        "sys.stdout.write('x')\n"
        "norms.scaling_table(hammersley, [3, 4, 5], BesovParams(2, 2, 0.25))\n"
    ).stdout
    assert out == "x"


def test_cli_import_loads_no_process_pool(python):
    out = python(
        "import sys, qmcnet.cli\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
    ).stdout
    assert out == "[]\n"


def test_scaling_parseval_row_is_in_norm_units():
    # the row reports ||D||_2, so its tail is that of the root, not of ||D||_2^2
    params = BesovParams(2, 2, 0.25)
    (row,) = scaling_table(hammersley, [5], params, kinds=("parseval",)).rows
    pv, _ = haar_norms(hammersley(5), params)
    assert row.value == math.sqrt(pv.value)
    upper = (row.value + row.tail_bound) ** 2
    assert upper == pytest.approx(pv.value + pv.tail_bound, rel=1e-15)
