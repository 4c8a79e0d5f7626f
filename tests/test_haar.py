import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    _exact_box_tensors,
    box_sums_oracle,
    discrepancy_coeff,
    exact_mu_oracle,
    indicator_coeff_oracle,
    joined_mu_blocks,
    level_aggregate_oracle,
    level_mass_exact,
    level_prefix_order_oracle,
    per_row_sups_oracle,
    point_factors_oracle,
    volume_coeff_oracle,
)
from qmcnet.cs import CSParams, cs_point_set
from qmcnet.errors import InvalidParams
from qmcnet.field import roots_of_unity
from qmcnet.families import balanced_hammersley
from qmcnet.haar import (
    PARSEVAL,
    BesovParams,
    HaarIndex,
    LevelAggregate,
    Offsets,
    _helmert_dft,
    _helmert_weights,
    _offsets,
    _point_factors,
    _single_point_masses,
    _volume,
    besov_quasi_norm,
    haar_levels,
    haar_norms,
    indicator_coeff,
    level_aggregate,
    level_prefix,
    levels_up_to,
    parseval_l2,
    volume_coeff,
)
from qmcnet.nets import GeneratingMatrices, PointSet, generate_points
from qmcnet.norms import warnock_l2_sq


def hammersley(n, b=2):
    ident = np.eye(n, dtype=np.int64)
    g = GeneratingMatrices(b, n, 2, np.stack([ident, np.fliplr(ident).copy()]))
    return generate_points(g)


def random_index(rng, b, d, max_level):
    j, m, l = [], [], []
    for _ in range(d):
        ji = int(rng.integers(-1, max_level + 1))
        j.append(ji)
        m.append(int(rng.integers(0, b**ji)) if ji >= 0 else 0)
        l.append(int(rng.integers(1, b)) if ji >= 0 else 1)
    return HaarIndex(tuple(j), tuple(m), tuple(l))


def test_index_validation():
    with pytest.raises(InvalidParams):
        HaarIndex((0,), (2,), (1,)).validate(2)
    with pytest.raises(InvalidParams):
        HaarIndex((-1,), (1,), (1,)).validate(2)
    with pytest.raises(InvalidParams):
        HaarIndex((1,), (0,), (3,)).validate(3)
    HaarIndex((1, -1), (2, 0), (1, 1)).validate(3)


def test_volume_coeff_hand_values():
    assert volume_coeff(HaarIndex((0,), (0,), (1,)), 2) == pytest.approx(-0.25)
    assert volume_coeff(HaarIndex((-1, -1), (0, 0), (1, 1)), 2) == pytest.approx(
        0.25
    )


def test_volume_coeff_vs_oracle_randomized():
    rng = np.random.default_rng(1)
    for b in (2, 3, 5):
        for d in (1, 2, 3):
            for _ in range(10):
                idx = random_index(rng, b, d, 3)
                assert volume_coeff(idx, b) == pytest.approx(
                    volume_coeff_oracle(idx, b), abs=1e-12
                )


def test_volume_coeff_reads_no_volume_table():
    # the scalar closed form is O(d); the sweep's (b-1)^s table of `_volume`
    # is neither built nor read by it
    before = _volume.cache_info()
    rng = np.random.default_rng(4)
    for b in (2, 3, 5, 11):
        for d in (1, 2, 3):
            for _ in range(10):
                volume_coeff(random_index(rng, b, d, 4), b)
    assert _volume.cache_info() == before


def test_indicator_coeff_vs_oracle_randomized():
    rng = np.random.default_rng(2)
    for b in (2, 3, 5):
        for d in (1, 2, 3):
            for _ in range(10):
                idx = random_index(rng, b, d, 3)
                z = tuple(
                    Fraction(int(rng.integers(0, b**5)), b**5) for _ in range(d)
                )
                assert indicator_coeff(z, idx, b) == pytest.approx(
                    indicator_coeff_oracle(z, idx, b), abs=1e-12
                )


def test_indicator_level_minus_one_keeps_boundary():
    # the (1 - z) factor applies even at z = 0 where the box test would fail
    idx = HaarIndex((-1,), (0,), (1,))
    assert indicator_coeff((Fraction(0),), idx, 2) == pytest.approx(1.0)


def test_discrepancy_coeff_single_point():
    p = PointSet(2, 1, 1, np.array([[0]]))
    idx = HaarIndex((-1,), (0,), (1,))
    # spec example: mu = E chi - volume coeff = 1 - 1/2
    assert discrepancy_coeff(p, idx) == pytest.approx(0.5)
    agg = level_aggregate(p, (-1,), level_prefix(p, ()))
    assert joined_mu_blocks(agg)[0, 0] == pytest.approx(0.5)


def test_level_aggregate_matches_direct_coefficients():
    p = hammersley(3)
    b = p.b
    for j in [(-1, -1), (0, -1), (1, 1), (2, 0), (4, 0), (2, 3)]:
        agg = level_aggregate(p, j, level_prefix(p, j[:-1]))
        box_ids, _ = level_aggregate_oracle(p, j)
        assert agg.occupied == box_ids.size
        mu = joined_mu_blocks(agg)
        # every occupied box must agree with the direct per-index computation
        for row, box in enumerate(box_ids):
            m = []
            rem = int(box)
            for i in reversed([i for i, v in enumerate(j) if v >= 0]):
                m_i = rem % b ** j[i]
                rem //= b ** j[i]
                m.insert(0, m_i)
            for ci, combo in enumerate(agg.l_combos):
                mm, ll, it = [], [], iter(zip(m, combo))
                for ji in j:
                    if ji >= 0:
                        mi, li = next(it)
                        mm.append(mi)
                        ll.append(li)
                    else:
                        mm.append(0)
                        ll.append(1)
                idx = HaarIndex(tuple(j), tuple(mm), tuple(ll))
                direct = discrepancy_coeff(p, idx)
                assert abs(direct - mu[row, ci]) < 1e-12
                assert agg.volume[ci] == volume_coeff(idx, b)


def test_level_aggregate_empty_boxes_carry_volume_only():
    p = hammersley(2)
    agg = level_aggregate(p, (3, 3), level_prefix(p, (3,)))  # deeper than n
    assert agg.occupied == 0
    idx = HaarIndex((3, 3), (1, 2), (1, 1))
    assert discrepancy_coeff(p, idx) == pytest.approx(-volume_coeff(idx, 2))


def test_box_sums_of_a_level_without_occupied_boxes_are_empty():
    # both points sit on the grid of level (-1, 1) in coordinate 2, so no box
    # is occupied: the sums are an empty ((b-1)^s, 0) integer array, and
    # mass(2) reads them like any other level's
    p = PointSet(2, 2, 2, [[0, 0], [2, 2]])
    for j in [(-1, 1), (1, 1), (-1, 2)]:
        agg = level_aggregate(p, j, level_prefix(p, j[:-1]))
        assert agg.occupied == 0
        A = agg.box_sums
        assert A.shape == ((p.b - 1) ** agg.s, 0) and A.dtype.kind == "i"
        assert agg.mass(2) == level_mass_exact(p, j)


@pytest.fixture(scope="module")
def cs11_oracle():
    """The CS net b=11 d=2 w=1 and `level_aggregate_oracle` on all 25 levels."""
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    return cs, {j: level_aggregate_oracle(cs, j) for j in levels_up_to(cs.n - 1, 2)}


def _assert_matches_oracle(p, levels, oracle=level_aggregate_oracle):
    for j in levels:
        agg = level_aggregate(p, j, level_prefix(p, j[:-1]))
        box_ids, mu = oracle(p, j)
        joined = joined_mu_blocks(agg)
        assert agg.occupied == box_ids.size
        # the representative l-combinations, one of each conjugate pair
        mu = mu[:, : agg.columns]
        assert joined.shape == mu.shape
        scale = max(np.abs(mu).max(initial=0.0), np.abs(agg.volume).max())
        assert np.abs(joined - mu).max(initial=0.0) <= 1e-12 * scale


def test_level_aggregate_matches_unique_add_at_oracle(cs11_oracle):
    for n in range(3, 7):
        _assert_matches_oracle(hammersley(n), levels_up_to(n, 2))
    cs, refs = cs11_oracle
    _assert_matches_oracle(cs, refs, lambda p, j: refs[j])  # all 25 levels


@pytest.fixture(scope="module")
def repeated_and_grid_oracle():
    """Sets with duplicate and grid points, b in {2, 3, 5, 7} and d <= 3, each
    with `level_aggregate_oracle` on all its levels."""
    rng = np.random.default_rng(11)
    out = []
    for b in (2, 3, 5, 7):
        for d in (1, 2, 3):
            n = 3
            nums = rng.integers(0, b**n, size=(30, d))
            nums[5:10] = nums[0]  # duplicate points
            nums[10:15] //= b  # points on box boundaries of several levels
            nums[10:15] *= b
            nums[15:18] = 0
            p = PointSet(b, n, d, nums)
            out.append((p, {j: level_aggregate_oracle(p, j) for j in levels_up_to(n, d)}))
    return out


def _assert_box_sums_match(p, levels, oracle=level_aggregate_oracle):
    """box_sums == `box_sums_oracle` and counts == its counts on each of
    `levels`, and the occupied boxes those of `oracle`, where given; returns
    the number of levels checked."""
    for j in levels:
        agg = level_aggregate(p, j, level_prefix(p, j[:-1]))
        counts, A = box_sums_oracle(p, j)
        assert np.array_equal(agg.counts, counts), (p.b, p.n, p.d, j)
        assert agg.box_sums.shape == A.shape and np.array_equal(agg.box_sums, A), (p.b, p.n, p.d, j)
        assert (agg.box_sums.dtype == object) == (A.dtype == object)
        if oracle is not None:
            assert agg.occupied == oracle(p, j)[0].size
    return len(levels)


def test_box_sums_match_the_per_row_product(cs11_oracle, repeated_and_grid_oracle):
    # the running-sum box sums equal the per-row product summed box by box,
    # exactly, and the interior counts and occupied boxes those of the
    # oracles, on every level in {-1..n}^d: Hammersley n <= 8, balanced
    # Hammersley n = 10, CS (3,1,2), the d = 3 set of
    # `test_haar_levels_sorts_once_per_head` and the sets with duplicate and
    # edge points; on CS-11's 25 swept levels
    checked = 0
    sets = [hammersley(n) for n in range(1, 9)] + [balanced_hammersley(10)]
    sets += [cs_point_set(CSParams(b=3, d=1, w=2)), PointSet(3, 2, 3, np.arange(27).reshape(9, 3) % 9)]
    for p in sets:
        checked += _assert_box_sums_match(p, list(levels_up_to(p.n, p.d)))
    for p, refs in repeated_and_grid_oracle:
        checked += _assert_box_sums_match(p, list(refs), lambda p, j: refs[j])
    cs, refs = cs11_oracle
    checked += _assert_box_sums_match(cs, list(refs), lambda p, j: refs[j])
    assert checked == sum((n + 2) ** 2 for n in range(1, 9)) + 12**2 + 6 + 4**3 + 4 * (5 + 5**2 + 5**3) + 25


@pytest.mark.parametrize("entries", [1, 40])
def test_box_sums_block_by_block_match_the_oracle(entries, monkeypatch, repeated_and_grid_oracle):
    # with one box per block, or a few, every level with two boxes or more
    # takes several blocks, some of them holding boxes of edge rows alone,
    # in int64 and in Python ints
    monkeypatch.setattr("qmcnet.haar._BOX_ENTRIES", entries)
    for p, refs in repeated_and_grid_oracle:
        _assert_box_sums_match(p, list(refs), lambda p, j: refs[j])
    p = PointSet(3, 21, 2, np.random.default_rng(3).integers(0, 3**21, size=(20, 2)))
    _assert_box_sums_match(p, list(levels_up_to(p.n, 2)), None)
    p = cs_point_set(CSParams(b=3, d=1, w=2))
    _assert_box_sums_match(p, list(levels_up_to(p.n, p.d)))


def test_box_sums_past_int64():
    # N b^(nd) >= 2^63: the running sums and the box sums are Python ints,
    # equal to the per-row product's, on every level in {-1..n}^2 of a
    # 20-point set at b = 3, n = 21, and on levels of every kind of the
    # 200-point set of `test_occupied_boxes_counted_beyond_int64` (b = 19,
    # d = 3; all of its 512 levels in Python ints would take minutes)
    p = PointSet(3, 21, 2, np.random.default_rng(3).integers(0, 3**21, size=(20, 2)))
    assert p.size * p.denominator**2 >= 2**63
    assert _assert_box_sums_match(p, list(levels_up_to(p.n, 2)), None) == 23**2
    b, n = 19, 6
    p = PointSet(b, n, 3, np.random.default_rng(0).integers(0, b**n, size=(200, 3)))
    levels = [(5, 5, 5), (0, 2, 4), (-1, 3, 5), (2, -1, 1), (6, 0, 0), (-1, -1, -1), (1, 1, -1), (-1, -1, 6)]
    _assert_box_sums_match(p, levels, None)


def test_level_aggregate_matches_oracle_on_repeated_and_grid_points(
    repeated_and_grid_oracle,
):
    edge_only = 0
    for p, refs in repeated_and_grid_oracle:
        _assert_matches_oracle(p, refs, lambda p, j: refs[j])
        # on a level of single-point boxes `sel` holds each box's last row:
        # its interior point, one per box in box order, as the oracle's rule
        # (k_i % b^(n - j_i) != 0 in every active coordinate) finds it
        for j in refs:
            agg = level_aggregate(p, j, level_prefix(p, j[:-1]))
            if agg.counts.max(initial=0) > 1:
                continue
            interior, box = np.ones(p.size, dtype=bool), np.zeros(p.size, dtype=np.int64)
            for i, ji in enumerate(j):
                if ji >= p.n:
                    interior[:] = False
                elif ji >= 0:
                    step = p.b ** (p.n - ji)
                    interior &= p.numerators[:, i] % step != 0
                    box = box * p.b**ji + p.numerators[:, i] // step
            at = agg.prefix.idx[agg.sel]
            assert np.array_equal(np.sort(at), np.flatnonzero(interior)), (p.b, p.d, j)
            assert np.all(np.diff(box[at]) > 0), (p.b, p.d, j)
            edge_only += agg.occupied < agg.interior.size
    assert edge_only  # levels where some box holds edge rows alone


def _small_sets(repeated_and_grid_oracle):
    """The Hammersley sets n = 3..6, the repeated-and-grid sets, CS (3,1,2)
    and CS (2,1,3)."""
    sets = [hammersley(n) for n in range(3, 7)] + [p for p, _ in repeated_and_grid_oracle]
    return sets + [cs_point_set(CSParams(b=3, d=1, w=2)), cs_point_set(CSParams(b=2, d=1, w=3))]


@pytest.fixture(scope="module")
def default_mu(repeated_and_grid_oracle):
    """mu at the default block size on every level with all j_i <= n of
    CS-11 and the `_small_sets`."""
    sets = [cs_point_set(CSParams(b=11, d=2, w=1))] + _small_sets(repeated_and_grid_oracle)
    return [(p, {j: joined_mu_blocks(level_aggregate(p, j, level_prefix(p, j[:-1])))
                 for j in levels_up_to(p.n, p.d)}) for p in sets]


@pytest.mark.parametrize("entries", [None, 500, 7])
def test_mu_blocks_join_to_the_oracle_at_any_block_size(default_mu, entries, monkeypatch):
    # the reference is mu at the default block size, read again here with
    # the caches built.  A level with a multi-point box is one block, and
    # the DFT factors of a single-point level are built once per prefix or
    # level, never per block: so a smaller block keeps every bit.  CS-11 at
    # 7 entries (one box per block) is left out for time; 500 entries is 5
    # of its rows.
    if entries is not None:
        monkeypatch.setattr("qmcnet.haar._MU_ENTRIES", entries)
    split = 0
    for p, refs in default_mu:
        if entries == 7 and p.size > 1000:
            continue
        for j, ref in refs.items():
            agg = level_aggregate(p, j, level_prefix(p, j[:-1]))
            blocks = list(agg.mu_blocks()) or [np.empty((0, agg.columns), complex)]
            assert np.array_equal(np.concatenate(blocks), ref), (p.b, p.n, p.d, j)
            split += len(blocks) > 1
    assert entries is None or split > 0


def _helmert_coordinates(Y, b, s):
    """Y (boxes, b^s) of Python ints as its Helmert coordinates along every
    axis, G_h = sum_(r<h) y_r - h y_h: (boxes, (b-1)^s), first axis slowest."""
    E = np.zeros((b, b - 1), dtype=object)
    for h in range(1, b):
        E[:h, h - 1], E[h, h - 1] = 1, -h
    G = Y.reshape((len(Y),) + (b,) * s)
    for axis in range(1, s + 1):
        G = np.moveaxis(np.tensordot(G, E, axes=([axis], [0])), -1, axis)
    return G.reshape(len(Y), (b - 1) ** s)


def _mu_error_bound(p, agg):
    """(mu of `exact_mu_oracle` at agg.columns, an a-priori bound on its
    distance from the sweep's mu), with k = s (b + 2) + 4 and u = 2^-53.

    The sweep's mu is one float DFT of X, each box's Helmert tensor less the
    volume: it is within k u (|X| contracted with |T| along every axis) of
    the exact mu, T = `_helmert_dft`.  On a single-point level mu is the
    rank-1 product of the points' part of X, less the volume after it, so
    there |X| is that part and |volume| adds.  The oracle rounds X once and
    takes one DFT of unit roots over the b^s cells: k u sum_cells |X|.
    """
    b, s, columns = p.b, agg.s, agg.columns
    _, Y, Y0, den = _exact_box_tensors(p, agg.j)
    _, exact = exact_mu_oracle(p, agg.j)
    single = agg.counts.max(initial=0) == 1
    spread = np.abs(_helmert_coordinates(Y - Y0 if single else Y, b, s).astype(float)) / den
    spread = spread.reshape((len(Y),) + (b - 1,) * s)
    for axis in range(1, s + 1):
        spread = np.moveaxis(np.tensordot(spread, np.abs(_helmert_dft(b)), axes=([axis], [0])), -1, axis)
    spread = spread.reshape(len(Y), (b - 1) ** s)[:, :columns]
    if single:
        spread = spread + np.abs(agg.volume[:columns])
    cells = np.abs(Y.astype(float)).sum(axis=1, keepdims=True) / den
    k, u = s * (b + 2) + 4, 2.0**-53
    return exact[:, :columns], k * u * spread + k * u * cells


def test_mu_against_the_exact_mu_within_its_a_priori_bound(repeated_and_grid_oracle):
    # on every level of the `_small_sets` with an interior point (all
    # j_i <= n - 1) and on CS-11's levels with |j| <= 2, where a few boxes
    # hold thousands of points
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    levels = [(p, agg) for p in _small_sets(repeated_and_grid_oracle) for agg in haar_levels(p)]
    levels += [(cs, agg) for agg in haar_levels(cs, 2) if agg.total_level <= 2]
    kinds = set()
    for p, agg in levels:
        exact, bound = _mu_error_bound(p, agg)
        mu = joined_mu_blocks(agg)
        assert mu.shape == exact.shape
        assert np.all(np.abs(mu - exact) <= bound), (p.b, p.n, p.d, agg.j)
        kinds.add((agg.s > 0, agg.counts.max(initial=0) > 1))
    assert kinds == {(False, True), (True, False), (True, True)}


def test_mu_is_zero_where_the_exact_mass_is_zero():
    # X is then exactly 0 in integers and the DFT keeps it so; at b = 2 the
    # roots are real, so a single-point level's product less the volume
    # cancels exactly too.  Float box sums and complex roots at b = 2 left
    # these mu as rounding noise up to 3e-17.
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    levels = [(cs, agg) for agg in haar_levels(cs, 2) if agg.total_level <= 2]
    for params in [(3, 1, 2), (2, 1, 3), (2, 1, 1)]:
        p = cs_point_set(CSParams(*params))
        levels += [(p, agg) for agg in haar_levels(p)]
    for n in range(3, 7):
        p = hammersley(n)
        levels += [(p, agg) for agg in haar_levels(p)]
    zero = [(p, agg) for p, agg in levels if level_mass_exact(p, agg.j) == 0]
    assert len(zero) == 13
    for p, agg in zero:
        assert np.all(joined_mu_blocks(agg) == 0), (p.b, p.n, p.d, agg.j)


def _oracle_mass(agg, mu):
    """Sigma |mu|^2 over the occupied boxes plus the empty boxes' volume mass."""
    vol = float(np.sum(agg.volume.real**2 + agg.volume.imag**2))
    return float(np.sum(mu.real**2 + mu.imag**2)) + (agg.n_boxes - mu.shape[0]) * vol


def test_plancherel_mass_matches_mu_on_repeated_and_grid_points(
    repeated_and_grid_oracle,
):
    for p, refs in repeated_and_grid_oracle:
        for j, (_, mu) in refs.items():
            agg = level_aggregate(p, j, level_prefix(p, j[:-1]))
            ref = _oracle_mass(agg, mu)
            assert abs(agg.mass(2) - ref) <= 1e-12 * ref, (p.b, j)


def test_plancherel_mass_on_every_cs11_level(cs11_oracle):
    # the 13 levels with |j| <= 2, where a few boxes hold thousands of
    # points and float sums cancel (the exact mass of (0, 0) is 0), equal
    # the exact mass; every other level is within 1e-12 of the oracle's
    # Sigma |mu|^2 or of its share b^-|j| ||D||^2 of Parseval's sum,
    # whichever is larger
    cs, refs = cs11_oracle
    l2_sq = warnock_l2_sq(cs)
    exact_levels = 0
    for j, (_, mu) in refs.items():
        agg = level_aggregate(cs, j, level_prefix(cs, j[:-1]))
        mass = agg.mass(2)
        assert isinstance(mass, Fraction)
        if agg.total_level <= 2:
            assert mass == level_mass_exact(cs, j), j
            exact_levels += 1
        else:
            ref = Fraction(_oracle_mass(agg, mu))
            scale = max(ref, l2_sq / cs.b**agg.total_level)
            assert abs(mass - ref) <= Fraction(1e-12) * scale, j
    assert exact_levels == 13


def test_one_box_mu_against_the_exact_box_tensor():
    # on the levels where one box holds all N points, the points' sums
    # cancel to a small mu, which `level_aggregate_oracle` holds only to
    # 1e-10; the sweep's mu is within the a-priori bound of the exact one
    # (4.6e-16 and 5.9e-16 of max|mu| measured; a float box sum was 3.7e-12
    # and 5.6e-12 off)
    for b in (11, 13):
        cs = cs_point_set(CSParams(b=b, d=2, w=1))
        for j in [(-1, 0), (0, -1)]:
            agg = level_aggregate(cs, j, level_prefix(cs, j[:-1]))
            assert agg.occupied == 1
            mu, bound = _mu_error_bound(cs, agg)
            assert np.all(np.abs(joined_mu_blocks(agg) - mu) <= bound), (b, j)
            assert bound.max() <= 1e-13 * np.abs(mu).max(), (b, j)


@pytest.mark.parametrize("power", [1.0, 1.5, 3.0, math.inf])
def test_mass_off_p2_matches_the_full_width(cs11_oracle, repeated_and_grid_oracle, power):
    # mu_blocks yields one l-combination of each conjugate pair, so at odd b
    # mass(p) must count the occupied boxes twice: here against every
    # l-combination of `level_aggregate_oracle`, on every level with all
    # j_i <= n.  Where one box holds most points, mu is a small difference
    # of its summands and the oracle's own mu is off by up to 1e-10 of it
    # (CS-11 levels (-1, 0), (0, -1), (0, 0)).  So the bound is 1e-12 of the
    # mass, or what the 1e-12 * scale bound on each mu allows, whichever is
    # larger: p * scale * sum |mu|^(p-1), and scale for a sup.
    cs, refs = cs11_oracle
    cs312 = cs_point_set(CSParams(b=3, d=1, w=2))
    sets = [(cs, {j: refs.get(j) or level_aggregate_oracle(cs, j) for j in levels_up_to(cs.n, 2)})]
    sets.append((cs312, {j: level_aggregate_oracle(cs312, j) for j in levels_up_to(cs312.n, 1)}))
    for p, levels in sets + repeated_and_grid_oracle:
        for j, (_, mu) in levels.items():
            agg = level_aggregate(p, j, level_prefix(p, j[:-1]))
            vol = np.abs(agg.volume)
            scale = max(np.abs(mu).max(initial=0.0), vol.max())
            if math.isinf(power):
                ref = max(np.abs(mu).max(initial=0.0), vol.max() if agg.empty_count else 0.0)
                allowed = scale
            else:
                ref = np.sum(np.abs(mu) ** power) + agg.empty_count * np.sum(vol**power)
                allowed = power * scale * np.sum(np.abs(mu) ** (power - 1))
            assert abs(agg.mass(power) - ref) <= 1e-12 * max(ref, allowed), (p.b, p.d, j)
            if p.b > 2 and mu.size:  # l and b - l: columns c and last - c
                assert np.abs(mu - np.conj(mu[:, ::-1])).max() <= 1e-12 * scale, (p.b, j)


def test_mu_of_multi_point_levels_comes_from_box_tensors(monkeypatch, record_builds):
    # on CS-11 the audit builds `box_sums` once on each of its 19 levels with
    # a multi-point box (s = 0 among them) and forms the rank-1 `_terms`
    # product only on the 6 levels whose boxes hold one point each;
    # `haar_norms` at p = 2 builds
    # `box_sums` only in `mass(2)`, once per multi-point level.  No row
    # sum runs through `np.add.reduceat`: the box sums are differences of
    # the prefix's running sums.  mu is read at one l-combination of each
    # conjugate pair: (b-1)^s / 2 columns at b = 11, the one l-combination
    # at b = 2
    import qmcnet.haar as haar
    from qmcnet.norms import coeff_bound_audit

    class Add:
        def reduceat(self, a, *args, **kwargs):
            raise AssertionError("a row sum by np.add.reduceat")

    class NumPy:  # numpy, but for np.add.reduceat
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    box_levels, terms_levels, widths, in_mass = [], [], {}, []
    terms = haar.LevelAggregate._terms
    mu_blocks, mass = haar.LevelAggregate.mu_blocks, haar.LevelAggregate.mass

    def counted_terms(self, *args):
        terms_levels.append(self.j)
        return terms(self, *args)

    def counted_blocks(self):
        for block in mu_blocks(self):
            widths.setdefault((self.b, self.s), set()).add(block.shape[1])
            yield block

    def counted_mass(self, p):
        in_mass.append(p)
        try:
            return mass(self, p)
        finally:
            in_mass.pop()

    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    levels = [(agg.j, agg.counts.max() == 1) for agg in haar.haar_levels(cs)]
    multi = [j for j, single in levels if not single]
    assert len(multi) == 19 and len(levels) == 25
    monkeypatch.setattr(haar, "np", NumPy())
    record_builds(haar.LevelAggregate, "box_sums", lambda agg: box_levels.append((agg.j, bool(in_mass))))
    monkeypatch.setattr(haar.LevelAggregate, "_terms", counted_terms)
    monkeypatch.setattr(haar.LevelAggregate, "mu_blocks", counted_blocks)
    monkeypatch.setattr(haar.LevelAggregate, "mass", counted_mass)
    assert coeff_bound_audit(cs).passed
    assert box_levels == [(j, False) for j in multi]
    assert set(terms_levels) == {j for j, single in levels if single}
    assert widths == {(11, 0): {1}, (11, 1): {5}, (11, 2): {50}}
    box_levels.clear()
    haar.haar_norms(cs, PARSEVAL)
    assert box_levels == [(j, True) for j in multi]
    widths.clear()
    assert coeff_bound_audit(hammersley(6)).passed
    assert widths == {(2, 0): {1}, (2, 1): {1}, (2, 2): {1}}


@pytest.mark.parametrize("power", [1.5, math.inf])
def test_box_sums_are_built_once_per_level(power, record_builds):
    # off p = 2 `haar_norms` reads a multi-point level's box sums twice, in
    # `mass(2)` and in `mass(p)` through mu: on CS-11 they are built once on
    # each of the 19 multi-point levels (38 builds when each read built
    # them), as in the audit (`test_mu_of_multi_point_levels_comes_from_box_tensors`)
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    multi = [agg.j for agg in haar_levels(cs) if agg.counts.max() > 1]
    builds = []
    record_builds(LevelAggregate, "box_sums", lambda agg: builds.append(agg.j))
    haar_norms(cs, BesovParams(power, 2.0, 0.25))
    assert builds == multi and len(multi) == 19


def test_haar_norms_reads_mu_only_off_p2(monkeypatch):
    import qmcnet.haar as haar

    def unread(agg):
        raise AssertionError(f"mu of level {agg.j} was read")

    monkeypatch.setattr(haar.LevelAggregate, "mu_blocks", unread)
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    pv, bs = haar.haar_norms(cs, BesovParams(2.0, 2.0, 0.25))
    assert pv.value > 0 and bs.value > 0
    with pytest.raises(AssertionError, match="mu of level"):
        haar.haar_norms(cs, BesovParams(1.5, 2.0, 0.25))


def test_occupied_boxes_counted_beyond_int64():
    # b^|j| = 19^15 > 2^63: packed box ids would wrap in int64, and the runs
    # of the sorted prefix must still find each of the 173 boxes once
    b, n, j = 19, 6, (5, 5, 5)
    p = PointSet(b, n, 3, np.random.default_rng(0).integers(0, b**n, size=(200, 3)))
    agg = level_aggregate(p, j, level_prefix(p, j[:-1]))
    step = b ** (n - 5)
    expected = set()
    for row in p.numerators.tolist():
        if all(k % step for k in row):  # interior in every coordinate
            box = 0
            for k in row:
                box = box * b**5 + k // step
            expected.add(box)
    assert agg.occupied == len(expected) == 173


def test_haar_norms_reads_the_p2_mass_once_per_level(monkeypatch):
    import qmcnet.haar as haar

    calls = []
    mass = haar.LevelAggregate.mass

    def counted(self, p):
        calls.append(p)
        return mass(self, p)

    monkeypatch.setattr(haar.LevelAggregate, "mass", counted)
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    haar.haar_norms(cs, BesovParams(2.0, 2.0, 0.25))
    # one per level with a multi-point box, Parseval and Besov sharing it;
    # the 6 single-point levels, from (1, 3), (2, 2) and (3, 1) on in their
    # heads, come from the contraction
    single = {(1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)}
    assert calls == [2.0] * 19
    calls.clear()
    haar.haar_norms(cs, BesovParams(1.5, 2.0, 0.25))
    # Besov off p = 2 reads mu on every level
    expected = [[2.0, 1.5] if j not in single else [1.5] for j in levels_up_to(3, 2)]
    assert calls == sum(expected, [])


def test_haar_levels_sorts_once_per_head(monkeypatch):
    import qmcnet.haar as haar

    heads = []
    sort = haar.level_prefix

    def counted(p, head):
        heads.append(tuple(head))
        return sort(p, head)

    monkeypatch.setattr(haar, "level_prefix", counted)
    p = PointSet(3, 2, 3, np.arange(27).reshape(9, 3) % 9)
    levels = [agg.j for agg in haar.haar_levels(p)]
    assert levels == list(levels_up_to(1, 3))
    assert heads == list(levels_up_to(1, 2))


def test_level_prefix_rows_match_the_two_key_lexsort(repeated_and_grid_oracle):
    # the point set's cached k_d order, filtered to the head's interior
    # points and stably sorted by the head's box indices in their smallest
    # unsigned dtype, is one lexsort over (head boxes, k_d) row for row, on
    # every head of Hammersley n <= 8, balanced Hammersley n = 10, CS
    # (3,1,2), CS-11, the d = 3 set of `test_haar_levels_sorts_once_per_head`,
    # the `_random_sets` and the sets with duplicate and edge points; and on
    # hammersley(18) at head (17,), whose box indices pass 16 bits
    sets = [hammersley(n) for n in range(1, 9)] + [balanced_hammersley(10)]
    sets += [cs_point_set(CSParams(b=3, d=1, w=2)), cs_point_set(CSParams(b=11, d=2, w=1))]
    sets += [PointSet(3, 2, 3, np.arange(27).reshape(9, 3) % 9)] + _random_sets()
    sets += [p for p, _ in repeated_and_grid_oracle]
    heads = 0
    for p in sets:
        for head in levels_up_to(p.n, p.d - 1):
            idx = level_prefix(p, head).idx
            assert idx.dtype == np.intp, (p.b, p.n, p.d, head)
            assert np.array_equal(idx, level_prefix_order_oracle(p, head)), (p.b, p.n, p.d, head)
            heads += 1
    assert heads == sum((p.n + 2) ** (p.d - 1) for p in sets) == 590
    p = hammersley(18)
    assert np.array_equal(level_prefix(p, (17,)).idx, level_prefix_order_oracle(p, (17,)))


def test_helmert_coordinates_built_once_per_prefix_and_per_level(monkeypatch, record_builds):
    # over one CS-11 audit: a head coordinate's G once per prefix with
    # j_1 >= 0, for its running sums, and the per-row data of `_terms` only
    # on the 6 levels of single-point boxes: the last coordinate's G once on
    # each, and the head's again for its DFT factors on each head's first
    # such level ((1, 3), (2, 2) and (3, 1)); 4 + 6 + 3 builds.  The box
    # sums of the 19 other levels are read from the running sums, with no
    # per-row G.  `haar_norms` at p = 2 builds the prefixes' G alone and no
    # per-row data of any level; its contraction reads the closed-form
    # single-point factors and builds no G.  The k_d order is built once
    # for the point set, by the first prefix, and read by every later one
    import qmcnet.haar as haar
    from qmcnet.norms import coeff_bound_audit

    log = []  # [prefix head or level j, Helmert builds until the next entry]
    helmert, sort = haar.Offsets.helmert, haar.level_prefix
    aggregate, contract = haar.level_aggregate, haar._single_point_masses

    def counted(self, *args):
        log[-1][1] += 1
        return helmert(self, *args)

    def sorted_prefix(p, head):
        log.append([("prefix",) + tuple(head), 0])
        return sort(p, head)

    def level(p, j, prefix):
        log.append([tuple(j), 0])
        return aggregate(p, j, prefix)

    def contracted(p, levels):
        log.append([("contraction",), 0])
        return contract(p, levels)

    rows = []  # the per-row fields built, by level or head
    for name in ("sel", "base", "last"):
        record_builds(haar.LevelAggregate, name, lambda agg, name=name: rows.append((name, agg.j)))
    record_builds(haar.LevelPrefix, "dft", lambda prefix: rows.append(("dft", prefix.head)))
    orders = []
    record_builds(PointSet, "last_order", lambda p: orders.append(len(log)))
    monkeypatch.setattr(haar.Offsets, "helmert", counted)
    monkeypatch.setattr(haar, "level_prefix", sorted_prefix)
    monkeypatch.setattr(haar, "level_aggregate", level)
    monkeypatch.setattr(haar, "_single_point_masses", contracted)
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    single = [(1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
    first = [(1, 3), (2, 2), (3, 1)]
    expected = []
    for j1 in range(-1, 4):
        expected.append([("prefix", j1), int(j1 >= 0)])
        expected += [[(j1, j2), ((j1, j2) in single) + ((j1, j2) in first)] for j2 in range(-1, 4)]
    coeff_bound_audit(cs)
    assert log == expected
    assert sum(builds for _, builds in log) == 13
    assert orders == [1]  # in the first prefix
    for name in ("sel", "base", "last"):
        assert sorted(j for built, j in rows if built == name) == single
    assert [head for name, head in rows if name == "dft"] == [(1,), (2,), (3,)]
    log.clear()
    rows.clear()
    haar.haar_norms(cs, BesovParams(2.0, 2.0, 0.25))
    deeper = [[(2, 3), 0], [(3, 2), 0], [(3, 3), 0]]
    swept = [[j, builds if j[0] == "prefix" else 0] for j, builds in expected]
    assert log == [e for e in swept if e not in deeper] + [[("contraction",), 0]]
    assert rows == []
    assert orders == [1]


def _assert_sups_per_tuple(agg) -> bool:
    """sups == `per_row_sups_oracle` on the level `agg`; where `_tuple_rows`
    picks rows, they are the first row of each offset tuple, and every
    row's mu is that of its tuple's first row.  Returns whether it picked."""
    assert agg.sups() == per_row_sups_oracle(agg), agg.j
    rows = agg._tuple_rows()
    if rows is None:
        return False
    p = agg.prefix.p
    at = agg.prefix.idx[agg.sel]
    rems = np.stack([p.numerators[at, i] % p.b ** (p.n - ji) for i, ji in enumerate(agg.j)], axis=1)
    _, first, tuple_of = np.unique(rems, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(rows, np.sort(first)), agg.j
    mu = joined_mu_blocks(agg)
    assert np.array_equal(mu, mu[first[tuple_of.ravel()]]), agg.j
    return True


def _distinct_box_set(rng, b, n, d, size) -> PointSet:
    """`size` seeded points, each in its own box of level (j_1, n-1, ..., n-1)
    for every j_1 >= -1 (distinct box indices in the last d - 1
    coordinates), at interior offsets 1..b-1 on level n - 1 in every
    coordinate."""
    cells = b ** (n - 1)
    m = np.unravel_index(rng.choice(cells ** (d - 1), size, replace=False), (cells,) * (d - 1))
    m = np.stack([rng.integers(0, cells, size=size)] + list(m), axis=1)
    return PointSet(b, n, d, b * m + rng.integers(1, b, size=(size, d)))


def test_sups_once_per_offset_tuple_match_the_per_row_sups():
    # on a single-point level with every coordinate active, sups reads mu at
    # the first row of each offset tuple when that is cheaper, and every sup
    # is the per-row one as a float: CS-11's three sparse single-point
    # levels, on every level of CS-11, CS (3,1,2) and seeded b = 5, d = 3 sets
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    assert [agg.j for agg in haar_levels(cs) if _assert_sups_per_tuple(agg)] == [(2, 3), (3, 2), (3, 3)]
    assert not any(_assert_sups_per_tuple(agg) for agg in haar_levels(cs_point_set(CSParams(b=3, d=1, w=2))))
    rng = np.random.default_rng(1)
    for size in (300, 600, 600):
        p = _distinct_box_set(rng, 5, 3, 3, size)
        assert [agg.j for agg in haar_levels(p) if _assert_sups_per_tuple(agg)] == [(2, 2, 2)]
    # a coordinate at level -1: w is not 1, so the rule must not fire,
    # although its size test holds with b^n offsets in that coordinate:
    # 3^7 tuples times 4 columns plus 3100 rows < 3100 rows times 4 columns
    p = _distinct_box_set(rng, 3, 4, 4, 3100)
    agg = level_aggregate(p, (-1, 3, 3, 3), level_prefix(p, (-1, 3, 3)))
    assert agg.counts.max() == 1 and agg.occupied == 3100 and agg.columns == 4
    assert 3**7 * agg.columns + agg.occupied < agg.occupied * agg.columns
    assert not _assert_sups_per_tuple(agg)


def test_sups_per_tuple_never_at_b2(monkeypatch):
    # at b = 2 `columns` is 1, so T columns + rows < rows columns never
    # holds and the b = 2 audit reads mu row by row: the rule is asked on
    # every single-point level of hammersley(10) and balanced Hammersley
    # n = 12 and fires on none (on CS-11, where it does, on three)
    import qmcnet.haar as haar
    from qmcnet.norms import coeff_bound_audit

    asked = []
    tuple_rows = haar.LevelAggregate._tuple_rows

    def counted(agg):
        rows = tuple_rows(agg)
        asked.append((agg.j, rows is not None))
        return rows

    monkeypatch.setattr(haar.LevelAggregate, "_tuple_rows", counted)
    for p, fired in [(hammersley(10), []), (balanced_hammersley(12), []),
                     (cs_point_set(CSParams(b=11, d=2, w=1)), [(2, 3), (3, 2), (3, 3)])]:
        asked.clear()
        coeff_bound_audit(p)
        single = [agg.j for agg in haar_levels(p) if agg.occupied and agg.counts.max() == 1]
        assert len(single) > 10 or p.b == 11
        assert [j for j, _ in asked if j in single] == single
        assert [j for j, picked in asked if picked] == fired


def _affordable(p, agg) -> bool:
    """Whether `level_mass_exact` on this level stays cheap: at most 3000
    Fraction cells over the occupied boxes, and N b^(nd) < 2^63."""
    cells = (agg.occupied + 1) * p.b**agg.s
    return cells <= 3000 and p.size * p.b ** (p.n * p.d) < 2**63


def _assert_exact_masses(p):
    """mass(2) on every level with all j_i <= n is an exact Fraction and
    equals `level_mass_exact` wherever that is affordable; returns the
    levels checked against it and the kinds of level seen."""
    checked, kinds = 0, set()
    for head in levels_up_to(p.n, p.d - 1):
        prefix = level_prefix(p, head)
        for jd in range(-1, p.n + 1):
            agg = level_aggregate(p, head + (jd,), prefix)
            mass = agg.mass(2)
            assert isinstance(mass, Fraction) and mass >= 0, (p.b, agg.j)
            if _affordable(p, agg):
                assert mass == level_mass_exact(p, agg.j), (p.b, p.n, p.d, p.size, agg.j)
                checked += 1
            if agg.s:
                single = agg.counts == 1
                kinds.add((agg.occupied > 0, single.all(), not single.any()))
    return checked, kinds


def test_level_mass_is_exact(repeated_and_grid_oracle):
    """mass(2) equals the exact mass from explicit sub-cell tensors in
    Fractions on every affordable level with all j_i <= n: balanced
    Hammersley n = 10, Hammersley n = 5 (every level), the d = 3 set of
    `test_haar_levels_sorts_once_per_head`, a 30-point b = 3 multiset and
    the seeded sets with repeated and grid points.  CS-11's affordable
    levels all have |j| <= 2, which `test_plancherel_mass_on_every_cs11_level`
    checks."""
    sets = [
        balanced_hammersley(10),
        hammersley(5),
        PointSet(3, 2, 3, np.arange(27).reshape(9, 3) % 9),
        PointSet(3, 3, 2, np.random.default_rng(7).integers(0, 27, size=(30, 2))),
    ] + [p for p, _ in repeated_and_grid_oracle]
    checked, kinds = 0, set()
    for p in sets:
        got, seen = _assert_exact_masses(p)
        checked, kinds = checked + got, kinds | seen
    assert _assert_exact_masses(hammersley(5))[0] == 7 * 7  # every level
    assert checked > 800
    # empty, all single-point, all multi-point and mixed levels
    assert kinds == {(False, True, True), (True, True, False), (True, False, True),
                     (True, False, False)}


def _random_sets():
    """60 seeded sets, b in {2, 3, 5, 7, 11, 13}, d and n in 1..3 with
    b^n <= 3000 and 1 <= N < 120."""
    rng = np.random.default_rng(0)
    sets = []
    while len(sets) < 60:
        b = int(rng.choice([2, 3, 5, 7, 11, 13]))
        d, n = (int(v) for v in rng.integers(1, 4, size=2))
        if b**n > 3000:
            continue
        sets.append(PointSet(b, n, d, rng.integers(0, b**n, size=(int(rng.integers(1, 120)), d))))
    return sets


def test_level_mass_is_exact_on_random_sets():
    """mass(2) equals `level_mass_exact` on every affordable level with all
    j_i <= n of the 60 `_random_sets`."""
    assert sum(_assert_exact_masses(p)[0] for p in _random_sets()) > 1500


def _single_point_levels(p):
    """(level, `LevelAggregate.mass(2)`) of every level of `haar_levels(p)`
    where every occupied box holds at most one point, with whether
    `level_mass_exact` is affordable there."""
    return [(agg.j, agg.mass(2), _affordable(p, agg)) for agg in haar_levels(p)
            if agg.counts.max(initial=0) <= 1]


def _contracted(sets):
    """(p, level, mass(2), whether `level_mass_exact` is affordable, the
    contraction's mass) of every single-point level of the `sets`."""
    out = []
    for p in sets:
        single = _single_point_levels(p)
        got = _single_point_masses(p, [j for j, _, _ in single]) if single else []
        out += [(p, j, mass, affordable, c) for (j, mass, affordable), c in zip(single, got)]
    return out


@pytest.fixture(scope="module")
def contracted(repeated_and_grid_oracle):
    """`_contracted` on balanced Hammersley n = 1..12, 20 seeded b = 2 sets,
    the 60 `_random_sets` and the repeated-and-grid sets."""
    rng = np.random.default_rng(5)
    sets = [balanced_hammersley(n) for n in range(1, 13)]
    for _ in range(20):
        d, n = (int(v) for v in rng.integers(1, 4, size=2))
        n += 3
        size = 2 ** int(rng.integers(0, 8))
        sets.append(PointSet(2, n, d, rng.integers(0, 2**n, size=(size, d))))
    return _contracted(sets + _random_sets() + [p for p, _ in repeated_and_grid_oracle])


def test_single_point_contraction_is_the_per_level_mass_bit_for_bit_at_b2(contracted):
    # both routes sum integers, so the contraction's masses equal mass(2)
    # of the same levels; here at b = 2, at any N
    b2 = [(p, j, mass, got) for p, j, mass, _, got in contracted if p.b == 2]
    for p, j, mass, got in b2:
        assert got == mass, (p.b, p.n, p.d, p.size, j)
    assert len(b2) > 500 and len({p.size for p, *_ in b2}) > 10


def test_single_point_contraction_agrees_with_the_per_level_mass(contracted):
    # the same at the odd bases
    odd = [(p, j, mass, got) for p, j, mass, _, got in contracted if p.b != 2]
    for p, j, mass, got in odd:
        assert got == mass, (p.b, p.n, p.d, p.size, j)
    assert len(odd) > 50 and {p.b for p, *_ in odd} == {3, 5, 7, 11, 13}


def test_single_point_contraction_against_the_exact_mass(contracted):
    # `level_mass_exact` sums explicit sub-cell tensors, never the Helmert
    # basis: on every affordable single-point level of the b = 2 sets (on
    # the others mass(2), which the contraction equals, is held to it by
    # `test_level_mass_is_exact*`)
    checked = 0
    for p, j, _, affordable, got in contracted:
        if affordable and p.b == 2:
            assert got == level_mass_exact(p, j), (p.b, p.n, p.d, p.size, j)
            checked += 1
    assert checked > 300


def test_single_point_contraction_past_int64():
    # b = 2, n = 32: N b^(nd) = 6 * 2^64 is past int64, so the sweep sums in
    # Python ints, and the contraction too (a point's factors reach 2^64)
    p = PointSet(2, 32, 2, np.random.default_rng(2).integers(0, 2**32, size=(6, 2)))
    single = _single_point_levels(p)
    assert len(single) > 1000
    assert _single_point_masses(p, [j for j, _, _ in single]) == [m for _, m, _ in single]


def test_single_point_levels_stay_single_point_deeper(repeated_and_grid_oracle):
    # finer boxes refine coarser ones and hold a subset of their interior
    # points: once a head's level has at most one point per box, so has
    # every deeper j_d of that head
    sets = _random_sets() + [p for p, _ in repeated_and_grid_oracle]
    sets += [balanced_hammersley(10), cs_point_set(CSParams(b=11, d=2, w=1))]
    for p in sets:
        single = {}
        for agg in haar_levels(p):
            one_point = agg.counts.max(initial=0) <= 1
            head = agg.j[:-1]
            assert one_point or not single.get(head), (p.b, p.n, p.d, agg.j)
            single[head] = one_point


def test_p2_norms_memory_stays_that_of_the_sweep(peak_bytes):
    # the contraction's factors are built in blocks of `_SUM_ENTRIES` points
    # times coordinate levels
    # after the sweep has dropped its last level: on balanced Hammersley
    # n = 14 the peak stays the sweep's (7.95 times the numerators at the
    # parent commit and here; the contraction alone peaks at 6.2 times).
    # Whole (N, n + 1) factor tables would peak at several times that.
    p = balanced_hammersley(14)
    haar_norms(p, PARSEVAL)  # caches built
    assert peak_bytes(haar_norms, p, PARSEVAL) <= 8 * p.numerators.nbytes


def test_norms_of_no_points_are_those_of_the_volume():
    # D = -x_1 ... x_d, so ||D||_2^2 = 3^-d: every level is single-point
    # at once, and all but the first of each head come from the contraction
    for b, d in [(2, 1), (2, 2), (3, 2), (5, 3)]:
        p = PointSet(b, 3, d, np.zeros((0, d), dtype=np.int64))
        assert Fraction(parseval_l2(p).metadata["exact"]) == Fraction(1, 3**d)


def test_parseval_single_point_is_exact_third():
    p = PointSet(2, 1, 1, np.array([[0]]))
    rep = parseval_l2(p)
    # D(x) = 1 - x on (0, 1]: squared L2 norm 1/3
    assert Fraction(rep.metadata["exact"]) == Fraction(1, 3)
    assert rep.value == 1.0 / 3.0 and rep.tail_bound == math.ulp(1.0 / 3.0) / 2


def test_besov_222_r0_matches_parseval():
    # at (p, q, r) = (2, 2, 0) the quasi-norm is the L2 norm: the Besov value
    # is the square root of the same q-sum, exact tail included
    for p in (hammersley(4), balanced_hammersley(9)):
        pv = parseval_l2(p).value
        assert besov_quasi_norm(p, BesovParams(2, 2, 0)).value ** 2 == pytest.approx(
            pv, rel=1e-15
        )


def test_besov_r_at_least_one_is_infinite():
    p = hammersley(3)
    for q in (2, math.inf):
        assert besov_quasi_norm(p, BesovParams(2, q, 1.0)).value == math.inf


def test_besov_rejects_a_nan_r():
    with pytest.raises(InvalidParams, match="r a number"):
        BesovParams(2, 2, math.nan)
    for r in (math.inf, -math.inf):  # the report would carry "value": NaN
        with pytest.raises(InvalidParams, match="finite"):
            BesovParams(2, 2, r)


def test_besov_overflow_is_a_parameter_error():
    # b^(|j| (r - 1/p + 1) q) overflows a float at q = 1e308
    p = hammersley(3, b=3)
    with pytest.raises(InvalidParams, match=r"p = 1e\+308, q = 1e\+308, r = 0.25"):
        besov_quasi_norm(p, BesovParams(1e308, 1e308, 0.25))


def test_besov_out_of_window_flag():
    assert BesovParams(2, 2, 0.8).out_of_window
    assert not BesovParams(2, 2, 0.25).out_of_window
    assert BesovParams(math.inf, 2, 0.1).out_of_window


def test_besov_infinite_q_is_sup():
    p = hammersley(3)
    params_sup = BesovParams(2, math.inf, 0.25)
    rep = besov_quasi_norm(p, params_sup)
    assert rep.value > 0
    # sup is dominated by any finite-q sum over the same levels
    rep_q1 = besov_quasi_norm(p, BesovParams(2, 1, 0.25))
    assert rep.value <= rep_q1.value + 1e-12


def test_roots_of_unity_are_real_at_b2():
    # omega = -1 exactly, so the Helmert DFT, the volume coefficients and the
    # Walsh tables at b = 2 carry no imaginary rounding, and the audit of the
    # b = 2 CS nets, whose mu is 0 on every level it reads, reports 0 (it
    # read 1.2e-16 and 1.96e-15 with e^(i pi) = -1 + 1.2e-16 i)
    from qmcnet.norms import coeff_bound_audit
    from qmcnet.walsh import _digit_tables

    assert roots_of_unity(2).tolist() == [1, -1]
    assert _helmert_dft(2).tolist() == [[1]]
    assert not np.any(_volume(2, 2, 2, 3)[1].imag)
    assert not np.any(_digit_tables(2)[0].imag)
    assert coeff_bound_audit(cs_point_set(CSParams(b=2, d=1, w=1)), cap=1).const_small_levels == 0
    assert coeff_bound_audit(cs_point_set(CSParams(b=2, d=1, w=3))).const_small_levels == 0


def test_levels_up_to():
    levels = list(levels_up_to(1, 2))
    assert len(levels) == 9
    assert (-1, -1) in levels and (1, 1) in levels


@pytest.mark.parametrize("b", [2, 3, 5, 11])
def test_helmert_forms_match_exact_values(b):
    """Each per-row form is a map of the integer Helmert coordinates
    G = sub H: G itself against the exact sub <c, e_h>, the DFT G @ T
    against sub sum_r c_r omega^(r l) to 40 digits (within 1e-15 of the
    largest entry of its row), and the single-point factors of
    `_point_factors`, L sum_h G_h^2 / (h (h+1)) and sum_h G_h, against the
    exact L sub^2 ||P c||^2 and -sub <c, v>, v[r] = 2r - (b-1).  Every
    interior offset at level 0 is asked for twice (more rows than offsets:
    the lookup branch) and once (fewer: the direct branch)."""
    mpmath = pytest.importorskip("mpmath")
    n = 2 if b == 11 else 3
    sub = b ** (n - 1)
    rem = np.arange(1, b * sub)
    off = Offsets(b, np.concatenate([rem, rem]), sub)
    L = _helmert_weights(b)[0]
    exact = []
    with mpmath.workdps(40):
        for r in rem:
            k, low = divmod(int(r), sub)
            c = [Fraction(0)] * k + [1 - Fraction(low, sub)] + [Fraction(1)] * (b - 1 - k)
            cells = [mpmath.mpf(x.numerator) / x.denominator for x in c]
            dft = [
                complex(sub * mpmath.fsum(x * mpmath.expjpi(mpmath.mpf(2 * t * l) / b)
                                          for t, x in enumerate(cells)))
                for l in range(1, b)
            ]
            G = [sub * (sum(c[:h]) - h * c[h]) for h in range(1, b)]
            norm = L * sub**2 * (sum(x * x for x in c) - sum(c) ** 2 / b)
            dot = -sub * sum(x * (2 * t - (b - 1)) for t, x in enumerate(c))
            exact.append((G, dft, norm, dot))
    dft = np.array([e[1] for e in exact])
    for rows in (np.arange(2 * rem.size), np.arange(rem.size)):
        G = off.helmert(rows)[: rem.size]
        assert G.dtype == np.int64 and G.tolist() == [e[0] for e in exact]
        scale = np.abs(dft).max(axis=1, keepdims=True)
        assert np.all(np.abs(G @ _helmert_dft(b) - dft) <= 1e-15 * scale)
    p = PointSet(b, n, 1, rem[:, None])
    assert np.array_equal(_offsets(rem, b, n, 0)[1].helmert(np.arange(rem.size)), G)
    norm, dot = _point_factors(p, 0, p.numerators, [0], np.int64)[:, 0]
    assert norm.tolist() == [e[2] for e in exact] and dot.tolist() == [e[3] for e in exact]


@pytest.mark.parametrize("b", [2, 3, 5, 11, 19])
def test_point_factors_closed_form_match_the_helmert_form(b):
    # the closed forms read at the sub-cell k equal the sums over per-row
    # Helmert coordinates, in int64 and in Python ints, on every level
    # -1..n-1 of both coordinates of 200 seeded points, some on the box
    # edges of each level (rem = 0) and some at 0
    n = {2: 7, 3: 5, 5: 3, 11: 2, 19: 2}[b]
    nums = np.random.default_rng(b).integers(0, b**n, size=(200, 2))
    for t in range(n):  # on the left edges of level t
        nums[5 * t : 5 * t + 5] -= nums[5 * t : 5 * t + 5] % b ** (n - t)
    nums[-3:] = 0
    p = PointSet(b, n, 2, nums)
    levels = list(range(-1, n))
    for i, dtype in itertools.product(range(2), (np.int64, object)):
        got = _point_factors(p, i, p.numerators, levels, dtype)
        want = point_factors_oracle(p, i, p.numerators, levels, dtype)
        assert got.dtype == dtype and got.tolist() == want.tolist(), (i, dtype)
        for t in range(n):  # an edge point's factors are 0 at its level
            assert not got[:, t + 1, 5 * t : 5 * t + 5].any()


def test_point_factors_closed_form_past_int64():
    # the set of `test_single_point_contraction_past_int64`: its factors
    # reach 2^64, so they are Python ints, and the tables are read at an
    # int64 k
    p = PointSet(2, 32, 2, np.random.default_rng(2).integers(0, 2**32, size=(6, 2)))
    levels = list(range(-1, 32))
    for i in range(2):
        got = _point_factors(p, i, p.numerators, levels, object)
        assert got.tolist() == point_factors_oracle(p, i, p.numerators, levels, object).tolist()
        assert max(got[0].ravel()) >= 2**63


def _whole_level_mu(agg):
    """mu of a level with a multi-point box in the whole-level form: X =
    (A - floor(V / g)) as floats, less the fraction of V / g, over M; then
    X @ Re T + 1j (X @ Im T) along the first axis and X @ T along the rest,
    every step a new array in the layout numpy gives it."""
    b, s = agg.b, agg.s
    T = _helmert_dft(b)
    lead = agg.columns // (b - 1) ** (s - 1)
    g = b ** (2 * agg.total_level + 2 * s) * 2 ** len(agg.j)
    V = [(-1) ** s * agg.scale * math.prod(h * (h + 1) for h in hs)
         for hs in itertools.product(range(1, b), repeat=s)]
    dtype = np.int64 if 2 * agg.scale < 2**63 else object
    floor = np.array([v // g for v in V], dtype=dtype)[:, None]
    X = (agg.box_sums.astype(dtype, copy=False) - floor).astype(float)
    X = (X - np.array([(v % g) / g for v in V])[:, None]) / float(agg.scale)
    X = X.reshape(b - 1, -1).T
    X = X @ T[:, :lead].real + 1j * (X @ T[:, :lead].imag)
    for _ in range(s - 1):
        X = X.reshape(b - 1, -1).T @ T
    return X.reshape(agg.occupied, agg.columns)


def test_multi_point_mu_keeps_the_bits_of_the_whole_level_dft(repeated_and_grid_oracle):
    # `mu_blocks` forms a multi-point level's X in place and writes the two
    # real matmuls into one complex array: mu equals the whole-level form
    # to the last bit (signed zeros aside).  The first matmul rounds by its
    # operand's memory layout, which follows the box sums': they are
    # C-contiguous, boxes fastest, on every level, at j_d = -1 and where
    # some box holds edge rows alone too
    rng = np.random.default_rng(5)
    sets = [p for p, _ in repeated_and_grid_oracle] + [cs_point_set(CSParams(b=11, d=2, w=1))]
    for b, n, size in [(3, 6, 500), (19, 6, 200)]:
        sets.append(PointSet(b, n, 2, rng.integers(0, b**n, size=(size, 2))))
    kinds = set()
    for p in sets:
        for agg in haar_levels(p):
            if agg.s == 0 or agg.counts.max(initial=0) <= 1:
                continue
            assert agg.box_sums.flags["C_CONTIGUOUS"], (p.b, agg.j)
            assert np.array_equal(joined_mu_blocks(agg), _whole_level_mu(agg)), (p.b, p.n, agg.j)
            kinds.add((agg.j[-1] < 0 or agg.occupied < agg.interior.size, agg.s))
    assert kinds >= {(True, 1), (False, 1), (True, 2), (False, 2)}


def test_dft_factors_keep_the_bits_of_the_helmert_matmul():
    # `Offsets.dft` keeps one table row per offset where there are fewer
    # offsets b sub than rows, else one row per row, never a table larger
    # than the rows it serves; rows gathered from it have the bits of
    # helmert(rows) @ T in every batch of 2 or more rows, on both branches:
    # each level of both coordinates of CS-11 and of seeded sets at
    # b in {2, 3, 5, 7, 19}, at all rows, at 7 and at 2
    cs = cs_point_set(CSParams(b=11, d=2, w=1))
    rng = np.random.default_rng(6)
    sets = [cs] + [PointSet(b, n, 2, rng.integers(0, b**n, size=(3000, 2)))
                   for b, n in [(2, 12), (3, 7), (5, 5), (7, 4), (19, 3)]]
    branches = set()
    for p in sets:
        for i, ji, size in itertools.product(range(2), range(p.n), (p.size, 7, 2)):
            off = _offsets(p.numerators[:, i], p.b, p.n, ji)[1]
            rows = np.sort(rng.choice(p.size, size, replace=False))
            F = off.dft(rows)
            assert len(F.table) <= size, (p.b, i, ji, size)
            for batch in (np.arange(size), slice(size - 2, size)):
                got = F[batch]
                assert got.dtype == complex, (p.b, i, ji)
                want = off.helmert(rows[batch]) @ _helmert_dft(p.b)
                assert np.array_equal(got, want), (p.b, i, ji, size)
            branches.add(F.at is not None)
    assert branches == {True, False}