import io
import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    char_sum_oracle,
    digital_method_oracle,
    net_check_oracle,
    write_pointset_oracle,
)
from qmcnet import nets
from qmcnet.cs import CSParams, cs_generating_matrices, cs_point_set
from qmcnet.errors import InvalidParams, NetFileError, NotPowerCardinality, SizeOverflow
from qmcnet.nets import (
    DualSet,
    GeneratingMatrices,
    NetCheck,
    PointSet,
    char_sum,
    dual_set,
    generate_points,
    is_net,
    load_pointset,
    save_pointset,
)


def vdc_matrices(n, b=2, d=1):
    ident = np.eye(n, dtype=np.int64)
    return GeneratingMatrices(b, n, d, np.stack([ident] * d))


def hammersley_matrices(n, b=2):
    ident = np.eye(n, dtype=np.int64)
    return GeneratingMatrices(b, n, 2, np.stack([ident, np.fliplr(ident).copy()]))


def test_identity_matrix_gives_van_der_corput():
    p = generate_points(vdc_matrices(3))
    # r = 6 = 110_2, digits lsb (0,1,1) -> x = 0/2 + 1/4 + 1/8
    assert p.numerators[6, 0] == 3
    assert sorted(p.numerators[:, 0]) == list(range(8))


def generators():
    yield from (hammersley_matrices(n) for n in range(1, 13))
    yield cs_generating_matrices(CSParams(3, 1, 2))
    yield cs_generating_matrices(CSParams(11, 2, 1))
    rng = np.random.default_rng(3)
    # (2, 16, 3): at the default `_SPAN_WORDS` of 2^14, 4 high words
    for b, n, d in [(2, 5, 1), (3, 3, 2), (5, 2, 3), (2, 4, 3), (2, 0, 2), (2, 16, 3)]:
        yield GeneratingMatrices(b, n, d, rng.integers(0, b, size=(d, n, n)))


def test_generate_points_matches_digital_method_oracle():
    for g in generators():
        assert np.array_equal(generate_points(g).numerators, digital_method_oracle(g))


@pytest.mark.parametrize("span_words", [1, 9])
def test_generate_points_block_by_block_matches_the_oracle(span_words, monkeypatch):
    # with a low span of 1 or at most 9 words every set but the smallest
    # takes several blocks, and at b > 2 their digit sums reach b
    monkeypatch.setattr("qmcnet.nets._SPAN_WORDS", span_words)
    for g in generators():
        assert np.array_equal(generate_points(g).numerators, digital_method_oracle(g))


def test_generation_and_loading_memory_is_a_few_numerator_arrays(tmp_path, peak_bytes):
    # digits are kept in one byte each, never as an (N, n) int64 array, and
    # generation holds one block of span words at a time, never an (N, d n)
    # word table (3.07 numerator arrays with it, 2.50 without)
    g = hammersley_matrices(16)
    p = generate_points(g)
    path = str(tmp_path / "h16.net")
    save_pointset(p, path)
    assert peak_bytes(generate_points, g) <= 2.75 * p.numerators.nbytes
    assert peak_bytes(load_pointset, path) <= 8 * p.numerators.nbytes


def without_provenance(p):
    """p's numerators alone, so that `is_net` scans its boxes."""
    return PointSet(p.b, p.n, p.d, p.numerators)


def test_hammersley_is_net():
    for n in (1, 2, 4, 6):
        p = generate_points(hammersley_matrices(n))
        assert is_net(p) == NetCheck(True) and is_net(p).route == "matrices"
        check = is_net(without_provenance(p))
        assert check.ok and check.route == "points"


def test_is_net_detects_duplicate():
    p = PointSet(2, 2, 2, np.array([[0, 0], [0, 0], [2, 1], [3, 3]]))
    check = is_net(p)
    assert not check.ok
    assert check.witness_count != 1


def test_is_net_matches_box_count_oracle():
    # verdict and witness (shape, box, count) against a point-by-point count
    rng = np.random.default_rng(11)
    sets = [generate_points(hammersley_matrices(n)) for n in (1, 3, 5)]
    sets.append(generate_points(cs_generating_matrices(CSParams(3, 1, 2))))
    for b, n, d in [(2, 4, 2), (2, 4, 3), (3, 3, 2), (5, 2, 3)]:
        for _ in range(4):
            g = GeneratingMatrices(b, n, d, rng.integers(0, b, size=(d, n, n)))
            sets.append(generate_points(g))
            sets.append(PointSet(b, n, d, rng.integers(0, b**n, size=(b**n, d))))
    verdicts = set()
    for p in map(without_provenance, sets):
        check = is_net(p)
        assert check == NetCheck(*net_check_oracle(p)) and check.route == "points"
        verdicts.add(check.ok)
    assert verdicts == {True, False}


def random_digital_sets(count, seed):
    """`count` seeded `generate_points` sets, b in {2, 3, 5, 7}, d <= 3,
    b^n <= 4096; a quarter of them from matrices with a repeated or
    zero row, so that nets and non-nets both occur."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        b = int(rng.choice([2, 3, 5, 7]))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(0, {2: 12, 3: 7, 5: 5, 7: 4}[b] + 1))
        mats = rng.integers(0, b, size=(d, n, n))
        if n and rng.random() < 0.25:
            i, k = rng.integers(0, d, size=2)
            mats[i, rng.integers(0, n)] = mats[k, rng.integers(0, n)] * rng.integers(0, b) % b
        yield generate_points(GeneratingMatrices(b, n, d, mats))


def test_is_net_by_matrices_equals_the_scan_of_the_same_points():
    # the rank route scans only its first failing shape; its witness must
    # be the one the scan of every shape finds first
    verdicts = set()
    for p in random_digital_sets(300, seed=32):
        by_rank, by_scan = is_net(p), is_net(without_provenance(p))
        assert (by_rank.route, by_scan.route) == ("matrices", "points")
        assert by_rank == by_scan  # ok, witness_shape, witness_box, witness_count
        verdicts.add(by_rank.ok)
    assert verdicts == {True, False}


def test_is_net_scans_points_the_matrices_do_not_generate_in_order():
    # points reordered, or one moved, keep a valid digital provenance: the
    # matrices no longer prove anything about them, so the boxes are scanned
    p = generate_points(hammersley_matrices(4))
    swapped = p.numerators.copy()
    swapped[[3, 9]] = swapped[[9, 3]]
    moved = p.numerators.copy()
    moved[5] = moved[6]
    for nums, ok in [(swapped, True), (moved, False)]:
        q = PointSet(2, 4, 2, nums, provenance=p.provenance)
        check = is_net(q)
        assert check.route == "points" and check == NetCheck(*net_check_oracle(q))
        assert check.ok is ok


def test_is_net_regenerates_only_a_digital_provenance(monkeypatch):
    calls = []
    monkeypatch.setattr(nets, "generate_points", lambda g: calls.append(g) or generate_points(g))
    g = cs_generating_matrices(CSParams(3, 1, 2))
    assert is_net(cs_point_set(CSParams(3, 1, 2))).route == "points" and not calls
    assert is_net(generate_points(g)).route == "matrices" and calls == [g]


def test_is_net_requires_power_cardinality():
    p = PointSet(2, 2, 2, np.array([[0, 0], [1, 1], [2, 2]]))
    with pytest.raises(NotPowerCardinality):
        is_net(p)


def test_char_sum_exhaustive_small():
    # digital-character lemma: sum over the net of wal_t is N on the dual
    # set (plus t = 0), else 0
    g = hammersley_matrices(3)
    p = generate_points(g)
    dual = dual_set(g)
    for t0 in range(8):
        for t1 in range(8):
            s = char_sum(p, (t0, t1))
            expect = p.size if (t0, t1) in dual or (t0, t1) == (0, 0) else 0
            assert s == expect


def test_char_sum_off_the_dual_set_is_exactly_zero():
    g = hammersley_matrices(3)
    p = generate_points(g)
    t = (1, 0)
    assert t not in dual_set(g)
    # equal residue counts give exactly 0, not the float root sum's 1e-16j
    assert char_sum(p, t) == 0


def frequencies_with_zero_digits(b, n, d, rng):
    """t = 0, the top frequency, a t of one digit, and t of random digits:
    a zero coordinate, about half the digits 0, or none forced to 0."""
    def draw(zero_share):
        digits = rng.integers(0, b, size=(d, n)) * (rng.random((d, n)) >= zero_share)
        return tuple(sum(int(v) * b**nu for nu, v in enumerate(row)) for row in digits)

    freqs = [(0,) * d, (b**n - 1,) * d, (b ** (n - 1),) + (0,) * (d - 1)]
    freqs.append((0,) + draw(0.0)[1:])
    return freqs + [draw(0.5) for _ in range(4)] + [draw(0.0) for _ in range(4)]


def char_sum_point_sets(rng):
    """(point set, dual set or None) at b in {2, 3, 5, 11, 257} and d in
    {1, 2, 3}: digital sets of random matrices, two nets and random
    multisets, a quarter of their points repeated."""
    for b, n in [(2, 4), (3, 3), (5, 2), (11, 2), (257, 1)]:
        for d in (1, 2, 3):
            g = GeneratingMatrices(b, n, d, rng.integers(0, b, size=(d, n, n)))
            yield generate_points(g), dual_set(g)
            rows = rng.integers(0, b**n, size=(32, d))
            yield PointSet(b, n, d, np.concatenate([rows, rows[:8]])), None
    for g in (hammersley_matrices(5), cs_generating_matrices(CSParams(3, 1, 2))):
        yield generate_points(g), dual_set(g)


def test_char_sum_matches_digit_by_digit_oracle():
    rng = np.random.default_rng(23)
    root_sums = 0
    for p, dual in char_sum_point_sets(rng):
        freqs = frequencies_with_zero_digits(p.b, p.n, p.d, rng)
        if dual is not None and len(dual):
            freqs += [dual.elements[k] for k in rng.integers(0, len(dual), size=4)]
        for t in freqs:
            value = char_sum(p, t)
            assert value == char_sum_oracle(p, t)
            if dual is not None:  # a digital set: N on the dual set and t = 0, else 0
                assert value == (p.size if t in dual or not any(t) else 0)
            root_sums += value not in (0, p.size)
    assert root_sums > 0  # the random sets reach the float root sum


def test_char_sum_rejects_frequencies_outside_the_digit_range():
    p = generate_points(hammersley_matrices(3))
    assert char_sum(p, (7, 0)) == 0
    for t in [(-1, 0), (8, 0), (0, 8)]:
        with pytest.raises(InvalidParams, match=r"\[0, b\^n\)"):
            char_sum(p, t)


def test_digit_table_is_built_on_first_char_sum_only(tmp_path, monkeypatch):
    # one (d n, N) row per digit, in the smallest float dtype that holds
    # d n (b-1)^2: 3 * 4096^2 = 3 * 2^24 needs float64
    rng = np.random.default_rng(5)
    for b, n, dtype in [(2, 6, np.float32), (11, 3, np.float32), (257, 2, np.float32),
                        (4097, 1, np.float64)]:
        p = PointSet(b, n, 3, rng.integers(0, b**n, size=(50, 3)))
        assert "digits" not in vars(p)
        table = p.digits
        assert table.dtype == dtype and table.shape == (3 * n, 50)
        assert table.flags.c_contiguous
        horner = np.zeros((3, 50), dtype=np.int64)
        for nu in range(n):  # row i n + nu: digit nu + 1, most significant first
            horner = horner * b + table[nu::n].astype(np.int64)
        assert np.array_equal(horner.T, p.numerators)

    g = hammersley_matrices(8)
    p = generate_points(g)
    assert "digits" not in vars(p)
    path = str(tmp_path / "h8.net")
    save_pointset(p, path)
    assert "digits" not in vars(load_pointset(path))

    from qmcnet import cli

    loaded = []

    def recorded(path):
        loaded.append(load_pointset(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_pointset", recorded)
    assert cli.main(["verify", "--net", path]) == 0  # digital provenance: no character sums
    assert len(loaded) == 1 and "digits" not in vars(loaded[0])
    char_sum(p, (1, 0))
    assert "digits" in vars(p)


@pytest.mark.parametrize(
    "b, n, d, dtype",
    [
        (257, 85, 3, np.float32),  # d n (b-1)^2 = 255 * 2^16 < 2^24
        (257, 128, 2, np.float64),  # = 2^24
        (4096, 1, 1, np.float32),  # 4095^2 < 2^24: the largest exponent is exact
        (4097, 1, 1, np.float64),  # 4096^2 = 2^24
        (2**20 + 1, 1, 1, np.float64),  # 2^40
        (2**26 + 1, 1, 1, np.float64),  # 2^52, and b^n far above N
    ],
)
def test_char_sum_is_exact_on_both_sides_of_the_float32_bound(b, n, d, dtype, peak_bytes):
    # with 42 points the exponents take more values than there are points,
    # so the residues that occur are counted in memory O(N), never O(b): at
    # b = 2^26 + 1 a count per residue would take 537 MB
    rng = np.random.default_rng(b + n + d)
    high = min(b**n, 2**62)
    # at n = 1 the top point meets the top frequency: the largest exponent
    nums = np.concatenate([rng.integers(0, high, size=(40, d)), np.full((2, d), high - 1)])
    p = PointSet(b, n, d, nums)
    freqs = frequencies_with_zero_digits(b, n, d, rng)
    sums = []
    assert peak_bytes(lambda: sums.extend(char_sum(p, t) for t in freqs)) < 2**20
    for t, got in zip(freqs, sums):
        assert got == char_sum_oracle(p, t), t
    assert p.digits.dtype == dtype


@pytest.mark.parametrize("b, n, d", [(2**26 + 1, 2, 1), (2**26 + 1, 1, 2), (2**31 - 1, 1, 1)])
def test_char_sum_refuses_exponent_sums_from_2_to_the_53(b, n, d):
    # d n (b-1)^2 >= 2^53 is past float64's integers
    p = PointSet(b, n, d, np.zeros((3, d), dtype=np.int64))
    with pytest.raises(SizeOverflow, match="2\\^53"):
        char_sum(p, (1,) * d)
    assert "digits" not in vars(p)


def test_point_set_tables_are_lazy_built_once_and_read_only(record_builds):
    # the digit table of the character sums and the sorted numerators of
    # disc_eval and Theta's definition route: each built on its first read
    # only, once, and never written through
    from qmcnet.norms import disc_eval
    from qmcnet.walsh import theta

    built = {"digits": [], "sorted_columns": []}
    for name, record in built.items():
        record_builds(PointSet, name, record.append)
    g = hammersley_matrices(5)
    p = generate_points(g)
    assert "digits" not in vars(p) and "sorted_columns" not in vars(p)
    for t in [(1, 0), (3, 5), (0, 0)]:
        char_sum(p, t)
    assert "sorted_columns" not in vars(p)
    for x in [(Fraction(1, 3), Fraction(1, 2)), (Fraction(0), Fraction(1))]:
        disc_eval(p, x)
        theta(p, g, x)
    assert [len(built[name]) for name in built] == [1, 1]
    cols = p.sorted_columns
    assert np.array_equal(cols, p.numerators[np.argsort(p.numerators[:, 0], kind="stable")].T)
    for table in (p.digits, cols):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_dual_set_of_the_matrices_is_lazy_built_once_and_read_only(monkeypatch):
    calls = []
    build = nets.dual_set
    monkeypatch.setattr(nets, "dual_set", lambda g: calls.append(g) or build(g))
    g = hammersley_matrices(4)
    assert "dual" not in vars(g)
    dual = g.dual
    assert g.dual is dual and calls == [g]
    assert dual == build(g) and len(dual) == 2**4 - 1
    assert not dual.array.flags.writeable
    with pytest.raises(ValueError):
        dual.array[0, 0] = 1


def test_dual_set_size():
    g = hammersley_matrices(2)
    # stacked transpose map F_b^(dn) -> F_b^n is onto, kernel size b^(dn-n)
    assert len(dual_set(g)) == 2 ** (2 * 2 - 2) - 1


def test_dual_set_elements_are_the_sorted_solutions():
    # every nonzero t in [0, b^n)^d with sum_i C_i^T tbar_i = 0 mod b, tested
    # one tuple at a time from its LSB-first digits, in sorted tuple order
    rng = np.random.default_rng(41)
    for b, n in [(2, 3), (3, 2), (11, 1)]:
        for d in (1, 2, 3):
            g = GeneratingMatrices(b, n, d, rng.integers(0, b, size=(d, n, n)))
            solutions = []
            for t in itertools.product(range(b**n), repeat=d):
                digits = [[ti // b**k % b for k in range(n)] for ti in t]
                image = sum(g.mats[i].T @ np.array(digits[i]) for i in range(d))
                if any(t) and not (image % b).any():
                    solutions.append(t)
            dual = dual_set(g)
            assert dual.elements == tuple(sorted(solutions))
            assert dual.array.dtype == np.int64 and dual.array.shape == (len(solutions), d)
            assert dual.array.tolist() == [list(t) for t in dual.elements]


def test_dual_set_builds_its_tuples_on_first_read():
    # `dual_set` returns the frequency array alone: the tuples and the
    # membership set, which only some callers read, are built on first read
    g = hammersley_matrices(3)
    dual = dual_set(g)
    assert "elements" not in vars(dual) and "_members" not in vars(dual)
    assert len(dual) == 2**3 - 1
    assert "elements" not in vars(dual)
    assert (1, 4) in dual and (1, 1) not in dual
    assert dual.elements == tuple(sorted(map(tuple, dual.array.tolist())))
    # equality reads (b, n, d) and the array, never the tuples
    other = dual_set(g)
    assert other == dual and "elements" not in vars(other)
    assert dual != DualSet(2, 3, 2, dual.array[1:])
    assert dual != DualSet(3, 3, 2, dual.array)


@pytest.mark.parametrize("b, n, d", [(2, 3, 2), (2, 0, 2), (3, 0, 1), (5, 1, 3)])
def test_matrices_json_roundtrip(b, n, d):
    # at n = 0 the matrices are written as d empty lists, [[], []] at d = 2,
    # which once parsed as shape (2, 0) and raised InvalidParams
    g = GeneratingMatrices(b, n, d, np.random.default_rng(n).integers(0, b, size=(d, n, n)))
    assert GeneratingMatrices.from_json(g.to_json()) == g


@pytest.mark.parametrize(
    "text",
    ["{not json", '{"b": 3}', "[1]", "3", '{"b": 2, "n": 1.0, "d": 1, "matrices": [[[1]]]}',
     '{"b": 2, "n": 1, "d": 1, "matrices": [[[1], [0, 1]]]}',
     '{"b": 2, "n": true, "d": 1, "matrices": [[[1]]]}',
     '{"b": 2, "n": 2, "d": 1, "matrices": [[[1, 0], [0, 1.5]]]}',
     '{"b": 2, "n": 2, "d": 1, "matrices": [[[1, 0], [0, "1"]]]}',
     '{"b": 2, "n": 2, "d": 1, "matrices": [[[1, 0], [0, true]]]}',
     '{"b": 2, "n": 2, "d": 1, "matrices": [[[1, 0], [0, 1e0]]]}',
     '{"b": 2, "n": 1, "d": 1, "matrices": [[[18446744073709551616]]]}',
     # a flat or mis-shaped list stays an error at n = 0 and beyond
     '{"b": 2, "n": 0, "d": 2, "matrices": []}',
     '{"b": 2, "n": 0, "d": 2, "matrices": [[], [], []]}',
     '{"b": 2, "n": 0, "d": 2, "matrices": [[[]], [[]]]}',
     '{"b": 2, "n": 0, "d": 1, "matrices": [{}]}',
     '{"b": 2, "n": 2, "d": 1, "matrices": [1, 0, 0, 1]}',
     '{"b": 2, "n": 2, "d": 1, "matrices": [[[1, 0, 0, 1]]]}'],
)
def test_matrices_from_malformed_json_raise_invalid_params(text):
    with pytest.raises(InvalidParams):
        GeneratingMatrices.from_json(text)


def test_netfile_roundtrip(tmp_path):
    p = generate_points(hammersley_matrices(4))
    p = PointSet(p.b, p.n, p.d, p.numerators, provenance={"family": "test"})
    path = tmp_path / "a.net"
    save_pointset(p, str(path))
    q = load_pointset(str(path))
    assert q == p
    assert q.provenance == {"family": "test"}
    # byte-identical re-emission
    path2 = tmp_path / "b.net"
    save_pointset(q, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_netfile_writer_matches_row_by_row_oracle():
    p = cs_point_set(CSParams(11, 2, 1))
    q = generate_points(hammersley_matrices(12))
    q = PointSet(q.b, q.n, q.d, q.numerators, provenance={"family": "hammersley", "n": 12})
    for ps in (p, q):
        new, old = io.StringIO(), io.StringIO()
        save_pointset(ps, new)
        write_pointset_oracle(ps, old)
        assert new.getvalue() == old.getvalue()


def test_netfile_writer_matches_the_oracle_across_blocks(monkeypatch):
    # blocks of 7 rows, the last one partial, of values with 1 to 5 digits
    # and zeros among them, so that blocks differ in their digit width; and
    # values of every width from 1 to 19 digits, each 10^k - 1 beside 10^k
    monkeypatch.setattr(nets, "_WRITE_ROWS", 7)
    rng = np.random.default_rng(11)
    sets = [cs_point_set(CSParams(11, 2, 1))]
    for d in (1, 2, 3):
        nums = rng.integers(0, 10 ** rng.integers(1, 6, size=(45, d)))
        nums[::9] = 0
        sets.append(PointSet(11, 5, d, nums))
    widths = [0] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)] + [2**62 - 1]
    for d in (1, 3):
        nums = np.array(widths * d, dtype=np.int64).reshape(-1, d)
        sets.append(PointSet(2, 62, d, nums))
    for ps in sets:
        new, old = io.StringIO(), io.StringIO()
        save_pointset(ps, new)
        write_pointset_oracle(ps, old)
        assert new.getvalue() == old.getvalue()


@pytest.mark.parametrize("g", [hammersley_matrices(4), GeneratingMatrices(3, 0, 2, np.zeros((2, 0, 0))),
                               cs_generating_matrices(CSParams(3, 1, 2))])
def test_netfile_carries_the_generating_matrices(tmp_path, g):
    p = generate_points(g)
    assert p.provenance == {"kind": "digital", "matrices": g.mats.tolist()}
    path = str(tmp_path / "g.net")
    save_pointset(p, path)
    q = load_pointset(path)
    assert q == p and q.provenance == p.provenance and q.matrices == g


@pytest.mark.parametrize(
    "matrices",
    ["missing", "[[[1]]]", "[[[1, 0], [0, 1]]]", "[[[1, 0], [0, 2]], [[0, 1], [1, 0]]]",
     "[[[1, 0], [0, -1]], [[0, 1], [1, 0]]]", "[[[1, 0], [0, 1.5]], [[0, 1], [1, 0]]]",
     '[[[1, 0], [0, "1"]], [[0, 1], [1, 0]]]', "[[[1, 0], [0, true]], [[0, 1], [1, 0]]]",
     "[1, 0, 0, 1, 0, 1, 1, 0]", "{}"],
)
def test_netfile_digital_provenance_is_checked_on_loading(tmp_path, matrices):
    # b = 2, n = 2, d = 2: the matrices must be 2 lists of 2 lists of 2
    # JSON integers in [0, 2)
    key = "" if matrices == "missing" else f', "matrices": {matrices}'
    path = tmp_path / "g.net"
    path.write_text(f'#qmcnet v1 b=2 n=2 d=2 N=4\n#provenance {{"kind": "digital"{key}}}\n'
                    "0 0\n1 2\n2 1\n3 3\n")
    with pytest.raises(NetFileError, match="bad digital provenance"):
        load_pointset(str(path))


def test_netfile_digital_provenance_needs_a_prime_base(tmp_path):
    path = tmp_path / "g.net"
    path.write_text('#qmcnet v1 b=4 n=1 d=1 N=4\n#provenance {"kind": "digital", "matrices": [[[1]]]}\n'
                    "0\n1\n2\n3\n")
    with pytest.raises(NetFileError, match="not prime"):
        load_pointset(str(path))


def test_netfile_d1_roundtrip(tmp_path):
    p = generate_points(hammersley_matrices(5))
    p = PointSet(p.b, p.n, 1, p.numerators[:, :1])
    path = str(tmp_path / "d1.net")
    save_pointset(p, path)
    q = load_pointset(path)
    assert q == p and q.numerators.shape == (32, 1)


def test_netfile_without_points_roundtrips(tmp_path):
    p = PointSet(3, 2, 2, np.zeros((0, 2), dtype=np.int64))
    path = str(tmp_path / "empty.net")
    save_pointset(p, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_pointset(path) == p


def test_netfile_blank_lines_comments_and_late_provenance(tmp_path):
    path = tmp_path / "c.net"
    path.write_text(
        "#qmcnet v1 b=2 n=1 d=2 N=2\n0 1\n\n  # a comment\n\t\n1 0\n"
        '#provenance {"late": true}\n'
    )
    q = load_pointset(str(path))
    assert q.numerators.tolist() == [[0, 1], [1, 0]]
    assert q.provenance == {"late": True}


@pytest.mark.parametrize(
    "body",
    [
        "0 1\n1 0 1\n",  # three tokens on a d=2 line
        "0 1\n1\n",  # one token
        "0 1 1\n1 0 1\n",  # three tokens on every line
        "0 1\n1_0 0\n",  # int() took 1_0; the format does not
        "0 1\n1 0 # note\n",  # a comment after the numerators
        "0 1\n",  # fewer points than N
        "0 1\n99999999999999999999 0\n",  # beyond int64
    ],
)
def test_netfile_rejects_malformed_points(tmp_path, body):
    path = tmp_path / "bad.net"
    path.write_text("#qmcnet v1 b=2 n=4 d=2 N=2\n" + body)
    with pytest.raises(NetFileError):
        load_pointset(str(path))


@pytest.mark.parametrize("prov", ["[1]", "3", "null", '"cs"'])
def test_netfile_provenance_must_be_an_object(tmp_path, prov):
    # verify reads the provenance's keys; a list or a number ended in an
    # AttributeError traceback there
    path = tmp_path / "p.net"
    path.write_text(f"#qmcnet v1 b=2 n=1 d=1 N=2\n#provenance {prov}\n0\n1\n")
    with pytest.raises(NetFileError, match="not a JSON object"):
        load_pointset(str(path))


def test_netfile_bad_header(tmp_path):
    path = tmp_path / "bad.net"
    path.write_text("not a header\n0 0\n")
    with pytest.raises(NetFileError):
        load_pointset(str(path))


def test_netfile_out_of_range(tmp_path):
    path = tmp_path / "bad.net"
    path.write_text("#qmcnet v1 b=2 n=2 d=1 N=1\n7\n")
    with pytest.raises(NetFileError):
        load_pointset(str(path))


def test_coordinates_and_fractions_agree():
    p = generate_points(hammersley_matrices(3))
    coords = p.coordinates()
    fracs = p.fractions()
    for row, frow in zip(coords, fracs):
        for x, fx in zip(row, frow):
            assert float(fx) == x
            assert Fraction(0) <= fx < 1
