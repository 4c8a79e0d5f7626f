import io
import itertools
import tracemalloc
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
from qmcnet.errors import InvalidParams, NetFileError, NotPowerCardinality
from qmcnet.nets import (
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
    for b, n, d in [(2, 5, 1), (3, 3, 2), (5, 2, 3), (2, 4, 3), (2, 0, 2)]:
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


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_and_loading_memory_is_a_few_numerator_arrays(tmp_path):
    # digits are kept in one byte each, never as an (N, n) int64 array, and
    # generation holds one block of span words at a time, never an (N, d n)
    # word table (3.07 numerator arrays with it, 2.50 without)
    g = hammersley_matrices(16)
    p = generate_points(g)
    path = str(tmp_path / "h16.net")
    save_pointset(p, path)
    assert traced_peak(generate_points, g) <= 2.75 * p.numerators.nbytes
    assert traced_peak(load_pointset, path) <= 8 * p.numerators.nbytes


def test_hammersley_is_net():
    for n in (1, 2, 4, 6):
        assert is_net(generate_points(hammersley_matrices(n))).ok


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
    for p in sets:
        check = is_net(p)
        assert check == NetCheck(*net_check_oracle(p))
        verdicts.add(check.ok)
    assert verdicts == {True, False}


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


def char_sum_point_sets(rng):
    """(point set, dual set or None) at b in {2, 3, 11, 257} and d in {1, 2, 3}:
    digital sets of random matrices, two nets and random non-net sets."""
    for b, n in [(2, 4), (3, 3), (11, 2), (257, 1)]:
        for d in (1, 2, 3):
            g = GeneratingMatrices(b, n, d, rng.integers(0, b, size=(d, n, n)))
            yield generate_points(g), dual_set(g)
            yield PointSet(b, n, d, rng.integers(0, b**n, size=(40, d))), None
    for g in (hammersley_matrices(5), cs_generating_matrices(CSParams(3, 1, 2))):
        yield generate_points(g), dual_set(g)


def test_char_sum_matches_digit_by_digit_oracle():
    rng = np.random.default_rng(23)
    root_sums = 0
    for p, dual in char_sum_point_sets(rng):
        top = p.b**p.n
        freqs = [(0,) * p.d, (top - 1,) * p.d]
        freqs += [tuple(int(v) for v in row) for row in rng.integers(0, top, size=(6, p.d))]
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
    rng = np.random.default_rng(5)
    for b, n, dtype in [(2, 6, np.uint8), (11, 3, np.uint8), (257, 2, np.uint16)]:
        p = PointSet(b, n, 3, rng.integers(0, b**n, size=(50, 3)))
        assert "digits" not in vars(p)
        table = p.digits
        assert table.dtype == dtype and table.shape == (3, n, 50)
        assert table.flags.c_contiguous
        horner = np.zeros((3, 50), dtype=np.int64)
        for nu in range(n):  # most significant digit first
            horner = horner * b + table[:, nu]
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
    assert cli.main(["verify", "--net", path]) == 0  # no provenance: no character sums
    assert len(loaded) == 1 and "digits" not in vars(loaded[0])
    char_sum(p, (1, 0))
    assert "digits" in vars(p)


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


def test_matrices_json_roundtrip():
    g = hammersley_matrices(3)
    g2 = GeneratingMatrices.from_json(g.to_json())
    assert g2 == g


@pytest.mark.parametrize(
    "text",
    ["{not json", '{"b": 3}', "[1]", "3", '{"b": 2, "n": 1.0, "d": 1, "matrices": [[[1]]]}',
     '{"b": 2, "n": 1, "d": 1, "matrices": [[[1], [0, 1]]]}'],
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
    # and zeros among them, so that blocks differ in their digit width
    monkeypatch.setattr(nets, "_WRITE_ROWS", 7)
    rng = np.random.default_rng(11)
    sets = [cs_point_set(CSParams(11, 2, 1))]
    for d in (1, 2, 3):
        nums = rng.integers(0, 10 ** rng.integers(1, 6, size=(45, d)))
        nums[::9] = 0
        sets.append(PointSet(11, 5, d, nums))
    for ps in sets:
        new, old = io.StringIO(), io.StringIO()
        save_pointset(ps, new)
        write_pointset_oracle(ps, old)
        assert new.getvalue() == old.getvalue()


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
