import json
from fractions import Fraction

import numpy as np
import pytest

from qmcnet.errors import NetFileError, NotPowerCardinality
from qmcnet.nets import (
    GeneratingMatrices,
    PointSet,
    char_sum,
    dual_set,
    generate_points,
    is_net,
    load_pointset,
    phi_map,
    save_pointset,
)


def vdc_matrices(n, b=2, d=1):
    ident = np.eye(n, dtype=np.int64)
    return GeneratingMatrices(b, n, d, np.stack([ident] * d))


def hammersley_matrices(n, b=2):
    ident = np.eye(n, dtype=np.int64)
    return GeneratingMatrices(b, n, 2, np.stack([ident, np.fliplr(ident).copy()]))


def test_phi_map_msb_first():
    # digit h_1 is the most significant: (h_1, h_2) -> h_1/b + h_2/b^2
    assert phi_map([1, 0], 2) == 2  # 1/2 on the grid of 4
    assert phi_map([0, 1], 2) == 1  # 1/4


def test_identity_matrix_gives_van_der_corput():
    p = generate_points(vdc_matrices(3))
    # r = 6 = 110_2, digits lsb (0,1,1) -> x = 0/2 + 1/4 + 1/8
    assert p.numerators[6, 0] == 3
    assert sorted(p.numerators[:, 0]) == list(range(8))


def test_hammersley_is_net():
    for n in (1, 2, 4, 6):
        assert is_net(generate_points(hammersley_matrices(n))).ok


def test_is_net_detects_duplicate():
    p = PointSet(2, 2, 2, np.array([[0, 0], [0, 0], [2, 1], [3, 3]]))
    check = is_net(p)
    assert not check.ok
    assert check.witness_count != 1


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


def test_dual_set_size():
    g = hammersley_matrices(2)
    # stacked transpose map F_b^(dn) -> F_b^n is onto, kernel size b^(dn-n)
    assert len(dual_set(g)) == 2 ** (2 * 2 - 2) - 1


def test_matrices_json_roundtrip():
    g = hammersley_matrices(3)
    g2 = GeneratingMatrices.from_json(g.to_json())
    assert g2 == g


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
