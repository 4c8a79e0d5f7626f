import numpy as np
import pytest

from oracles import digits_lsb, span_oracle
from qmcnet.errors import NotPrime
from qmcnet.field import (
    enumerate_span,
    gf_nullspace,
    gf_rank,
    gf_rref,
    is_prime,
    require_prime,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for k in range(2, 25):
        assert is_prime(k) == (k in primes)
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_field_requires_prime():
    with pytest.raises(NotPrime):
        require_prime(12)


def test_gf_rref_and_rank():
    mat = np.array([[1, 2, 0], [2, 4, 1], [0, 0, 1]], dtype=np.int64)
    _, pivots = gf_rref(mat, 5)
    assert gf_rank(mat, 5) == 2
    assert pivots == [0, 2]


@pytest.mark.parametrize("b", [2, 3, 5, 11, 13])
def test_gf_rref_is_the_reduced_echelon_form_of_the_row_space(b):
    # 0-8 rows and 0-11 columns, as many rows as keep the span oracle's
    # b**rows words at most 3**8
    rows = next(k for k in range(8, -1, -1) if b**k <= 3**8)
    rng = np.random.default_rng(b)
    shapes = [(0, 0), (0, 5), (rows, 0), (2, 3), (rows, 11)]
    shapes += [(int(rng.integers(0, rows + 1)), int(rng.integers(0, 12))) for _ in range(40)]
    for k, shape in enumerate(shapes):
        mat = rng.integers(0, b, size=shape)
        if k % 3 == 0:
            mat *= rng.random(shape) < 0.3  # sparse, all zero in places
        if k % 7 == 0:
            mat[:] = 0
        rref, pivots = gf_rref(mat, b)
        assert rref.shape == mat.shape and rref.dtype == np.int64
        assert pivots == sorted(set(pivots)) and len(pivots) == gf_rank(mat, b)
        for r, row in enumerate(rref):
            if r < len(pivots):
                c = pivots[r]
                assert row[c] == 1 and not row[:c].any()
                assert np.count_nonzero(rref[:, c]) == 1
            else:
                assert not row.any()
        span = {tuple(w) for w in span_oracle(mat, b).tolist()}
        assert {tuple(w) for w in span_oracle(rref, b).tolist()} == span
        assert b ** len(pivots) == len(span)


def test_nullspace_orthogonality():
    rng = np.random.default_rng(7)
    for b in (2, 3, 5):
        mat = rng.integers(0, b, size=(3, 6))
        ns = gf_nullspace(mat, b)
        assert ns.shape[0] == 6 - gf_rank(mat, b)
        assert not ((mat @ ns.T) % b).any()


def test_enumerate_span_is_whole_subspace():
    basis = np.array([[1, 0, 2], [0, 1, 1]], dtype=np.int64)
    words = enumerate_span(basis, 3)
    assert words.shape == (9, 3)
    seen = {tuple(w) for w in words}
    assert len(seen) == 9
    # row r = sum_k digit_k(r) basis[k], digit 0 the least significant
    for r, word in enumerate(words):
        u, v = r % 3, r // 3
        assert tuple(word) == tuple((u * basis[0] + v * basis[1]) % 3)
    # the empty basis spans the one zero word
    assert np.array_equal(enumerate_span(np.zeros((0, 4), dtype=np.int64), 3), np.zeros((1, 4)))


@pytest.mark.parametrize("b, kmax", [(2, 10), (3, 6), (5, 4), (11, 3), (257, 2)])
def test_enumerate_span_matches_oracle(b, kmax):
    rng = np.random.default_rng(b)
    for k in range(kmax + 1):
        basis = rng.integers(0, b, size=(k, 5))
        words = enumerate_span(basis, b)
        assert np.array_equal(words, span_oracle(basis, b))
        # the smallest unsigned dtype holding 2b - 2: uint16 only for b = 257
        assert words.dtype.kind == "u"
        assert words.dtype.itemsize == (2 if b > 128 else 1)
        assert words.min() >= 0 and words.max() < b


def test_digits_lsb_roundtrip():
    vals = np.arange(27)
    dig = digits_lsb(vals, 3, 3)
    rebuilt = dig[:, 0] + 3 * dig[:, 1] + 9 * dig[:, 2]
    assert (rebuilt == vals).all()
