import hashlib

import numpy as np
import pytest

from oracles import cs_basis_oracle, hasse_derivative_oracle, kappa_weight_d, v_weight_d
from qmcnet.cli import main
from qmcnet.cs import (
    CodeSpace,
    CSParams,
    cs_code_space,
    cs_generating_matrices,
    cs_point_set,
    default_betas,
    dual_code,
    nrt_weight,
    verify_dual_properties,
)
from qmcnet.errors import BaseTooSmall, InvalidParams, NotPrime
from qmcnet.field import gf_rank
from qmcnet.nets import is_net


def test_params_validation():
    with pytest.raises(NotPrime):
        CSParams(b=4, d=1, w=1)
    with pytest.raises(BaseTooSmall):
        CSParams(b=5, d=2, w=1)  # needs b >= 2 d^2 = 8
    p = CSParams(b=11, d=2, w=1)
    assert p.n == 4


def test_default_betas_distinct():
    betas = default_betas(11, 2)
    flat = [v for row in betas for v in row]
    assert len(set(flat)) == len(flat) == 8


def test_params_json_roundtrip():
    p = CSParams(b=11, d=2, w=2)
    assert CSParams.from_json(p.to_json()) == p


@pytest.mark.parametrize(
    "text",
    [
        "null",  # a provenance without params
        "[1]",
        "{not json",
        '{"b": 11, "d": 2}',
        '{"b": "x", "d": 2, "w": 1}',
        '{"b": 11.0, "d": 2, "w": 1}',
        '{"b": 11, "d": 2, "w": 1, "betas": 5}',
        '{"b": 11, "d": 2, "w": 1, "betas": [["x"]]}',
        '{"b": 11, "d": true, "w": 1}',
        '{"b": 11, "d": 2, "w": 1, "betas": [[0.5, 1, 2, 3], [4, 5, 6, "7"]]}',
    ],
)
def test_params_from_malformed_json_raise_invalid_params(text):
    with pytest.raises(InvalidParams):
        CSParams.from_json(text)


#: instances with n > b, where C(k, lam) mod b vanishes for some lam <= k,
#: and ones with w > 1
ORACLE_PARAMS = ((11, 2, 1), (11, 2, 3), (2, 1, 3), (3, 1, 3), (19, 3, 1), (5, 1, 4))


def test_hasse_derivative_oracle_hand_values():
    # (2 + h)^3 = 8 + 12 h + 6 h^2 + h^3, over F_5 and F_3
    assert [hasse_derivative_oracle(3, lam, 2, 5) for lam in range(5)] == [3, 2, 1, 1, 0]
    assert [hasse_derivative_oracle(3, lam, 2, 3) for lam in range(4)] == [2, 0, 0, 1]
    assert hasse_derivative_oracle(0, 0, 0, 7) == 1


def test_encode_poly_blocks_hold_derivative_values():
    # the closed-form basis against the Taylor expansion of (beta + h)^k:
    # block i, position nu w + lam of row k holds the lam-th hyper-derivative
    # of z^k at beta[i][nu]
    for bdw in ORACLE_PARAMS:
        params = CSParams(*bdw)
        assert np.array_equal(cs_code_space(params).basis, cs_basis_oracle(params)), bdw


def test_code_space_dimension_and_net():
    params = CSParams(b=11, d=2, w=1)
    code = cs_code_space(params)
    assert code.dim == params.n
    p = cs_point_set(params)
    assert p.size == 11**4
    assert is_net(p).ok


def test_small_d1_instances_are_nets():
    for b, w in ((2, 2), (3, 2), (5, 1)):
        params = CSParams(b=b, d=1, w=w)
        assert is_net(cs_point_set(params)).ok


def test_generating_matrix_columns_match_monomial_encodings():
    # column k of C_i is block i of the codeword of z^k
    for bdw in ORACLE_PARAMS:
        params = CSParams(*bdw)
        g = cs_generating_matrices(params)
        words, n = cs_basis_oracle(params), params.n
        for k in range(n):
            for i in range(params.d):
                assert (g.mats[i][:, k] == words[k, i * n : (i + 1) * n]).all(), bdw


def test_cs_basis_and_netfile_regression_pin(capsys):
    # the bases of two instances and the sha256 of the CS-11 netfile, pinned
    assert cs_code_space(CSParams(11, 2, 1)).basis.tolist() == [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [0, 1, 2, 3, 4, 5, 6, 7],
        [0, 1, 4, 9, 5, 3, 3, 5],
        [0, 1, 8, 5, 9, 4, 7, 2],
    ]
    assert cs_code_space(CSParams(2, 1, 3)).basis.tolist() == [
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 1, 1, 0],
        [0, 0, 1, 1, 0, 1],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 1, 1, 0],
    ]
    assert main(["generate", "--base", "11", "--dim", "2", "--w", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "2bb676f95f82d2f97327edcc243c51ef0d6ff3f2b5f9c78767e1d8f97bdd9cc8"
    )


def test_dual_code_dimension_and_orthogonality():
    params = CSParams(b=11, d=2, w=1)
    code = cs_code_space(params)
    dual = dual_code(code)
    assert dual.dim == params.d * params.n - code.dim
    assert not ((code.basis @ dual.basis.T) % 11).any()


def test_weights():
    assert nrt_weight(0, 3) == 0
    assert nrt_weight(1, 3) == 1
    assert nrt_weight(9, 3) == 3
    assert nrt_weight(8, 2) == 4
    # below base 2 the digit loop would never end (b = 1) or divide by zero
    for b in (1, 0, -2):
        with pytest.raises(InvalidParams):
            nrt_weight(5, b)


def _assert_scalar_minima(code):
    # the rank minima against word-by-word weights over the enumerated dual
    d, n = code.d, code.n
    words = dual_code(code).words()
    nonzero = [w for w in words if w.any()]
    kappa_min = min((kappa_weight_d(w) for w in nonzero), default=d * n + 1)
    delta_min = min((v_weight_d(w, d, n) for w in nonzero), default=d * n + 1)
    rep = verify_dual_properties(code)
    assert (rep.kappa_min, rep.delta_min) == (kappa_min, delta_min)
    assert rep.passed == (kappa_min >= 2 * d + 1 and delta_min >= n + 1)
    assert rep.words_checked == len(words)


@pytest.mark.parametrize("b, d, w", [(11, 2, 1), (13, 2, 1), (3, 1, 2), (2, 1, 3), (5, 1, 1)])
def test_verify_dual_properties_matches_the_enumerated_cs_duals(b, d, w):
    _assert_scalar_minima(cs_code_space(CSParams(b, d, w)))


def test_verify_dual_properties_matches_scalar_minima():
    # seeded random codes, among them the zero code and the whole space
    rng = np.random.default_rng(11)
    for b, d, n in ((2, 2, 3), (3, 2, 2), (5, 1, 4), (3, 3, 2)):
        _assert_scalar_minima(CodeSpace(b, d, n, np.zeros((0, d * n), dtype=np.int64)))
        dims = [d * n] * 3 + [int(rng.integers(1, d * n)) for _ in range(3)]
        for dim in dims:
            basis = rng.integers(0, b, size=(dim, d * n))
            if gf_rank(basis, b) == len(basis):
                _assert_scalar_minima(CodeSpace(b, d, n, basis))


def test_verify_dual_properties_small_instance():
    # d = 1: the dual of a full [n, n] evaluation code is {0}; vacuous pass
    rep = verify_dual_properties(cs_code_space(CSParams(b=5, d=1, w=1)))
    assert rep.passed
    assert (rep.kappa_min, rep.delta_min, rep.words_checked) == (3, 3, 1)


def test_verify_dual_properties_ranks_past_the_enumeration_limit(monkeypatch):
    # the dual of CS (11, 2, 2) has 11^8 words; its minima come from ranks
    monkeypatch.setenv("QMCNET_LIMIT", "1000")
    rep = verify_dual_properties(cs_code_space(CSParams(11, 2, 2)))
    assert (rep.kappa_min, rep.delta_min, rep.passed) == (7, 9, True)
    assert rep.words_checked == 11**8


def test_codespace_rejects_a_non_prime_base():
    # over Z/4 the "span" of [2, 0] repeats words and the V-count identity fails
    with pytest.raises(NotPrime):
        CodeSpace(4, 1, 2, np.array([[2, 0]], dtype=np.int64))


def test_codespace_rejects_dependent_basis():
    basis = np.array([[1, 0, 1, 0], [2, 0, 2, 0]], dtype=np.int64)
    with pytest.raises(InvalidParams):
        CodeSpace(3, 2, 2, basis)
