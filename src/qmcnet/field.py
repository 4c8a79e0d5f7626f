"""Exact arithmetic over prime fields F_b.

The primality gate on a base, the small linear algebra (RREF, null spaces,
span enumeration) used by the net and code modules, and the b-th roots of
unity of the Haar and Walsh modules.  Everything here is pure.
"""
from __future__ import annotations

import functools
import os

import numpy as np

from .errors import NotPrime, SizeOverflow

#: Default hard cap on the number of items any enumeration may produce.
DEFAULT_ENUM_LIMIT = 2**31


def enum_limit() -> int:
    """Current enumeration limit; QMCNET_LIMIT overrides the default."""
    env = os.environ.get("QMCNET_LIMIT")
    return int(env) if env else DEFAULT_ENUM_LIMIT


def is_prime(b: int) -> bool:
    """Deterministic trial-division primality check (desk-scale inputs)."""
    if b < 2:
        return False
    if b < 4:
        return True
    if b % 2 == 0:
        return False
    f = 3
    while f * f <= b:
        if b % f == 0:
            return False
        f += 2
    return True


def require_prime(b: int) -> None:
    """Raise NotPrime unless b is prime, so that F_b is a field."""
    if not is_prime(b):
        raise NotPrime(f"base {b} is not prime")


@functools.lru_cache(maxsize=None)
def roots_of_unity(b: int) -> np.ndarray:
    """omega^k = e^(2 pi i k / b) for k = 0..b-1, read-only and built once per
    base; omega^(b/2) is -1 exactly at even b, so at b = 2 every root is real."""
    roots = np.exp(2j * np.pi * np.arange(b) / b)
    if b % 2 == 0:
        roots[b // 2] = -1.0
    roots.flags.writeable = False
    return roots


def root_of_unity(b: int, k: int) -> complex:
    """omega^k for any integer k, from `roots_of_unity`."""
    return complex(roots_of_unity(b)[k % b])


# --- linear algebra over F_b -------------------------------------------------

def gf_rref(mat: np.ndarray, b: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_b; returns (rref, pivot columns).

    The rows are eliminated as lists of Python ints: at a few dozen columns,
    one numpy call per row costs more than the row.  Pivots are inverted as
    x^(b-2), which needs a prime b.
    """
    a = np.asarray(mat, dtype=np.int64) % b
    rows = a.tolist()
    pivots: list[int] = []
    for c in range(a.shape[1]):
        r = len(pivots)
        p = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if p is None:
            continue
        inv = pow(rows[p][c], b - 2, b)
        head = [v * inv % b for v in rows[p]]
        rows[p] = rows[r]
        rows[r] = head
        for k, row in enumerate(rows):
            f = row[c]
            if f and k != r:
                rows[k] = [(v - f * h) % b for v, h in zip(row, head)]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return np.array(rows, dtype=np.int64).reshape(a.shape), pivots


def gf_rank(mat: np.ndarray, b: int) -> int:
    return len(gf_rref(mat, b)[1])


def gf_nullspace(mat: np.ndarray, b: int) -> np.ndarray:
    """Basis of {x : mat @ x = 0 mod b} as rows of the returned array."""
    a = np.asarray(mat, dtype=np.int64) % b
    _, cols = a.shape
    rref, pivots = gf_rref(a, b)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-rref[r, fc]) % b
    return basis


def enumerate_span(basis: np.ndarray, b: int) -> np.ndarray:
    """All b**k words spanned by the k basis rows, as a (b**k, width) array.

    Row r is sum_k digit_k(r) basis[k] mod b, digit_k(r) the k-th base-b digit
    of r counted from the least significant; k = 0 gives the one zero word.
    The span grows one basis row at a time, so the only arrays are words in
    the smallest unsigned dtype that holds a sum of two digits, 2b - 2.
    """
    basis = np.asarray(basis, dtype=np.int64) % b
    total = b ** len(basis)
    if total > enum_limit():
        raise SizeOverflow(f"b**k = {total} exceeds enumeration limit {enum_limit()}")
    dtype = np.min_scalar_type(2 * b - 2)
    width = basis.shape[1]
    words = np.zeros((1, width), dtype=dtype)
    multiples = np.arange(b)[:, None]
    for row in basis:
        # block a of the new words is the old words plus a * row
        steps = (multiples * row % b).astype(dtype)
        words = (words[None] + steps[:, None]).reshape(-1, width)
        np.remainder(words, dtype.type(b), out=words)
    return words
