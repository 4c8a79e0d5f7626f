"""Exact arithmetic over prime fields F_b.

Elements, polynomials, binomial coefficients mod b (Lucas), hyper-derivatives
and the small linear algebra (RREF, null spaces) used by the net and code
modules.  Everything here is pure and immutable.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BaseMismatch, NotPrime, SizeOverflow

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


class PrimeField:
    """The prime field F_b, acting as element factory and arithmetic context."""

    __slots__ = ("b",)

    def __init__(self, b: int):
        if not is_prime(b):
            raise NotPrime(f"base {b} is not prime")
        self.b = b

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.b == self.b

    def __hash__(self) -> int:
        return hash(("PrimeField", self.b))

    def __repr__(self) -> str:
        return f"PrimeField({self.b})"

def lucas_binomial(i: int, lam: int, b: int) -> int:
    """C(i, lam) mod b computed digitwise (Lucas); 0 whenever lam > i."""
    if i < 0 or lam < 0:
        raise ValueError("arguments must be nonnegative")
    if lam > i:
        return 0
    result = 1
    while i or lam:
        di, dl = i % b, lam % b
        if dl > di:
            return 0
        # small-digit binomial, exact in Python ints
        num, den = 1, 1
        for t in range(dl):
            num *= di - t
            den *= t + 1
        result = (result * (num // den)) % b
        i //= b
        lam //= b
    return result


@dataclass(frozen=True)
class Polynomial:
    """Polynomial over F_b; coeffs[i] is the coefficient of z**i.

    Trailing zeros are permitted; the zero polynomial reports degree -1.
    """

    coeffs: tuple[int, ...]
    field: PrimeField

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(c % self.field.b for c in self.coeffs)
        )

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.field.b != other.field.b:
            raise BaseMismatch("polynomial bases differ")
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        c = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Polynomial(tuple((x + y) % self.field.b for x, y in zip(a, c)), self.field)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.field.b != other.field.b:
            raise BaseMismatch("polynomial bases differ")
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, x in enumerate(self.coeffs):
            if not x:
                continue
            for k, y in enumerate(other.coeffs):
                out[i + k] = (out[i + k] + x * y) % self.field.b
        return Polynomial(tuple(out), self.field)

    def __call__(self, x: int) -> int:
        """Horner evaluation; returns the value in [0, b)."""
        b = self.field.b
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % b
        return acc

    def hasse_derivative(self, lam: int) -> "Polynomial":
        """The lam-th hyper-derivative: sum_i C(i, lam) f_i z^(i-lam).

        For lam = 0 this is the polynomial itself; the binomial is taken
        mod b via Lucas so characteristic-b cancellation is exact.
        """
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        if lam == 0:
            return self
        b = self.field.b
        out = [
            (lucas_binomial(i, lam, b) * self.coeffs[i]) % b
            for i in range(lam, len(self.coeffs))
        ]
        return Polynomial(tuple(out) if out else (0,), self.field)


# --- linear algebra over F_b -------------------------------------------------

def gf_rref(mat: np.ndarray, b: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_b; returns (rref, pivot columns)."""
    a = np.array(mat, dtype=np.int64) % b
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_rows = np.nonzero(a[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        p = r + int(pivot_rows[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = (a[r] * pow(int(a[r, c]), b - 2, b)) % b
        for rr in range(rows):
            if rr != r and a[rr, c]:
                a[rr] = (a[rr] - a[rr, c] * a[r]) % b
        pivots.append(c)
        r += 1
    return a, pivots


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
