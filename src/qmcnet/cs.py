"""The Chen-Skriganov construction over F_b.

Codewords are hyper-derivative evaluation vectors of polynomials of degree
below n = 2dw at 2d*d distinct field elements; the resulting linear code of
dimension n maps to a digital net in [0,1)^d.  The code is the span of the
encodings of the monomials z^k, whose hyper-derivatives have a closed form,
so the basis is written down directly.  Weight functionals and the dual-code
verification gate live here as well; the gate reads the dual's minimum
weights off ranks of column subsets of the code's basis, with no dual word
enumerated.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BaseTooSmall, InvalidParams
from .field import enumerate_span, gf_nullspace, gf_rank, require_prime
from .nets import GeneratingMatrices, PointSet, as_integer, compositions, generate_points


def default_betas(b: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Canonical beta matrix: row-major consecutive field values.

    beta[i][nu] = i*2d + nu (0-based), pairwise distinct by construction.
    """
    if b < 2 * d * d:
        raise BaseTooSmall(f"need b >= 2d^2 = {2 * d * d}, got b = {b}")
    return tuple(
        tuple(i * 2 * d + nu for nu in range(2 * d)) for i in range(d)
    )


@dataclass(frozen=True)
class CSParams:
    """Parameters of one Chen-Skriganov instance; n = 2dw."""

    b: int
    d: int
    w: int
    betas: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        require_prime(self.b)
        if self.d < 1 or self.w < 1:
            raise InvalidParams("need d >= 1 and w >= 1")
        if self.b < 2 * self.d * self.d:
            raise BaseTooSmall(
                f"need b >= 2d^2 = {2 * self.d * self.d}, got b = {self.b}"
            )
        betas = self.betas or default_betas(self.b, self.d)
        try:
            betas = tuple(tuple(as_integer(v) % self.b for v in row) for row in betas)
        except TypeError as exc:
            raise InvalidParams(f"betas must be a matrix of integers: {exc}") from None
        if len(betas) != self.d or any(len(row) != 2 * self.d for row in betas):
            raise InvalidParams("betas must be a d x 2d matrix")
        flat = [v for row in betas for v in row]
        if len(set(flat)) != len(flat):
            raise InvalidParams("beta values must be pairwise distinct")
        object.__setattr__(self, "betas", betas)

    @property
    def n(self) -> int:
        return 2 * self.d * self.w

    def to_json(self) -> str:
        return json.dumps(
            {"b": self.b, "d": self.d, "w": self.w, "betas": [list(r) for r in self.betas]}
        )

    @classmethod
    def from_json(cls, text: str) -> "CSParams":
        """Parse `to_json` output; malformed input raises InvalidParams."""
        try:
            obj = json.loads(text)
            b, d, w = (as_integer(obj[key]) for key in "bdw")
            return cls(b, d, w, tuple(tuple(row) for row in obj.get("betas") or ()))
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidParams(f"bad CS params {text}: {exc!r}") from None


@dataclass(frozen=True)
class CodeSpace:
    """Row-space basis of a linear subspace of F_b^(d*n)."""

    b: int
    d: int
    n: int
    basis: np.ndarray  # shape (dim, d*n)

    def __post_init__(self):
        require_prime(self.b)
        basis = np.asarray(self.basis, dtype=np.int64) % self.b
        if basis.ndim != 2 or basis.shape[1] != self.d * self.n:
            raise InvalidParams("basis must have d*n columns")
        if len(basis) and gf_rank(basis, self.b) != len(basis):
            raise InvalidParams("basis rows must be linearly independent")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def words(self) -> np.ndarray:
        """All b**dim codewords, shape (b**dim, d*n); enumerated once, read-only."""
        return self._words

    @cached_property
    def _words(self) -> np.ndarray:
        words = enumerate_span(self.basis, self.b)
        words.flags.writeable = False
        return words


def cs_code_space(params: CSParams) -> CodeSpace:
    """C_n: the span of the encodings of 1, z, ..., z^(n-1); dimension n.

    Block i, entry nu*w + lam (0-based) of a codeword holds the lam-th
    hyper-derivative of its polynomial at beta[i][nu].  That of z^k is
    C(k, lam) z^(k-lam), or 0 when lam > k, so row k of the basis holds
    C(k, lam) beta^(k-lam) mod b there.
    """
    n, w, b = params.n, params.w, params.b
    cols = [(beta, lam) for row in params.betas for beta in row for lam in range(w)]
    basis = [
        [math.comb(k, lam) * pow(beta, k - lam, b) % b if lam <= k else 0
         for beta, lam in cols]
        for k in range(n)
    ]
    return CodeSpace(b, params.d, n, np.array(basis, dtype=np.int64))


def cs_generating_matrices(params: CSParams) -> GeneratingMatrices:
    """Generating matrices whose digital method reproduces Phi_n^d(C_n).

    Column k of C_i is block i of the encoding of z**k, so the digit vector
    rbar acts as the coefficient vector of f.
    """
    n, d = params.n, params.d
    basis = cs_code_space(params).basis
    return GeneratingMatrices(params.b, n, d, basis.reshape(n, d, n).transpose(1, 2, 0))


def cs_point_set(params: CSParams) -> PointSet:
    """CS_n = Phi_n^d(C_n) with b**n points, generated via the matrices."""
    p = generate_points(cs_generating_matrices(params))
    prov = {"kind": "cs", "params": json.loads(params.to_json())}
    return PointSet(p.b, p.n, p.d, p.numerators, provenance=prov)


def dual_code(c: CodeSpace) -> CodeSpace:
    """Basis of {A : B . A = 0 for all B in C}; dimension d*n - dim(C)."""
    if c.dim == 0:
        return CodeSpace(c.b, c.d, c.n, np.eye(c.d * c.n, dtype=np.int64))
    return CodeSpace(c.b, c.d, c.n, gf_nullspace(c.basis, c.b))


# --- weight functionals -------------------------------------------------------

def nrt_weight(alpha: int, b: int) -> int:
    """rho(alpha): base-b digit length; rho(0) = 0."""
    if alpha < 0:
        raise InvalidParams("alpha must be nonnegative")
    if b < 2:
        raise InvalidParams(f"need base b >= 2, got b = {b}")
    h = 0
    while alpha:
        h += 1
        alpha //= b
    return h


@dataclass(frozen=True)
class DualPropertyReport:
    kappa_min: int
    delta_min: int
    passed: bool
    words_checked: int


def verify_dual_properties(code: CodeSpace) -> DualPropertyReport:
    """Exact minima of kappa_n^d and v_n^d over the nonzero dual words, by rank.

    A dual word with support S is a linear dependency among the columns S of
    the code's basis (MacWilliams and Sloane 1977, ch. 1).  So kappa_min is
    the least t with t dependent columns, and delta_min the least |l| whose
    columns {i n + nu : nu < l_i} are dependent; on the zero dual no column
    set is, and both are d n + 1.  Pass requires kappa_min >= 2d+1 and
    delta_min >= n+1.  `words_checked` is the size of the dual, b^(d n - dim).
    """
    b, d, n = code.b, code.d, code.n
    columns = code.basis.T

    def dependent(cols) -> bool:
        return gf_rank(columns[list(cols)], b) < len(cols)

    sizes = range(1, d * n + 1)
    kappa_min = next((t for t in sizes for s in itertools.combinations(range(d * n), t)
                      if dependent(s)), d * n + 1)
    prefixes = ([i * n + nu for i, li in enumerate(l) for nu in range(li)]
                for t in sizes for l in compositions(t, d) if max(l) <= n)
    delta_min = next((len(s) for s in prefixes if dependent(s)), d * n + 1)
    passed = kappa_min >= 2 * d + 1 and delta_min >= n + 1
    return DualPropertyReport(kappa_min, delta_min, passed, b ** (d * n - code.dim))
