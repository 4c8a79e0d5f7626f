"""Digital nets from generating matrices.

Points are stored exactly: coordinate i of a point is numerator_i / b**n.
All net checks (box counting, dual sets, character sums) run on integer
numerators, never on floats.
"""
from __future__ import annotations

import cmath
import functools
import json
import operator
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidParams, NetFileError, NotPowerCardinality, SizeOverflow
from .field import enum_limit, enumerate_span, gf_nullspace, require_prime


@dataclass(frozen=True, eq=False)
class GeneratingMatrices:
    """d generating matrices, each n x n over F_b."""

    b: int
    n: int
    d: int
    mats: np.ndarray  # shape (d, n, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GeneratingMatrices):
            return NotImplemented
        return (
            (self.b, self.n, self.d) == (other.b, other.n, other.d)
            and np.array_equal(self.mats, other.mats)
        )

    def __post_init__(self):
        require_prime(self.b)
        m = np.asarray(self.mats, dtype=np.int64)
        if m.shape != (self.d, self.n, self.n):
            raise InvalidParams(
                f"expected {self.d} matrices of shape {self.n}x{self.n}, got {m.shape}"
            )
        if m.size and (m.min() < 0 or m.max() >= self.b):
            raise InvalidParams("matrix entries must lie in [0, b)")
        object.__setattr__(self, "mats", m)

    def to_json(self) -> str:
        return json.dumps(
            {"b": self.b, "n": self.n, "d": self.d, "matrices": self.mats.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "GeneratingMatrices":
        """Parse `to_json` output; malformed input raises InvalidParams."""
        try:
            obj = json.loads(text)
            b, n, d = (operator.index(obj[key]) for key in "bnd")
            return cls(b, n, d, np.asarray(obj["matrices"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidParams(f"bad generating-matrix JSON: {exc!r}") from None


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered point set with exact coordinates k_i / b**n."""

    b: int
    n: int
    d: int
    numerators: np.ndarray  # shape (N, d), integers in [0, b**n)
    provenance: Optional[dict] = field(default=None, compare=False)

    def __eq__(self, other) -> bool:
        # provenance is descriptive metadata, not part of identity
        if not isinstance(other, PointSet):
            return NotImplemented
        return (
            (self.b, self.n, self.d) == (other.b, other.n, other.d)
            and np.array_equal(self.numerators, other.numerators)
        )

    def __post_init__(self):
        nums = np.asarray(self.numerators, dtype=np.int64)
        if nums.ndim != 2 or nums.shape[1] != self.d:
            raise InvalidParams("numerators must have shape (N, d)")
        denom = self.b**self.n
        if nums.size and (nums.min() < 0 or nums.max() >= denom):
            raise InvalidParams("numerators out of [0, b**n)")
        object.__setattr__(self, "numerators", nums)

    @property
    def size(self) -> int:
        return self.numerators.shape[0]

    @property
    def denominator(self) -> int:
        return self.b**self.n

    def coordinates(self) -> np.ndarray:
        """Floating-point view of the points, (N, d)."""
        return self.numerators / float(self.denominator)

    def fractions(self) -> list[tuple[Fraction, ...]]:
        denom = self.denominator
        return [
            tuple(Fraction(int(k), denom) for k in row) for row in self.numerators
        ]

    @functools.cached_property
    def digits(self) -> np.ndarray:
        """Base-b digits of the numerators, (d, n, N), most significant first.

        Row [i, nu] holds digit nu + 1 of coordinate i of every point, in the
        smallest unsigned dtype that holds b - 1.  Built on first use only:
        the character sums read it, the Haar and Warnock routes never do.
        """
        b, n = self.b, self.n
        out = np.empty((self.d, n, self.size), dtype=np.min_scalar_type(b - 1))
        for i in range(self.d):
            k = self.numerators[:, i]
            for nu in range(n - 1, -1, -1):
                k, out[i, nu] = np.divmod(k, b)
        return out


_SPAN_WORDS = 2**14  # words of the low span in `generate_points`


def generate_points(g: GeneratingMatrices) -> PointSet:
    """The digital method: point r has digit vectors C_i @ rbar, r = 0..b**n-1.

    rbar holds the base-b digits of r least significant first, so the digit
    vectors of point r are row r of the span whose basis row k is column k
    of every C_i; digit nu of coordinate i multiplies b**-(nu+1).  The span
    is never whole: with r = r_low + b^L r_high, b^L <= `_SPAN_WORDS`, row r
    is the sum mod b of row r_low of the low rows' span and row r_high of
    the high rows' span, so each high word gives one block of b^L points,
    packed into its rows of the numerators by Horner.
    """
    b, n, d = g.b, g.n, g.d
    if b**n > enum_limit():
        raise SizeOverflow(f"b**n = {b**n} exceeds enumeration limit {enum_limit()}")
    basis = g.mats.transpose(2, 0, 1).reshape(n, d * n)
    low = 0
    while low < n and b ** (low + 1) <= _SPAN_WORDS:
        low += 1
    low_words = block = enumerate_span(basis[:low], b)
    nums = np.zeros((b**n, d), dtype=np.int64)
    for r_high, word in enumerate(enumerate_span(basis[low:], b)):
        if r_high:  # high word 0 is the zero word: its block is the low span
            block = np.add(low_words, word, out=None if r_high == 1 else block)
            np.subtract(block, block.dtype.type(b), out=block, where=block >= b)
        digits = block.reshape(len(block), d, n)
        out = nums[r_high * len(block) : (r_high + 1) * len(block)]
        for nu in range(n):  # Horner, most significant digit first
            out *= b
            out += digits[:, :, nu]
    return PointSet(b, n, d, nums)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class NetCheck:
    ok: bool
    witness_shape: Optional[tuple[int, ...]] = None
    witness_box: Optional[tuple[int, ...]] = None
    witness_count: Optional[int] = None


def is_net(p: PointSet) -> NetCheck:
    """Exact (0,n,d)-net test: every b-adic box of volume b**-n holds one point.

    Checks all shapes (j_1..j_d) with sum j_i = n by digit-prefix bucketing
    on the numerators; coarser boxes follow by aggregation.  With N = b^n
    points, every box holds one point exactly when every box is hit, so each
    shape marks one reused boolean array; the counts that name a witness box
    are computed only for a failing shape.
    """
    b, n, d = p.b, p.n, p.d
    if p.size != b**n:
        raise NotPowerCardinality(f"N = {p.size} != b**n = {b**n}")
    columns = p.numerators.T.copy()
    seen = np.empty(b**n, dtype=bool)
    for shape in compositions(n, d):
        # box index of each point under this shape, mixed-radix packed
        key = np.zeros(p.size, dtype=np.int64)
        for column, j in zip(columns, shape):
            if j:
                key *= b**j
                key += column // (b ** (n - j))
        seen[:] = False
        seen[key] = True
        if seen.all():
            continue
        counts = np.bincount(key, minlength=b**n)
        bad = np.nonzero(counts != 1)[0]
        box_key = int(bad[0])
        box = []
        for j in reversed(shape):
            box.append(box_key % (b**j))
            box_key //= b**j
        return NetCheck(
            ok=False,
            witness_shape=shape,
            witness_box=tuple(reversed(box)),
            witness_count=int(counts[bad[0]]),
        )
    return NetCheck(ok=True)


@dataclass(frozen=True)
class DualSet:
    """Nonzero frequency tuples annihilated by the transposed matrices.

    `array` is the (M, d) int64 array of the frequencies in lexicographic
    row order; `elements` holds the same rows as a sorted tuple of int tuples,
    and membership reads a set built once.
    """

    b: int
    n: int
    d: int
    array: np.ndarray = field(repr=False, compare=False)
    elements: tuple[tuple[int, ...], ...] = field(init=False)
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(map(tuple, self.array.tolist())))
        object.__setattr__(self, "_members", frozenset(self.elements))

    def __contains__(self, t) -> bool:
        return tuple(int(v) for v in t) in self._members

    def __len__(self) -> int:
        return len(self.elements)


def dual_set(g: GeneratingMatrices) -> DualSet:
    """Solve C_1^T tbar_1 + ... + C_d^T tbar_d = 0 over F_b, excluding t = 0.

    tbar_i holds the digits of t_i least significant first, matching rbar.
    """
    b, n, d = g.b, g.n, g.d
    stacked = np.concatenate([g.mats[i].T for i in range(d)], axis=1)  # (n, d*n)
    words = enumerate_span(gf_nullspace(stacked, b), b)
    return DualSet(b, n, d, _dual_frequencies(words, b, n, d))


def _dual_frequencies(words: np.ndarray, b: int, n: int, d: int) -> np.ndarray:
    """The nonzero dual words as (M, d) int64 frequencies in lexicographic
    order: entry i n + nu of a word is digit nu of t_i."""
    t = words.reshape(len(words), d, n) @ (b ** np.arange(n, dtype=np.int64))
    t = t[t.any(axis=1)]
    return t[np.lexsort(t.T[::-1])]


def char_sum(p: PointSet, t: Sequence[int]) -> complex:
    """sum_h wal_t(x_h) from the residue counts of the exponents.

    The exponent of point h is sum_(i, nu) tau_(i,nu) x_(h,i,nu+1) over the
    nonzero base-b digits tau of t (least significant first), read from
    `PointSet.digits`.  Exactly N when every exponent is 0 mod b and exactly
    0 when all b residues are equally frequent, which for a digital net are
    the dual set (plus t = 0) and its complement; otherwise the float root
    sum.
    """
    b, n = p.b, p.n
    t = [int(v) for v in t]
    if len(t) != p.d:
        raise InvalidParams("t must have d coordinates")
    if any(not 0 <= ti < b**n for ti in t):
        raise InvalidParams(f"t coordinates must lie in [0, b^n) = [0, {b**n})")
    # exponent sums reach d n (b-1)^2 before their reduction mod b
    acc = np.min_scalar_type(max(b, p.d * n * (b - 1) ** 2))
    if acc.kind != "u":
        raise SizeOverflow(f"exponent sums d n (b-1)^2 exceed 64 bits at b = {b}")
    exponents = np.zeros(p.size, dtype=acc)
    for i, ti in enumerate(t):
        for nu in range(n):  # digit nu of t pairs with digit nu + 1 of x
            ti, tau = divmod(ti, b)
            if tau:
                exponents += p.digits[i, nu] * acc.type(tau)
    counts = np.bincount((exponents % b).astype(np.intp), minlength=b)
    if counts[0] == p.size:
        return complex(p.size)
    if (counts == counts[0]).all():
        return 0j
    roots = [cmath.exp(2j * cmath.pi * k / b) for k in range(b)]
    return sum(int(c) * r for c, r in zip(counts, roots))


# --- point-set file format ---------------------------------------------------

_HEADER_RE = re.compile(r"^#qmcnet v1 b=(\d+) n=(\d+) d=(\d+) N=(\d+)\s*$")
_WRITE_ROWS = 2**14  # rows per block of text
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # a value >= 10^k has more than k digits


def _write_pointset(p: PointSet, fh) -> None:
    """Header, provenance, then one text per block of rows: each value's
    digits right-aligned in a fixed-width ASCII table with a separator
    column (a newline after every d-th value), its leading zeros masked out
    (digit counts by `searchsorted` on the powers of 10)."""
    fh.write(f"#qmcnet v1 b={p.b} n={p.n} d={p.d} N={p.size}\n")
    if p.provenance:
        fh.write(f"#provenance {json.dumps(p.provenance, sort_keys=True)}\n")
    for start in range(0, p.size, _WRITE_ROWS):
        values = p.numerators[start : start + _WRITE_ROWS].ravel()
        width = len(str(values.max()))
        text = np.empty((values.size, width + 1), dtype=np.uint8)
        rest = values
        for col in range(width - 1, -1, -1):
            rest, digit = np.divmod(rest, 10)
            text[:, col] = digit + ord("0")
        text[:, width] = ord(" ")
        text[p.d - 1 :: p.d, width] = ord("\n")
        digits = np.searchsorted(_POW10, values, side="right") + 1
        keep = np.arange(width + 1) >= width - digits[:, None]
        fh.write(text[keep].tobytes().decode("ascii"))


def save_pointset(p: PointSet, path) -> None:
    """Write the exact text format; provenance goes into a comment line."""
    if hasattr(path, "write"):
        _write_pointset(p, path)
        return
    with open(path, "w") as fh:
        _write_pointset(p, fh)


def load_pointset(path: str) -> PointSet:
    """Read a netfile; anything but the format of `save_pointset` (plus blank
    lines and whole-line `#` comments) raises NetFileError."""
    with open(path) as fh:
        header = fh.readline()
        body = fh.read()
    m = _HEADER_RE.match(header)
    if not m:
        raise NetFileError(f"bad header: {header!r}")
    b, n, d, count = (int(g) for g in m.groups())
    provenance = None
    # numpy skips comments, so they are checked here: the last #provenance wins
    for c in re.finditer("#.*", body):
        line = body[body.rfind("\n", 0, c.start()) + 1 : c.end()]
        if not line.lstrip().startswith("#"):
            raise NetFileError(f"comment after a numerator: {line!r}")
        if c.group().startswith("#provenance"):
            try:
                provenance = json.loads(c.group()[len("#provenance") :])
            except ValueError:
                raise NetFileError(f"bad provenance: {line!r}") from None
            if not isinstance(provenance, dict):
                raise NetFileError(f"provenance is not a JSON object: {line!r}")
    del body  # numpy reads the file itself
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no points; N is checked below
            nums = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    except ValueError as exc:  # a non-integer token or a changed column count
        raise NetFileError(f"bad numerators: {exc}") from None
    if nums.size == 0:
        nums = nums.reshape(0, d)
    if nums.shape[1] != d:
        raise NetFileError(f"expected {d} numerators per line, found {nums.shape[1]}")
    if len(nums) != count:
        raise NetFileError(f"header says N={count}, file has {len(nums)} points")
    if nums.size and (nums.min() < 0 or nums.max() >= b**n):
        raise NetFileError("numerator out of range [0, b**n)")
    return PointSet(b, n, d, nums, provenance=provenance)
