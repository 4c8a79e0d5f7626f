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
from .field import enum_limit, enumerate_span, gf_nullspace, gf_rank, require_prime


def as_integer(value) -> int:
    """`operator.index(value)`, which raises TypeError on a float (even 1.0)
    or a string, and here on a bool too; `int` and numpy take all three."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


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

    @functools.cached_property
    def dual(self) -> "DualSet":
        """`dual_set(self)`, built once."""
        return dual_set(self)

    def to_json(self) -> str:
        return json.dumps(
            {"b": self.b, "n": self.n, "d": self.d, "matrices": self.mats.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "GeneratingMatrices":
        """Parse `to_json` output; malformed input raises InvalidParams, as
        does an entry that is not a JSON integer."""
        try:
            obj = json.loads(text)
            b, n, d = (as_integer(obj[key]) for key in "bnd")
            mats = _matrix_array(obj["matrices"], d, n)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise InvalidParams(f"bad generating-matrix JSON: {exc!r}") from None
        return cls(b, n, d, mats)


def _matrix_array(value, d: int, n: int) -> np.ndarray:
    """`value` as a (d, n, n) int64 array.  It must be d lists of n lists of
    n JSON integers (at n = 0, d empty lists, as `tolist` writes them); any
    other nesting or length raises ValueError, an entry that is not an
    integer TypeError, one beyond int64 OverflowError."""

    def items(x, length: int) -> list:
        if not isinstance(x, list) or len(x) != length:
            raise ValueError(f"expected a list of {length}, got {x!r:.40}")
        return x

    entries = [as_integer(v) for m in items(value, d) for row in items(m, n) for v in items(row, n)]
    return np.array(entries, dtype=np.int64).reshape(d, n, n)


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
        if self.b < 2:
            raise InvalidParams(f"need base b >= 2, got b = {self.b}")
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
    def matrices(self) -> Optional[GeneratingMatrices]:
        """The generating matrices of a digital provenance, `{"kind":
        "digital", "matrices": ...}` as `generate_points` records it, else
        None; parsed on first read.  They must be d lists of n lists of n
        JSON integers in [0, b) at a prime b: anything else raises
        InvalidParams."""
        prov = self.provenance or {}
        if prov.get("kind") != "digital":
            return None
        try:
            mats = _matrix_array(prov["matrices"], self.d, self.n)
            return GeneratingMatrices(self.b, self.n, self.d, mats)
        except (InvalidParams, ValueError, KeyError, TypeError, OverflowError) as exc:
            raise InvalidParams(f"bad digital provenance: {exc!r}") from None

    @functools.cached_property
    def digits(self) -> np.ndarray:
        """The digit table of the character sums, (d n, N), read-only.

        Row i n + nu holds digit nu + 1 (most significant first) of
        coordinate i of every point, in the smallest float dtype in which a
        sum of d n products of two digits, at most d n (b-1)^2, is exact:
        float32 below 2^24, float64 below 2^53; above that SizeOverflow.
        Built on first use only: `char_sum` reads it, the Haar and Warnock
        routes never do.
        """
        b, n, d = self.b, self.n, self.d
        top = d * n * (b - 1) ** 2
        if top >= 2**53:
            raise SizeOverflow(f"exponent sums d n (b-1)^2 = {top} exceed 2^53 at b = {b}")
        out = np.empty((d * n, self.size), dtype=np.float32 if top < 2**24 else np.float64)
        for i in range(d):
            k = self.numerators[:, i]
            for nu in range(n - 1, -1, -1):  # // and a multiply-subtract: numpy's int64 divmod is slower
                q = k // b
                out[i * n + nu] = k - q * b
                k = q
        out.flags.writeable = False
        return out

    @functools.cached_property
    def sorted_columns(self) -> np.ndarray:
        """The numerators as (d, N) rows, the points stably sorted by
        coordinate 1, read-only; built on the first `count_below`."""
        order = np.argsort(self.numerators[:, 0], kind="stable")
        out = np.ascontiguousarray(self.numerators[order].T)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def last_order(self) -> np.ndarray:
        """The point indices stably sorted by the last coordinate, read-only;
        built on the first `haar.level_prefix`, once per point set."""
        out = np.argsort(self.numerators[:, -1], kind="stable")
        out.flags.writeable = False
        return out

    def count_below(self, cuts: Sequence[int]) -> int:
        """The number of points with k_i < cuts[i] in every coordinate.

        Those with k_1 < cuts[0] are a prefix of `sorted_columns`; only that
        prefix is compared in the other coordinates, against the integer
        cuts as given (Python ints, so any size compares exactly).
        """
        cols = self.sorted_columns
        head = int(np.searchsorted(cols[0], cuts[0]))
        below = [row < cut for row, cut in zip(cols[1:, :head], cuts[1:])]
        return int(np.count_nonzero(functools.reduce(np.logical_and, below))) if below else head


_SPAN_WORDS = 2**14  # words of the low span in `generate_points`


def generate_points(g: GeneratingMatrices) -> PointSet:
    """The digital method: point r has digit vectors C_i @ rbar, r = 0..b**n-1.

    rbar holds the base-b digits of r least significant first, so the digit
    vectors of point r are row r of the span whose basis row k is column k
    of every C_i; digit nu of coordinate i multiplies b**-(nu+1).  The span
    is never whole: with r = r_low + b^L r_high, b^L <= `_SPAN_WORDS`, row r
    is the sum mod b of row r_low of the low rows' span and row r_high of
    the high rows' span.  At b = 2 that sum is the XOR of the two rows'
    numerators, so each span is Horner-packed once and one broadcast XOR
    forms every point; at b > 2 each high word gives one block of b^L
    points, added to the low span mod b and packed into its rows by Horner.
    The matrices go with the points as their provenance, `{"kind":
    "digital", "matrices": ...}`, which `is_net` tests by rank.
    """
    b, n, d = g.b, g.n, g.d
    if b**n > enum_limit():
        raise SizeOverflow(f"b**n = {b**n} exceeds enumeration limit {enum_limit()}")
    basis = g.mats.transpose(2, 0, 1).reshape(n, d * n)
    low = 0
    while low < n and b ** (low + 1) <= _SPAN_WORDS:
        low += 1
    low_words = block = enumerate_span(basis[:low], b)
    high_words = enumerate_span(basis[low:], b)
    provenance = {"kind": "digital", "matrices": g.mats.tolist()}
    if b == 2:
        low_nums = _horner(low_words, b, n, np.zeros((len(low_words), d), dtype=np.int64))
        high_nums = _horner(high_words, b, n, np.zeros((len(high_words), d), dtype=np.int64))
        nums = np.bitwise_xor(low_nums[None], high_nums[:, None]).reshape(b**n, d)
        return PointSet(b, n, d, nums, provenance=provenance)
    nums = np.zeros((b**n, d), dtype=np.int64)
    for r_high, word in enumerate(high_words):
        if r_high:  # high word 0 is the zero word: its block is the low span
            block = np.add(low_words, word, out=None if r_high == 1 else block)
            np.subtract(block, block.dtype.type(b), out=block, where=block >= b)
        _horner(block, b, n, nums[r_high * len(block) : (r_high + 1) * len(block)])
    return PointSet(b, n, d, nums, provenance=provenance)


def _horner(words: np.ndarray, b: int, n: int, out: np.ndarray) -> np.ndarray:
    """Pack digit words, rows of d blocks of n digits, most significant
    first, into the zeroed (rows, d) numerators `out`, and return it."""
    digits = words.reshape(out.shape + (n,))
    for nu in range(n):
        out *= b
        out += digits[:, :, nu]
    return out


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
    #: the route that reached the verdict, "matrices" (by rank) or "points"
    #: (by scanning boxes); both give the same check, so it is not compared
    route: Optional[str] = field(default=None, compare=False)


def is_net(p: PointSet) -> NetCheck:
    """Exact (0,n,d)-net test: every b-adic box of volume b**-n holds one point.

    The shapes are the (j_1..j_d) with sum j_i = n, coarser boxes following
    by aggregation.  When the matrices of p's provenance (`PointSet.matrices`)
    provably generate it, `generate_points` of them giving its numerators in
    order, the test runs on the matrices (Niederreiter and Pirsic, Acta
    Arith. 97 (2001)): a shape's boxes each hold one point exactly when the
    first j_i rows of the C_i, stacked, have rank n over F_b.  Any other
    point set is scanned shape by shape (`_scan_shape`).  Either way the
    first failing shape is scanned for its witness, so both routes return
    the same check; `route` names the one taken.
    """
    b, n, d = p.b, p.n, p.d
    if p.size != b**n:
        raise NotPowerCardinality(f"N = {p.size} != b**n = {b**n}")
    g = p.matrices
    shapes = compositions(n, d)
    if g is not None and np.array_equal(generate_points(g).numerators, p.numerators):
        route = "matrices"
        shapes = [s for s in shapes
                  if gf_rank(np.concatenate([c[:j] for c, j in zip(g.mats, s)]), b) < n][:1]
        if not shapes:
            return NetCheck(ok=True, route=route)
    else:
        route = "points"
    columns = p.numerators.T.copy()
    for shape in shapes:
        witness = _scan_shape(columns, b, n, shape)
        if witness:
            return NetCheck(False, shape, *witness, route=route)
    return NetCheck(ok=True, route=route)


def _scan_shape(columns: np.ndarray, b: int, n: int, shape: tuple[int, ...]) -> Optional[tuple]:
    """(box, count) of the first box of `shape` that does not hold exactly
    one of the b^n points whose numerators are the rows of `columns`, (d, N);
    None when each box holds one.

    The box key starts as the quotient k_i // b^(n - j_i) of the first
    coordinate with j_i > 0, and each later one multiplies it by b^(j_i) and
    adds its own.  With N = b^n points, every box holds one point exactly
    when every box is hit, so the keys mark one boolean array; the counts
    that name the witness box are computed only for a failing shape.
    """
    # the first quotient is a fresh array, so the in-place steps of the
    # later coordinates never write to `columns`
    active = [(column, j) for column, j in zip(columns, shape) if j]
    if not active:  # n = 0: one box holds every point
        key = np.zeros(columns.shape[1], dtype=np.int64)
    else:
        key = active[0][0] // (b ** (n - active[0][1]))
    for column, j in active[1:]:
        key *= b**j
        key += column // (b ** (n - j))
    seen = np.zeros(b**n, dtype=bool)
    seen[key] = True
    if seen.all():
        return None
    counts = np.bincount(key, minlength=b**n)
    box_key = int(np.flatnonzero(counts != 1)[0])
    count = int(counts[box_key])
    box = []
    for j in reversed(shape):
        box.append(box_key % (b**j))
        box_key //= b**j
    return tuple(reversed(box)), count


@dataclass(frozen=True, eq=False)
class DualSet:
    """Nonzero frequency tuples annihilated by the transposed matrices.

    `array` is the (M, d) int64 array of the frequencies in lexicographic
    row order.  `elements`, the same rows as a sorted tuple of int tuples,
    and the set that membership reads are built from it on first read.
    """

    b: int
    n: int
    d: int
    array: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualSet):
            return NotImplemented
        return (
            (self.b, self.n, self.d) == (other.b, other.n, other.d)
            and np.array_equal(self.array, other.array)
        )

    @functools.cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    @functools.cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    def __contains__(self, t) -> bool:
        return tuple(int(v) for v in t) in self._members

    def __len__(self) -> int:
        return len(self.array)


def dual_set(g: GeneratingMatrices) -> DualSet:
    """Solve C_1^T tbar_1 + ... + C_d^T tbar_d = 0 over F_b, excluding t = 0.

    tbar_i holds the digits of t_i least significant first, matching rbar:
    entry i n + nu of a word of the null space is digit nu of t_i.  The
    frequencies come in lexicographic order.
    """
    b, n, d = g.b, g.n, g.d
    stacked = np.concatenate([g.mats[i].T for i in range(d)], axis=1)  # (n, d*n)
    words = enumerate_span(gf_nullspace(stacked, b), b)
    t = words.reshape(len(words), d, n) @ (b ** np.arange(n, dtype=np.int64))
    t = t[t.any(axis=1)]
    array = t[np.lexsort(t.T[::-1])]
    array.flags.writeable = False
    return DualSet(b, n, d, array)


def char_sum(p: PointSet, t: Sequence[int]) -> complex:
    """sum_h wal_t(x_h) from the residue counts of the exponents.

    The exponent of point h is sum_(i, nu) tau_(i,nu) x_(h,i,nu+1) over the
    base-b digits tau of t (least significant first): all N of them are one
    contraction of tau with `PointSet.digits`, exact integers up to
    d n (b-1)^2.  One `bincount` counts them, folded mod b; when they can
    take more values than there are points, `np.unique` counts their
    residues instead, so the counts never outgrow N + b and a base far above
    N costs no memory in b.  `fmod` costs about 15 times the fold per point,
    so it runs only there.  Exactly N when every exponent is 0 mod b and
    exactly 0 when all b residues are equally frequent, which for a digital
    net are the dual set (plus t = 0) and its complement; otherwise the
    float root sum over the residues that occur.
    """
    b, n = p.b, p.n
    t = [int(v) for v in t]
    if len(t) != p.d:
        raise InvalidParams("t must have d coordinates")
    if any(not 0 <= ti < b**n for ti in t):
        raise InvalidParams(f"t coordinates must lie in [0, b^n) = [0, {b**n})")
    table = p.digits  # SizeOverflow when the exponents pass 2^53
    tau = np.array([ti // b**nu % b for ti in t for nu in range(n)], dtype=table.dtype)
    exponents = tau @ table
    values = p.d * n * (b - 1) ** 2 + 1
    if values > p.size:  # more values than points: count the residues that occur
        residues, counts = np.unique(np.fmod(exponents, b).astype(np.intp), return_counts=True)
    else:
        counts = np.bincount(exponents.astype(np.intp), minlength=-(-values // b) * b)
        counts = counts.reshape(-1, b).sum(axis=0)
        residues = np.flatnonzero(counts)
        counts = counts[residues]
    if not residues.any():  # every exponent is 0 mod b, or there is no point
        return complex(p.size)
    if residues.size == b and (counts == counts[0]).all():
        return 0j
    return sum(c * cmath.exp(2j * cmath.pi * r / b) for r, c in zip(residues.tolist(), counts.tolist()))


# --- point-set file format ---------------------------------------------------

_HEADER_RE = re.compile(r"^#qmcnet v1 b=(\d+) n=(\d+) d=(\d+) N=(\d+)\s*$")
_WRITE_ROWS = 2**14  # rows per block of text


def _write_pointset(p: PointSet, fh) -> None:
    """Header, provenance, then one text per block of rows: each value's
    digits right-aligned in a fixed-width ASCII table with a separator
    column (a newline after every d-th value), its leading zeros masked out:
    the loop that takes the digits keeps a column where the quotient before
    it is positive, and always keeps the units and separator columns."""
    fh.write(f"#qmcnet v1 b={p.b} n={p.n} d={p.d} N={p.size}\n")
    if p.provenance:
        fh.write(f"#provenance {json.dumps(p.provenance, sort_keys=True)}\n")
    for start in range(0, p.size, _WRITE_ROWS):
        values = p.numerators[start : start + _WRITE_ROWS].ravel()
        width = len(str(values.max()))
        text = np.empty((values.size, width + 1), dtype=np.uint8)
        keep = np.ones((values.size, width + 1), dtype=bool)
        rest = values
        for col in range(width - 1, -1, -1):
            if col < width - 1:
                np.greater(rest, 0, out=keep[:, col])
            q = rest // 10  # // and a multiply-subtract: numpy's int64 divmod is slower
            text[:, col] = rest - q * 10 + ord("0")
            rest = q
        text[:, width] = ord(" ")
        text[p.d - 1 :: p.d, width] = ord("\n")
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
    p = PointSet(b, n, d, nums, provenance=provenance)
    try:
        p.matrices  # a digital provenance is parsed, and so checked, here
    except InvalidParams as exc:
        raise NetFileError(str(exc)) from None
    return p
