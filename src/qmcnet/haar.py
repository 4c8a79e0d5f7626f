"""The d-dimensional b-adic Haar system.

Closed-form coefficients for the volume function and for anchored-box
indicators, the discrepancy coefficients of a point set level by level, and
the Parseval and Besov norms of the discrepancy function.  Levels are vectors
j in {-1, 0, 1, ...}^d; a coordinate at level -1 carries the constant
(indicator-of-cube) factor.

One sweep (`haar_levels`) visits every level with all j_i <= n - 1; deeper
levels hold no interior point, so there mu = -volume and their mass has a
closed form.  Once per level prefix (head) (j_1, ..., j_(d-1)) it sorts the
points by (prefix box indices, k_d), by one stable sort on the box indices
of the point set's k_d order (`PointSet.last_order`, built once per set),
and builds all that depends on the head alone (`level_prefix`): each row's
head factor P = w (x)_i G_i, the running sums of P and of P k_d, and how
many leading base-b digits of k_d each row shares with the row before.
Each level with that prefix finds its boxes and their sub-cells as the runs
of rows that share enough digits (`level_aggregate`), and counts the
interior rows of each box.

Every sub-cell quantity is an integer in units of b^-n.  A point's sub-cell
vector in one coordinate is read through its integer Helmert coordinates G
(`Offsets.helmert`), and a row adds w (x)_i G_i / M to its box's real
tensor, w = prod (b^n - k_i) over level -1 and M = N b^(nd).  One kernel
(`LevelAggregate.box_sums`, once per level) reads the integer sums
A_m = sum w (x)_i G_i of every box from the running sums at its sub-cell
bounds: the last coordinate's G is linear in k_d within each sub-cell, so a
box's sums are differences of the running sums, as in a summed-area table
(Crow, SIGGRAPH 1984), and no per-row product is formed.  It fills them
over blocks of whole boxes of about `_BOX_ENTRIES` entries each (b sub-cell
slots per box times the head's width), so beside the running sums a level
holds its box sums and one block of scratch.  They are exact (int64 where M proves it, else
Python ints).  A level's p = 2 mass sum_(m,l) |mu_jml|^2 follows from them
by Plancherel on Z_b^s as a `Fraction` (`LevelAggregate.mass`), so
Parseval's ||D_P||_2^2 is exact.  The float coefficients mu
(`LevelAggregate.mu_blocks`, which the audit and Besov at p != 2 read
through `sups` and `mass`) are on a level with a multi-point box the DFT of
A less the volume, taken off in integers, so the DFT is their only
rounding; on a level of single-point boxes they are each row's product of
DFT factors less the volume.  A coordinate's factor depends on the row's
offset in its box alone, so where there are fewer offsets than rows it is
read from a table with one row per offset, through each row's offset;
elsewhere a row's factor is its own row, so no table outgrows the rows it
serves (`Offsets.dft`).  There,
with every coordinate active, a row's mu depends on its offsets alone, so
`sups` reads mu once per offset tuple that occurs when that is cheaper.
The box tensors are real, so mu at b - l is the conjugate of mu at l: mu
is computed at one l-combination of each pair.
One reduction (`_qsum`) turns the float level masses into sum_j Xi_j^q plus
the exact tail: its q-th root is the Besov quasi-norm.

Once every occupied box of level (head, j_d) holds at most one point, so
does every deeper j_d of that head, as finer boxes hold a subset of the
coarser ones' interior points.  There each box sum is one row, a product
over coordinates, and the p = 2 masses of all those levels come from one
integer contraction of per-point factors (`_single_point_masses`), each a
closed form in the point's sub-cell whose sum over the Helmert columns past
it telescopes (`_point_factors`), so no Helmert coordinates are built.  So
`haar_norms` at p = 2 reads no level past each head's first single-point
level; the audit, Besov at p != 2 and `haar_levels` visit every level.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidParams
from .field import root_of_unity, roots_of_unity
from .nets import PointSet

Point = Sequence[Fraction]


@dataclass(frozen=True)
class HaarIndex:
    """Index (j, m, l) of one d-dimensional b-adic Haar function."""

    j: tuple[int, ...]
    m: tuple[int, ...]
    l: tuple[int, ...]

    def __post_init__(self):
        if not len(self.j) == len(self.m) == len(self.l):
            raise InvalidParams("j, m, l must share the dimension")

    def validate(self, b: int) -> None:
        for ji, mi, li in zip(self.j, self.m, self.l):
            if ji < -1:
                raise InvalidParams(f"level {ji} < -1")
            if ji == -1:
                if mi != 0 or li != 1:
                    raise InvalidParams("level -1 requires m = 0, l = 1")
            else:
                if not 0 <= mi < b**ji:
                    raise InvalidParams(f"m = {mi} outside D_{ji}")
                if not 1 <= li <= b - 1:
                    raise InvalidParams(f"l = {li} outside B_{ji}")

    @property
    def d(self) -> int:
        return len(self.j)

    @property
    def active(self) -> tuple[int, ...]:
        """Coordinates with j_i != -1."""
        return tuple(i for i, ji in enumerate(self.j) if ji != -1)

    @property
    def s(self) -> int:
        return len(self.active)

    @property
    def total_level(self) -> int:
        """|j| = sum of levels over active coordinates."""
        return sum(self.j[i] for i in self.active)


def volume_coeff(idx: HaarIndex, b: int) -> complex:
    """Haar coefficient of f(x) = x_1 ... x_d; independent of m.

    Closed form: b^(-2|j| - s) / (2^(d-s) * prod_eta (e^(2 pi i l_eta / b) - 1)).
    """
    idx.validate(b)
    s = idx.s
    denom = 2.0 ** (idx.d - s)
    for i in idx.active:
        denom *= root_of_unity(b, idx.l[i]) - 1.0
    return b ** (-2 * idx.total_level - s) / denom


def indicator_coeff(z: Point, idx: HaarIndex, b: int) -> complex:
    """Haar coefficient of g(x) = chi_[0,x)(z).

    Zero unless every active coordinate of z lies strictly inside its box
    I_(j_i, m_i); coordinates at level -1 contribute the factor (1 - z_i).
    """
    idx.validate(b)
    value = 1.0 + 0.0j
    for ji, mi, li, zi in zip(idx.j, idx.m, idx.l, z):
        if ji == -1:
            value *= float(1 - Fraction(zi))
            continue
        scaled = Fraction(zi) * b**ji
        if not mi < scaled < mi + 1:  # interior only; grid points excluded
            return 0.0j
        fine = Fraction(zi) * b ** (ji + 1)
        k = math.floor(fine) - b * mi
        u = float(b * mi + k + 1 - fine)
        bracket = u * root_of_unity(b, k * li)
        for r in range(k + 1, b):
            bracket += root_of_unity(b, r * li)
        value *= b ** (-ji - 1) * bracket
    return value


# --- the level sweep ------------------------------------------------------------


_MU_ENTRIES = 2**16  # rows times l-combinations per `mu_blocks` block of a single-point level
_SUM_ENTRIES = 2**16  # points times coordinate levels per block of `_single_point_masses`
_BOX_ENTRIES = 2**16  # boxes times b times the prefix's width per block of `box_sums`


def _int_dtype(bound: int):
    """np.int64 if `bound` proves every sum below 2^63, else object (Python ints)."""
    return np.int64 if bound < 2**63 else object


@functools.lru_cache(maxsize=None)
def _helmert_dft(b: int) -> np.ndarray:
    """T[h-1, l-1] = (sum_(r<h) omega^(r l) - h omega^(h l)) / (h (h + 1)), the
    DFT at l = 1..b-1 of Helmert column h over its squared norm; read-only
    and built once per base."""
    powers = roots_of_unity(b)[np.arange(b)[:, None] * np.arange(1, b) % b]  # omega^(r l)
    h = np.arange(1, b)[:, None]
    table = (np.cumsum(powers, axis=0)[:-1] - h * powers[1:]) / (h * (h + 1))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _helmert_weights(b: int) -> tuple[int, np.ndarray]:
    """(L, W): L the lcm of h (h + 1) over h = 1..b-1 and W[h-1] = L / (h (h + 1))
    as Python ints, so 1 / ||e_h||^2 = W_h / L; read-only."""
    L = math.lcm(*(h * (h + 1) for h in range(1, b)))
    W = np.array([L // (h * (h + 1)) for h in range(1, b)], dtype=object)
    W.flags.writeable = False
    return L, W


@dataclass(frozen=True)
class Offsets:
    """Where some points sit inside their boxes in one coordinate at level j.

    With sub = b^(n-j-1), the sub-cell width in units of b^-n, a point at
    offset rem = b^n z - b sub m inside box m lies in sub-cell
    k = rem // sub; it is interior when rem > 0.  Its indicator coefficient
    on this coordinate is b^(-j-1) times the DFT at l = 1..b-1 of the real
    sub-cell vector c[r] = u [r = k] + [r > k] with u = 1 - (rem % sub) / sub.
    Every per-row form reads c through its integer Helmert coordinates
    (`helmert`).
    """

    b: int
    rem: np.ndarray
    sub: int

    def helmert(self, rows: np.ndarray) -> np.ndarray:
        """G (len(rows), b-1) int64 of `rows`, the coordinates G_h = <sub c, e_h>
        in the Helmert basis e_h = 1 on r < h, -h at r = h: 0 for h < k,
        k (rem - k sub - sub) at h = k, -rem beyond.  The DFT of sub c is
        G @ `_helmert_dft`.  G depends on rem alone: with fewer offsets b sub
        than rows, it is built once per offset and looked up."""
        at = self.rem[rows]
        table = self.b * self.sub < at.size
        rem = np.arange(self.b * self.sub) if table else at
        k = rem // self.sub  # floor division is much faster than np.divmod
        diag = (k * (rem - k * self.sub - self.sub))[:, None]
        k, h = k[:, None], np.arange(1, self.b)
        out = np.where(h > k, -rem[:, None], np.where(h == k, diag, 0))
        return np.take(out, at, axis=0) if table else out  # take: 4x out[at] on 2-d

    def dft(self, rows: np.ndarray) -> Factors:
        """The DFT factors G @ `_helmert_dft` of `rows`.  With fewer offsets
        b sub than rows, a table of one row per offset, one matmul over
        every offset, and each row's rem, so no per-row factor is kept; else
        helmert(rows) @ T, one row per row.  A table row has the bits of the
        same row in any matmul of 2 or more rows."""
        T = _helmert_dft(self.b)
        if self.b * self.sub >= len(rows):
            return Factors(self.helmert(rows) @ T)
        every = np.arange(self.b * self.sub)
        return Factors(Offsets(self.b, every, self.sub).helmert(every) @ T, self.rem[rows])


@dataclass(frozen=True)
class Factors:
    """One coordinate's DFT factors of some rows, (len(rows), b-1) complex
    when read as F[rows]: rows `at[rows]` of a per-offset `table`, or, with
    `at` None, rows `rows` of a per-row one (`Offsets.dft`)."""

    table: np.ndarray
    at: Optional[np.ndarray] = None

    def __getitem__(self, rows: slice | np.ndarray) -> np.ndarray:
        return self.table[rows] if self.at is None else np.take(self.table, self.at[rows], axis=0)


def _offsets(k: np.ndarray, b: int, n: int, ji: int) -> tuple[np.ndarray, Offsets]:
    """(box index m, `Offsets`) of the numerators k / b^n at level 0 <= ji < n."""
    step = b ** (n - ji)
    m = k // step
    return m, Offsets(b, k - m * step, step // b)


@dataclass
class LevelPrefix:
    """The points of a set sorted once for every level j = (head, j_d), and
    the running sums every level with this head reads its box sums from.

    `idx` lists the points interior to their box in each active coordinate of
    the head, sorted by (head box indices m_i in coordinate order, k_d, point
    index); rows with equal head boxes form a head run.  In that order the
    box indices (m_1, ..., m_d) of every level with this head never decrease
    lexicographically, since the last one grows with k_d.  `k_d` holds each
    row's numerator of the last coordinate, and per row r `split` is the
    number of leading base-b digits of k_d that row r shares with row r - 1,
    -1 where a head run starts and at r = rows.  So at level j_d >= 0 the
    boxes start where split < j_d, their sub-cells of width b^(n - j_d - 1)
    where split <= j_d, and a row repeats the k_d of the row before where
    split = n.  `sums` holds the running sums C0 of the head
    factor P = w (x)_i G_i (the weight of the head's level -1 coordinates
    times the integer Helmert coordinates of its active ones, first factor
    slowest) and C1 of P k_d, with a leading zero column: the sum of P over
    rows r0 to r1 - 1 is sums[0, :, r1] - sums[0, :, r0].  Every running
    sum is below M = N b^(nd) in absolute value, so they are int64 where
    M < 2^63 proves it, else Python ints.
    """

    p: PointSet
    head: tuple[int, ...]  # (j_1, ..., j_(d-1))
    idx: np.ndarray  # point indices, sorted
    k_d: np.ndarray  # per row: the numerator of the last coordinate, int64
    split: np.ndarray  # (rows + 1,) int8: leading digits of k_d shared with the row before
    sums: np.ndarray  # (2, width, rows + 1): C0 and C1

    @property
    def rows(self) -> int:
        return self.idx.size

    @functools.cached_property
    def group_end(self) -> np.ndarray:
        """Per row: one past the last row of its head run with its k_d, built
        when a level first counts the points on its boxes' left edges."""
        firsts = np.flatnonzero(self.split < self.p.n)
        return np.repeat(firsts[1:].astype(np.int32), np.diff(firsts))

    @functools.cached_property
    def dft(self) -> list[Factors]:
        """The DFT factors G @ T of each active head coordinate over the rows
        (`Offsets.dft`), built when a level of single-point boxes first reads
        mu."""
        p, rows = self.p, np.arange(self.rows)
        return [_offsets(p.numerators[self.idx, i], p.b, p.n, ji)[1].dft(rows)
                for i, ji in enumerate(self.head) if ji >= 0]


def level_prefix(p: PointSet, head: Sequence[int]) -> LevelPrefix:
    """Sort the points of p for the levels whose first d - 1 entries are
    `head`, count the leading digits of k_d each row shares with the row
    before and build the running sums of the head factor P (`LevelPrefix`).

    The sort reads the point set's stable k_d order (`PointSet.last_order`),
    keeps the head's interior points in it and sorts them stably by the
    head box indices m_i alone, each in the smallest unsigned dtype that
    holds b^j_i - 1 (numpy radix-sorts keys of 16 bits or fewer): one
    lexsort over (m_i, k_d) of the points in index order, row for row."""
    head = tuple(int(v) for v in head)
    if len(head) != p.d - 1:
        raise InvalidParams("level must have d entries")
    if any(v < -1 for v in head):
        raise InvalidParams("levels start at -1")
    b, n, D = p.b, p.n, p.denominator
    keep = np.ones(p.size, dtype=bool)
    boxes, offsets = [], []
    for i, ji in enumerate(head):
        if ji == -1:
            continue
        if ji >= n:  # the points sit on the level grid, none are interior
            keep[:] = False
            continue
        m, off = _offsets(p.numerators[:, i], b, n, ji)
        keep &= off.rem != 0
        boxes.append(m.astype(np.min_scalar_type(b**ji - 1)))  # m < b^j_i
        offsets.append(off)
    idx = p.last_order[keep[p.last_order]]  # by (k_d, point index)
    if boxes:  # a stable sort, radix on keys of 16 bits or fewer; np.lexsort sorts by its last key first
        idx = idx[np.lexsort([m[idx] for m in reversed(boxes)])]
    k_d = p.numerators[idx, -1]
    new_run = np.zeros(idx.size, dtype=bool)
    new_run[:1] = True
    for m in boxes:
        m = m[idx]
        new_run[1:] |= m[1:] != m[:-1]
    del boxes
    dtype = _int_dtype(max(p.size, 1) * D**p.d)  # a row's |P k_d| is below b^(nd)
    P = np.ones((idx.size, 1), dtype=dtype)
    for i, ji in enumerate(head):
        if ji == -1:
            P *= (D - p.numerators[idx, i, None]).astype(dtype)
    for off in offsets:
        P = np.multiply(P[:, :, None], off.helmert(idx)[:, None, :].astype(dtype))
        P = P.reshape(idx.size, P.shape[1] * P.shape[2])
    del offsets
    sums = np.zeros((2, P.shape[1], idx.size + 1), dtype=dtype)
    np.cumsum(P, axis=0, out=sums[0, :, 1:].T)
    P *= k_d[:, None].astype(dtype)
    np.cumsum(P, axis=0, out=sums[1, :, 1:].T)
    del P
    split = np.zeros(idx.size + 1, dtype=np.int8)
    q = k_d.copy()
    for _ in range(n):  # k_d // b^e: equal in all e < n - t iff t leading digits are shared
        split[1:-1] += q[1:] == q[:-1]
        q //= b
    del q
    split[:-1][new_run] = split[-1] = -1
    return LevelPrefix(p, head, idx, k_d, split, sums)


def _tensor(vector: np.ndarray, s: int) -> np.ndarray:
    """The s-fold outer power of `vector`, flattened, first factor slowest."""
    return functools.reduce(np.multiply.outer, [vector] * s, np.ones((), vector.dtype)).ravel()


def _exact_mass(b: int, j: tuple[int, ...], scale: int, sq: int, lin: int) -> Fraction:
    """The p = 2 mass of level j from its boxes' integer sums A_m[h] of
    w (x)_i G_i: sq = L^s sum_m sum_h A_m[h]^2 / prod_i h_i (h_i + 1) and
    lin = sum_m sum_h A_m[h], with M = `scale` = N b^(nd).

    A box's real sub-cell tensor is X = A_m / M - gamma (x)_i v with
    v[r] = 2r - (b-1) and gamma = b^(-2|j|-2s) / 2^d, and its mass is
    b^s ||P X||^2 (Plancherel; P removes the mean along every axis).  In the
    Helmert basis v has coordinates -h (h + 1), so the mass of level j is
    b^s (sq / (L^s M^2) - 2 (-1)^s gamma lin / M + b^|j| gamma^2 V^s) with
    V = ||v||^2 = (b-1) b (b+1) / 3; the last term counts every box, the
    empty ones too.  At s = 0 it is (sum w / M - 2^-d)^2.
    """
    s = sum(1 for v in j if v >= 0)
    total_level = sum(v for v in j if v >= 0)
    g, Ls = b ** (2 * total_level + 2 * s) * 2 ** len(j), _helmert_weights(b)[0] ** s  # g = 1/gamma
    volume = b**total_level * ((b - 1) * b * (b + 1) // 3) ** s * Ls * scale**2
    numerator = sq * g * g - 2 * (-1) ** s * lin * Ls * scale * g + volume
    return Fraction(b**s * numerator, Ls * scale**2 * g * g)


@dataclass
class LevelAggregate:
    """The boxes of one level j for a fixed point set, and their coefficients.

    The boxes that hold a row are runs of the prefix order: box i holds
    rows `cuts[i]` to `cuts[i + 1]` - 1.  Its rows on its left edge,
    k_d = m b^(n - j_d), come first and are not interior; `interior[i]`
    counts the others, and a box is occupied when it has one.  Each interior
    row adds w (x)_i G_i over `scale` = N b^(nd) to its box's real tensor,
    with G a coordinate's integer Helmert coordinates and
    w = prod (b^n - k_i) over level -1; mu_jml is the tensor's DFT at l
    minus the volume coefficient.  `box_sums` reads each box's exact
    integer sum from the prefix's running sums, once, for `mass(2)` and
    `mu_blocks`; the latter yields mu of the occupied boxes at one
    l-combination of each conjugate pair (`columns`), read outside only
    through `sups` and `mass`; the empty boxes all carry mu = -volume.  The
    fields `sel`, `base` and `last` (the last coordinate's DFT factors) are
    built only where mu is read row by row, on a level of single-point boxes
    (`_terms`): never by `mass(2)`.
    """

    j: tuple[int, ...]
    b: int
    l_combos: np.ndarray  # (n_lcombos, s) read-only, shared per (b, d, s, |j|)
    n_boxes: float  # b**|j| (float; may exceed integer range at deep levels)
    volume: np.ndarray  # (n_lcombos,) volume coefficients, read-only
    scale: int  # N b^(nd) (b^(nd) at N = 0)
    prefix: LevelPrefix
    cuts: np.ndarray  # (boxes + 1,) first row of each box that holds a row, then rows
    interior: np.ndarray  # (boxes,) the interior rows of each

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """(occupied,) the interior rows of each occupied box, in box order."""
        return self.interior[self.interior > 0]

    @property
    def occupied(self) -> int:
        return self.counts.size

    @property
    def empty_count(self) -> float:
        return self.n_boxes - self.occupied

    @property
    def total_level(self) -> int:
        return sum(v for v in self.j if v >= 0)

    @property
    def s(self) -> int:
        """The number of active coordinates, j_i >= 0."""
        return sum(1 for v in self.j if v >= 0)

    @property
    def columns(self) -> int:
        """How many l-combinations `mu_blocks` yields: the leading ones of
        `l_combos`.  At odd b these are the l_1 <= (b-1)/2, one of each
        conjugate pair, since the box tensor is real and so mu_(j,m,b-l) =
        conj mu_(j,m,l).  At b = 2 or s = 0 each l is its own partner."""
        return len(self.l_combos) // (2 if self.s and self.b > 2 else 1)

    @functools.cached_property
    def sel(self) -> np.ndarray:
        """On a level of single-point boxes, the interior row of each
        occupied box in prefix order: its last row, as its edge rows come
        first.  Read only there."""
        return self.cuts[1:][self.interior > 0] - 1

    @functools.cached_property
    def base(self) -> np.ndarray:
        """Per row of `sel`: w / (N b^(nd)) as a float, the factor of its
        (x)_i G_i in mu."""
        p = self.prefix.p
        weight = np.ones(self.sel.size, dtype=_int_dtype(self.scale))
        idx = self.prefix.idx[self.sel]
        for i, ji in enumerate(self.j):
            if ji == -1:  # the points themselves are read only at level -1
                weight = weight * (p.denominator - p.numerators[idx, i]).astype(weight.dtype)
        return weight.astype(float) / float(self.scale)

    @functools.cached_property
    def last(self) -> list[Factors]:
        """[the DFT factors G @ T of the last coordinate over the rows of
        `sel` (`Offsets.dft`)] if j_d is active, else []."""
        jd = self.j[-1]
        if jd < 0:
            return []
        off = _offsets(self.prefix.k_d, self.b, self.prefix.p.n, jd)[1]
        return [off.dft(self.sel)]

    @functools.cached_property
    def box_sums(self) -> np.ndarray:
        """A ((b-1)^s, occupied): each occupied box's exact integer sum
        sum_rows w (x)_i G_i, first factor slowest, in the dtype of the
        prefix's running sums.  Built on the first read, once per level.

        Every sum comes from differences of the running sums C0 of P and C1
        of P k_d (`LevelPrefix`).  At j_d = -1 each box is a head run and
        its sum is b^n S0 - S1, with S0 and S1 the sums of P and P k_d over
        it.  At j_d >= 0, with sub = b^(n - j_d - 1), m a box's index and
        rem = k_d - m b sub, G_h = -rem for h > k, k (rem - (k+1) sub) at
        h = k and 0 for h < k on sub-cell k: linear in k_d on each sub-cell,
        whose sums of P rem and of P (rem - (k+1) sub) are S1 - m b sub S0
        and S1 - (m b sub + (k+1) sub) S0 over it.  So column h of a box is
        h times the latter on its sub-cell h less the former summed over its
        sub-cells k < h, a running sum along h.  Every intermediate is a sum
        over rows of P times a factor below b^n in absolute value, so below
        M = N b^(nd): int64 where M proves it; k times the sum of P rem
        could reach b M and is never formed.  A box's rows on its left edge
        have rem = 0 and add nothing.

        The result is allocated once and filled over blocks of whole boxes,
        whose sub-cells are contiguous in prefix order: b slots per box
        times the width, about `_BOX_ENTRIES` per block, hold the block's
        dense sums, so no intermediate spans the level.
        """
        b, prefix, jd = self.b, self.prefix, self.j[-1]
        C = prefix.sums
        if not self.occupied:  # no interior row, as where j_d >= n
            return np.zeros(((b - 1) ** self.s, 0), dtype=C.dtype)
        D, boxes, width = prefix.p.denominator, self.interior.size, C.shape[1]
        if jd < 0:  # w holds b^n - k_d
            S0, S1 = np.diff(np.take(C, self.cuts, axis=2), axis=2)  # each (width, boxes)
            return S0 * D - S1
        sub = b ** (prefix.p.n - jd - 1)
        out = np.empty((width, b - 1, self.occupied), dtype=C.dtype)
        step = max(1, _BOX_ENTRIES // (b * width))  # boxes per block, of b sub-cells at most
        done = 0  # occupied boxes filled
        for box in range(0, boxes, step):
            nb = min(step, boxes - box)
            r0, r1 = self.cuts[box], self.cuts[box + nb]
            # each sub-cell's first row, then r1, where the next box or the prefix's end has split < 0 <= jd
            first = np.flatnonzero(prefix.split[r0 : r1 + 1] <= jd)
            first += r0
            S0, S1 = (np.diff(np.take(Ci, first, axis=1), axis=1) for Ci in C)
            starts = prefix.split[first[:-1]] < jd  # where a box starts
            k = prefix.k_d[first[:-1]]
            del first
            k //= sub  # m b + k, m its box's index and k its place in the box
            mbs = k // b
            mbs *= b
            k -= mbs
            mbs *= sub  # m b sub
            S1 -= mbs * S0  # the sum of P rem
            del mbs
            S0 *= (k + 1) * sub
            S0 = np.subtract(S1, S0, out=S0)  # the sum of P (rem - (k+1) sub)
            S0 *= k
            at = np.cumsum(starts)  # its box in the block, from 1
            del starts
            at -= 1
            k *= nb
            at += k  # then its place in (b, nb)
            del k
            Q = np.zeros((width, b * nb), dtype=C.dtype)
            Q[:, at] = S1
            del S1
            A = np.zeros((width, b * nb), dtype=C.dtype)
            A[:, at] = S0
            del S0, at
            Q, A = Q.reshape(width, b, nb), A.reshape(width, b, nb)
            for h in range(1, b - 1):  # the running sum of Q over the sub-cells k <= h
                Q[:, h] += Q[:, h - 1]
            occupied = self.interior[box : box + nb] > 0  # else a box of edge rows alone
            fill = int(occupied.sum())
            if fill == nb:
                np.subtract(A[:, 1:], Q[:, :-1], out=out[:, :, done : done + nb])
            else:
                out[:, :, done : done + fill] = (A[:, 1:] - Q[:, :-1])[:, :, occupied]
            del Q, A
            done += fill
        return out.reshape(-1, self.occupied)

    def mu_blocks(self) -> Iterator[np.ndarray]:
        """mu of the occupied boxes in box order at the leading `columns`
        l-combinations, (boxes, columns) complex per block.

        At s = 0 the one box's mu, sum w / M - 2^-d, is exact.  On a level
        with a multi-point box, the whole level is one block, never larger
        than the integer array `box_sums` builds: each box's tensor less the
        volume, X = (A - V / g) / M in the units of G, with V / g =
        (-1)^s M gamma (x)_i h_i (h_i + 1) (`_exact_mass`), is taken in
        integers as A - floor(V / g), then its float less the fraction of
        V / g and over M, all in one float array, and contracted with
        `_helmert_dft` along every axis by one matmul each, the first as two
        real matmuls written into one complex array.  Splitting this DFT
        into blocks of boxes would change its bits.  So a level of zero mass
        has mu exactly 0, and the DFT is mu's only rounding beyond X's.  When
        every box holds one point, mu is each row's `_terms` product of DFT
        factors G @ T less the volume, in blocks of about `_MU_ENTRIES` rows
        times l-combinations; the factors (`Offsets.dft`) are built once per
        prefix or level, never per block, as `@` rounds a row of a one-row
        batch differently.  So mu has the same bits at any block size.
        """
        b, s = self.b, self.s
        if s == 0:
            mean = Fraction(int(self.box_sums.sum()), self.scale)
            yield np.array([[float(mean - Fraction(1, 2 ** len(self.j)))]], dtype=complex)
            return
        if not self.occupied:
            return
        if self.counts.max() == 1:
            yield from self._single_point_mu()
            return
        T = _helmert_dft(b)
        lead = self.columns // (b - 1) ** (s - 1)  # the l_1 computed
        g = b ** (2 * self.total_level + 2 * s) * 2 ** len(self.j)  # 1 / gamma
        V = _tensor(np.arange(1, b, dtype=object) * np.arange(2, b + 1), s) * ((-1) ** s * self.scale)
        dtype = _int_dtype(2 * self.scale)  # |A - floor(V / g)| < 2 M
        A = self.box_sums.astype(dtype, copy=False)
        X = np.empty(A.shape)
        np.subtract(A, (V // g).astype(dtype)[:, None], out=X, casting="unsafe")  # in integers, then rounded
        del A
        X -= np.array([(v % g) / g for v in V])[:, None]  # int / int rounds once
        X /= float(self.scale)
        # the first axis at its leading `lead` l, by two real matmuls into one complex array
        X = X.reshape(b - 1, -1).T
        Y = np.empty((len(X), lead), dtype=complex)
        Y.real = X @ T[:, :lead].real
        Y.imag = X @ T[:, :lead].imag
        X = Y
        del Y
        for _ in range(s - 1):  # each matmul moves the axis it transforms to the end
            X = X.reshape(b - 1, -1).T @ T
        yield X.reshape(self.occupied, self.columns)

    def _single_point_mu(self, rows: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
        """mu of a level of single-point boxes at `rows` of `sel`, all if None,
        in blocks of about `_MU_ENTRIES` rows times l-combinations: each
        row's `_terms` less the volume, so a row's mu has the same bits
        whichever rows are asked for."""
        lead = self.columns // (self.b - 1) ** (self.s - 1)  # the l_1 computed
        step = max(1, _MU_ENTRIES // len(self.l_combos))
        for first in range(0, self.occupied if rows is None else rows.size, step):
            at = slice(first, first + step)
            block = self._terms(at if rows is None else rows[at], lead)
            block -= self.volume[: self.columns]
            yield block

    def _tuple_rows(self) -> Optional[np.ndarray]:
        """On a level of single-point boxes with every coordinate active, the
        first row of `sel` with each offset tuple (rem_1, ..., rem_d) that
        occurs, when evaluating those is cheaper than every row: with
        T = prod_i b^(n - j_i) the tuples possible, T columns + rows <
        rows columns.  Else None.  There w = 1 and each factor of `_terms`
        depends on its rem_i alone, so the rows of one tuple share mu."""
        p, rows, columns = self.prefix.p, self.occupied, self.columns
        tuples = self.b ** (p.n * p.d - self.total_level)
        if tuples * columns + rows >= rows * columns or self.s < p.d or self.counts.max() > 1:
            return None  # the size test first: alone it sends b = 2 back, and a level with no rows
        key = np.zeros(rows, dtype=np.int64)  # the tuple's place in T, below rows
        at = self.prefix.idx[self.sel]
        for i, ji in enumerate(self.j):
            width = self.b ** (p.n - ji)
            key *= width
            k = p.numerators[at, i]
            key += k
            key -= k // width * width  # k % width
        first = np.empty(tuples, dtype=np.intp)
        first[key[::-1]] = np.arange(rows - 1, -1, -1)  # the last write, the first row, stays
        return np.flatnonzero(first[key] == np.arange(rows))

    def _terms(self, rows: slice | np.ndarray, lead: int) -> np.ndarray:
        """base times the outer product of the DFT factors G @ T at `rows`,
        multiplied in coordinate order, first factor slowest and at its
        leading `lead` l: (rows, columns).  The head coordinates' factors
        are the prefix's (`LevelPrefix.dft`), `last` the last coordinate's
        over the level's rows.  On a level of single-point boxes, the rank-1
        mu of each box before the volume comes off."""
        F = [D[self.sel[rows]] for D in self.prefix.dft] + [L[rows] for L in self.last]
        F[0] = F[0][:, :lead]
        terms = self.base[rows, None]
        for Fi in F:
            out = np.empty((len(terms), terms.shape[1], Fi.shape[1]), dtype=complex)  # C order
            terms = np.multiply(terms[:, :, None], Fi[:, None, :], out=out)
            terms = terms.reshape(len(out), -1)
        return terms

    def sups(self) -> tuple[float, float]:
        """(sup |mu_jml| over the occupied boxes, sup |volume| over the empty
        ones), each 0.0 where the level has no such box.  |mu| at b - l is
        |mu| at l, so the sup over `mu_blocks` is that over every l.

        On a level of single-point boxes with every coordinate active, w = 1
        and mu depends on the offsets (rem_1, ..., rem_d) alone; where that
        is cheaper, `_terms` runs on the first row of each offset tuple
        alone (`_tuple_rows`).  Those rows read the same factors as
        `mu_blocks`, so the sup keeps its bits.  `mass` at p != inf reads
        every row."""
        rows = self._tuple_rows()
        blocks = self.mu_blocks() if rows is None else self._single_point_mu(rows)
        occupied = max([float(np.abs(mu).max()) for mu in blocks], default=0.0)
        empty = float(np.abs(self.volume).max()) if self.empty_count > 0 else 0.0
        return occupied, empty

    def mass(self, p: float) -> Fraction | float:
        """sum over boxes m and l-combinations of |mu_jml|^p; the sup at p = inf.

        At p = 2 it is an exact `Fraction` and never forms mu: `_exact_mass`
        reads the mass from the boxes' integer sums A (`box_sums`) and their
        squares, in int64 where max|A|^2 times the boxes < 2^63 proves it,
        else in Python ints.  At p = inf it is the larger of `sups`.
        Otherwise it reduces `mu_blocks`, one l-combination of each conjugate
        pair: at odd b the occupied boxes' sums count twice, and the empty
        boxes add the full-width volume sum.
        """
        if p == 2:
            A = self.box_sums
            top = max(-int(A.min(initial=0)), int(A.max(initial=0)))
            A = A.astype(_int_dtype(top**2 * A.shape[1]), copy=False)
            squares = np.einsum("ij,ij->i", A, A)  # each row's sum of squares, with no squared copy
            sq = np.dot(squares.astype(object), _tensor(_helmert_weights(self.b)[1], self.s))
            return _exact_mass(self.b, self.j, self.scale, int(sq), sum(A.sum(axis=1).tolist()))
        if math.isinf(p):
            return max(self.sups())
        occ = sum(float(np.sum(np.abs(mu) ** p)) for mu in self.mu_blocks())
        pairs = len(self.l_combos) // self.columns  # 2 at odd b, else 1
        return pairs * occ + self.empty_count * float(np.sum(np.abs(self.volume) ** p))


def level_aggregate(p: PointSet, j: Sequence[int], prefix: LevelPrefix) -> LevelAggregate:
    """Find the boxes of level j as runs of the sorted `prefix`, and count
    their interior rows.

    Only points interior to their box (in every active coordinate) contribute;
    boundary points have vanishing indicator coefficients.  `prefix` is
    `level_prefix(p, j[:-1])`.  Nothing is summed here: `LevelAggregate.mass`
    and `.mu_blocks` do that when asked.
    """
    j = tuple(int(v) for v in j)
    if len(j) != p.d or j[:-1] != prefix.head:
        raise InvalidParams("level must have d entries and extend the prefix")
    if j[-1] < -1:
        raise InvalidParams("levels start at -1")
    total_level = sum(v for v in j if v >= 0)
    b, n, jd = p.b, p.n, j[-1]
    s = sum(1 for v in j if v >= 0)
    l_combos, vol = _volume(b, p.d, s, total_level)
    if jd >= n:  # the points sit on the level grid, none are interior
        cuts, interior = np.full(1, prefix.rows), np.zeros(0, dtype=np.intp)
    else:
        # a box starts wherever the head run or the first j_d digits of k_d
        # change; at j_d <= 0 each head run is one box
        cuts = np.flatnonzero(prefix.split < max(jd, 0))
        starts = cuts[:-1]
        if jd >= 0:  # past the rows with the first row's k_d, when that is the left edge
            k, width = prefix.k_d[starts], b ** (n - jd)
            starts = np.where(k // width * width == k, prefix.group_end[starts], starts)
        interior = cuts[1:] - starts
    scale = max(p.size, 1) * p.denominator**p.d  # no rows at N = 0
    return LevelAggregate(j, b, l_combos, float(b) ** total_level, vol, scale, prefix, cuts, interior)


@functools.lru_cache(maxsize=None)
def _volume(b: int, d: int, s: int, total_level: int) -> tuple[np.ndarray, np.ndarray]:
    """(l_combos, volume_coeff of each), read-only, at s active coordinates and
    |j| = total_level: b^(-2|j|-s) over the outer product of 2^(d-s) and one
    (omega^l - 1) vector per active coordinate."""
    l_combos = np.array(list(itertools.product(range(1, b), repeat=s)), dtype=np.int64)
    roots = [root_of_unity(b, l) - 1.0 for l in range(1, b)]
    denoms = [2.0 ** (d - s)]
    for _ in range(s):
        denoms = [x * r for x in denoms for r in roots]
    vol = np.array([b ** (-2 * total_level - s) / x for x in denoms], dtype=complex)
    l_combos.flags.writeable = vol.flags.writeable = False
    return l_combos, vol


def levels_up_to(cap: int, d: int) -> Iterator[tuple[int, ...]]:
    yield from itertools.product(range(-1, cap + 1), repeat=d)


def haar_levels(p: PointSet, cap: Optional[int] = None) -> Iterator[LevelAggregate]:
    """The one sweep: `level_aggregate` on every level with all j_i <= n - 1,
    or <= cap if that is smaller.

    Deeper levels hold no interior point, so there mu = -volume and the
    reductions sum them in closed form.  The points are sorted once per head
    (j_1, ..., j_(d-1)) and levels come one at a time in `levels_up_to`
    order, so only one level's rows are alive if the caller drops each level
    before asking for the next.
    """
    top = p.n - 1 if cap is None else min(cap, p.n - 1)
    for head in levels_up_to(top, p.d - 1):
        yield from _head_levels(p, head, top)


def _head_levels(p: PointSet, head: tuple[int, ...], top: int) -> Iterator[LevelAggregate]:
    """`level_aggregate` on the levels (head, j_d), j_d = -1..top, in order,
    all from one `level_prefix`, which lives as long as the iterator."""
    prefix = level_prefix(p, head)
    for jd in range(-1, top + 1):
        yield level_aggregate(p, head + (jd,), prefix)


def _point_factors(p: PointSet, i: int, nums: np.ndarray, levels: list[int], dtype) -> np.ndarray:
    """Coordinate i's factors of a single-point box sum for the points with
    numerators `nums`, (2, len(levels), rows): L sum_h G_h^2 / (h (h + 1))
    and sum_h G_h at each of `levels` >= 0, (b^n - k)^2 and b^n - k at
    level -1.

    Both sums are closed forms in a point's sub-cell k = rem // sub and
    diag = k (rem - (k+1) sub), its G_k (`Offsets.helmert`), as G_h = -rem
    for every h > k: sum_h G_h = diag - (b-1-k) rem and, with
    W_h = L / (h (h + 1)) and W_0 = 0, sum_h W_h G_h^2 =
    W_k diag^2 + rem^2 sum_(h>k) W_h, where the sum telescopes to
    L (1/(k+1) - 1/b).  So no Helmert coordinates are built: two integer
    tables of b entries are read at k.  Each term is at most the factor, so
    `dtype` bounds it too.  A point on a box's left edge has rem = 0, k = 0
    and both factors 0.
    """
    b, n = p.b, p.n
    L, W = _helmert_weights(b)
    W = np.concatenate([[0], W]).astype(dtype)  # W_k at k = 0..b-1
    tail = np.array([L // (k + 1) - L // b for k in range(b)], dtype=object).astype(dtype)  # sum_(h>k) W_h
    F = np.empty((2, len(levels), len(nums)), dtype=dtype)
    for t, ji in enumerate(levels):
        if ji == -1:
            F[1, t] = p.denominator - nums[:, i]
            F[0, t] = F[1, t] * F[1, t]
        else:
            off = _offsets(nums[:, i], b, n, ji)[1]
            k = off.rem // off.sub  # int64, so it indexes the tables in Python ints too
            diag = (k * (off.rem - (k + 1) * off.sub)).astype(dtype)  # |diag| < b^n
            rem = off.rem.astype(dtype)
            F[1, t] = diag - (b - 1 - k) * rem
            F[0, t] = W[k] * diag * diag + rem * rem * tail[k]
    return F


def _single_point_masses(p: PointSet, levels: Sequence[tuple[int, ...]]) -> list[Fraction]:
    """`LevelAggregate.mass(2)` of each of `levels`, all with j_i <= n - 1,
    where every occupied box holds at most one point, from one contraction.

    There each box sum A is one row w (x)_i G_i, so the level's sq and lin
    of `_exact_mass` are sum over the points of prod_i of the
    `_point_factors` at j_i: the factors are arrays over the levels each
    coordinate takes in `levels`, contracted by `np.einsum` for blocks of
    about `_SUM_ENTRIES` points times coordinate levels.  An einsum sums
    in int64 as many points as the largest product of factor maxima over
    `levels` proves below 2^63 (entries for level combinations not asked
    for may wrap; they are never read), in Python ints when one point's
    product is not; the blocks add up in Python ints.
    """
    b, d = p.b, p.d
    axes = [sorted({j[i] for j in levels}) for i in range(d)]  # coordinate i's levels
    at = [tuple(a.index(v) for a, v in zip(axes, j)) for j in levels]
    # a factor is at most b^(2n) L
    dtype = _int_dtype(p.denominator**2 * _helmert_weights(b)[0])
    sums = np.zeros((2,) + tuple(len(a) for a in axes), dtype=object)  # sq, lin
    step = max(1, _SUM_ENTRIES // max(1, sum(len(a) for a in axes)))
    for start in range(0, p.size, step):
        nums = p.numerators[start : start + step]
        factors = [_point_factors(p, i, nums, a, dtype) for i, a in enumerate(axes)]
        tops = [np.abs(F).max(axis=2) for F in factors]
        worst = max((math.prod(int(t[k, a]) for t, a in zip(tops, js)) for js in at for k in (0, 1)),
                    default=0)
        run = (2**63 - 1) // max(worst, 1) or len(nums)  # points per einsum
        for k, first in itertools.product(range(2), range(0, len(nums), run)):
            # axis i is coordinate i's level, d the points (contiguous)
            operands = [(F[k, :, first : first + run].astype(_int_dtype(worst), copy=False), [i, d])
                        for i, F in enumerate(factors)]
            sums[k] += np.einsum(*itertools.chain(*operands), list(range(d))).astype(object)
        del factors, operands  # before the next block builds its own
    scale = max(p.size, 1) * p.denominator**d
    return [_exact_mass(b, j, scale, int(sums[(0,) + js]), int(sums[(1,) + js])) for j, js in zip(levels, at)]


# --- norm reports --------------------------------------------------------------


#: Relative allowance for floating-point roundoff in the Besov value,
#: reported as its tail_bound.  It is not proven: the level masses off p = 2
#: and the q-sum are floats.  (Parseval is exact and needs none.)
ROUNDOFF_ALLOWANCE = 1e-10


@dataclass(frozen=True)
class BesovParams:
    """Integrability/smoothness parameters; math.inf allowed for p, q."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        if not (1 <= self.p) or not (1 <= self.q) or not math.isfinite(self.r):
            got = f"p = {self.p}, q = {self.q}, r = {self.r}"
            raise InvalidParams(f"need p, q >= 1 and r a number, finite; got {got}")

    @property
    def out_of_window(self) -> bool:
        """True outside the main theorem's window 0 < r < 1/p."""
        inv_p = 0.0 if math.isinf(self.p) else 1.0 / self.p
        return not (0 < self.r < inv_p) if inv_p > 0 else True


#: At (p, q, r) = (2, 2, 0) the q-sum is Parseval's identity for ||D_P||_2^2.
PARSEVAL = BesovParams(2.0, 2.0, 0.0)


@dataclass
class NormReport:
    kind: str
    value: float
    tail_bound: float
    b: int
    n: int
    d: int
    N: int
    params: Optional[dict] = None
    metadata: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        obj = {"schema": 1, **asdict(self), **self.metadata}
        del obj["metadata"]
        return json.dumps(obj, sort_keys=True)


def _pow_gap(full: float, gap: float, d: int) -> float:
    """full**d - (full - gap)**d without cancellation.

    Subtracting two close powers loses the leading digits; the factored form
    gap * sum_(k<d) full^k (full - gap)^(d-1-k) keeps them.
    """
    part = full - gap
    return gap * math.fsum(full**k * part ** (d - 1 - k) for k in range(d))


def _besov_volume_tail_qsum(params: BesovParams, b: int, d: int, cap: int) -> float:
    """q-sum of Xi_j over volume-only levels with some j_i > cap, closed form.

    Per coordinate Xi_j^q factorizes: phi(-1) = 2^-q and
    phi(j) = b^(j q (r-1) - q) * W^q with W the per-coordinate l-mass, so the
    tail is a difference of products of geometric sums (finite iff r < 1).
    """
    q = params.q
    if params.r >= 1:
        return math.inf
    if math.isinf(params.p):
        w = 1.0 / (2.0 * math.sin(math.pi / b))
    else:
        pp = params.p
        w = math.fsum(
            (2.0 * math.sin(math.pi * l / b)) ** (-pp) for l in range(1, b)
        ) ** (1.0 / pp)
    ratio_exp = params.r - 1.0
    if math.isinf(q):
        # sup over tail levels: one coordinate at cap+1, others at argmax
        psi = lambda j: 0.5 if j == -1 else float(b) ** (j * ratio_exp - 1) * w
        best_other = max(psi(-1), psi(0))
        return psi(cap + 1) * best_other ** (d - 1)
    phi_m1 = 2.0**-q
    ratio = float(b) ** (ratio_exp * q)
    const = float(b) ** -q * w**q
    gap = const * ratio ** (cap + 1) / (1.0 - ratio)
    full = phi_m1 + const / (1.0 - ratio)
    return _pow_gap(full, gap, d)


def _xi_q(total_level: int, mass: float, params: BesovParams, b: int) -> float:
    """Xi_j^q with Xi_j = b^(|j|(r - 1/p + 1)) mass^(1/p), where mass is the
    level's `LevelAggregate.mass` at params.p (a sup at p = inf); Xi_j itself
    is returned at q = inf."""
    q = 1.0 if math.isinf(params.q) else params.q
    inv_p = 0.0 if math.isinf(params.p) else 1.0 / params.p
    root = 1.0 if math.isinf(params.p) else inv_p
    weight = float(b) ** (total_level * (params.r - inv_p + 1.0) * q)
    return weight * mass ** (root * q)


def _qsum(terms: list[float], params: BesovParams, b: int, d: int, cap: int) -> float:
    """The one reduction: sum_j Xi_j^q over the swept levels (all j_i <= cap)
    plus the exact closed-form mass of every deeper level; a sup at q = inf."""
    tail = _besov_volume_tail_qsum(params, b, d, cap)
    if math.isinf(params.q):
        return max(terms + [tail])
    return math.fsum(terms) + tail


def haar_norms(p: PointSet, params: BesovParams) -> tuple[NormReport, NormReport]:
    """Parseval's ||D_P||_2^2 and the Besov quasi-norm of D_P, one sweep.

    Both reduce the levels of `haar_levels`, head by head (`_head_levels`),
    through `LevelAggregate.mass` alone, which shares a level's box sums
    between p = 2 and params.p.  Parseval is exact: sum_j b^|j| mass_j over
    the exact p = 2 level masses, plus the levels beyond n - 1,
    3^-d - (1/3 - b^(-2n) / 12)^d.  Its report carries that `Fraction` as
    "exact" = "p/q", its correctly rounded float as the value and half an
    ulp of it as tail_bound.  The Besov report is the q-th root of `_qsum`
    at `params` (a sup at q = inf), the levels beyond n - 1 folded in
    exactly, so r >= 1 gives inf; its tail_bound is the roundoff allowance
    `ROUNDOFF_ALLOWANCE * value`.  A head's first level of
    single-point boxes and the deeper ones, all single-point, take their
    p = 2 mass from one contraction (`_single_point_masses`) after the
    sweep; at params.p == 2 the sweep stops each head there.
    """
    b, d, cap = p.b, p.d, p.n - 1
    masses, besov, single = [], [], []  # (|j|, mass): exact at p = 2, at params.p
    for head in levels_up_to(cap, d - 1):  # the sweep of `haar_levels`, cut short at p = 2
        multi = True  # this level of the head and every coarser one has a multi-point box
        for agg in _head_levels(p, head, cap):
            if multi and agg.counts.max(initial=0) <= 1:  # so is every deeper j_d
                multi = False
                single += [head + (v,) for v in range(agg.j[-1], cap + 1)]
            if multi:
                masses.append((agg.total_level, agg.mass(2.0)))
            if params.p != 2:
                besov.append((agg.total_level, agg.mass(params.p)))
            del agg  # before the sweep builds the next level
            if not multi and params.p == 2:
                break
    masses += zip((sum(v for v in j if v >= 0) for j in single), _single_point_masses(p, single))
    tail = Fraction(1, 3**d) - (Fraction(1, 3) - Fraction(1, 12 * b ** (2 * cap + 2))) ** d
    exact = sum((b**tl * m for tl, m in masses), tail)
    pv = float(exact)
    if params.p == 2:
        besov = [(tl, float(m)) for tl, m in masses]
    try:  # a float power of the level weights or the tail can overflow
        bs = _qsum([_xi_q(tl, m, params, b) for tl, m in besov], params, b, d, cap)
    except OverflowError as exc:
        bad = f"p = {params.p}, q = {params.q}, r = {params.r}"
        raise InvalidParams(f"{bad} overflow the Besov sum: {exc}") from exc
    if not math.isinf(params.q):
        bs **= 1.0 / params.q
    sizes = dict(b=b, n=p.n, d=d, N=p.size)
    return (
        NormReport("parseval", pv, math.ulp(pv) / 2, **sizes,
                   metadata={"exact": f"{exact.numerator}/{exact.denominator}"}),
        NormReport(
            "besov",
            bs,
            ROUNDOFF_ALLOWANCE * bs,
            **sizes,
            params={
                "p": None if math.isinf(params.p) else params.p,
                "q": None if math.isinf(params.q) else params.q,
                "r": params.r,
            },
            metadata={"out_of_window": params.out_of_window},
        ),
    )


def parseval_l2(p: PointSet) -> NormReport:
    """||D_P||_2^2 by Parseval's identity over the b-adic Haar system; see
    `haar_norms`."""
    return haar_norms(p, PARSEVAL)[0]


def besov_quasi_norm(p: PointSet, params: BesovParams) -> NormReport:
    """Haar-side Besov quasi-norm expression of D_P at `params`; see
    `haar_norms`."""
    return haar_norms(p, params)[1]
