"""The d-dimensional b-adic Haar system.

Closed-form coefficients for the volume function and for anchored-box
indicators, the discrepancy coefficients of a point set level by level, and
the Parseval and Besov norms of the discrepancy function.  Levels are vectors
j in {-1, 0, 1, ...}^d; a coordinate at level -1 carries the constant
(indicator-of-cube) factor.

One sweep (`haar_levels`) visits every level with all j_i <= n - 1; deeper
levels hold no interior point, so there mu = -volume and their mass has a
closed form.  Once per level prefix (j_1, ..., j_(d-1)) it sorts the points
by (prefix box indices, k_d) and builds all that depends on the head alone
(`level_prefix`); each level with that prefix finds its occupied boxes as
runs of that order and builds its last coordinate's part (`level_aggregate`).

Each point's sub-cell vector in one coordinate is read through one form, its
Helmert coordinates (`Offsets.helmert`).  A level's p = 2 mass
sum_(m,l) |mu_jml|^2 comes from them by Plancherel on Z_b^s without forming mu
(`LevelAggregate.mass`), with one form per level: an O(s b) form per row when
every occupied box holds one point, else one `np.add.reduceat` of the rows'
Helmert tensors.  The coefficients mu, the DFTs of the boxes' sub-cell
tensors, are streamed in blocks of whole boxes for the audit and Besov at
p != 2, which reduce them block by block (`LevelAggregate.mu_blocks`), so no
level's mu array is ever whole.  The box tensors are real, so mu at b - l is
the conjugate of mu at l: mu is computed at one l-combination of each pair,
and at odd b the occupied boxes' sums count twice.  On a level with a
multi-point box, mu comes from each box's real Helmert tensor, summed by one
batched real matmul per block and contracted with the DFT by `np.einsum`;
on a level of single-point boxes it is each row's product of DFT factors.
One reduction (`_qsum`) turns the sweep into sum_j Xi_j^q plus that exact
tail: its q-th root is the Besov quasi-norm, and at (p, q, r) = (2, 2, 0) it
is Parseval's ||D_P||_2^2.

At p = 2 the norms need no level past a head's first single-point level.
Finer boxes refine coarser ones and hold a subset of their interior points,
so once every occupied box of level (head, j_d) holds at most one point, so
does every deeper j_d of that head.  On such a level each row's Plancherel
form is a product over coordinates, and the masses of all of them come from
one contraction of per-point factors (`_single_point_masses`): per
coordinate and level, ||P c||^2, <c, v> and the interior indicator, summed
over the points of their products by `np.einsum` into one array per
factor over the levels asked for, in blocks of about `_SUM_ENTRIES` points
times coordinate levels.  So `haar_norms` at p = 2 sweeps each head
only up to that level; the audit, Besov at p != 2 and `haar_levels` visit
every level.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidParams
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


def _root(b: int, k: int) -> complex:
    return cmath.exp(2j * cmath.pi * (k % b) / b)


def volume_coeff(idx: HaarIndex, b: int) -> complex:
    """Haar coefficient of f(x) = x_1 ... x_d; independent of m.

    Closed form: b^(-2|j| - s) / (2^(d-s) * prod_eta (e^(2 pi i l_eta / b) - 1)).
    """
    idx.validate(b)
    s = idx.s
    denom = 2.0 ** (idx.d - s)
    for i in idx.active:
        denom *= _root(b, idx.l[i]) - 1.0
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
        bracket = u * _root(b, k * li)
        for r in range(k + 1, b):
            bracket += _root(b, r * li)
        value *= b ** (-ji - 1) * bracket
    return value


# --- the level sweep ------------------------------------------------------------


_MU_ENTRIES = 2**16  # rows times l-combinations per `LevelAggregate.mu_blocks` block
_SUM_ENTRIES = 2**16  # points times coordinate levels per block of `_single_point_masses`
# points per `np.einsum` of `_single_point_masses`.  einsum sums them in
# sequence: over all 14641 CS-11 points a sum of products was 4e-14 off its
# exact value, in runs of 256 points 4e-16
_SUM_RUN = 2**8


@functools.lru_cache(maxsize=None)
def _helmert_dft(b: int) -> np.ndarray:
    """T[h-1, l-1] = (sum_(r<h) omega^(r l) - h omega^(h l)) / (h (h + 1)), the
    DFT at l = 1..b-1 of Helmert column h over its squared norm; read-only
    and built once per base."""
    omega = np.exp(2j * np.pi * np.arange(b) / b)
    powers = omega[np.arange(b)[:, None] * np.arange(1, b) % b]  # omega^(r l)
    h = np.arange(1, b)[:, None]
    table = (np.cumsum(powers, axis=0)[:-1] - h * powers[1:]) / (h * (h + 1))
    table.flags.writeable = False
    return table


def _single_forms(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||P c||^2, <c, v>) per row of Helmert coordinates H: P c =
    sum_h H_h e_h / (h (h + 1)), so ||P c||^2 = sum_h H_h^2 / (h (h + 1)), and
    <c, v> = -sum_h H_h for v[r] = 2r - (b-1).  `einsum`, unlike `@`, sums a
    row in the same order in any batch, so a row's forms are its own."""
    h = np.arange(1, H.shape[1] + 1, dtype=float)
    return np.einsum("rh,rh,h->r", H, H, 1.0 / (h * (h + 1))), -H.sum(1)


@dataclass(frozen=True)
class Offsets:
    """Where some points sit inside their boxes in one coordinate at level j.

    With sub = b^(n-j-1), the sub-cell width in units of b^-n, a point at
    offset rem = b^n z - b sub m inside box m lies in sub-cell
    k = rem // sub at low = rem % sub; it is interior when rem > 0.  Its
    indicator coefficient on this coordinate is b^(-j-1) times the DFT at
    l = 1..b-1 of the real sub-cell vector c[r] = u [r = k] + [r > k] with
    u = 1 - low / sub.  Every per-row form reads c through its Helmert
    coordinates (`helmert`).
    """

    b: int
    rem: np.ndarray
    sub: int

    def helmert(self, rows: np.ndarray) -> np.ndarray:
        """H (len(rows), b-1) of `rows`, the coordinates H_h = <c, e_h> in the
        Helmert basis e_h = 1 on r < h, -h at r = h: 0 for h < k, -k u at
        h = k, -rem / sub beyond.  The DFT of c is H @ `_helmert_dft`, and
        `_single_forms` reads ||P c||^2 and <c, v> from H.  H depends on rem
        alone: with fewer offsets b sub than rows, it is built once per offset
        and looked up."""
        at = self.rem[rows]
        table = self.b * self.sub < at.size
        rem = np.arange(self.b * self.sub) if table else at
        k = rem // self.sub  # floor division is much faster than np.divmod
        sub, h = float(self.sub), np.arange(1, self.b)
        diag = (k * ((rem - k * self.sub - sub) / sub))[:, None]
        k = k[:, None]
        out = np.where(h > k, -rem[:, None] / sub, np.where(h == k, diag, 0.0))
        return np.take(out, at, axis=0) if table else out  # take: 4x out[at] on 2-d


def _offsets(k: np.ndarray, b: int, n: int, ji: int) -> tuple[np.ndarray, Offsets]:
    """(box index m, `Offsets`) of the numerators k / b^n at level 0 <= ji < n."""
    step = b ** (n - ji)
    m = k // step
    return m, Offsets(b, k - m * step, step // b)


@dataclass
class LevelPrefix:
    """The points of a set sorted once for every level j = (head, j_d), and
    everything about them that depends on the head alone.

    `idx` lists the points interior to their box in each active coordinate of
    the head, sorted by (head box indices m_i in coordinate order, k_d).  In
    that order the box indices (m_1, ..., m_d) of every level with this head
    never decrease lexicographically, since the last one grows with k_d.  The
    other fields are per row of that order, built once per prefix.
    """

    head: tuple[int, ...]  # (j_1, ..., j_(d-1))
    idx: np.ndarray  # point indices, sorted
    run: np.ndarray  # the number of the row's run of equal head boxes
    k_d: np.ndarray  # numerator of the last coordinate
    helmert: list[np.ndarray]  # per active head coordinate: `Offsets.helmert`

    @functools.cached_property
    def dft(self) -> list[np.ndarray]:
        """The DFT factors H @ T of `helmert`, built when a level of
        single-point boxes first reads mu."""
        return [H @ _helmert_dft(H.shape[1] + 1) for H in self.helmert]


def level_prefix(p: PointSet, head: Sequence[int]) -> LevelPrefix:
    """Sort the points of p for the levels whose first d - 1 entries are `head`."""
    head = tuple(int(v) for v in head)
    if len(head) != p.d - 1:
        raise InvalidParams("level must have d entries")
    if any(v < -1 for v in head):
        raise InvalidParams("levels start at -1")
    b, n = p.b, p.n
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
        boxes.append(m)
        offsets.append(off)
    idx = np.flatnonzero(keep)
    # np.lexsort sorts by its last key first
    idx = idx[np.lexsort([p.numerators[idx, -1]] + [m[idx] for m in reversed(boxes)])]
    new_run = np.zeros(idx.size, dtype=bool)
    for m in boxes:
        m = m[idx]
        new_run[1:] |= m[1:] != m[:-1]
    helmert = [off.helmert(idx) for off in offsets]
    return LevelPrefix(head, idx, np.cumsum(new_run), p.numerators[idx, -1], helmert)


def _scatter(rows: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """`rows` placed at entries `at` of a zero array of `size` rows."""
    out = np.zeros((size, rows.shape[1]))
    out[at] = rows
    return out


def _tensor(vector: np.ndarray, s: int) -> np.ndarray:
    """The s-fold outer power of `vector`, flattened, first factor slowest."""
    return functools.reduce(np.multiply.outer, [vector] * s, np.ones(())).ravel()


@dataclass
class LevelAggregate:
    """The boxes of one level j for a fixed point set, and their coefficients.

    The occupied boxes are runs of rows: box i holds `counts[i]` rows from
    `starts[i]`.  Row h is entry sel[h] of the prefix order and adds base[h]
    times the outer product of its sub-cell vectors, read through their
    Helmert coordinates H (one per active coordinate), to its box's real
    tensor; mu_jml is the tensor's DFT at l minus the volume coefficient.
    The head coordinates' H are the prefix's, read at sel; the last
    coordinate's H (`last`) is built once per level.  `mu_blocks` yields the
    coefficients of the occupied boxes at one l-combination of each
    conjugate pair (`columns`), a few boxes at a time and never the whole
    level; the empty boxes all carry mu = -volume.  `mass(2)` and
    `mu_blocks` each read the same H with one form for the whole level,
    chosen from `counts` alone.
    """

    j: tuple[int, ...]
    b: int
    l_combos: np.ndarray  # (n_lcombos, s) read-only, shared per (b, d, s, |j|)
    n_boxes: float  # b**|j| (float; may exceed integer range at deep levels)
    volume: np.ndarray  # (n_lcombos,) volume coefficients, read-only
    base: np.ndarray  # per row: b^(-|j|-s) / N * prod (1 - z_i) over level -1
    sel: np.ndarray  # per row: its entry in the prefix order
    prefix: LevelPrefix
    last: list[np.ndarray]  # [H per row of the last coordinate] if j_d is active, else []
    starts: np.ndarray  # (n_occ,) first row of each box
    counts: np.ndarray  # (n_occ,) rows of each box

    @property
    def occupied(self) -> int:
        return self.starts.size

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

    def mu_blocks(self) -> Iterator[np.ndarray]:
        """mu of the occupied boxes in box order at the leading `columns`
        l-combinations, (boxes, columns) complex per block of whole boxes of
        about `_MU_ENTRIES` rows times l-combinations.

        When every box holds one point, a block is its rows' `_terms`
        product of DFT factors H @ T, built once per prefix or level, never
        per block, as `@` rounds a row by its batch.  Otherwise a box's mu is
        the DFT of its real Helmert tensor (`_box_tensors`): as the DFT of c
        is H @ T, the tensor is contracted with `_helmert_dft` along every
        axis, by `np.einsum`, which, unlike `@`, sums an entry in the same
        order in any batch.  So mu has the same bits at any block size.
        """
        b, s, width = self.b, self.s, len(self.l_combos)
        if s == 0:  # one box of every point, summed pairwise in the set's order
            yield np.array([[self.base.sum()]], dtype=complex) - self.volume
            return
        if not self.occupied:
            return
        T = _helmert_dft(b)
        lead = self.columns // (b - 1) ** (s - 1)  # the l_1 computed
        single = self.counts.max() == 1
        if single:
            last = [H @ T for H in self.last]
        else:  # a matmul's rows: the mean box's, at most sqrt(rows), rounded up
            rows = self.sel.size
            chunk = min(-(-rows // self.occupied), math.isqrt(rows - 1) + 1)
        ends, box = self.starts + self.counts, 0
        while box < self.occupied:
            first = self.starts[box]
            stop = max(box + 1, int(np.searchsorted(ends, first + _MU_ENTRIES // width, "right")))
            if single:
                block = self._terms(last, slice(first, ends[stop - 1]), lead)
            else:
                block = self._box_tensors(box, stop, chunk)
                for i in range(s):  # first axis slowest; l_1 restricted to `lead`
                    block = block.reshape(-1, b - 1, (b - 1) ** (s - 1 - i))
                    block = np.einsum("ahc,hl->alc", block, T[:, :lead] if i == 0 else T)
                block = block.reshape(stop - box, -1)
            block -= self.volume[: self.columns]
            yield block
            box = stop

    def _terms(self, last: list[np.ndarray], rows: slice, lead: int) -> np.ndarray:
        """base times the outer product of the DFT factors H @ T at `rows`,
        multiplied in coordinate order, first factor slowest and at its
        leading `lead` l: (rows, columns).  The head coordinates' factors
        are the prefix's (`LevelPrefix.dft`), `last` the last coordinate's
        over the level's rows.  On a level of single-point boxes, the rank-1
        mu of each box before the volume comes off."""
        F = [D[self.sel[rows]] for D in self.prefix.dft] + [L[rows] for L in last]
        F[0] = F[0][:, :lead]
        terms = self.base[rows, None]
        for Fi in F:
            out = np.empty((len(terms), terms.shape[1], Fi.shape[1]), dtype=complex)  # C order
            terms = np.multiply(terms[:, :, None], Fi[:, None, :], out=out)
            terms = terms.reshape(len(out), -1)
        return terms

    def _box_tensors(self, box: int, stop: int, chunk: int) -> np.ndarray:
        """The real Helmert tensors S = sum_rows base (x)_i H_i of the boxes
        box..stop-1: (boxes, (b-1)^s), first factor slowest.

        Each row's head tensor base (x)_(i<s) H_i meets the last active
        coordinate's H in one batched matmul over chunks of `chunk` rows.
        A box's rows fill whole chunks, zero-padded, so no chunk spans two
        boxes and every matmul of the level has one shape; one real
        `np.add.reduceat` adds each box's chunk sums.  `chunk` is at most
        sqrt(rows), so a box of most points is summed in blocks: one BLAS
        sum over the 14640 rows of a CS-11 one-box level left its mu 2.5e-11
        off, against 5e-12 in blocks.
        """
        starts, counts = self.starts[box:stop], self.counts[box:stop]
        rows = slice(starts[0], starts[-1] + counts[-1])
        *H, last = [Hp[self.sel[rows]] for Hp in self.prefix.helmert] + [L[rows] for L in self.last]
        head = self.base[rows, None]
        for Hi in H:
            head = (head[:, :, None] * Hi[:, None, :]).reshape(len(head), -1)
        per_box = -(-counts // chunk)
        first_chunk = np.cumsum(per_box) - per_box
        n = int(per_box.sum())
        if n * chunk != len(head):  # some box is not whole chunks: pad it
            shift = first_chunk * chunk - (starts - rows.start)
            at = np.arange(len(head)) + np.repeat(shift, counts)
            head = _scatter(head, at, n * chunk)
            last = _scatter(last, at, n * chunk)
        sums = head.reshape(n, chunk, -1).transpose(0, 2, 1) @ last.reshape(n, chunk, -1)
        if n > len(counts):
            sums = np.add.reduceat(sums, first_chunk, axis=0)
        return sums.reshape(len(counts), -1)

    def mass(self, p: float) -> float:
        """sum over boxes m and l-combinations of |mu_jml|^p; the sup at p = inf.

        At p = 2 it never forms mu: Plancherel on Z_b^s gives each occupied
        box's mass as b^s ||P X||^2 (`_plancherel`), and the empty boxes add
        their volume mass.  Otherwise it reduces `mu_blocks`, one
        l-combination of each conjugate pair: at odd b the occupied boxes'
        sums count twice, and the empty boxes add the full-width volume sum.
        """
        if p == 2:
            vol = float(np.sum(self.volume.real**2 + self.volume.imag**2))
            return self._plancherel() + self.empty_count * vol
        vol = np.abs(self.volume)
        if math.isinf(p):
            empty_sup = float(vol.max()) if self.empty_count > 0 else 0.0
            return max([float(np.abs(mu).max()) for mu in self.mu_blocks()] + [empty_sup])
        occ = sum(float(np.sum(np.abs(mu) ** p)) for mu in self.mu_blocks())
        pairs = len(self.l_combos) // self.columns  # 2 at odd b, else 1
        return pairs * occ + self.empty_count * float(np.sum(vol**p))

    def _plancherel(self) -> float:
        """sum over the occupied boxes of b^s ||P X||^2.

        X = sum_h base_h (x)_i c_(h,i) - gamma (x)_i v is the box's real
        sub-cell tensor: gamma prod_i DFT(v)(l_i) is the volume coefficient,
        so mu_jml = DFT(X)(l), and P removes the mean along every axis.  Every
        row is read in the Helmert basis, and one form serves the whole
        level.  When every box holds one point, each row takes the O(s b)
        form base^2 prod ||P c_i||^2 - 2 base gamma prod <c_i, v> +
        gamma^2 prod ||v||^2, each coordinate's factors built from its H at
        the level's rows.  Otherwise one `np.add.reduceat` sums the rows'
        outer products per box, and each squared coordinate is weighted by
        prod_i 1 / (h_i (h_i + 1)): at b = 2 that is 1/2, so dyadic values
        stay exact.
        """
        b, s = self.b, self.s
        gamma = float(b) ** (-2 * self.total_level - 2 * s) / 2.0 ** len(self.j)
        if not self.occupied:
            return 0.0
        if s == 0:  # one box of every point in the set's own order: the volume
            # comes off point by point, so no partial sum nears gamma = 2^-d
            return float(np.sum(self.base - gamma / self.base.size)) ** 2
        # each coordinate's H at the level's rows, gathered one at a time
        H = itertools.chain((Hp[self.sel] for Hp in self.prefix.helmert), self.last)
        if self.counts.max() == 1:
            norm = dot = 1.0
            for H_norm, H_dot in map(_single_forms, H):
                norm, dot = norm * H_norm, dot * H_dot
            v_norm = ((b - 1) * b * (b + 1) / 3.0) ** s  # ||v||^2 = (b-1) b (b+1) / 3
            total = float(np.sum(self.base * (self.base * norm - 2.0 * gamma * dot)))
            return float(b) ** s * (total + self.occupied * gamma**2 * v_norm)
        terms = self.base[:, None]
        for Hi in H:  # row-wise outer products, first factor slowest
            terms = (terms[:, :, None] * Hi[:, None, :]).reshape(len(terms), -1)
        sums = np.add.reduceat(terms, self.starts, axis=0)
        h = np.arange(1, b, dtype=float)
        sums -= gamma * _tensor(-h * (h + 1), s)
        return float(b) ** s * float(np.sum(sums * sums * _tensor(1.0 / (h * (h + 1)), s)))


def level_aggregate(p: PointSet, j: Sequence[int], prefix: LevelPrefix) -> LevelAggregate:
    """Find the occupied boxes of level j as runs of the sorted `prefix`.

    Only points interior to their box (in every active coordinate) contribute;
    boundary points have vanishing indicator coefficients.  `prefix` is
    `level_prefix(p, j[:-1])`.  Nothing is summed here: `LevelAggregate.mass`
    and `.mu` do that when asked.
    """
    j = tuple(int(v) for v in j)
    if len(j) != p.d or j[:-1] != prefix.head:
        raise InvalidParams("level must have d entries and extend the prefix")
    if j[-1] < -1:
        raise InvalidParams("levels start at -1")
    total_level = sum(v for v in j if v >= 0)
    b, n, N = p.b, p.n, p.size
    s = sum(1 for v in j if v >= 0)
    l_combos, vol = _volume(b, p.d, s, total_level)

    sel, last = np.arange(prefix.idx.size), []
    boxes = [prefix.run]
    if j[-1] >= n:  # the points sit on the level grid, none are interior
        sel = sel[:0]
    elif j[-1] >= 0:
        m, off = _offsets(prefix.k_d, b, n, j[-1])
        sel = np.flatnonzero(off.rem)
        boxes, last = boxes + [m], [off.helmert(sel)]

    # constant factors from level -1 coordinates: prod (1 - z_i)
    base = np.full(sel.size, b ** float(-total_level - s) / max(N, 1))  # no rows at N = 0
    if s < p.d:  # the points themselves are read only at level -1
        idx = prefix.idx[sel]
        if s == 0:  # one box of every point, in the set's own order (on CS-11
            idx = np.sort(idx)  # the pairwise sum then lands 7x nearer the exact value)
        for i, ji in enumerate(j):
            if ji == -1:
                base = base * (1.0 - p.numerators[idx, i] / float(p.denominator))

    # a box starts wherever the head run or the last box index changes; at
    # s = 0 every point is in the one box
    new_box = np.zeros(sel.size, dtype=bool)
    new_box[:1] = True
    for m in boxes:
        m = m[sel]
        new_box[1:] |= m[1:] != m[:-1]
    starts = np.flatnonzero(new_box)
    counts = np.diff(starts, append=sel.size)
    return LevelAggregate(
        j, b, l_combos, float(b) ** total_level, vol, base, sel, prefix, last, starts, counts
    )


@functools.lru_cache(maxsize=None)
def _volume(b: int, d: int, s: int, total_level: int) -> tuple[np.ndarray, np.ndarray]:
    """(l_combos, volume_coeff of each), read-only, at s active coordinates and
    |j| = total_level: b^(-2|j|-s) over the outer product of 2^(d-s) and one
    (omega^l - 1) vector per active coordinate."""
    l_combos = np.array(list(itertools.product(range(1, b), repeat=s)), dtype=np.int64)
    roots = [_root(b, l) - 1.0 for l in range(1, b)]
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
        prefix = level_prefix(p, head)
        for jd in range(-1, top + 1):
            yield level_aggregate(p, head + (jd,), prefix)


def _point_factors(p: PointSet, i: int, nums: np.ndarray, levels: list[int]) -> np.ndarray:
    """Coordinate i's factors of the single-point Plancherel form for the
    points with numerators `nums`, (3, len(levels), rows): ||P c||^2 and
    <c, v> (`_single_forms`) and the interior indicator at each of `levels`
    >= 0; (1 - z)^2, 1 - z and 1 at level -1.  A point on a box's left edge
    has H = 0, so both forms vanish there."""
    b, n = p.b, p.n
    rows = np.arange(len(nums))
    A, B, interior = F = np.empty((3, len(levels), len(nums)))
    for k, ji in enumerate(levels):
        if ji == -1:
            B[k] = 1.0 - nums[:, i] / float(p.denominator)
            A[k] = B[k] * B[k]
            interior[k] = 1.0
        else:
            off = _offsets(nums[:, i], b, n, ji)[1]
            A[k], B[k] = _single_forms(off.helmert(rows))
            interior[k] = off.rem != 0
    return F


def _single_point_masses(p: PointSet, levels: Sequence[tuple[int, ...]]) -> list[float]:
    """`LevelAggregate.mass(2)` of each of `levels`, all with j_i <= n - 1,
    where every occupied box holds at most one point, from one contraction.

    There each box is one row, whose Plancherel form base^2 prod ||P c_i||^2
    - 2 base gamma prod <c_i, v> + gamma^2 prod ||v||^2 is a product over
    coordinates: base = c prod (1 - z_i) over level -1, c = b^(-|j|-s) / N.
    So the sums over the points of the products of `_point_factors`,
    sum A, sum B and the occupied count occ, are arrays over the levels
    each coordinate takes in `levels`, contracted by `np.einsum` in runs of
    `_SUM_RUN` points; the factors are built for blocks of about
    `_SUM_ENTRIES` points times coordinate levels.  Level j's mass is
    b^s (c^2 sum A - 2 c gamma sum B + occ gamma^2 ||v||^(2s)) plus the
    b^|j| - occ empty boxes' volume mass.
    """
    b, n, d = p.b, p.n, p.d
    axes = [sorted({j[i] for j in levels}) for i in range(d)]  # coordinate i's levels
    sums = np.zeros((3,) + tuple(len(a) for a in axes))  # sum A, sum B, occ
    step = max(1, _SUM_ENTRIES // max(1, sum(len(a) for a in axes)))
    for start in range(0, p.size, step):
        nums = p.numerators[start : start + step]
        factors = [_point_factors(p, i, nums, a) for i, a in enumerate(axes)]
        for k, run in itertools.product(range(3), range(0, len(nums), _SUM_RUN)):
            # axis i is coordinate i's level, d the points (contiguous)
            operands = [(F[k, :, run : run + _SUM_RUN], [i, d]) for i, F in enumerate(factors)]
            sums[k] += np.einsum(*itertools.chain(*operands), list(range(d)))
        del factors, operands  # before the next block builds its own
    masses = []
    for j in levels:
        s = sum(1 for v in j if v >= 0)
        total_level = sum(v for v in j if v >= 0)
        vol = _volume(b, d, s, total_level)[1]
        c = b ** float(-total_level - s) / max(p.size, 1)  # all sums are 0 at N = 0
        gamma = float(b) ** (-2 * total_level - 2 * s) / 2.0**d
        v_norm = ((b - 1) * b * (b + 1) / 3.0) ** s
        A, B, occ = sums[(slice(None),) + tuple(a.index(v) for a, v in zip(axes, j))]
        occupied = float(b) ** s * (c * (c * A - 2.0 * gamma * B) + occ * gamma**2 * v_norm)
        empty = (float(b) ** total_level - occ) * float(np.sum(vol.real**2 + vol.imag**2))
        masses.append(occupied + empty)
    return masses


# --- norm reports --------------------------------------------------------------


#: Relative allowance for floating-point roundoff in the Haar-side norm
#: values, reported as their tail_bound.  It is checked against the exact
#: Warnock value (measured relative gap of Parseval 5.1e-15 on the CS net
#: b=11 d=2 and 8.6e-14 at b=13), not proven.
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

    Both reduce the same Haar levels, those of `haar_levels`, with `_qsum`:
    the Parseval report is the q-sum at (p, q, r) = (2, 2, 0), the Besov
    report the q-th root of the q-sum at `params` (a sup at q = inf).  At
    params.p == 2 the sweep stops each head at its first level of
    single-point boxes, and the deeper levels of the head, all single-point
    too, take their mass from one contraction (`_single_point_masses`) after
    the sweep.  The levels beyond n - 1 are folded into the values exactly,
    so r >= 1 gives inf; tail_bound is the roundoff allowance
    `ROUNDOFF_ALLOWANCE * value`.
    """
    b, d, cap = p.b, p.d, p.n - 1
    levels, single = [], []
    for head in levels_up_to(cap, d - 1):  # the sweep of `haar_levels`, cut short at p = 2
        prefix = level_prefix(p, head)
        for jd in range(-1, cap + 1):
            agg = level_aggregate(p, head + (jd,), prefix)
            mass2 = agg.mass(2.0)  # shared by both reports when params.p == 2
            mass = mass2 if params.p == 2 else agg.mass(params.p)
            levels.append((agg.total_level, mass2, mass))
            one_point = agg.counts.max(initial=0) <= 1
            del agg  # before the sweep builds the next level
            if params.p == 2 and one_point:  # so is every deeper j_d of the head
                single += [head + (v,) for v in range(jd + 1, cap + 1)]
                break
    del prefix
    if single:
        tls = [sum(v for v in j if v >= 0) for j in single]
        levels += [(tl, m, m) for tl, m in zip(tls, _single_point_masses(p, single))]
    pv = _qsum([_xi_q(tl, m2, PARSEVAL, b) for tl, m2, _ in levels], PARSEVAL, b, d, cap)
    try:  # a float power of the level weights or the tail can overflow
        bs = _qsum([_xi_q(tl, m, params, b) for tl, _, m in levels], params, b, d, cap)
    except OverflowError as exc:
        bad = f"p = {params.p}, q = {params.q}, r = {params.r}"
        raise InvalidParams(f"{bad} overflow the Besov sum: {exc}") from exc
    if not math.isinf(params.q):
        bs **= 1.0 / params.q
    sizes = dict(b=b, n=p.n, d=d, N=p.size)
    return (
        NormReport("parseval", pv, ROUNDOFF_ALLOWANCE * pv, **sizes),
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
