"""The d-dimensional b-adic Haar system.

Closed-form coefficients for the volume function and for anchored-box
indicators, exact discrepancy coefficients, the Parseval L2 identity and the
Besov quasi-norm assembly.  Levels are vectors j in {-1, 0, 1, ...}^d; a
coordinate at level -1 carries the constant (indicator-of-cube) factor.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import CapExceeded, InvalidParams
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


def haar_eval(idx: HaarIndex, x: Point, b: int) -> complex:
    """Value of h_jml at x; exp(2 pi i l k / b) on subinterval k, 0 off support."""
    idx.validate(b)
    value = 1.0 + 0.0j
    for ji, mi, li, xi in zip(idx.j, idx.m, idx.l, x):
        if not 0 <= xi < 1:
            return 0.0j
        if ji == -1:
            continue
        scaled = xi * b**ji
        if not mi <= scaled < mi + 1:
            return 0.0j
        k = math.floor(xi * b ** (ji + 1)) - b * mi
        value *= _root(b, k * li)
    return value


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


def discrepancy_coeff(p: PointSet, idx: HaarIndex) -> complex:
    """mu_jml of D_P: mean indicator coefficient minus the volume coefficient."""
    total = 0.0j
    for z in p.fractions():
        total += indicator_coeff(z, idx, p.b)
    return total / p.size - volume_coeff(idx, p.b)


def composition_count(lam: int, s: int) -> int:
    """Number of s-tuples of nonnegative integers summing to lam."""
    if lam < 0 or s < 1:
        raise InvalidParams("need lam >= 0 and s >= 1")
    return math.comb(lam + s - 1, s - 1)


# --- vectorized per-level machinery -------------------------------------------


def _bracket_tables(b: int) -> tuple[np.ndarray, np.ndarray]:
    """(omega powers, tail sums T[k, l-1] = sum_(r>k) omega^(r l))."""
    omega = np.exp(2j * np.pi * np.arange(b) / b)
    tails = np.zeros((b, b - 1), dtype=complex)
    for l in range(1, b):
        for k in range(b):
            tails[k, l - 1] = omega[(np.arange(k + 1, b) * l) % b].sum()
    return omega, tails


@dataclass
class LevelAggregate:
    """Occupied/empty split of one level j for a fixed point set.

    `counting` holds (1/N) * sum of indicator coefficients per occupied box
    and per l-combination; empty boxes all share the volume-only coefficient.
    """

    j: tuple[int, ...]
    box_ids: np.ndarray  # (n_occ,) packed occupied-box indices
    counting: np.ndarray  # (n_occ, n_lcombos) complex
    l_combos: list[tuple[int, ...]]
    n_boxes: float  # b**|j| (float; may exceed integer range at deep levels)
    volume: np.ndarray  # (n_lcombos,) volume coefficients

    @property
    def occupied(self) -> int:
        return self.counting.shape[0]

    @property
    def empty_count(self) -> float:
        return self.n_boxes - self.occupied


def level_aggregate(p: PointSet, j: Sequence[int], cap: int | None = None) -> LevelAggregate:
    """Bucket the points of p into the boxes of level j via digit prefixes.

    Only points interior to their box (in every active coordinate) contribute;
    boundary points have vanishing indicator coefficients.
    """
    j = tuple(int(v) for v in j)
    if len(j) != p.d:
        raise InvalidParams("level must have d entries")
    if any(v < -1 for v in j):
        raise InvalidParams("levels start at -1")
    total_level = sum(v for v in j if v >= 0)
    if cap is not None and total_level > cap:
        raise CapExceeded(f"|j| = {total_level} > cap = {cap}")
    b, n, N = p.b, p.n, p.size
    active = [i for i, v in enumerate(j) if v >= 0]
    s = len(active)

    omega, tails = _bracket_tables(b)

    # constant factors from level -1 coordinates: prod (1 - z_i)
    base = np.full(N, b ** float(-total_level - s)) / N
    for i, ji in enumerate(j):
        if ji == -1:
            base = base * (1.0 - p.numerators[:, i] / float(p.denominator))

    l_combos = list(itertools.product(range(1, b), repeat=s))
    n_boxes = float(b) ** total_level
    vol = np.array(
        [volume_coeff(_index_for_level(j, combo), b) for combo in l_combos]
    )

    if s == 0:
        counting = np.array([[base.sum()]], dtype=complex)
        return LevelAggregate(j, np.zeros(1, np.int64), counting, [()], 1.0, vol)

    if any(j[i] >= n for i in active):
        # points sit on the level grid, none are interior
        return LevelAggregate(
            j,
            np.zeros(0, np.int64),
            np.zeros((0, len(l_combos)), dtype=complex),
            l_combos,
            n_boxes,
            vol,
        )

    interior = np.ones(N, dtype=bool)
    box = np.zeros(N, dtype=np.int64)
    brackets = []  # per active coordinate: (N, b-1) complex
    for i in active:
        ji = j[i]
        k_num = p.numerators[:, i]
        step = b ** (n - ji)
        interior &= (k_num % step) != 0
        m = k_num // step
        rem = k_num % step
        sub = b ** (n - ji - 1)
        ksub = rem // sub
        u = 1.0 - (rem % sub) / float(sub)
        br = u[:, None] * omega[(ksub[:, None] * np.arange(1, b)[None, :]) % b]
        br = br + tails[ksub]
        brackets.append(br)
        box = box * (b**ji) + m

    idx_pts = np.nonzero(interior)[0]
    if idx_pts.size == 0:
        return LevelAggregate(
            j,
            np.zeros(0, np.int64),
            np.zeros((0, len(l_combos)), dtype=complex),
            l_combos,
            n_boxes,
            vol,
        )
    uniq, inv = np.unique(box[idx_pts], return_inverse=True)
    counting = np.zeros((uniq.size, len(l_combos)), dtype=complex)
    base_in = base[idx_pts]
    brs = [br[idx_pts] for br in brackets]
    for ci, combo in enumerate(l_combos):
        prod = base_in.astype(complex)
        for a, li in enumerate(combo):
            prod = prod * brs[a][:, li - 1]
        np.add.at(counting[:, ci], inv, prod)
    return LevelAggregate(j, uniq, counting, l_combos, n_boxes, vol)


def _index_for_level(j: tuple[int, ...], combo: tuple[int, ...]) -> HaarIndex:
    """HaarIndex at level j with m = 0 and the given l values on active coords."""
    l_full = []
    it = iter(combo)
    for ji in j:
        l_full.append(1 if ji == -1 else next(it))
    return HaarIndex(j, tuple(0 for _ in j), tuple(l_full))


def levels_up_to(cap: int, d: int) -> Iterator[tuple[int, ...]]:
    yield from itertools.product(range(-1, cap + 1), repeat=d)


# --- norm reports --------------------------------------------------------------


@dataclass(frozen=True)
class BesovParams:
    """Integrability/smoothness parameters; math.inf allowed for p, q."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        if not (1 <= self.p) or not (1 <= self.q):
            raise InvalidParams("need p, q >= 1")

    @property
    def out_of_window(self) -> bool:
        """True outside the main theorem's window 0 < r < 1/p."""
        inv_p = 0.0 if math.isinf(self.p) else 1.0 / self.p
        return not (0 < self.r < inv_p) if inv_p > 0 else True


@dataclass
class NormReport:
    kind: str
    value: float
    tail_bound: float
    cap: int
    b: int
    n: int
    d: int
    N: int
    params: Optional[dict] = None
    metadata: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "schema": 1,
            "kind": self.kind,
            "value": self.value,
            "tail_bound": self.tail_bound,
            "cap": self.cap,
            "b": self.b,
            "n": self.n,
            "d": self.d,
            "N": self.N,
            "params": self.params,
        }
        obj.update(self.metadata)
        return json.dumps(obj, sort_keys=True)


def _pow_gap(full: float, gap: float, d: int) -> float:
    """full**d - (full - gap)**d without cancellation.

    Subtracting two close powers loses the leading digits; the factored form
    gap * sum_(k<d) full^k (full - gap)^(d-1-k) keeps them.
    """
    part = full - gap
    return gap * math.fsum(full**k * part ** (d - 1 - k) for k in range(d))


def _volume_l2_tail(b: int, d: int, cap: int) -> float:
    """Exact Parseval mass of the volume function on levels beyond cap.

    Per coordinate, level -1 carries 1/4 and level j >= 0 carries
    b^(-2j-2) (b^2 - 1) / 12, so all levels hold 1/3 (giving the full
    product 3^-d = ||x_1...x_d||_2^2) and the levels beyond cap hold
    b^(-2(cap+1)) / 12; the tail is the difference of products.
    """
    return _pow_gap(1.0 / 3.0, float(b) ** (-2 * (cap + 1)) / 12.0, d)


def _occupied_l2_tail_bound(p: PointSet, cap: int) -> float:
    """Crude analytic bound on the counting-part mass beyond the cap.

    Uses |indicator coefficient| <= b^(-|j|) per point and one box per point
    per level, plus a volume cross term; only relevant when cap < n - 1
    (beyond that no point is interior and the tail is volume-only).
    """
    b, d = p.b, p.d
    if cap >= p.n - 1:
        return 0.0
    total = 0.0
    horizon = cap + 80
    for j in levels_up_to(horizon, d):
        tl = sum(v for v in j if v >= 0)
        if max(j) <= cap:
            continue
        s = sum(1 for v in j if v >= 0)
        # sqrt(sum |c|^2) <= b^-|j| * 2^s; sqrt(#m) * |v| worst case over l
        c_part = float(b) ** (-tl) * (2.0**s)
        v_part = float(b) ** (tl / 2.0) * float(b) ** (-2 * tl - s) / (
            2.0 ** (d - s) * (2.0 * math.sin(math.pi / b)) ** s
        )
        total += float(b) ** tl * (b - 1) ** s * (c_part + v_part) ** 2
    # geometric remainder beyond the horizon: per level b^(-|j|) 4^s (b-1)^s...
    rem = d * (4.0 * (b - 1)) ** d * float(b) ** (-horizon) * (2.0 * b / (b - 1.0)) ** d
    return total + rem


def parseval_l2(p: PointSet, cap: int, max_cap: int = 64) -> NormReport:
    """Partial Parseval sum of ||D_P||_2^2 with an analytic tail bound.

    Levels with all j_i <= cap are summed explicitly.  When cap >= n - 1 every
    omitted level contains no interior point, the omitted mass is exactly the
    closed-form volume tail and is folded into the value; the reported
    tail_bound then only covers floating-point roundoff.  For smaller caps the
    omitted mass is bounded analytically and reported in tail_bound.
    """
    if cap < 0 or cap > max_cap:
        raise CapExceeded(f"cap {cap} outside [0, {max_cap}]")
    b, d = p.b, p.d
    partial_terms = []
    for j in levels_up_to(cap, d):
        agg = level_aggregate(p, j)
        tl = sum(v for v in j if v >= 0)
        weight = float(b) ** tl
        level_sum = 0.0
        for ci in range(len(agg.l_combos)):
            mu_occ = agg.counting[:, ci] - agg.volume[ci]
            level_sum += float(np.sum(np.abs(mu_occ) ** 2))
            level_sum += agg.empty_count * abs(agg.volume[ci]) ** 2
        partial_terms.append(weight * level_sum)
    value = math.fsum(partial_terms)

    vol_tail = _volume_l2_tail(b, d, cap)
    occ_tail = _occupied_l2_tail_bound(p, cap)
    exact_tail = occ_tail == 0.0
    if exact_tail:
        value += vol_tail
        tail_bound = 1e-12 * (1.0 + value)  # roundoff allowance only
    else:
        tail_bound = vol_tail + occ_tail
    return NormReport(
        kind="parseval",
        value=value,
        tail_bound=tail_bound,
        cap=cap,
        b=b,
        n=p.n,
        d=d,
        N=p.size,
        metadata={"tail_exact": exact_tail},
    )


def _besov_level_term(
    agg: LevelAggregate, params: BesovParams, b: int
) -> float:
    """Xi_j = b^(|j|(r - 1/p + 1)) * (sum_(m,l) |mu|^p)^(1/p), sup at p = inf."""
    tl = sum(v for v in agg.j if v >= 0)
    inv_p = 0.0 if math.isinf(params.p) else 1.0 / params.p
    weight = float(b) ** (tl * (params.r - inv_p + 1.0))
    if math.isinf(params.p):
        inner = 0.0
        for ci in range(len(agg.l_combos)):
            occ = np.abs(agg.counting[:, ci] - agg.volume[ci])
            if occ.size:
                inner = max(inner, float(occ.max()))
            if agg.empty_count > 0:
                inner = max(inner, abs(agg.volume[ci]))
        return weight * inner
    inner = 0.0
    for ci in range(len(agg.l_combos)):
        occ = np.abs(agg.counting[:, ci] - agg.volume[ci])
        inner += float(np.sum(occ**params.p))
        inner += agg.empty_count * abs(agg.volume[ci]) ** params.p
    return weight * inner ** (1.0 / params.p)


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


def _besov_counting_tail_qsum(params: BesovParams, b: int, d: int, cap: int) -> float:
    """Bound on the q-sum of the counting-part Xi_j beyond the cap.

    Uses the per-point bracket bound: the inner p-norm of the counting
    coefficients at level j is at most (b-1)^(s/p) b^(-|j|-s) (2b)^s, giving a
    per-coordinate geometric factor b^(j(r-1/p)) (finite iff r < 1/p).
    """
    q = params.q
    inv_p = 0.0 if math.isinf(params.p) else 1.0 / params.p
    if params.r >= inv_p and inv_p > 0:
        return math.inf
    if inv_p == 0.0 and params.r >= 0:
        return math.inf
    per_coord = 2.0 * (b - 1) ** inv_p
    ratio_exp = params.r - inv_p
    if math.isinf(q):
        psi = lambda j: 1.0 if j == -1 else float(b) ** (j * ratio_exp) * per_coord
        best_other = max(psi(-1), psi(0))
        return psi(cap + 1) * best_other ** (d - 1)
    ratio = float(b) ** (ratio_exp * q)
    const = per_coord**q
    gap = const * ratio ** (cap + 1) / (1.0 - ratio)
    full = 1.0 + const / (1.0 - ratio)
    return _pow_gap(full, gap, d)


def besov_quasi_norm(
    p: PointSet, params: BesovParams, cap: int, max_cap: int = 64
) -> NormReport:
    """Haar-side Besov quasi-norm expression of D_P up to the level cap.

    The outer q-sum runs over levels with all j_i <= cap; suprema replace
    sums at p = inf or q = inf.  Omitted levels are bounded analytically:
    their volume part in closed form (exact shape once cap >= n - 1, where no
    point is interior) plus a counting-part bound below that threshold; the
    tail bound on the norm follows by Minkowski.
    """
    if cap < 0 or cap > max_cap:
        raise CapExceeded(f"cap {cap} outside [0, {max_cap}]")
    b, d = p.b, p.d
    terms = []
    for j in levels_up_to(cap, d):
        agg = level_aggregate(p, j)
        terms.append(_besov_level_term(agg, params, b))

    q_inf = math.isinf(params.q)
    if q_inf:
        value = max(terms)
    else:
        value = math.fsum(t**params.q for t in terms) ** (1.0 / params.q)

    tail_q = _besov_volume_tail_qsum(params, b, d, cap)
    if cap < p.n - 1:
        tail_q += _besov_counting_tail_qsum(params, b, d, cap)
    if math.isinf(tail_q):
        tail_bound = math.inf
    elif q_inf:
        tail_bound = max(tail_q - value, 0.0)
    else:
        tail_bound = (value**params.q + tail_q) ** (1.0 / params.q) - value

    return NormReport(
        kind="besov",
        value=value,
        tail_bound=tail_bound,
        cap=cap,
        b=b,
        n=p.n,
        d=d,
        N=p.size,
        params={
            "p": None if math.isinf(params.p) else params.p,
            "q": None if math.isinf(params.q) else params.q,
            "r": params.r,
        },
        metadata={"out_of_window": params.out_of_window},
    )
