"""Direct discrepancy evaluation, the exact Warnock L2 route, the
coefficient-magnitude audit, and multi-size scaling studies."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CapExceeded, InvalidParams
from .haar import BesovParams, haar_levels, haar_norms
from .nets import PointSet

#: Largest level cap `coeff_bound_audit` accepts; beyond it, CapExceeded.
MAX_CAP = 64


def disc_eval(p: PointSet, x: Sequence[Fraction]) -> Fraction:
    """D_P(x): exact point fraction in [0, x) minus the exact box volume.

    k / b^n < x_i exactly when k < ceil(x_i b^n), an integer threshold at
    most b^n computed in Python ints, so no product can overflow.
    """
    if len(x) != p.d:
        raise InvalidParams("x must have d coordinates")
    xs = [Fraction(v) for v in x]
    inside = np.ones(p.size, dtype=bool)
    for i, xi in enumerate(xs):
        if not 0 <= xi <= 1:
            raise InvalidParams("coordinates must lie in [0, 1]")
        inside &= p.numerators[:, i] < math.ceil(xi * p.denominator)
    volume = math.prod(xs, start=Fraction(1))
    return Fraction(int(inside.sum()), p.size) - volume


def _pair_min_sum(rows: list[list[int]], w: list[int], i: int) -> int:
    """sum_(a, b) w_a w_b prod_(c >= i) min(rows[a][c], rows[b][c]), exactly.

    Heinrich's divide and conquer: sort on coordinate i and split at the
    middle into L (smaller) and R.  A cross pair has min = u_ai with a in L,
    so the cross pairs are the sum over L + R on the remaining coordinates
    with weights w * u_i on L, minus that sum over L and over R alone.  On the
    last two coordinates (d = 1: the last one, times 1) `_pair_min_sum_2d`
    ends it.
    """
    if i >= len(rows[0]) - 2:
        last = [r[i + 1] if i + 1 < len(r) else 1 for r in rows]
        return _pair_min_sum_2d([r[i] for r in rows], last, w)
    if len(rows) == 1:
        return w[0] * w[0] * math.prod(rows[0][i:])
    order = sorted(range(len(rows)), key=lambda a: rows[a][i])
    half = len(order) // 2
    lo = [rows[a] for a in order[:half]]
    hi = [rows[a] for a in order[half:]]
    w_lo = [w[a] for a in order[:half]]
    w_hi = [w[a] for a in order[half:]]
    w_lo_u = [wa * r[i] for wa, r in zip(w_lo, lo)]
    cross = (
        _pair_min_sum(lo + hi, w_lo_u + w_hi, i + 1)
        - _pair_min_sum(lo, w_lo_u, i + 1)
        - _pair_min_sum(hi, w_hi, i + 1)
    )
    return _pair_min_sum(lo, w_lo, i) + _pair_min_sum(hi, w_hi, i) + cross


def _pair_min_sum_2d(us: list[int], vs: list[int], w: list[int]) -> int:
    """sum_(a, b) w_a w_b min(u_a, u_b) min(v_a, v_b), exactly, in O(N log N).

    Points come in descending u, so a pair's min u is that of the later one,
    a.  A weighted Fenwick tree over the ranks of v holds, for the points
    seen so far, the weight and the weight times v up to each rank; from
    them sum_(b seen) w_b min(v_a, v_b) is two prefix sums.
    """
    rank = {v: k for k, v in enumerate(sorted(set(vs)), 1)}
    size = len(rank)
    tree_w = [0] * (size + 1)
    tree_wv = [0] * (size + 1)
    total = seen = 0
    for u, v, wa in sorted(zip(us, vs, w), reverse=True):
        k = rank[v]
        below_w = below_wv = 0
        while k:
            below_w += tree_w[k]
            below_wv += tree_wv[k]
            k &= k - 1
        total += wa * u * (wa * v + 2 * (below_wv + v * (seen - below_w)))
        k = rank[v]
        while k <= size:
            tree_w[k] += wa
            tree_wv[k] += wa * v
            k += k & -k
        seen += wa
    return total


def warnock_l2_sq(p: PointSet) -> Fraction:
    """||D_P||_2^2 exactly, by Warnock's formula on the integer numerators.

    With u = b^n - k (so 1 - z = u / b^n) every term is an integer; the
    pairwise sum of prod_i min(1 - z_ai, 1 - z_bi) is `_pair_min_sum`.
    """
    denom, d, n_pts = p.denominator, p.d, p.size
    rows = (denom - p.numerators).tolist()
    lin = sum(math.prod(u * (2 * denom - u) for u in row) for row in rows)
    quad = _pair_min_sum(rows, [1] * n_pts, 0)
    return (
        Fraction(1, 3**d)
        - Fraction(lin, n_pts * 2 ** (d - 1) * denom ** (2 * d))
        + Fraction(quad, n_pts**2 * denom**d)
    )


def warnock_l2(p: PointSet) -> float:
    """||D_P||_2 by Warnock's formula: the float square root of the exact
    `warnock_l2_sq`."""
    return math.sqrt(warnock_l2_sq(p))


@dataclass
class AuditReport:
    """Empirical constants for the four coefficient-magnitude regimes.

    Regimes by level j: (i) the full cube j = (-1, ..., -1); (ii) levels with
    |j| <= n; (iii) |j| > n with every active j_i < n, where all but the
    occupied boxes carry the pure volume coefficient; (iv) levels with some
    active j_i >= n, where no point is interior and mu = -volume exactly.
    Each sup runs over existing boxes; regime (iv) is counted on every level.
    """

    b: int
    n: int
    d: int
    cap: int
    const_full_cube: float  # |mu| * b^n at j = (-1,...,-1)
    const_small_levels: float  # sup |mu| * b^(|j|+n) over the boxes of regime (ii)
    const_typical: float  # sup |mu| * b^(2|j|) over empty boxes, regime (iii)
    const_exceptional: float  # sup |mu| * b^(|j|+n) over occupied, regime (iii)
    exceptional_counts: dict = dc_field(default_factory=dict)
    part_iii_ok: bool = True
    part_iv_levels_checked: int = 0  # every regime-(iv) level within the cap
    part_iv_exceptions: int = 0  # those that hold a point inside a box
    passed: bool = True

    def to_json(self) -> str:
        return json.dumps({"schema": 1, **asdict(self)}, sort_keys=True)


def _interior_counts(p: PointSet, cap: int) -> np.ndarray:
    """Entry j + 1 counts the points inside their box in every active
    coordinate of level j, on the levels of {-1..cap}^d where it can be
    nonzero; every other level holds no interior point.

    k / b^n is interior at j_i >= 0 exactly when b^max(n - j_i, 0) does not
    divide k_i, that is when j_i < t_i = n - (the trailing zero digits of
    k_i); at j_i = -1 every point counts.  So entry c counts the points with
    t >= c: a histogram of min(t, cap + 1), summed from the top on each axis.
    As t <= n, regime (iv) holds none, and the grid is at most the sweep's size.
    """
    q, t, trailing = p.numerators, np.full(p.numerators.shape, p.n), True
    for _ in range(p.n):  # digits least significant first, while all are 0
        q, digit = np.divmod(q, p.b)
        trailing &= digit == 0
        t -= trailing
    t = np.minimum(t, cap + 1)
    shape = tuple(t.max(axis=0, initial=0) + 1)
    cells = np.ravel_multi_index(tuple(t.T), shape)
    counts = np.bincount(cells, minlength=math.prod(shape)).reshape(shape)
    for axis in range(p.d):
        counts = np.flip(np.flip(counts, axis).cumsum(axis), axis)
    return counts


def coeff_bound_audit(p: PointSet, cap: Optional[int] = None) -> AuditReport:
    """Record per-regime constants over all levels with entries <= cap.

    Regimes (i)-(iii) read the coefficients of one `haar_levels` sweep to
    min(cap, n - 1), block by block (`LevelAggregate.mu_blocks`); a sup
    reads the volume coefficient only on levels with an empty box.  Regime
    (iv) is counted on every one of its levels (`_interior_counts`).
    Hard structural checks: the occupied-box count never exceeds b^n on any
    regime-(iii) level, and no regime-(iv) level holds a point inside a box.
    """
    b, n, d = p.b, p.n, p.d
    if cap is None:
        cap = min(2 * n, n + 2)
    if cap > MAX_CAP:
        raise CapExceeded(f"cap {cap} > {MAX_CAP}")
    if cap < -1:
        raise InvalidParams(f"cap {cap} < -1: the audit would sweep no level")

    const_i = 0.0
    const_ii = 0.0
    const_iii = 0.0
    const_iii_exc = 0.0
    counts: dict[str, int] = {}
    part_iii_ok = True

    for agg in haar_levels(p, cap):
        j, tl = agg.j, agg.total_level
        occ_max = max([float(np.abs(mu).max()) for mu in agg.mu_blocks()], default=0.0)
        if max(j) == -1:  # one box, one l-combination
            const_i = occ_max * b**n
        else:
            empty_max = float(np.max(np.abs(agg.volume))) if agg.empty_count > 0 else 0.0
            if tl <= n:
                const_ii = max(const_ii, max(occ_max, empty_max) * float(b) ** (tl + n))
            else:
                counts[",".join(map(str, j))] = agg.occupied
                if agg.occupied > b**n:
                    part_iii_ok = False
                const_iii = max(const_iii, empty_max * float(b) ** (2 * tl))
                if agg.occupied:
                    const_iii_exc = max(const_iii_exc, occ_max * float(b) ** (tl + n))
        del agg  # before the sweep builds the next level

    # regime (iv): the levels with some j_i >= n, outside the corner j < n
    interior = _interior_counts(p, cap)
    iv_fails = int(np.count_nonzero(interior) - np.count_nonzero(interior[(slice(n + 1),) * d]))
    return AuditReport(
        b=b,
        n=n,
        d=d,
        cap=cap,
        const_full_cube=const_i,
        const_small_levels=const_ii,
        const_typical=const_iii,
        const_exceptional=const_iii_exc,
        exceptional_counts=counts,
        part_iii_ok=part_iii_ok,
        part_iv_levels_checked=(cap + 2) ** d - (min(cap, n - 1) + 2) ** d,
        part_iv_exceptions=iv_fails,
        passed=part_iii_ok and iv_fails == 0,
    )


# --- scaling studies -------------------------------------------------------------


@dataclass
class ScalingRow:
    n: int
    N: int
    norm_kind: str
    value: float
    tail_bound: float
    envelope: float
    slope_running: float  # log-log slope of value vs N over rows so far (nan if <2)

    def csv(self) -> str:
        return ",".join(
            [
                str(self.n),
                str(self.N),
                self.norm_kind,
                repr(self.value),
                repr(self.tail_bound),
                repr(self.envelope),
                repr(self.slope_running),
            ]
        )


CSV_HEADER = "n,N,norm_kind,value,tail_bound,envelope,slope_running"


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs; nan when underdetermined."""
    if len(xs) < 2:
        return math.nan
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


@dataclass
class ScalingStudy:
    rows: list[ScalingRow]
    degenerate: bool  # single-size family: slopes undefined

    def slope(self, kind: str) -> float:
        rows = [r for r in self.rows if r.norm_kind == kind]
        return fit_slope(
            [math.log(r.N) for r in rows], [math.log(r.value) for r in rows]
        )

    def log_log_slope_vs_logn(self, kind: str) -> float:
        """Slope of log(value * N) against log(log N); the (log N)^theta power."""
        rows = [r for r in self.rows if r.norm_kind == kind]
        return fit_slope(
            [math.log(math.log(r.N)) for r in rows],
            [math.log(r.value * r.N) for r in rows],
        )

    def csv(self) -> str:
        return "\n".join([CSV_HEADER] + [r.csv() for r in self.rows]) + "\n"


def _envelope(kind: str, n_pts: int, d: int, params: BesovParams) -> float:
    ln = math.log(n_pts)
    if kind == "besov":
        q = params.q
        exp_q = 0.0 if math.isinf(q) else (d - 1) / q
        return n_pts ** (params.r - 1.0) * ln**exp_q
    # L2-type kinds: N^-1 (log N)^((d-1)/2)
    return ln ** ((d - 1) / 2.0) / n_pts


def scaling_table(
    family: Callable[[int], PointSet],
    sizes: Sequence[int],
    params: BesovParams,
    kinds: Sequence[str] = ("l2",),
) -> ScalingStudy:
    """Per-size norm values with theory envelopes and running log-log slopes.

    kinds from {"l2" (Warnock), "parseval", "besov"}; every row reports the
    unsquared norm, and "parseval" and "besov" share one Haar sweep per size.
    """
    if not sizes or len(set(sizes)) < len(sizes) or len(set(kinds)) < len(kinds):
        raise InvalidParams("need one or more sizes, and no size or norm kind twice")
    rows: list[ScalingRow] = []
    history: dict[str, list[tuple[float, float]]] = {k: [] for k in kinds}
    for n in sizes:
        p = family(n)
        if "parseval" in kinds or "besov" in kinds:
            pv, bs = haar_norms(p, params)
        for kind in kinds:
            if kind == "l2":
                value, tail = warnock_l2(p), 0.0
            elif kind == "parseval":
                value = math.sqrt(pv.value)
                tail = math.sqrt(pv.value + pv.tail_bound) - value
            elif kind == "besov":
                value, tail = bs.value, bs.tail_bound
            else:
                raise InvalidParams(f"unknown norm kind {kind!r}")
            history[kind].append((math.log(p.size), math.log(value)))
            slope = fit_slope(*zip(*history[kind])) if len(history[kind]) >= 2 else math.nan
            rows.append(
                ScalingRow(
                    n=p.n,
                    N=p.size,
                    norm_kind=kind,
                    value=value,
                    tail_bound=tail,
                    envelope=_envelope(kind, p.size, p.d, params),
                    slope_running=slope,
                )
            )
    degenerate = len({r.N for r in rows}) < 2
    return ScalingStudy(rows=rows, degenerate=degenerate)
