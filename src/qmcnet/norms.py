"""Direct discrepancy evaluation, the exact Warnock L2 route, the
coefficient-magnitude audit, and multi-size scaling studies."""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidParams, SizeOverflow
from .haar import BesovParams, haar_levels, haar_norms
from .nets import PointSet


def disc_eval(p: PointSet, x: Sequence[Fraction]) -> Fraction:
    """D_P(x): exact point fraction in [0, x) minus the exact box volume.

    k / b^n < x_i exactly when k < ceil(x_i b^n), an integer threshold at
    most b^n computed in Python ints, so no product can overflow; the points
    below every threshold are counted by `PointSet.count_below`.
    """
    if len(x) != p.d:
        raise InvalidParams("x must have d coordinates")
    xs = [Fraction(v) for v in x]
    if any(not 0 <= xi <= 1 for xi in xs):
        raise InvalidParams("coordinates must lie in [0, 1]")
    inside = p.count_below([math.ceil(xi * p.denominator) for xi in xs])
    volume = math.prod(xs, start=Fraction(1))
    return Fraction(inside, p.size) - volume


def _pair_min_sum(rows: list[list[int]], w: list[int]) -> int:
    """sum_(a, b) w_a w_b prod_c min(rows[a][c], rows[b][c]), exactly.

    Heinrich's divide and conquer on each coordinate but the last two
    (`_halvings`) turns the rows into groups with integer coefficients whose
    pair sums on the remaining coordinates add up to it; one
    `_pair_min_sum_2d` over every group ends it (d = 1: the last coordinate,
    times 1).
    """
    d = len(rows[0])
    groups = [(1, rows, w)]
    for i in range(d - 2):
        groups = [g for group in groups for g in _halvings(*group, i)]
    flat = [r for _, g_rows, _ in groups for r in g_rows]
    return _pair_min_sum_2d(
        [r[-2] for r in flat] if d > 1 else [r[0] for r in flat],
        [r[-1] for r in flat] if d > 1 else [1] * len(flat),
        [wa for _, _, g_w in groups for wa in g_w],
        [len(g_rows) for _, g_rows, _ in groups],
        [coef for coef, _, _ in groups],
    )


def _halvings(coef: int, rows: list[list[int]], w: list[int], i: int) -> list[tuple]:
    """Heinrich's split on coordinate i: (coefficient, rows, weights) groups
    whose pair sums on the coordinates after i, times their coefficients,
    add up to coef times the pair sum of the rows on the coordinates from i.

    Sort on coordinate i and halve recursively into L (smaller) and R.  A
    cross pair has min = u_ai with a in L, so the cross pairs are the sum
    over L + R with weights w * u_i on L, minus that sum over L and over R
    alone.  A single row is its own group, with coefficient coef * u_i.
    """
    order = sorted(range(len(rows)), key=lambda a: rows[a][i])
    rows = [rows[a] for a in order]
    w = [w[a] for a in order]
    wu = [wa * r[i] for wa, r in zip(w, rows)]
    groups, spans = [], [(0, len(rows))]
    while spans:
        lo, hi = spans.pop()
        if hi - lo == 1:
            groups.append((coef * rows[lo][i], rows[lo:hi], w[lo:hi]))
            continue
        mid = lo + (hi - lo) // 2
        groups += [
            (coef, rows[lo:hi], wu[lo:mid] + w[mid:hi]),
            (-coef, rows[lo:mid], wu[lo:mid]),
            (-coef, rows[mid:hi], w[mid:hi]),
        ]
        spans += [(lo, mid), (mid, hi)]
    return groups


def _pair_min_sum_2d(us: list[int], vs: list[int], w: list[int], sizes, coefs) -> int:
    """sum over groups g, runs of sizes[g] consecutive entries, of coefs[g]
    times sum_(a, b in g) w_a w_b min(u_a, u_b) min(v_a, v_b), for
    nonnegative u, v, w, exactly, by a bottom-up merge of array passes.

    In descending (u, v) order within a group a pair's min u is that of the
    later point a, so the group's sum is sum_a w_a u_a (w_a v_a + 2 S_a) with
    S_a = sum over the earlier b of w_b min(v_a, v_b).  At width k each block
    of 2k positions of a group adds to S of its right half what its left
    half holds: the left halves, sorted by (block, rank of v), give by
    cumulative sums their sum of w v below v_a and v_a times their w at or
    above it.  Every partial sum is at most len(us) max w max v, so below
    2^62 int64 is exact; above it the same passes run on Python ints.  The
    final sum is always in Python ints.
    """
    n_pts = len(us)
    if not n_pts:
        return 0
    sizes = np.asarray(sizes)
    group = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(n_pts) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    u, v = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    order = np.lexsort((-v, -u, group))
    u, v = u[order], v[order]
    _, rank = np.unique(v, return_inverse=True)
    n_ranks = int(rank.max()) + 1
    dtype = np.int64 if n_pts * max(w) * int(v.max()) < 2**62 else object
    w, v = np.asarray(w, dtype=dtype)[order], v.astype(dtype)
    wv = w * v
    sums = np.zeros(n_pts, dtype=dtype)
    zero = np.zeros(1, dtype=dtype)
    width = 1
    while width < sizes.max():
        offset = local % (2 * width)
        right = offset >= width
        left = ~right
        block = np.cumsum(offset == 0) - 1
        keys = block[left] * n_ranks + rank[left]
        by_key = np.argsort(keys, kind="stable")
        cum_w = np.concatenate([zero, np.cumsum(w[left][by_key])])
        cum_wv = np.concatenate([zero, np.cumsum(wv[left][by_key])])
        # a block with a right half has a full left half, which starts in the
        # sorted left halves at the count of left positions before the block
        at = np.flatnonzero(right)
        start = (np.cumsum(left) - left)[at - offset[at]]
        below = np.searchsorted(keys[by_key], block[at] * n_ranks + rank[at])
        sums[at] += cum_wv[below] - cum_wv[start] + v[at] * (cum_w[start + width] - cum_w[below])
        width *= 2
    terms = w.astype(object) * u.astype(object) * (w * v + 2 * sums).astype(object)
    return int((np.asarray(coefs, dtype=object)[group] * terms).sum())


def warnock_l2_sq(p: PointSet) -> Fraction:
    """||D_P||_2^2 exactly, by Warnock's formula on the integer numerators.

    With u = b^n - k (so 1 - z = u / b^n) every term is an integer; the
    pairwise sum of prod_i min(1 - z_ai, 1 - z_bi) is `_pair_min_sum`, and
    the linear term's row products are int64 while b^(2nd) < 2^63.
    """
    denom, d, n_pts = p.denominator, p.d, p.size
    u = denom - p.numerators
    if denom ** (2 * d) >= 2**63:
        u = u.astype(object)
    lin = sum(np.prod(u * (2 * denom - u), axis=1).tolist())
    quad = _pair_min_sum(u.tolist(), [1] * n_pts)
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
    active j_i >= n, where every point k / b^n sits on the level's grid, so
    no point is interior and mu = -volume exactly.  Each sup runs over
    existing boxes.  Regime (iv) holds by that integer grid, not by a count:
    its two fields stay for JSON schema 1.  `occupancy_ok` says that no box
    of a swept level holds more than b^max(n - |j|, 0) interior points, as
    in a (0, n, d)-net.
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
    part_iv_levels_checked: int = 0  # the regime-(iv) levels within the cap
    part_iv_exceptions: int = 0  # those that hold an interior point: none, by the grid
    occupancy_ok: bool = True
    passed: bool = True  # part_iii_ok and occupancy_ok

    def to_json(self) -> str:
        return json.dumps({"schema": 1, **asdict(self)}, sort_keys=True)


def coeff_bound_audit(p: PointSet, cap: Optional[int] = None) -> AuditReport:
    """Record per-regime constants over all levels with entries <= cap.

    Regimes (i)-(iii) read the two sups of each level of one `haar_levels`
    sweep to min(cap, n - 1) (`LevelAggregate.sups`): |mu| over the
    occupied boxes, and the volume coefficient over the empty ones, if any.
    The hard structural checks: the occupied-box count never exceeds b^n on
    any regime-(iii) level, and no box of a swept level holds more interior
    points than b^max(n - |j|, 0), which a (0, n, d)-net never exceeds, as
    its boxes of volume b^-|j| hold b^(n-|j|) points, or at most one when
    |j| >= n.  Regime (iv), the levels with some j_i >= n, is
    not swept: a point k / b^n lies on every such level's grid, so none is
    interior there and mu = -volume by construction.  So a cap past n - 1
    costs nothing and changes only `cap` and `part_iv_levels_checked`; any
    cap >= -1 is accepted.
    """
    b, n, d = p.b, p.n, p.d
    if cap is None:
        cap = min(2 * n, n + 2)
    if cap < -1:
        raise InvalidParams(f"cap {cap} < -1: the audit would sweep no level")

    const_i = const_ii = const_iii = const_iii_exc = 0.0
    counts: dict[str, int] = {}
    part_iii_ok = occupancy_ok = True

    for agg in haar_levels(p, cap):
        j, tl = agg.j, agg.total_level
        occupancy_ok &= int(agg.counts.max(initial=0)) <= b ** max(n - tl, 0)
        occ_max, empty_max = agg.sups()
        if max(j) == -1:  # one box, one l-combination
            const_i = occ_max * b**n
        elif tl <= n:
            const_ii = max(const_ii, max(occ_max, empty_max) * float(b) ** (tl + n))
        else:
            counts[",".join(map(str, j))] = agg.occupied
            if agg.occupied > b**n:
                part_iii_ok = False
            const_iii = max(const_iii, empty_max * float(b) ** (2 * tl))
            if agg.occupied:
                const_iii_exc = max(const_iii_exc, occ_max * float(b) ** (tl + n))
        del agg  # before the sweep builds the next level

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
        part_iv_exceptions=0,
        occupancy_ok=occupancy_ok,
        passed=part_iii_ok and occupancy_ok,
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


_KINDS = ("l2", "parseval", "besov")  # the norm kinds of `scaling_table`


def _size_values(family, params: BesovParams, kinds, n: int):
    """(n, N, d, [(value, tail) per kind]) of the point set family(n); every
    value is the unsquared norm, and "parseval" and "besov" share one sweep."""
    p = family(n)
    if "parseval" in kinds or "besov" in kinds:
        pv, bs = haar_norms(p, params)
    values = []
    for kind in kinds:
        if kind == "l2":
            values.append((warnock_l2(p), 0.0))
        elif kind == "parseval":
            value = math.sqrt(pv.value)
            values.append((value, math.sqrt(pv.value + pv.tail_bound) - value))
        else:
            values.append((bs.value, bs.tail_bound))
    return p.n, p.size, p.d, values


_JOB: tuple = ()  # (family, params, kinds) in a pool worker, set by `_set_job`


def _set_job(*job) -> None:
    global _JOB
    _JOB = job


def _job_values(n: int):
    return _size_values(*_JOB, n)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _forked_values(job: tuple, sizes: list[int], workers: int) -> list:
    """`_size_values` of each size on `workers` forked processes, largest
    size first, returned in the caller's order.

    Forked workers inherit the loaded modules and the job (family, params,
    kinds), which is never pickled; each task carries only its size.  The
    first size in the caller's order that fails raises its own exception.
    A size whose worker died (a broken pool, e.g. killed out of memory) is
    run again alone in a new worker, so a size that dies alone raises
    SizeOverflow naming it.  No worker outlives the call.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # this context flushes sys.stdout and sys.stderr before each fork, so a
    # child, which flushes its copy of them on exit, repeats no pending output
    ctx = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, ctx, initializer=_set_job, initargs=job)
    try:
        futures = {n: pool.submit(_job_values, n) for n in sorted(sizes, reverse=True)}
        values = []
        for n in sizes:
            try:
                values.append(futures[n].result())
            except BrokenProcessPool:
                if len(sizes) == 1:
                    raise SizeOverflow(
                        f"size n = {n}: its worker process died (out of memory?)"
                    ) from None
                values += _forked_values(job, [n], 1)
        return values
    finally:
        pool.shutdown(cancel_futures=True)


def scaling_table(
    family: Callable[[int], PointSet],
    sizes: Sequence[int],
    params: BesovParams,
    kinds: Sequence[str] = ("l2",),
) -> ScalingStudy:
    """Per-size norm values with theory envelopes and running log-log slopes.

    kinds from {"l2" (Warnock), "parseval", "besov"}; every row reports the
    unsquared norm, and "parseval" and "besov" share one Haar sweep per size.
    Sizes are independent: with more than one size and usable CPU they run
    on one forked worker per CPU (at most one per size), else in-process.
    """
    sizes, kinds = list(sizes), tuple(kinds)
    if not sizes or len(set(sizes)) < len(sizes) or len(set(kinds)) < len(kinds):
        raise InvalidParams("need one or more sizes, and no size or norm kind twice")
    for kind in kinds:
        if kind not in _KINDS:
            raise InvalidParams(f"unknown norm kind {kind!r}")
    job = (family, params, kinds)
    workers = min(len(sizes), _usable_cpus())
    if workers > 1 and _can_fork():
        values = _forked_values(job, sizes, workers)
    else:
        values = [_size_values(*job, n) for n in sizes]
    rows: list[ScalingRow] = []
    history: dict[str, list[tuple[float, float]]] = {k: [] for k in kinds}
    for n, size, d, per_kind in values:
        for kind, (value, tail) in zip(kinds, per_kind):
            history[kind].append((math.log(size), math.log(value)))
            slope = fit_slope(*zip(*history[kind])) if len(history[kind]) >= 2 else math.nan
            rows.append(
                ScalingRow(
                    n=n,
                    N=size,
                    norm_kind=kind,
                    value=value,
                    tail_bound=tail,
                    envelope=_envelope(kind, size, d, params),
                    slope_running=slope,
                )
            )
    degenerate = len({r.N for r in rows}) < 2
    return ScalingStudy(rows=rows, degenerate=degenerate)
