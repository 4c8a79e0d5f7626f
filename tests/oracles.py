"""Independent reference computations used by several test modules.

These deliberately avoid the closed forms under test: coefficients are
obtained by exact piecewise integration over the cells where the integrands
are constant or linear, with Fraction endpoints (only the roots of unity are
floating point); spans and points come from one int64 digit matrix product;
netfiles are written one row at a time; Haar levels are aggregated point by
point with `np.unique` and `np.add.at`, in the points' own order (a level
prefix's rows by one lexsort over head boxes and k_d, single-point factors
from per-row Helmert coordinates, sups from every row's mu), their
boxes' integer sums as one per-point product summed box by box, or from
explicit sub-cell tensors in Fractions and one float DFT of unit roots, which
hold the sweep's mu, its blocks joined (`joined_mu_blocks`), within an
a-priori rounding bound, and their squared mass is summed exactly on those
tensors, never through the Helmert basis; Walsh integrals are
Riemann sums of `walsh_eval_1d` over Fraction grid points; character sums
recompute every point's digits per frequency digit; V-set counts decide each
word's digits against the definition; net tests count every
box point by point.  Single Haar
coefficients of D_P come point by point from the closed forms that
criterion 3 checks against the piecewise integrals; truncated Walsh sums
point by point from Fine-Price coefficients, or on the whole b^n grid by
the synthesis transform; Theta's definition sum as the full-N product of
cell averages; D_P(x) point by point in Fractions; interval coefficient vectors by the analysis
transform of the exact cell weights; group transforms from the dense
character table; code weights word by word; Chen-Skriganov codewords from
the Taylor expansion of (beta + h)^k.
"""
from __future__ import annotations

import cmath
import collections
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from qmcnet.cs import dual_code
from qmcnet.haar import HaarIndex, indicator_coeff, volume_coeff
from qmcnet.walsh import _digit_dft, fine_price_coeff, walsh_eval_1d


def _omega(b: int, k: int) -> complex:
    return cmath.exp(2j * cmath.pi * (k % b) / b)


def volume_factor_1d(j: int, m: int, l: int, b: int) -> complex:
    """Integral of x * h_(j,m,l)(x) over [0,1), exact quadratic antiderivatives."""
    if j == -1:
        return complex(Fraction(1, 2))
    total = 0.0j
    for k in range(b):
        start = Fraction(m * b + k, b ** (j + 1))
        end = Fraction(m * b + k + 1, b ** (j + 1))
        total += _omega(b, l * k) * float((end * end - start * start) / 2)
    return total


def indicator_factor_1d(z: Fraction, j: int, m: int, l: int, b: int) -> complex:
    """Integral over x of chi_(z < x) * h_(j,m,l)(x), exact interval lengths."""
    z = Fraction(z)
    if j == -1:
        return complex(1 - z)
    total = 0.0j
    for k in range(b):
        start = Fraction(m * b + k, b ** (j + 1))
        end = Fraction(m * b + k + 1, b ** (j + 1))
        lo = max(start, z)
        if lo < end:
            total += _omega(b, l * k) * float(end - lo)
    return total


def haar_coeff_oracle(values_1d) -> complex:
    prod = 1.0 + 0.0j
    for v in values_1d:
        prod *= v
    return prod


def volume_coeff_oracle(idx: HaarIndex, b: int) -> complex:
    return haar_coeff_oracle(
        volume_factor_1d(j, m, l, b) for j, m, l in zip(idx.j, idx.m, idx.l)
    )


def indicator_coeff_oracle(z, idx: HaarIndex, b: int) -> complex:
    return haar_coeff_oracle(
        indicator_factor_1d(zi, j, m, l, b)
        for zi, j, m, l in zip(z, idx.j, idx.m, idx.l)
    )


def discrepancy_coeff(p, idx: HaarIndex) -> complex:
    """mu_jml of D_P: mean indicator coefficient minus the volume coefficient."""
    total = 0.0j
    for z in p.fractions():
        total += indicator_coeff(z, idx, p.b)
    return total / p.size - volume_coeff(idx, p.b)


def level_aggregate_oracle(p, j) -> tuple[np.ndarray, np.ndarray]:
    """(sorted occupied box ids, mu) of level j by grouping with `np.unique`.

    Each point interior to its box in every active coordinate adds
    prod_i (its factor on coordinate i) to its box, one `np.add.at` per
    l-combination; mu subtracts the volume coefficient from every box.
    """
    b, n, N = p.b, p.n, p.size
    active = [i for i, v in enumerate(j) if v >= 0]
    s = len(active)
    total_level = sum(j[i] for i in active)
    omega = np.array([_omega(b, k) for k in range(b)])
    tails = np.array(
        [
            [sum(_omega(b, r * l) for r in range(k + 1, b)) for l in range(1, b)]
            for k in range(b)
        ],
        dtype=complex,
    )
    l_combos = list(itertools.product(range(1, b), repeat=s))
    factors = [
        [volume_factor_1d(ji, 0, l, b) for l in (range(1, b) if ji >= 0 else [1])]
        for ji in j
    ]
    vol = np.array([haar_coeff_oracle(f) for f in itertools.product(*factors)])
    base = np.full(N, b ** float(-total_level - s)) / N
    for i, ji in enumerate(j):
        if ji == -1:
            base = base * (1.0 - p.numerators[:, i] / float(p.denominator))
    if s == 0:
        return np.zeros(1, np.int64), np.array([[base.sum()]]) - vol
    if any(j[i] >= n for i in active):
        return np.zeros(0, np.int64), np.zeros((0, len(l_combos)), dtype=complex)
    interior = np.ones(N, dtype=bool)
    box = np.zeros(N, dtype=np.int64)
    brackets = []
    for i in active:
        k_num, step, sub = p.numerators[:, i], b ** (n - j[i]), b ** (n - j[i] - 1)
        interior &= (k_num % step) != 0
        box = box * (b ** j[i]) + k_num // step
        ksub = (k_num % step) // sub
        u = 1.0 - (k_num % sub) / float(sub)
        powers = omega[(ksub[:, None] * np.arange(1, b)[None, :]) % b]
        brackets.append(u[:, None] * powers + tails[ksub])
    pts = np.nonzero(interior)[0]
    box_ids, inv = np.unique(box[pts], return_inverse=True)
    counting = np.zeros((box_ids.size, len(l_combos)), dtype=complex)
    for ci, combo in enumerate(l_combos):
        prod = base[pts].astype(complex)
        for br, li in zip(brackets, combo):
            prod = prod * br[pts, li - 1]
        np.add.at(counting[:, ci], inv, prod)
    return box_ids, counting - vol


def box_sums_oracle(p, j) -> tuple[np.ndarray, np.ndarray]:
    """(counts, A) of level j by the per-row product: every point interior
    to its box in each active coordinate adds w (x)_i G_i to its box, with
    w = prod (b^n - k_i) over level -1 and G_i its integer Helmert
    coordinates in coordinate i (0 for h < k, k (rem - (k+1) sub) at h = k,
    -rem beyond, k = rem // sub its sub-cell).  The occupied boxes come in
    the lexicographic order of their indices, each holding `counts` points;
    A is ((b-1)^s, boxes), first factor slowest, summed by one
    `np.add.reduceat` over the sorted rows in int64 where N b^(nd) < 2^63,
    else in Python ints."""
    b, n, D = p.b, p.n, p.denominator
    active = [i for i, v in enumerate(j) if v >= 0]
    interior = np.ones(p.size, dtype=bool)
    for i in active:
        interior &= (j[i] < n) & (p.numerators[:, i] % b ** max(n - j[i], 0) != 0)
    rows = p.numerators[interior]
    boxes = [rows[:, i] // b ** (n - j[i]) for i in active]
    rows = rows[np.lexsort(boxes[::-1])] if boxes else rows
    new_box = np.zeros(len(rows), dtype=bool)
    new_box[:1] = True
    for i in active:
        m = rows[:, i] // b ** (n - j[i])
        new_box[1:] |= m[1:] != m[:-1]
    starts = np.flatnonzero(new_box)
    dtype = np.int64 if max(p.size, 1) * D**p.d < 2**63 else object
    terms = np.ones((len(rows), 1), dtype=dtype)
    for i, ji in enumerate(j):
        if ji == -1:
            terms = terms * (D - rows[:, i, None]).astype(dtype)
    h = np.arange(1, b)
    for i in active:
        sub = b ** (n - j[i] - 1)
        rem = (rows[:, i] % (b * sub))[:, None]
        k = rem // sub
        G = np.where(h < k, 0, np.where(h == k, k * (rem - (k + 1) * sub), -rem)).astype(dtype)
        terms = (terms[:, :, None] * G[:, None, :]).reshape(len(rows), terms.shape[1] * (b - 1))
    if not len(rows):
        return starts, np.zeros(((b - 1) ** len(active), 0), dtype=dtype)
    return np.diff(starts, append=len(rows)), np.add.reduceat(terms, starts, axis=0).T


def level_prefix_order_oracle(p, head) -> np.ndarray:
    """The rows of `haar.level_prefix(p, head)`: the points interior to their
    box in each active coordinate of the head, in index order, sorted by
    one `np.lexsort` over (head box indices in coordinate order, k_d)."""
    b, n = p.b, p.n
    keep = np.ones(p.size, dtype=bool)
    boxes = []
    for i, ji in enumerate(head):
        if ji >= 0:
            step = b ** max(n - ji, 0)
            keep &= (ji < n) & (p.numerators[:, i] % step != 0)
            boxes.append(p.numerators[:, i] // step)
    idx = np.flatnonzero(keep)
    # np.lexsort sorts by its last key first
    return idx[np.lexsort([p.numerators[idx, -1]] + [m[idx] for m in reversed(boxes)])]


def point_factors_oracle(p, i, nums, levels, dtype) -> np.ndarray:
    """`haar._point_factors` from per-row Helmert coordinates: coordinate i's
    G (rows, b-1) at each of `levels` >= 0 (0 for h < k, k (rem - (k+1) sub)
    at h = k, -rem beyond), then (G * G) @ W, W_h = L / (h (h + 1)), and the
    row sums of G, in `dtype`; (b^n - k)^2 and b^n - k at level -1."""
    b, n = p.b, p.n
    L = math.lcm(*(h * (h + 1) for h in range(1, b)))
    W = np.array([L // (h * (h + 1)) for h in range(1, b)], dtype=object).astype(dtype)
    h = np.arange(1, b)
    F = np.empty((2, len(levels), len(nums)), dtype=dtype)
    for t, ji in enumerate(levels):
        if ji == -1:
            F[1, t] = p.denominator - nums[:, i]
            F[0, t] = F[1, t] * F[1, t]
            continue
        sub = b ** (n - ji - 1)
        rem = (nums[:, i] % (b * sub))[:, None]
        k = rem // sub
        G = np.where(h < k, 0, np.where(h == k, k * (rem - (k + 1) * sub), -rem)).astype(dtype)
        F[0, t], F[1, t] = (G * G) @ W, G.sum(axis=1)
    return F


def per_row_sups_oracle(agg) -> tuple[float, float]:
    """`LevelAggregate.sups` from every occupied box's mu (`mu_blocks`):
    (sup |mu|, sup |volume| if some box is empty), each 0.0 if none."""
    occupied = max([float(np.abs(mu).max()) for mu in agg.mu_blocks()], default=0.0)
    empty = float(np.abs(agg.volume).max()) if agg.empty_count > 0 else 0.0
    return occupied, empty


def joined_mu_blocks(agg) -> np.ndarray:
    """mu of every occupied box of the level `agg`, its
    `LevelAggregate.mu_blocks` joined in order: (occupied, agg.columns)."""
    blocks = list(agg.mu_blocks())
    return np.concatenate(blocks) if blocks else np.empty((0, agg.columns), complex)


def _exact_box_tensors(p, j) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(sorted occupied box ids, Y, Y_0, den) at level j: the real b^s
    sub-cell tensor X of each occupied box is Y[m] / den, that of an empty
    box Y_0 / den, with Y and Y_0 object arrays of Python ints.

    X is the mean over the points of prod_i (length of cell r_i of box m_i
    above z_i) times the (1 - z_i) of level -1, minus prod_i (integral of x
    over cell r_i) times the 1/2 of level -1.  Cell lengths are integers in
    units of b^-n (n raised to max j_i + 1 if that is larger), summed per
    box in int64 (the sum S is below N b^(nd) < 2^63), so the first term is
    S / (N b^(nd)); the integral of x over cell r of width c b^-n is
    (2r + 1) c^2 / (2 b^(2n)) plus a term constant in r, which only the mean
    over the cells, never mu, sees; so the integral tensor is taken as
    prod_i (2 r_i + 1) c_i^2 / (2^d b^(2ns)).
    """
    b, d, N = p.b, p.d, p.size
    active = [i for i, v in enumerate(j) if v >= 0]
    s = len(active)
    n = max([p.n] + [j[i] + 1 for i in active])  # the unit b^-n refines every cell
    D = b**n
    k = p.numerators * b ** (n - p.n)
    interior = np.ones(N, dtype=bool)
    for i in active:
        interior &= k[:, i] % b ** (n - j[i]) != 0
    k = k[interior]
    assert not k.size or N * D**d < 2**63
    weight = np.ones(len(k), dtype=np.int64)
    for i, ji in enumerate(j):
        if ji == -1:
            weight = weight * (D - k[:, i])
    box = np.zeros(len(k), dtype=np.int64)
    tensor = weight[:, None]
    vol = np.ones(1, dtype=object)
    for i in active:
        cell = b ** (n - j[i] - 1)  # cell width in units of b^-n
        box = box * b ** j[i] + k[:, i] // (b * cell)
        start = (k[:, i] // (b * cell) * b)[:, None] * cell + np.arange(b) * cell
        lengths = np.clip(start + cell - np.maximum(start, k[:, i, None]), 0, cell)
        tensor = (tensor[:, :, None] * lengths[:, None, :]).reshape(len(k), b * tensor.shape[1])
        vol = np.multiply.outer(vol, [(2 * r + 1) * cell * cell for r in range(b)]).ravel()
    box_ids, inv = np.unique(box, return_inverse=True)
    sums = np.zeros((box_ids.size, tensor.shape[1]), dtype=np.int64)
    np.add.at(sums, inv, tensor)
    # X = S / (N D^d) - vol / (2^d D^(2s)), over den = 2^d N D^(d+s)
    y0 = -N * D ** (d - s) * vol
    return box_ids, 2**d * D**s * sums.astype(object) + y0, y0, 2**d * N * D ** (d + s)


def level_mass_exact(p, j) -> Fraction:
    """sum over boxes m and l-combinations of |mu_jml|^2, exactly.

    mu_jml is the DFT at l of the box's real b^s tensor X
    (`_exact_box_tensors`).  By Plancherel the sum over l in {1..b-1}^s is
    b^s ||P X||^2, P removing the mean along every axis, here in integers:
    b^s P scales to b Y - (sum along the axis) per axis.  P cancels the m
    dependence of the volume tensor, so every empty box adds the same.
    """
    b = p.b
    active = [i for i, v in enumerate(j) if v >= 0]
    s = len(active)
    box_ids, Y, Y0, den = _exact_box_tensors(p, j)
    y = np.vstack([Y, Y0]).reshape((-1,) + (b,) * s)  # the occupied boxes, then an empty one
    for axis in range(1, s + 1):
        y = b * y - y.sum(axis=axis, keepdims=True)
    sq = (y * y).reshape(len(y), -1).sum(axis=1)  # b^(2s) ||P X||^2 den^2 per box
    n_empty = b ** sum(j[i] for i in active) - box_ids.size
    return Fraction(b**s * (int(sq[:-1].sum()) + n_empty * int(sq[-1])), b ** (2 * s) * den * den)


def exact_mu_oracle(p, j) -> tuple[np.ndarray, np.ndarray]:
    """(sorted occupied box ids, mu) of level j at every l-combination, first
    l slowest: each box's tensor X exact in integers over one denominator
    (`_exact_box_tensors`), the volume already off, correctly rounded (as
    Python's int / int is), then one float DFT along every axis."""
    b = p.b
    s = sum(1 for v in j if v >= 0)
    box_ids, Y, _, den = _exact_box_tensors(p, j)
    mu = np.array([[int(v) / den for v in y] for y in Y])
    mu = mu.reshape((len(Y),) + (b,) * s)
    dft = np.array([[_omega(b, r * l) for l in range(1, b)] for r in range(b)])
    for axis in range(1, s + 1):
        mu = np.moveaxis(np.tensordot(mu, dft, axes=([axis], [0])), -1, axis)
    return box_ids, mu.reshape(len(Y), (b - 1) ** s)


def warnock_sq_oracle(numerators, denom: int) -> Fraction:
    """||D||_2^2 by Warnock's formula as a plain O(N^2) double sum.

    The pairwise term sums prod_i min(denom - k_ai, denom - k_bi) over all
    ordered pairs in integers; the linear term uses the Fraction coordinates.
    """
    rows = [[int(k) for k in row] for row in numerators]
    n_pts, d = len(rows), len(rows[0])
    lin = Fraction(0)
    for row in rows:
        term = Fraction(1)
        for k in row:
            z = Fraction(k, denom)
            term *= (1 - z * z) / 2
        lin += term
    quad = 0
    for ra in rows:
        for rb in rows:
            term = 1
            for ka, kb in zip(ra, rb):
                term *= denom - max(ka, kb)
            quad += term
    return Fraction(1, 3**d) - 2 * lin / n_pts + Fraction(quad, n_pts**2 * denom**d)


def pair_min_sum_2d_fenwick(us, vs, w) -> int:
    """sum_(a, b) w_a w_b min(u_a, u_b) min(v_a, v_b) by a weighted Fenwick tree.

    Points come in descending u, so a pair's min u is that of the later one,
    a.  The tree over the ranks of v holds, for the points seen so far, the
    weight and the weight times v up to each rank; from them sum_(b seen)
    w_b min(v_a, v_b) is two prefix sums.  All in Python ints.
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


def digits_lsb(values, n: int, b: int) -> np.ndarray:
    """Base-b digits of each value, least significant first, shape (len, n)."""
    v = np.asarray(values, dtype=np.int64)
    out = np.empty(v.shape + (n,), dtype=np.int64)
    for k in range(n):
        out[..., k] = (v // (b**k)) % b
    return out


def span_oracle(basis, b: int) -> np.ndarray:
    """All b**k words of the span: row r is digits_lsb(r) @ basis mod b."""
    basis = np.asarray(basis, dtype=np.int64) % b
    return digits_lsb(np.arange(b ** len(basis)), len(basis), b) @ basis % b


def digital_method_oracle(g) -> np.ndarray:
    """Numerators of the digital method: weights @ (C_i @ rbar mod b) per i."""
    b, n, d = g.b, g.n, g.d
    rbar = digits_lsb(np.arange(b**n), n, b).T  # (n, N)
    weights = np.array([b ** (n - 1 - nu) for nu in range(n)], dtype=np.int64)
    nums = np.empty((b**n, d), dtype=np.int64)
    for i in range(d):
        nums[:, i] = weights @ ((g.mats[i] @ rbar) % b)
    return nums


def net_check_oracle(p) -> tuple:
    """(ok, shape, box, count) of the first b-adic box of volume b^-n that
    does not hold exactly one point, counted point by point.

    Shapes run with j_1 slowest and boxes in lexicographic order; point k
    lies in box m of width b^-j when m b^(n-j) <= k < (m+1) b^(n-j), tested
    in Python integers.
    """
    b, n, d = p.b, p.n, p.d
    rows = [tuple(int(v) for v in row) for row in p.numerators]
    for shape in itertools.product(range(n + 1), repeat=d):
        if sum(shape) != n:
            continue
        for box in itertools.product(*(range(b**j) for j in shape)):
            count = sum(
                all(m * b ** (n - j) <= k < (m + 1) * b ** (n - j)
                    for k, m, j in zip(row, box, shape))
                for row in rows
            )
            if count != 1:
                return False, shape, box, count
    return True, None, None, None


def write_pointset_oracle(p, fh) -> None:
    """The netfile format written one row at a time."""
    fh.write(f"#qmcnet v1 b={p.b} n={p.n} d={p.d} N={p.size}\n")
    if p.provenance:
        fh.write(f"#provenance {json.dumps(p.provenance, sort_keys=True)}\n")
    for row in p.numerators:
        fh.write(" ".join(str(int(k)) for k in row) + "\n")


def grid_coeff_oracle(t: int, y, b: int) -> complex:
    """Integral over [0, y) of conj(wal_t) cell by cell on the b^-5 grid.

    One `walsh_eval_1d` at each Fraction grid point, summed in order; a y off
    the grid adds its partial last cell.
    """
    y = Fraction(y)
    grid = b**5
    cells = int(y * grid)
    total = sum(walsh_eval_1d(t, Fraction(g, grid), b).conjugate() for g in range(cells)) / grid
    frac = y - Fraction(cells, grid)
    if frac:
        total += walsh_eval_1d(t, Fraction(cells, grid), b).conjugate() * float(frac)
    return total


def v_set_counts_oracle(c, pairs) -> list[tuple[int, int]]:
    """(#(C n V_(gamma,lambda)), #(Cperp n Vperp)) for each (gamma, lambda).

    By the definition: digit k (1-based) of block i is fixed when k <=
    lambda_i or k = gamma_i; a word lies in V when every fixed digit is 0, and
    in Vperp when every digit that is not fixed is 0.  The words of C and
    Cperp come from `span_oracle` of their bases.  Membership reads only which
    digits are nonzero, so the words are tallied once by that support, and
    each support is then decided digit by digit.
    """
    d, n = c.d, c.n
    tallies = [
        collections.Counter(map(tuple, (span_oracle(basis, c.b) != 0).tolist()))
        for basis in (c.basis, dual_code(c).basis)
    ]
    out = []
    for gamma, lam in pairs:
        fixed = [k <= lam[i] or k == gamma[i] for i in range(d) for k in range(1, n + 1)]
        in_v, in_vperp = 0, 0
        for support, count in tallies[0].items():
            if not any(nz and f for nz, f in zip(support, fixed)):
                in_v += count
        for support, count in tallies[1].items():
            if not any(nz and not f for nz, f in zip(support, fixed)):
                in_vperp += count
        out.append((in_v, in_vperp))
    return out


def truncated_indicator_1d(y, n: int, x, b: int) -> complex:
    """Partial Walsh sum sum_(t < b^n) chi_hat(t) wal_t(x), term by term."""
    return sum(
        fine_price_coeff(t, y, b) * walsh_eval_1d(t, x, b) for t in range(b**n)
    )


def disc_eval_oracle(p, x) -> Fraction:
    """D_P(x) by its definition: the points with k_i / b^n < x_i in every
    coordinate, decided one at a time in Fractions, over N, minus the volume."""
    x = [Fraction(v) for v in x]
    inside = sum(all(c < xi for c, xi in zip(point, x)) for point in p.fractions())
    return Fraction(inside, p.size) - math.prod(x)


def cell_average_oracle(y, b: int, n: int, k: np.ndarray) -> np.ndarray:
    """The average of chi_[0,y) over each cell [k, k + 1) / b^n, one table
    lookup per k: 1 below g = floor(y b^n), y b^n - g on cell g, 0 above."""
    scaled = Fraction(y) * b**n
    g = math.floor(scaled)
    table = np.zeros(b**n + 1)
    table[:g] = 1.0
    table[g] = float(scaled - g)
    return table[k]


def theta_definition_oracle(p, y) -> float:
    """sum over all N points of prod_i the cell average of chi_[0,y_i) at
    k_i, as a product of float columns and one float sum."""
    prod = np.ones(p.size)
    for i, yi in enumerate(y):
        prod *= cell_average_oracle(yi, p.b, p.n, p.numerators[:, i])
    return float(prod.sum())


def interval_coeff_oracle(y, b: int, n: int) -> np.ndarray:
    """chi_hat_[0,y)(t) for all t < b^n: the radix-b analysis transform of the
    exact cell weights of chi_[0,y) on the b^n grid, O(n b^(n+1))."""
    scaled = Fraction(y) * b**n
    g = math.floor(scaled)
    weights = np.zeros(b**n, dtype=complex)
    weights[:g] = 1.0
    if g < b**n and scaled - g:
        weights[g] = float(scaled - g)
    weights /= float(b) ** n
    # axis nu <-> grid digit x_(nu+1), paired with tau_nu; after the transform
    # flatten with tau_0 least significant
    a = _digit_dft(weights.reshape((b,) * n), b, -1)
    return np.transpose(a, axes=tuple(range(n - 1, -1, -1))).reshape(-1)


def walsh_synthesis(coeffs, b: int, n: int) -> np.ndarray:
    """Evaluate sum_t coeffs[t] wal_t at every grid point g / b^n.

    Radix-b tensor transform: digit nu of t (LSB first) pairs with digit
    nu+1 of the point (MSB first).  O(n b^(n+1)) instead of O(b^(2n)).
    """
    # tensor axes ordered (tau_0, ..., tau_(n-1)) with tau_0 varying slowest
    # after this reshape of the index t = sum tau_nu b^nu: axis k <-> tau_(n-1-k)
    a = _digit_dft(np.asarray(coeffs, dtype=complex).reshape((b,) * n), b, 1)
    # axis k now carries grid digit x_(n-k): reorder so axis 0 is x_1 (MSB)
    a = np.transpose(a, axes=tuple(range(n - 1, -1, -1)))
    return a.reshape(-1)


def dense_group_transform(table, b: int, width: int, sign: int = 1) -> np.ndarray:
    """sum_A exp(sign 2 pi i A.B / b) f(A) for every word B, one dense sum.

    Words are enumerated with the first digit most significant, the exponent
    A.B is reduced mod b in integers, and each root comes from `_omega`.
    """
    words = np.array(list(itertools.product(range(b), repeat=width)), dtype=np.int64)
    words = words.reshape(b**width, width)
    exponents = (words @ words.T) % b
    roots = np.array([_omega(b, sign * k) for k in range(b)])
    return roots[exponents] @ np.asarray(table, dtype=complex).reshape(-1)


def char_sum_oracle(p, t) -> complex:
    """sum_h wal_t(x_h) with each point's digit recomputed per digit of t,
    all in Python ints, reduced mod b and counted per residue.

    Exactly N or 0 when the residue counts say so, else the float root sum.
    """
    b, n = p.b, p.n
    exponents = np.zeros(p.size, dtype=object)
    for i, ti in enumerate(t):
        for nu in range(n):  # digit nu of t (LSB first), digit nu + 1 of x
            tau = (int(ti) // b**nu) % b
            if tau:
                xdig = (p.numerators[:, i].astype(object) // (b ** (n - 1 - nu))) % b
                exponents = exponents + tau * xdig
    counts = collections.Counter((exponents % b).tolist())
    if set(counts) <= {0}:
        return complex(p.size)
    if len(counts) == b and len(set(counts.values())) == 1:
        return 0j
    return sum(c * _omega(b, k) for k, c in sorted(counts.items()))


def v_weight(a) -> int:
    """v_n(a) = max{nu : a_nu != 0} with positions 1-based; 0 for a = 0."""
    nz = np.nonzero(np.asarray(a))[0]
    return int(nz[-1]) + 1 if nz.size else 0


def v_weight_d(word, d: int, n: int) -> int:
    """v_n^d: the sum of v_n over the d blocks of length n."""
    arr = np.asarray(word).reshape(d, n)
    return sum(v_weight(arr[i]) for i in range(d))


def kappa_weight_d(word) -> int:
    """kappa_n^d: the number of nonzero entries."""
    return int(np.count_nonzero(np.asarray(word)))


def hasse_derivative_oracle(k: int, lam: int, beta: int, b: int) -> int:
    """The lam-th hyper-derivative of z^k at beta over F_b, by definition.

    It is the coefficient of h^lam in (beta + h)^k, expanded by k
    multiplications of a coefficient list by (beta + h), mod b.
    """
    coeffs = [1]
    for _ in range(k):
        coeffs = [(beta * c + lower) % b for c, lower in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[lam] if lam < len(coeffs) else 0


def cs_basis_oracle(params) -> np.ndarray:
    """(n, d*n): row k is the codeword of z^k; block i, entry nu*w + lam holds
    its lam-th hyper-derivative at beta[i][nu]."""
    n, w, b = params.n, params.w, params.b
    basis = np.zeros((n, params.d * n), dtype=np.int64)
    for k in range(n):
        for i, row in enumerate(params.betas):
            for nu, beta in enumerate(row):
                for lam in range(w):
                    value = hasse_derivative_oracle(k, lam, beta, b)
                    basis[k, i * n + nu * w + lam] = value
    return basis
