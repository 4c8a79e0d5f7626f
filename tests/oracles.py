"""Independent reference computations used by several test modules.

These deliberately avoid the closed forms under test: coefficients are
obtained by exact piecewise integration over the cells where the integrands
are constant or linear, with Fraction endpoints (only the roots of unity are
floating point); spans and points come from one int64 digit matrix product;
netfiles are written one row at a time; Haar levels are aggregated point by
point with `np.unique` and `np.add.at`, in the points' own order, or box by
box with the sweep's arithmetic (chunked real box tensors, an `einsum` DFT),
which the sweep's mu, its blocks joined (`joined_mu_blocks`), must match
bit for bit, and their squared mass is
summed exactly on explicit sub-cell tensors in Fractions, or by Plancherel
from Helmert coordinates rebuilt at every level, which the sweep's mass
must match bit for bit; Walsh integrals are
Riemann sums of `walsh_eval_1d` over Fraction grid points; character sums
recompute every point's digits per frequency digit; V-set counts decide each
word's digits against the definition; net tests count every
box point by point.  Single Haar
coefficients of D_P come point by point from the closed forms that
criterion 3 checks against the piecewise integrals; truncated Walsh sums
point by point from Fine-Price coefficients, or on the whole b^n grid by
the synthesis transform; interval coefficient vectors by the analysis
transform of the exact cell weights; group transforms from the dense
character table; code weights word by word; Chen-Skriganov codewords from
the Taylor expansion of (beta + h)^k.
"""
from __future__ import annotations

import cmath
import collections
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np

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


def mirror_mu_oracle(p, j) -> np.ndarray:
    """mu of level j at its representative l-combinations, box by box.

    The points interior to their box in every active coordinate are sorted
    by (box index of each active coordinate but the last, numerator of the
    last coordinate), and the boxes are the runs of that order.  mu is
    computed at the l-combinations with l_1 <= (b-1)/2 at odd b (all at
    b = 2), one of each conjugate pair.  When every box holds one point, a
    box's mu is its row's product of DFT factors in coordinate order.
    Otherwise each box's real Helmert tensor is summed chunk by chunk: a
    chunk is ceil(rows / boxes) of the box's rows, or ceil(sqrt(rows)) if
    that is fewer, zero-padded, and takes one matmul of its head tensors by
    the last coordinate's Helmert coordinates; one `np.add.reduceat` over
    the box's own chunks adds them, and the tensors of all the boxes are
    contracted with the DFT along each axis by `np.einsum`.  At s = 0 the
    one box sums pairwise in the set's own order.  The arithmetic is that
    of the sweep, so mu must agree bit for bit.
    """
    b, n, d, N = p.b, p.n, p.d, p.size
    active = [i for i, v in enumerate(j) if v >= 0]
    s = len(active)
    total_level = sum(j[i] for i in active)
    # the DFTs of the Helmert columns over their squared norms, by the
    # sweep's own expression
    omega = np.exp(2j * np.pi * np.arange(b) / b)
    powers = omega[np.arange(b)[:, None] * np.arange(1, b) % b]
    h = np.arange(1, b)[:, None]
    dft = (np.cumsum(powers, axis=0)[:-1] - h * powers[1:]) / (h * (h + 1))
    roots = [_omega(b, l) - 1.0 for l in range(1, b)]
    denoms = [2.0 ** (d - s)]
    for _ in range(s):
        denoms = [x * r for x in denoms for r in roots]
    lead = (b - 1) // 2 if s and b > 2 else b - 1  # the l_1 of one of each pair
    columns = len(denoms) * lead // (b - 1)
    vol = np.array([b ** (-2 * total_level - s) / x for x in denoms[:columns]], dtype=complex)
    if any(j[i] >= n for i in active):
        return np.zeros((0, columns), dtype=complex) - vol
    keep = np.ones(N, dtype=bool)
    boxes, hels = [], []
    for i in active:
        step = b ** (n - j[i])
        m, rem = np.divmod(p.numerators[:, i], step)
        ksub, low = np.divmod(rem, step // b)
        sub = float(step // b)
        keep &= rem != 0
        boxes.append(m)
        # the sub-cell vector's Helmert coordinates: 0 below its sub-cell,
        # -k u at it, -rem / sub above
        hel = np.zeros((N, b - 1))
        for hh in range(1, b):
            hel[:, hh - 1] = np.where(ksub < hh, -rem / sub, 0.0)
            at = ksub == hh
            hel[at, hh - 1] = ksub[at] * ((low[at] - sub) / sub)
        hels.append(hel)
    idx = np.flatnonzero(keep)
    if s:
        head = boxes[:-1] if active[-1] == d - 1 else boxes
        idx = idx[np.lexsort([p.numerators[idx, -1]] + [m[idx] for m in reversed(head)])]
    base = np.full(idx.size, b ** float(-total_level - s)) / N
    for i, ji in enumerate(j):
        if ji == -1:
            base = base * (1.0 - p.numerators[idx, i] / float(p.denominator))
    if s == 0:
        return np.array([[base.sum()]], dtype=complex) - vol
    if not idx.size:
        return np.zeros((0, columns), dtype=complex)
    new_box = np.zeros(idx.size, dtype=bool)
    new_box[0] = True
    for m in boxes:
        new_box[1:] |= m[idx][1:] != m[idx][:-1]
    starts = np.flatnonzero(new_box)
    ends = np.append(starts[1:], idx.size)
    if np.all(ends - starts == 1):
        factors = [hel @ dft for hel in hels]  # every row of the set at once
        factors = [factors[0][idx, :lead]] + [f[idx] for f in factors[1:]]
        mu = np.empty((idx.size, columns), dtype=complex)
        widths = [range(f.shape[1]) for f in factors]
        for c, combo in enumerate(itertools.product(*widths)):
            prod = base
            for f, l in zip(factors, combo):
                prod = prod * f[:, l]
            mu[:, c] = prod
        return mu - vol
    *lead_hel, last = [hel[idx] for hel in hels]
    head = np.empty((idx.size, (b - 1) ** (s - 1)))
    for c, combo in enumerate(itertools.product(range(b - 1), repeat=s - 1)):
        prod = base
        for hel, hh in zip(lead_hel, combo):
            prod = prod * hel[:, hh]
        head[:, c] = prod
    chunk = min(-(-idx.size // starts.size), math.isqrt(idx.size - 1) + 1)
    tensors = np.empty((starts.size, head.shape[1], b - 1))
    for box, (lo, hi) in enumerate(zip(starts, ends)):
        parts = []
        for at in range(lo, hi, chunk):
            rows = slice(at, min(at + chunk, hi))
            A, B = np.zeros((chunk, head.shape[1])), np.zeros((chunk, b - 1))
            A[: rows.stop - at], B[: rows.stop - at] = head[rows], last[rows]
            parts.append(A.T @ B)
        tensors[box] = np.add.reduceat(np.stack(parts), [0], axis=0)[0]
    mu = tensors
    for i in range(s):
        mu = mu.reshape(-1, b - 1, (b - 1) ** (s - 1 - i))
        mu = np.einsum("ahc,hl->alc", mu, dft[:, :lead] if i == 0 else dft)
    return mu.reshape(starts.size, columns) - vol


def joined_mu_blocks(agg) -> np.ndarray:
    """mu of every occupied box of the level `agg`, its
    `LevelAggregate.mu_blocks` joined in order: (occupied, agg.columns)."""
    blocks = list(agg.mu_blocks())
    return np.concatenate(blocks) if blocks else np.empty((0, agg.columns), complex)


def _helmert_form(b, rem, sub, rows, form) -> np.ndarray:
    """form(H) at `rows` of the Helmert coordinates of the sub-cell vectors
    at offsets `rem`: H_h = 0 for h < k, -k u at h = k, -rem / sub beyond.
    With fewer offsets b sub than rows, form(H) is built once per offset and
    looked up."""
    at = rem[rows]
    table = b * sub < at.size
    rem = np.arange(b * sub) if table else at
    k = rem // sub
    fsub, h = float(sub), np.arange(1, b)
    diag = (k * ((rem - k * sub - fsub) / fsub))[:, None]
    k = k[:, None]
    out = form(np.where(h > k, -rem[:, None] / fsub, np.where(h == k, diag, 0.0)))
    return np.take(out, at, axis=0) if table else out


def plancherel_mass_oracle(p, j) -> float:
    """sum over boxes m and l-combinations of |mu_jml|^2 at level j, by
    Plancherel on Z_b^s with every coordinate's Helmert coordinates rebuilt
    for this level alone.

    The points interior to their box in every active coordinate of the head
    are sorted by (head box indices, numerator of the last coordinate), and
    the boxes are runs of that order.  One form serves the whole level: when
    every box holds one point, each row takes base^2 prod ||P c_i||^2 -
    2 base gamma prod <c_i, v> + gamma^2 prod ||v||^2, each coordinate's forms
    built from its own H with `einsum`; otherwise every row's outer product
    of H, built again, is summed per box with one `np.add.reduceat`.  The
    empty boxes add the volume mass.  The arithmetic is that of the sweep, so
    `LevelAggregate.mass(2)` must agree bit for bit.
    """
    b, n, d, N = p.b, p.n, p.d, p.size
    s = sum(1 for v in j if v >= 0)
    total_level = sum(v for v in j if v >= 0)
    roots = [_omega(b, l) - 1.0 for l in range(1, b)]
    denoms = [2.0 ** (d - s)]
    for _ in range(s):
        denoms = [x * r for x in denoms for r in roots]
    vol = np.array([b ** (-2 * total_level - s) / x for x in denoms], dtype=complex)
    vol_mass = float(np.sum(vol.real**2 + vol.imag**2))
    n_boxes = float(b) ** total_level

    def offsets(k, ji):  # (box index, offset inside the box, sub-cell width)
        step = b ** (n - ji)
        return k // step, k - k // step * step, step // b

    keep = np.ones(N, dtype=bool)
    boxes, rems = [], []
    for i, ji in enumerate(j[:-1]):
        if ji == -1:
            continue
        if ji >= n:
            keep[:] = False
            continue
        m, rem, sub = offsets(p.numerators[:, i], ji)
        keep &= rem != 0
        boxes.append(m)
        rems.append((rem, sub))
    idx = np.flatnonzero(keep)
    idx = idx[np.lexsort([p.numerators[idx, -1]] + [m[idx] for m in reversed(boxes)])]
    boxes = [m[idx] for m in boxes]
    rems = [(rem[idx], sub) for rem, sub in rems]
    sel = np.arange(idx.size)
    if j[-1] >= n:
        sel = sel[:0]
    elif j[-1] >= 0:
        m, rem, sub = offsets(p.numerators[idx, -1], j[-1])
        sel = np.flatnonzero(rem)
        boxes = [mi[sel] for mi in boxes] + [m[sel]]
        rems.append((rem, sub))
    idx = idx[sel]
    if s == 0:
        idx = np.sort(idx)
    base = np.full(idx.size, b ** float(-total_level - s)) / N
    for i, ji in enumerate(j):
        if ji == -1:
            base = base * (1.0 - p.numerators[idx, i] / float(p.denominator))
    gamma = float(b) ** (-2 * total_level - 2 * s) / 2.0**d
    if s == 0:
        return float(np.sum(base - gamma / base.size)) ** 2 + (n_boxes - 1) * vol_mass
    if idx.size == 0:
        return 0.0 + n_boxes * vol_mass
    new_box = np.zeros(idx.size, dtype=bool)
    new_box[0] = True
    for m in boxes:
        new_box[1:] |= m[1:] != m[:-1]
    starts = np.flatnonzero(new_box)
    counts = np.diff(starts, append=idx.size)
    h = np.arange(1, b, dtype=float)
    weight = 1.0 / (h * (h + 1))
    if counts.max() == 1:
        norm, dot = 1.0, 1.0
        for rem, sub in rems:
            forms = _helmert_form(
                b, rem, sub, sel,
                lambda H: np.stack([np.einsum("rh,rh,h->r", H, H, weight), -H.sum(1)], 1),
            )
            norm, dot = norm * forms[:, 0], dot * forms[:, 1]
        v_norm = ((b - 1) * b * (b + 1) / 3.0) ** s
        total = float(np.sum(base * (base * norm - 2.0 * gamma * dot)))
        total += starts.size * gamma**2 * v_norm
    else:
        terms = base[:, None]
        for rem, sub in rems:
            hel = _helmert_form(b, rem, sub, sel, lambda H: H)
            terms = (terms[:, :, None] * hel[:, None, :]).reshape(len(terms), -1)
        sums = np.add.reduceat(terms, starts, axis=0)
        outer = functools.reduce(np.multiply.outer, [-h * (h + 1)] * s, np.ones(()))
        sums -= gamma * outer.ravel()
        weights = functools.reduce(np.multiply.outer, [weight] * s, np.ones(()))
        total = float(np.sum(sums * sums * weights.ravel()))
    return float(b) ** s * total + (n_boxes - starts.size) * vol_mass


def level_mass_exact(p, j) -> Fraction:
    """sum over boxes m and l-combinations of |mu_jml|^2, exactly.

    mu_jml is the DFT at l of the box's real b^s tensor X, the mean over the
    points of prod_i (length of cell r_i of box m_i above z_i) times the
    (1 - z_i) of level -1, minus prod_i (integral of x over cell r_i) times
    the 1/2 of level -1.  By Plancherel the sum over l in {1..b-1}^s is
    b^s ||P X||^2, P removing the mean along every axis; P cancels the m
    dependence of the volume tensor, so every empty box adds the same.  Cell
    lengths are integers in units of b^-n, summed per box in int64 (the sum
    is below N b^(nd) < 2^63), then combined in Fractions: meant for levels
    with few boxes.
    """
    b, n, d, N = p.b, p.n, p.d, p.size
    D = b**n
    assert N * D**d < 2**63
    active = [i for i, v in enumerate(j) if v >= 0]
    s = len(active)
    weight = np.ones(N, dtype=np.int64)
    for i, ji in enumerate(j):
        if ji == -1:
            weight = weight * (D - p.numerators[:, i])
    interior = np.ones(N, dtype=bool)
    box = np.zeros(N, dtype=np.int64)
    tensor = weight[:, None]
    for i in active:
        cell = b ** (n - j[i] - 1)  # cell width in units of b^-n
        k = p.numerators[:, i]
        interior &= k % (b * cell) != 0
        box = box * b ** j[i] + k // (b * cell)
        start = (k // (b * cell) * b)[:, None] * cell + np.arange(b) * cell
        lengths = np.clip(start + cell - np.maximum(start, k[:, None]), 0, cell)
        tensor = (tensor[:, :, None] * lengths[:, None, :]).reshape(N, -1)
    box_ids, inv = np.unique(box[interior], return_inverse=True)
    sums = np.zeros((box_ids.size, tensor.shape[1]), dtype=np.int64)
    np.add.at(sums, inv, tensor[interior])

    def integral(cell_index, width):  # of x over [cell_index, cell_index + 1) * width
        return Fraction((2 * cell_index + 1) * width * width, 2)

    vol = np.array([Fraction(1, 2 ** (d - s))], dtype=object)
    for i in active:
        width = Fraction(1, b ** (j[i] + 1))
        cells = np.array([integral(r, width) for r in range(b)], dtype=object)
        vol = np.multiply.outer(vol, cells).ravel()

    def projected_sq(x):
        x = x.reshape((b,) * s)
        for axis in range(s):
            x = x - x.sum(axis=axis, keepdims=True) / b
        return sum(v * v for v in x.ravel())

    scale = Fraction(1, N * D ** (d - s) * D**s)
    total = sum(projected_sq(row.astype(object) * scale - vol) for row in sums)
    empty = b ** sum(j[i] for i in active) - box_ids.size
    return b**s * (total + empty * projected_sq(-vol))


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
        for basis in (c.basis, c.dual.basis)
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
    """sum_h wal_t(x_h) with each point's digit recomputed per digit of t.

    Exactly N or 0 when the residue counts say so, else the float root sum.
    """
    b, n = p.b, p.n
    exponents = np.zeros(p.size, dtype=object)
    for i, ti in enumerate(t):
        for nu in range(n):  # digit nu of t (LSB first), digit nu + 1 of x
            tau = (int(ti) // b**nu) % b
            if tau:
                xdig = (p.numerators[:, i] // (b ** (n - 1 - nu))) % b
                exponents = exponents + tau * xdig.astype(object)
    counts = np.bincount(np.asarray(exponents % b, dtype=np.int64), minlength=b)
    if counts[0] == p.size:
        return complex(p.size)
    if (counts == counts[0]).all():
        return 0j
    return sum(int(c) * _omega(b, k) for k, c in enumerate(counts))


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
