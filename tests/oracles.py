"""Independent reference computations used by several test modules.

These deliberately avoid the closed forms under test: coefficients are
obtained by exact piecewise integration over the cells where the integrands
are constant or linear, with Fraction endpoints (only the roots of unity are
floating point); spans and points come from one int64 digit matrix product;
netfiles are written one row at a time; Haar levels are aggregated point by
point with `np.unique` and `np.add.at`, in the points' own order; Walsh
integrals are Riemann sums of `walsh_eval_1d` over Fraction grid points;
character sums recompute every point's digits per frequency digit.
"""
from __future__ import annotations

import cmath
import itertools
import json
from fractions import Fraction

import numpy as np

from qmcnet.haar import HaarIndex
from qmcnet.walsh import walsh_eval_1d


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
