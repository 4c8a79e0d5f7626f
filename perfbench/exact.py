"""Exact references for the benchmark's output checks, independent of qmcnet.

- `l2_sq_exact_2d`: the exact squared L2 star discrepancy of a 2-d point set
  with integer numerators over M, by Warnock's formula with the pairwise sum
  taken in O(N log N) (sort by 1 - x, Fenwick tree over 1 - y).
- `l2_sq_brute`: the same quantity as an O(N^2) integer double sum; the
  self-test compares the two on small sets.
- `read_netfile`: a parser for the `#qmcnet v1` netfile text format.
- `is_dual`: membership of a frequency tuple in the dual of a digital net,
  straight from the generating matrices.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

_HEADER = re.compile(r"^#qmcnet v1 b=(\d+) n=(\d+) d=(\d+) N=(\d+)\s*$")


def _warnock_terms(nums, m: int) -> tuple[int, int]:
    """(N, sum_i prod_k (M^2 - a_ik^2)) for integer rows a_i."""
    lin = 0
    for row in nums:
        lin += math.prod(m * m - int(a) * int(a) for a in row)
    return len(nums), lin


def _assemble(n_pts: int, d: int, m: int, lin: int, quad: int) -> Fraction:
    """1/3^d - (2/N) sum prod (1 - x^2)/2 + (1/N^2) sum_ij prod (1 - max)."""
    return (
        Fraction(1, 3**d)
        - Fraction(2 * lin, n_pts * 2**d * m ** (2 * d))
        + Fraction(quad, n_pts * n_pts * m**d)
    )


def l2_sq_exact_2d(nums, m: int) -> Fraction:
    """||D_P||_2^2 exactly for points nums[i] / m in [0, 1)^2.

    The pairwise term is sum_ij min(X_i, X_j) * min(Y_i, Y_j) with X = m - a_1
    and Y = m - a_2.  With the points sorted by X, the pair (i, j), i before
    j, contributes X_i * min(Y_i, Y_j); a Fenwick tree over the ranks of Y
    holds count and sum of the Y_j seen so far.
    """
    nums = np.asarray(nums, dtype=np.int64)
    if nums.ndim != 2 or nums.shape[1] != 2:
        raise ValueError("need an (N, 2) array of numerators")
    xs = [m - int(a) for a in nums[:, 0]]
    ys = [m - int(a) for a in nums[:, 1]]
    ranks = {y: r + 1 for r, y in enumerate(sorted(set(ys)))}
    size = len(ranks)
    cnt = [0] * (size + 1)
    tot = [0] * (size + 1)
    order = sorted(range(len(xs)), key=xs.__getitem__)
    quad = 0
    seen = 0
    for i in reversed(order):
        x, y = xs[i], ys[i]
        r = ranks[y] - 1
        c_lt = s_lt = 0
        while r > 0:
            c_lt += cnt[r]
            s_lt += tot[r]
            r -= r & -r
        quad += x * (2 * (s_lt + y * (seen - c_lt)) + y)
        r = ranks[y]
        while r <= size:
            cnt[r] += 1
            tot[r] += y
            r += r & -r
        seen += 1
    n_pts, lin = _warnock_terms(nums, m)
    return _assemble(n_pts, 2, m, lin, quad)


def l2_sq_brute(nums, m: int) -> Fraction:
    """||D_P||_2^2 exactly by the O(N^2) integer double sum, any d."""
    rows = [[int(a) for a in row] for row in np.asarray(nums)]
    quad = 0
    for a in rows:
        for c in rows:
            quad += math.prod(m - max(u, v) for u, v in zip(a, c))
    n_pts, lin = _warnock_terms(rows, m)
    return _assemble(n_pts, len(rows[0]), m, lin, quad)


def read_netfile(path: str) -> tuple[tuple[int, int, int], np.ndarray]:
    """((b, n, d), numerators (N, d)) of a netfile; comment lines skipped."""
    with open(path) as fh:
        header = fh.readline()
        body = [line for line in fh if line.strip() and not line.startswith("#")]
    match = _HEADER.match(header)
    if not match:
        raise ValueError(f"bad netfile header {header!r}")
    b, n, d, count = (int(g) for g in match.groups())
    nums = np.array(" ".join(body).split(), dtype=np.int64)
    if nums.size != count * d:
        raise ValueError(f"netfile holds {nums.size} numerators, header says {count}x{d}")
    return (b, n, d), nums.reshape(count, d)


def is_dual(mats: np.ndarray, b: int, t) -> bool:
    """sum_i C_i^T tbar_i == 0 over F_b, tbar_i the base-b digits of t_i, LSB first."""
    d, n, _ = mats.shape
    total = np.zeros(n, dtype=np.int64)
    for i, ti in enumerate(t):
        if not 0 <= int(ti) < b**n:
            raise ValueError("frequency needs more than n digits")
        digits = [(int(ti) // b**k) % b for k in range(n)]
        total += mats[i].T @ np.array(digits, dtype=np.int64)
    return not np.any(total % b)
