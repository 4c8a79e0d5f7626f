"""The b-adic Walsh system and the group-theoretic cross-check lemmas.

Fine-Price coefficients of interval indicators, the truncated-series
decomposition of the discrepancy function into a dual-set sum plus a small
residual, Walsh transforms on the group F_b^(d n), and the V_(gamma,lambda)
counting identities, whose counts are ranks of the code basis's columns at
the fixed digits.  These run at desk scale and serve mainly as oracles for
the Haar-side computations.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cs import CodeSpace, nrt_weight
from .errors import InvalidParams, InvalidRange, NonTerminatingExpansion, SizeOverflow
from .field import gf_rank, root_of_unity, roots_of_unity
from .nets import DualSet, GeneratingMatrices, PointSet
from .norms import disc_eval

GROUP_TABLE_LIMIT = 2**24


def terminating_digits(y: Fraction, b: int) -> list[int]:
    """Base-b digits y_1, y_2, ... (most significant first) of a terminating y."""
    y = Fraction(y)
    if not 0 <= y < 1:
        raise InvalidParams("y must lie in [0, 1)")
    digits = []
    while y:
        y *= b
        digits.append(math.floor(y))
        y -= math.floor(y)
        if len(digits) > 64 and y:
            raise NonTerminatingExpansion(
                "coordinate has no terminating base-b expansion"
            )
    return digits


def walsh_eval_1d(alpha: int, x: Fraction, b: int) -> complex:
    """wal_alpha(x) = exp(2 pi i / b * sum_nu alpha_nu x_(nu+1))."""
    if alpha < 0:
        raise InvalidParams("alpha must be nonnegative")
    if alpha == 0:
        return 1.0 + 0.0j
    digits = terminating_digits(x, b)
    exponent = 0
    nu = 0
    while alpha:
        tau = alpha % b
        if tau and nu < len(digits):
            exponent += tau * digits[nu]
        alpha //= b
        nu += 1
    return root_of_unity(b, exponent)


def _unit_interval(y) -> Fraction:
    """y as a Fraction, checked to lie in [0, 1]."""
    y = Fraction(y)
    if not 0 <= y <= 1:
        raise InvalidParams(f"y = {y} must lie in [0, 1]")
    return y


def fine_price_coeff(t: int, y: Fraction, b: int) -> complex:
    """Walsh coefficient of chi_[0,y): integral over [0, y) of conj(wal_t).

    Exact for terminating y: the infinite part of the Fine-Price series
    stabilizes once the digits of y run out and is summed in closed form
    (sum over z of 1/(omega^z - 1) equals -(b-1)/2).
    """
    y = _unit_interval(y)
    if t < 0:
        raise InvalidParams("t must be nonnegative")
    if t == 0:
        return complex(y)
    if y == 1:  # wal_t, t > 0, has mean 0 over [0, 1)
        return 0j
    digits = terminating_digits(y, b)
    big_m = len(digits)
    rho = nrt_weight(t, b)
    tau = (t // b ** (rho - 1)) % b
    t_prime = t - tau * b ** (rho - 1)

    wal_tp = walsh_eval_1d(t_prime, y, b)
    wal_t = walsh_eval_1d(t, y, b)

    total = (1.0 / (1.0 - root_of_unity(b, -tau))) * wal_tp.conjugate()
    total += (1.0 / (root_of_unity(b, -tau) - 1.0) + 0.5) * wal_t.conjugate()

    # explicit terms while digit y_(rho+a) may be nonzero, then the closed tail
    a_max = max(big_m - rho, 0)
    series = 0.0j
    for a in range(1, a_max + 1):
        for z in range(1, b):
            term = root_of_unity(b, -(z * digits[rho + a - 1])) * wal_t.conjugate()
            series += term / (b**a * (root_of_unity(b, z) - 1.0))
    series += -wal_t.conjugate() * float(b) ** (-a_max) / 2.0
    total += series
    return total / b**rho


# --- fast transforms on the b^n grid -------------------------------------------


def _digit_dft(a: np.ndarray, b: int, sign: int) -> np.ndarray:
    """sum over x of exp(sign 2 pi i x y / b) a[..., x, ...] along every axis.

    The one radix-b tensor transform of the package, O(k b^(k+1)) on a
    (b,) * k tensor; only `group_walsh_transform` calls it.  Each step is one
    matmul on a (b, M) view: it transforms the leading digit axis and rotates
    it to the end, so after k steps every axis is transformed and back in its
    place, with no axis copy.  A 0-d tensor (k = 0) is returned unchanged.
    """
    if a.ndim == 0:
        return a
    w = roots_of_unity(b)[sign * np.outer(np.arange(b), np.arange(b)) % b]
    x = a.reshape(b, -1)
    for _ in range(a.ndim):
        x = (x.T @ w.T).reshape(b, -1)
    return x.reshape(a.shape)


@functools.lru_cache(maxsize=None)
def _digit_tables(b: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, S) with W[c, tau] = omega^(-tau c) and S[c, tau] = sum over c' < c
    of W[c', tau]; read-only and built once per base."""
    x = np.arange(b)
    w = roots_of_unity(b)[-np.outer(x, x) % b]
    s = np.cumsum(np.concatenate([np.zeros((1, b)), w[:-1]]), axis=0)
    w.flags.writeable = s.flags.writeable = False
    return w, s


def interval_coeff_vector(y: Fraction, b: int, n: int) -> np.ndarray:
    """chi_hat_[0,y)(t) for all t < b^n, built digit by digit in O(b^n).

    conj(wal_t) is constant on cells of width b^-n: the integral is b^-n times
    the character sum over cells x < g = floor(y b^n) plus theta = y b^n - g
    times cell g's term (y = 1 is the whole last cell).  A cell x < g first
    differs from g at a digit x_k < g_k; its free later digits sum to b^(n-k)
    if tau_k..tau_(n-1) vanish, else 0.  So from the last digit of g up, each
    step is an outer product with omega^(-tau g_k), plus S_(g_k) b^(n-k) on
    the row where the more significant taus vanish; tau_0 ends least
    significant.
    """
    y = _unit_interval(y)
    scaled = y * b**n
    g = min(math.floor(scaled), b**n - 1)
    w, s = _digit_tables(b)
    a = np.array([complex(scaled - g) / b**n])
    for k in range(n):  # digit g_(n-k) pairs with tau_(n-k-1)
        g, digit = divmod(g, b)
        a = np.multiply.outer(a, w[digit]).reshape(-1)
        a[:b] += s[digit] * float(b) ** (k - n)
    return a


# --- Theta / R decomposition ----------------------------------------------------


def _definition_sum(p: PointSet, y: list[Fraction]) -> float:
    """The mean over the points of prod_i the cell average of chi_[0,y_i)
    at k_i, minus the volume: exact, and rounded once.

    With y_i b^n = a_i / q_i, g_i = floor(a_i / q_i) and r_i = a_i - g_i q_i,
    the cell average at k is 1 below g_i, r_i / q_i on g_i and 0 above it:
    (q_i - r_i) / q_i [k < g_i] + r_i / q_i [k < g_i + 1].  So the sum over
    the points times Q = prod_i q_i is an integer, the sum over e in
    {0, 1}^d of prod_i (r_i if e_i else q_i - r_i) times the number of
    points below g + e (`PointSet.count_below`, a prefix with k_1 at or
    below g_1), and so is the volume times Q b^(nd).
    """
    a = [yi.numerator * p.denominator for yi in y]
    q = [yi.denominator for yi in y]
    g = [ai // qi for ai, qi in zip(a, q)]
    r = [ai - gi * qi for ai, gi, qi in zip(a, g, q)]
    total = 0
    for e in itertools.product((0, 1), repeat=p.d):
        weight = math.prod(ri if ei else qi - ri for ei, qi, ri in zip(e, q, r))
        if weight:  # r_i = 0 on the b^-n grid: no term with e_i = 1
            total += weight * p.count_below([gi + ei for gi, ei in zip(g, e)])
    scale = p.denominator**p.d
    return (total * scale - p.size * math.prod(a)) / (math.prod(q) * p.size * scale)


def _same_shape(p: PointSet, other):
    """other, checked to have the point set's (b, n, d)."""
    shape, want = (other.b, other.n, other.d), (p.b, p.n, p.d)
    if shape != want:
        name = type(other).__name__
        raise InvalidParams(f"{name} has (b, n, d) = {shape}, the point set {want}")
    return other


@dataclass(frozen=True)
class ThetaResult:
    dual_sum: complex
    definition_sum: complex

    @property
    def gap(self) -> float:
        return abs(self.dual_sum - self.definition_sum)


def theta(
    p: PointSet,
    g: GeneratingMatrices,
    y: Sequence[Fraction],
    dual: DualSet | None = None,
) -> ThetaResult:
    """Theta_P(y) by its two routes, which must agree.

    The two routes share nothing but y.
    dual_sum:        sum over the nonzero dual set of prod_i chi_hat(t_i),
                     the coefficient vectors chi_hat_[0,y_i)(t), t < b^n,
                     gathered at `dual.array`, one O(b^n) digit-by-digit
                     analysis per coordinate.
    definition_sum:  mean over the net of the truncated indicator, read per
                     coordinate as the cell average of chi_[0,y_i) at each
                     point's numerator, minus the volume; counted exactly
                     by `PointSet.count_below` (`_definition_sum`) and
                     rounded once.
    g and dual must have the point set's (b, n, d); dual defaults to g.dual.
    """
    b, n = p.b, p.n
    y = [_unit_interval(v) for v in y]
    if len(y) != p.d:
        raise InvalidParams(f"y has {len(y)} coordinates, the point set {p.d}")
    _same_shape(p, g)
    dual = _same_shape(p, g.dual if dual is None else dual)

    terms = np.ones(len(dual), dtype=complex)
    for i, yi in enumerate(y):
        terms *= interval_coeff_vector(yi, b, n)[dual.array[:, i]]
    return ThetaResult(complex(terms.sum()), complex(_definition_sum(p, y)))


@dataclass(frozen=True)
class ResidualReport:
    max_scaled_residual: float  # sup |R(y)| * b^n over the sample
    max_theta_gap: float
    samples: int


def residual_check(
    p: PointSet,
    g: GeneratingMatrices,
    sample_count: int = 1000,
    seed: int = 0,
) -> ResidualReport:
    """Empirical constant in |R_P(y)| <= c b^-n over a seeded sample grid.

    Samples y from the b^(n+1) grid; R = D - Theta with D the exact
    `disc_eval` and Theta the dual sum, and the two Theta routes compared
    per sample.  g must have the point set's (b, n, d).
    """
    b, n = p.b, p.n
    if sample_count < 1:
        raise InvalidParams(f"need sample_count >= 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    grid = b ** (n + 1)
    dual = _same_shape(p, g).dual
    max_resid = 0.0
    max_gap = 0.0
    ys = rng.integers(0, grid, size=(sample_count, p.d))
    for row in ys:
        y = [Fraction(int(v), grid) for v in row]
        th = theta(p, g, y, dual=dual)
        resid = abs(float(disc_eval(p, y)) - th.dual_sum)
        max_resid = max(max_resid, resid)
        max_gap = max(max_gap, th.gap)
    return ResidualReport(
        max_scaled_residual=max_resid * b**n,
        max_theta_gap=max_gap,
        samples=sample_count,
    )


# --- group Walsh transform and counting lemmas ----------------------------------


def group_walsh_transform(table: np.ndarray, b: int, width: int) -> np.ndarray:
    """f_hat(B) = sum_A exp(2 pi i A.B / b) f(A) on F_b^width, dense table.

    Tensor transform per digit; the table is indexed by the mixed-radix word
    with the first digit most significant.
    """
    size = b**width
    if size > GROUP_TABLE_LIMIT:
        raise SizeOverflow(f"group table b^{width} exceeds {GROUP_TABLE_LIMIT}")
    table = np.asarray(table, dtype=complex)
    if table.size != size:
        raise InvalidParams("table size must be b**width")
    return _digit_dft(table.reshape((b,) * width), b, 1).reshape(-1)


def word_index(word: Sequence[int], b: int) -> int:
    """Index of a word in the dense table (first digit most significant)."""
    idx = 0
    for digit in word:
        idx = idx * b + int(digit)
    return idx


@dataclass(frozen=True)
class VCountReport:
    count_in_code: int
    count_in_dual: int
    identity_ok: bool
    bound_ok: bool | None
    sigma: int


def v_gamma_lambda(
    c: CodeSpace,
    gamma: Sequence[int],
    lam: Sequence[int],
    check_bound: bool = False,
) -> VCountReport:
    """Counting identity #(C n V_(g,l)) = #C / b^(|l|+sigma) * #(Cperp n Vperp).

    Both counts are read off one rank over F_b, so the identity holds for
    every linear code.  With check_bound, additionally tests the counting
    proposition #(Cperp n Vperp_(g,l)) <= b^d for |gamma| >= n+1 and
    |lambda| + d <= n.
    """
    d, n, b = c.d, c.n, c.b
    gamma = [int(v) for v in gamma]
    lam = [int(v) for v in lam]
    if len(gamma) != d or len(lam) != d:
        raise InvalidRange("gamma and lambda must have d entries")
    for g, lm in zip(gamma, lam):
        if not 0 <= lm <= g <= n:
            raise InvalidRange("need 0 <= lambda_i <= gamma_i <= n")
    sigma = sum(1 for g, lm in zip(gamma, lam) if lm < g)

    # digit k (1-based) of block i is fixed when k <= lambda_i or k = gamma_i;
    # V holds the words that vanish there, Vperp those that vanish elsewhere.
    # With r the rank of the basis columns at the fixed digits F, the words
    # of C that vanish on F form a space of dimension dim - r, and those of
    # Cperp supported on F, the dependencies among these columns, one of |F| - r
    k = np.arange(1, n + 1)
    fixed = np.concatenate([(k <= lm) | (k == g) for g, lm in zip(gamma, lam)])
    r = gf_rank(c.basis[:, fixed], b)
    count_c = b ** (c.dim - r)
    count_d = b ** (int(fixed.sum()) - r)

    identity_ok = count_c * b ** (sum(lam) + sigma) == b**c.dim * count_d

    bound_ok = None
    if check_bound:
        if sum(gamma) < n + 1 or sum(lam) + d > n:
            raise InvalidRange(
                "bound check needs |gamma| >= n+1 and |lambda| + d <= n"
            )
        bound_ok = count_d <= b**d
    return VCountReport(count_c, count_d, identity_ok, bound_ok, sigma)
