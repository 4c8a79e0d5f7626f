"""Stock point-set families for multi-size scaling studies.

The construction of cs.py exists at one desk-scale size per (b, d); scaling
in N uses the classical base-2 two-dimensional families below.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams
from .nets import GeneratingMatrices, PointSet, generate_points


def hammersley_matrices(n: int, b: int = 2) -> GeneratingMatrices:
    """d = 2: identity matrix and the bit-reversal (anti-identity) matrix."""
    if n < 1:
        raise InvalidParams("need n >= 1")
    ident = np.eye(n, dtype=np.int64)
    anti = np.fliplr(ident).copy()
    return GeneratingMatrices(b, n, 2, np.stack([ident, anti]))


def hammersley(n: int, b: int = 2) -> PointSet:
    return generate_points(hammersley_matrices(n, b))


#: n - 2 ell over sqrt(n) for `balanced_hammersley`.
GAP_FACTOR = 2.8


def _xor_shifted(n: int, family: str, shift: int) -> PointSet:
    """Base-2 Hammersley with the van der Corput coordinate XOR-ed by `shift`.

    The result is still a (0, n, 2)-net but is no longer generated by
    matrices alone, so provenance records the shift.
    """
    nums = hammersley(n).numerators.copy()
    nums[:, 1] ^= shift
    prov = {"family": family, "n": n, "shift": shift}
    return PointSet(2, n, 2, nums, provenance=prov)


def shifted_hammersley(n: int) -> PointSet:
    """Hammersley with the alternating digit shift on the van der Corput
    coordinate.

    XOR-ing digits 2, 4, 6, ... (from the most significant) flips every other
    dyadic symmetry.  The plain Hammersley set has L2 discrepancy of order
    (log N)/N; this shifted variant attains the optimal sqrt(log N)/N.
    """
    shift = sum(1 << (n - 1 - k) for k in range(1, n, 2))
    return _xor_shifted(n, "shifted_hammersley", shift)


def balanced_hammersley(n: int) -> PointSet:
    """Hammersley with ell(n) complemented digits where n - 2 ell ~ 2.8 sqrt(n).

    The squared scaled L2 discrepancy of the ell-digit-complemented Hammersley
    set grows like (n - 2 ell)^2 plus a linear-in-n part, so keeping the gap
    proportional to sqrt(n) yields N ||D||_2 of the optimal order
    sqrt(log N).  The factor 2.8 (`GAP_FACTOR`) makes the gap term dominate
    the additive constant already at desk-scale sizes; the digit positions
    are irrelevant (the value depends only on the count), so the lowest ell
    are used.
    """
    if n < 1:
        raise InvalidParams("need n >= 1")
    gap = min(n, round(GAP_FACTOR * math.sqrt(n)))
    ell = (n - gap) // 2
    return _xor_shifted(n, "balanced_hammersley", (1 << ell) - 1)


FAMILIES = {
    "hammersley": hammersley,
    "shifted_hammersley": shifted_hammersley,
    "balanced_hammersley": balanced_hammersley,
}
