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


def shifted_hammersley(n: int) -> PointSet:
    """Base-2 Hammersley with the alternating digit shift on the van der
    Corput coordinate.

    XOR-ing digits 2, 4, 6, ... (from the most significant) flips every other
    dyadic symmetry.  The plain Hammersley set has L2 discrepancy of order
    (log N)/N; this shifted variant attains the optimal sqrt(log N)/N.  The
    result is still a (0, n, 2)-net but is no longer generated by matrices
    alone, so provenance records the shift.
    """
    p = hammersley(n)
    shift = 0
    for k in range(n):
        if k % 2 == 1:  # digit positions counted from the MSB of y
            shift |= 1 << (n - 1 - k)
    nums = p.numerators.copy()
    nums[:, 1] ^= shift
    return PointSet(
        b=2,
        n=n,
        d=2,
        numerators=nums,
        provenance={"family": "shifted_hammersley", "n": n, "shift": shift},
    )


def balanced_hammersley(n: int, gap_factor: float = 2.8) -> PointSet:
    """Hammersley with ell(n) complemented digits where n - 2 ell ~ 2.8 sqrt(n).

    The squared scaled L2 discrepancy of the ell-digit-complemented Hammersley
    set grows like (n - 2 ell)^2 plus a linear-in-n part, so keeping the gap
    proportional to sqrt(n) yields N ||D||_2 of the optimal order
    sqrt(log N).  The factor 2.8 makes the gap term dominate the additive
    constant already at desk-scale sizes; the digit positions are irrelevant
    (the value depends only on the count), so the lowest ell are used.
    """
    gap = min(n, round(gap_factor * math.sqrt(n)))
    ell = (n - gap) // 2
    p = hammersley(n)
    shift = (1 << ell) - 1
    nums = p.numerators.copy()
    nums[:, 1] ^= shift
    return PointSet(
        b=2,
        n=n,
        d=2,
        numerators=nums,
        provenance={"family": "balanced_hammersley", "n": n, "shift": shift},
    )


FAMILIES = {
    "hammersley": hammersley,
    "shifted_hammersley": shifted_hammersley,
    "balanced_hammersley": balanced_hammersley,
}
