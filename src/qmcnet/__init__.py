"""Digital nets over prime fields with spectral discrepancy analysis.

Construction of (0, n, d)-nets (including the polynomial-evaluation code
construction), b-adic Haar and Walsh coefficient machinery for the
discrepancy function, Besov/L2 norm reports, and exact oracles.
"""
from .cs import (
    CodeSpace,
    CSParams,
    cs_code_space,
    cs_generating_matrices,
    cs_point_set,
    dual_code,
    verify_dual_properties,
)
from .errors import (
    BaseTooSmall,
    InvalidParams,
    NetFileError,
    NonTerminatingExpansion,
    NotPrime,
    QmcNetError,
    SizeOverflow,
)
from .field import is_prime
from .haar import (
    BesovParams,
    HaarIndex,
    NormReport,
    besov_quasi_norm,
    indicator_coeff,
    parseval_l2,
    volume_coeff,
)
from .nets import (
    DualSet,
    GeneratingMatrices,
    PointSet,
    char_sum,
    dual_set,
    generate_points,
    is_net,
    load_pointset,
    save_pointset,
)
from .norms import (
    AuditReport,
    coeff_bound_audit,
    disc_eval,
    scaling_table,
    warnock_l2,
)
from .walsh import (
    ThetaResult,
    fine_price_coeff,
    residual_check,
    theta,
)

__version__ = "0.1.0"
