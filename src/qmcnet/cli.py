"""Command-line harness: construction, verification, norms, integration,
audits and scaling studies as reproducible batch runs.

Exit codes: 0 success, 1 structural verification failure, 2 parameter error,
3 resource limit.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import families as fam
from .cs import CSParams, cs_code_space, cs_point_set, dual_code, verify_dual_properties
from .errors import InvalidParams, QmcNetError, SizeOverflow
from .haar import BesovParams, haar_norms
from .nets import (
    GeneratingMatrices,
    PointSet,
    char_sum,
    generate_points,
    is_net,
    load_pointset,
    save_pointset,
)
from .norms import coeff_bound_audit, scaling_table, warnock_l2_sq
from .walsh import fine_price_coeff, interval_coeff_vector, residual_check

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARAM = 2
EXIT_RESOURCE = 3


# --- integrands -------------------------------------------------------------------


#: family -> (swept params k, the 1-d factor f_k(x), its integral over [0, 1]);
#: the integrand is prod_i f_k(x_i)
INTEGRANDS = {
    "product_monomial": (range(1, 6), lambda x, k: x**k, lambda k: 1.0 / (k + 1)),
    "product_cosine": (range(1, 6), lambda x, k: np.cos(np.pi * k * x / 2.0),
                       lambda k: 2.0 * math.sin(math.pi * k / 2.0) / (math.pi * k)),
}


class IntegrandSpec:
    """A test integrand from `INTEGRANDS` with a known exact integral."""

    def __init__(self, family: str, d: int, param: int):
        if family not in INTEGRANDS:
            raise InvalidParams(f"unknown integrand family {family!r}")
        _, self._factor, self._integral = INTEGRANDS[family]
        self.d, self.param = d, param

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return np.prod(self._factor(pts, self.param), axis=1)

    def exact(self) -> float:
        return self._integral(self.param) ** self.d


# --- option plumbing --------------------------------------------------------------


def _load_net(args) -> PointSet:
    p = load_pointset(args.net) if args.net else cs_point_set(_cs_params(args))
    if not p.size:  # D_P, its norms and the QMC means all divide by N
        raise InvalidParams("empty point set: N = 0")
    return p


def _cs_params(args) -> CSParams:
    if args.base is None or args.dim is None:
        raise InvalidParams("need --net or (--base, --dim [, --w])")
    return CSParams(b=args.base, d=args.dim, w=args.w)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.matrices:
        with open(args.matrices) as fh:
            p = generate_points(GeneratingMatrices.from_json(fh.read()))
    else:
        p = cs_point_set(_cs_params(args))
    save_pointset(p, args.out or sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    p = _load_net(args)
    report: dict = {"schema": 1}
    check = is_net(p)
    report["is_net"] = check.ok
    report["net_route"] = check.route
    if not check.ok:
        report["witness_shape"] = list(check.witness_shape)
        report["witness_box"] = list(check.witness_box)
        report["witness_count"] = check.witness_count

    prov = p.provenance or {}
    if prov.get("kind") == "cs":
        params = CSParams.from_json(json.dumps(prov.get("params")))
        if (params.b, params.n, params.d) != (p.b, p.n, p.d):
            raise InvalidParams(f"provenance (b, n, d) = {(params.b, params.n, params.d)} "
                                f"differs from the netfile's {(p.b, p.n, p.d)}")
        code = cs_code_space(params)
        rep = verify_dual_properties(code)
        report["dual_kappa_min"] = rep.kappa_min
        report["dual_delta_min"] = rep.delta_min
        report["dual_ok"] = rep.passed
        # char_sum is N only when every exponent, linear in t's digits, is 0
        # mod b: N on the dual's basis rows, read as frequencies, is N on the
        # dual set.  (1, 0, ..., 0) must give N in the dual and 0 outside it
        words = np.vstack([dual_code(code).basis, np.eye(1, p.d * p.n, dtype=np.int64)])
        freqs = words.reshape(-1, p.d, p.n) @ (p.b ** np.arange(p.n, dtype=np.int64))
        in_dual = ~(code.basis @ words.T % p.b).any(axis=0)
        report["char_sum_ok"] = all(
            char_sum(p, t) == (p.size if member else 0) for t, member in zip(freqs, in_dual)
        )
    else:
        report["dual_ok"] = report["char_sum_ok"] = None
        report["notice"] = (
            "digital provenance: the net test ran on the matrices; dual-code and "
            "character-sum stages are not run for this kind"
            if prov.get("kind") == "digital"
            else "no construction provenance: dual-code and character-sum stages skipped"
        )
    report["passed"] = check.ok and all(
        report[stage] in (True, None) for stage in ("dual_ok", "char_sum_ok")
    )
    _emit(json.dumps(report, sort_keys=True) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


def cmd_norm(args) -> int:
    p = _load_net(args)
    params = BesovParams(p=args.p, q=args.q, r=args.r)
    pv, bs = haar_norms(p, params)
    if math.isinf(bs.value):  # "value": Infinity is not JSON
        why = "diverges" if params.r >= 1 else "overflows a float"
        raise InvalidParams(f"the Besov sum {why} at p = {args.p}, q = {args.q}, r = {args.r}")
    lines = [pv.to_json(), bs.to_json()]
    if args.warnock:
        exact = warnock_l2_sq(p)
        agree = Fraction(pv.metadata["exact"]) == exact
        lines.append(
            json.dumps(
                {
                    "schema": 1,
                    "kind": "warnock_crosscheck",
                    "warnock_sq": float(exact),
                    "parseval": pv.value,
                    "within_tail": agree,
                },
                sort_keys=True,
            )
        )
    if params.out_of_window:
        lines.append(
            json.dumps(
                {"schema": 1, "kind": "warning", "message": "outside 0 < r < 1/p window"},
                sort_keys=True,
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_integrate(args) -> int:
    if args.integrand and args.integrand not in INTEGRANDS:
        raise InvalidParams(f"unknown integrand family {args.integrand!r}")
    p = _load_net(args)
    pts = p.coordinates()
    rows = ["family,param,qmc,exact,error"]
    for family in [args.integrand] if args.integrand else INTEGRANDS:
        for k in INTEGRANDS[family][0]:
            spec = IntegrandSpec(family, p.d, k)
            qmc = float(spec.evaluate(pts).mean())
            rows.append(
                f"{family},{k},{qmc!r},{spec.exact()!r},{abs(qmc - spec.exact())!r}"
            )
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def cmd_audit(args) -> int:
    p = _load_net(args)
    report = coeff_bound_audit(p, cap=args.cap)
    _emit(report.to_json() + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_scaling(args) -> int:
    if args.family not in fam.FAMILIES:
        raise InvalidParams(f"unknown family {args.family!r}")
    family = fam.FAMILIES[args.family]
    sizes = range(args.nmin, args.nmax + 1)
    params = BesovParams(p=args.p, q=args.q, r=args.r)
    study = scaling_table(family, sizes, params, kinds=tuple(args.kinds.split(",")))
    text = study.csv()
    if study.degenerate:
        text += "# degenerate: single size, slopes undefined\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_walsh_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    report: dict = {"schema": 1, "kind": "walsh_check"}
    worst = 0.0
    for b in (2, 3, 5):
        for _ in range(10):
            t = int(rng.integers(0, b**3))
            y = Fraction(int(rng.integers(0, b**4)), b**4)
            grid = interval_coeff_vector(y, b, 4)[t]  # the digit-by-digit analysis route
            worst = max(worst, abs(fine_price_coeff(t, y, b) - grid))
    report["fine_price_max_err"] = float(worst)

    g = fam.hammersley_matrices(4)
    p = generate_points(g)
    rep = residual_check(p, g, sample_count=50, seed=args.seed)
    report["theta_max_gap"] = float(rep.max_theta_gap)
    report["residual_sup_scaled"] = float(rep.max_scaled_residual)
    report["passed"] = bool(worst < 1e-12 and rep.max_theta_gap < 1e-12)
    _emit(json.dumps(report, sort_keys=True) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAIL


# --- parser -----------------------------------------------------------------------


FLAGS = {
    "net": dict(help="netfile path"),
    "base": dict(type=int, help="prime base b"),
    "dim": dict(type=int, help="dimension d"),
    "w": dict(type=int, default=1, help="derivative depth w"),
    "matrices": dict(help="generating-matrix JSON file"),
    "p": dict(type=float, default=2.0),
    "q": dict(type=float, default=2.0),
    "r": dict(type=float, default=0.25),
    "cap": dict(type=int, default=None),
    "seed": dict(type=int, default=0),
    "warnock": dict(action="store_true", help="L2 cross-check"),
    "integrand": dict(default=None),
    "family": dict(default="balanced_hammersley"),
    "nmin": dict(type=int, default=4),
    "nmax": dict(type=int, default=10),
    "kinds": dict(default="l2"),
    "out": dict(help="output path (default stdout)"),
}

_NET = ("net", "base", "dim", "w", "out")
_BESOV = ("p", "q", "r")

# (name, help, handler, the flags the handler reads)
SUBCOMMANDS = (
    ("generate", "construct a net and write a netfile", cmd_generate,
     ("base", "dim", "w", "matrices", "out")),
    ("verify", "structural checks on a net", cmd_verify, _NET),
    ("norm", "spectral norm reports", cmd_norm, _NET + _BESOV + ("warnock",)),
    ("integrate", "QMC integration error table", cmd_integrate, _NET + ("integrand",)),
    ("audit", "coefficient-magnitude audit", cmd_audit, _NET + ("cap", "seed")),
    ("scaling", "multi-size norm table", cmd_scaling,
     ("family", "nmin", "nmax", "kinds") + _BESOV + ("out",)),
    ("walsh-check", "spectral oracle self-test", cmd_walsh_check, ("seed", "out")),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qmcnet")
    sub = top.add_subparsers(dest="command", required=True)
    module = sys.modules[__name__]
    for name, help_text, func, flags in SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(f"--{flag}", **FLAGS[flag])
        # the handler the module binds now, so that a rebinding (a test's
        # monkeypatch, a tracer's wrapper) is the one called
        sp.set_defaults(func=getattr(module, func.__name__))
    return top


# --- process policy ---------------------------------------------------------------


#: glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_allocator_set = False


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory in the heap for reuse; once per process.

    glibc maps each block above its mmap threshold afresh and hands the heap
    top above its trim threshold back to the kernel.  Both thresholds start
    low and rise only when a larger mapped block is freed, so the Haar
    sweeps' temporaries (0.1-4 MB on CS-11) leave the process and are
    faulted in again level after level.  Fixing the thresholds at the
    ceiling of glibc's own dynamic rule (32 MiB mmap, 64 MiB trim on 64-bit)
    keeps them.  Setting either one switches that rule off, so both are set.
    Forked workers inherit the setting; on any other libc this does nothing.
    """
    global _allocator_set
    if _allocator_set:
        return
    _allocator_set = True
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the process's own libc
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
            raise InvalidParams(f"seed {args.seed} < 0")
        return args.func(args)
    except SizeOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (QmcNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())
