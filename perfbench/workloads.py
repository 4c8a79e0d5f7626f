"""The benchmark's workloads: inputs, job lists and output checks.

Runs as a child process of run.py, in a fresh interpreter per stage:

    python3 perfbench/workloads.py prepare --workload W --seed S --tmp DIR
    python3 perfbench/workloads.py measure --workload W --seed S --tmp DIR \
        --seconds T [--traced]

`prepare` writes the inputs and exact references into DIR (not timed).
`measure` runs passes of the workload's job list in a closed loop with one
client until T seconds have elapsed, checks each pass's outputs after the
pass, and writes DIR/measure[-traced].json.  Jobs go through
`qmcnet.cli.main(argv)` in-process, except the dual/Walsh jobs, which have no
CLI subcommand and call the library.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import numpy as np

import exact

HERE = os.path.dirname(os.path.abspath(__file__))
B11 = {"b": 11, "d": 2, "w": 1}  # the paper's instance CSParams(b=11, d=2, w=1)
H_N = 19  # Hammersley netfile size 2^19
L2_NMAX, SPECTRAL_NMAX = 13, 15
REL_TOL = 1e-6  # Parseval / Warnock against the exact ||D||^2
GAP_TOL = 1e-12  # two-route Theta gap and fine-price error
DIGITS_CAP = 15.0
N_FREQ = 200


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class Job:
    """One timed call; `check(output)` raises CheckFailed or returns the
    errors that feed accuracy_digits."""

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def run_cli(argv):
    from qmcnet import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_job(name, argv, check):
    def checked(out):
        rc, text = out
        require(rc == 0, f"exit code {rc}")
        return check(text)

    return Job(name, lambda: run_cli(argv), checked)


# --- shared checks --------------------------------------------------------------


def sq_rel_err(value: float, ref: Fraction) -> float:
    """Relative error of a reported L2 value against the exact ||D||^2.

    Reports carry either ||D||^2 (norm) or ||D|| (scaling rows); the two
    differ by orders of magnitude, so the closer reading is the intended one.
    """
    v = Fraction(value)
    return float(min(abs(v - ref), abs(v * v - ref)) / ref)


def besov_overlaps(value: float, tail: float, recorded) -> bool:
    """[value, value + tail] meets the interval recorded at the seed commit."""
    v0, t0 = recorded
    slack = 1e-9 * max(abs(value), abs(v0))
    return value <= v0 + t0 + slack and v0 <= value + tail + slack


def check_l2(value, ref: Fraction, what: str) -> float:
    err = sq_rel_err(value, ref)
    require(err <= REL_TOL, f"{what}: relative error {err:.3g} vs exact ||D||^2")
    return err


def check_besov(value, tail, recorded, what: str) -> None:
    require(math.isfinite(value), f"{what}: Besov value {value} not finite")
    require(besov_overlaps(value, tail, recorded), f"{what}: Besov interval moved")


def check_netfile(path, shape, expected: np.ndarray) -> list:
    head, nums = exact.read_netfile(path)
    require(head == tuple(shape), f"netfile header {head} != {tuple(shape)}")
    require(np.array_equal(nums, expected), "netfile differs from generate_points")
    return []


def check_verify(text, kappa_min=None, delta_min=None) -> list:
    rep = json.loads(text)
    require(rep.get("passed") is True and rep.get("is_net") is True, "verify failed")
    if kappa_min is not None:
        require(rep["dual_kappa_min"] >= kappa_min, "dual kappa below 2d+1")
        require(rep["dual_delta_min"] >= delta_min, "dual delta below n+1")
    return []


def parse_csv(text: str) -> list[dict]:
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    head = lines[0].split(",")
    return [dict(zip(head, l.split(","))) for l in lines[1:]]


def check_scaling(text, kinds, nmax, refs, besov) -> list:
    rows = parse_csv(text)
    seen = {(int(r["n"]), r["norm_kind"]) for r in rows}
    want = {(n, k) for n in range(4, nmax + 1) for k in kinds}
    require(seen == want, f"scaling rows {sorted(want - seen)} missing")
    errs = []
    for r in rows:
        n, value, tail = int(r["n"]), float(r["value"]), float(r["tail_bound"])
        if r["norm_kind"] == "besov":
            check_besov(value, tail, besov[str(n)], f"besov n={n}")
        else:
            errs.append(check_l2(value, refs[n], f"{r['norm_kind']} n={n}"))
    return errs


# --- workloads ----------------------------------------------------------------


def _besov_seed() -> dict:
    with open(os.path.join(HERE, "besov_seed.json")) as fh:
        return json.load(fh)


class Cs11:
    """The paper's CS net b=11, d=2, w=1 (N = 14641) through five CLI jobs."""

    name = "cs11"
    params = B11

    @staticmethod
    def prepare(tmp, seed) -> dict:
        from qmcnet.cs import CSParams, cs_generating_matrices
        from qmcnet.nets import generate_points

        g = cs_generating_matrices(CSParams(**B11))
        nums = generate_points(g).numerators
        np.save(os.path.join(tmp, "cs11_expected.npy"), nums)
        return {
            "net": os.path.join(tmp, f"cs11-seed{seed}.net"),
            "shape": [g.b, g.n, g.d],
            "l2_sq": str(exact.l2_sq_exact_2d(nums, g.b**g.n)),
        }

    @staticmethod
    def jobs(inp, tmp, seed) -> list[Job]:
        net, (b, n, d) = inp["net"], inp["shape"]
        expected = np.load(os.path.join(tmp, "cs11_expected.npy"))
        ref = Fraction(inp["l2_sq"])
        besov = _besov_seed()["cs11_norm"]

        def norm(text):
            reps = [json.loads(l) for l in text.splitlines() if l.strip()]
            pv = [r for r in reps if r.get("kind") == "parseval"]
            bs = [r for r in reps if r.get("kind") == "besov"]
            require(pv and bs, "norm output lacks parseval or besov")
            for r in bs:
                check_besov(r["value"], r["tail_bound"], besov, "norm besov")
            return [check_l2(r["value"], ref, "norm parseval") for r in pv]

        def audit(text):
            rep = json.loads(text)
            require(rep["passed"] is True, "audit not passed")
            require(rep["part_iv_exceptions"] == 0, "part (iv) exceptions")
            require(
                all(c <= b**n for c in rep["exceptional_counts"].values()),
                "exceptional count above b^n",
            )
            return []

        def integrate(text):
            rows = parse_csv(text)
            closed = {
                "product_monomial": lambda k: (1.0 / (k + 1)) ** d,
                "product_cosine": lambda k: (2 * math.sin(math.pi * k / 2) / (math.pi * k)) ** d,
                "tensor_spline": lambda k: 0.5**d,
            }
            require(rows, "empty integration table")
            for r in rows:
                k, qmc, ex, err = int(r["param"]), float(r["qmc"]), float(r["exact"]), float(r["error"])
                require(math.isclose(ex, closed[r["family"]](k), rel_tol=1e-12), "wrong exact integral")
                require(err == abs(qmc - ex), "error column inconsistent")
                if (r["family"], k) == ("product_monomial", 1):
                    require(err <= 1e-2, f"x1*x2 error {err}")
            return []

        gen = ["generate", "--base", "11", "--dim", "2", "--w", "1", "--out", net]
        return [
            cli_job("generate", gen, lambda _t: check_netfile(net, (b, n, d), expected)),
            cli_job("verify", ["verify", "--net", net],
                    lambda t: check_verify(t, kappa_min=2 * d + 1, delta_min=n + 1)),
            cli_job("norm", ["norm", "--net", net], norm),
            cli_job("audit", ["audit", "--net", net, "--seed", str(seed)], audit),
            cli_job("integrate", ["integrate", "--net", net], integrate),
        ]


class Hammersley:
    """Base-2 balanced Hammersley scaling studies and a 2^19-point netfile."""

    name = "hammersley"
    params = {"l2_n": [4, L2_NMAX], "spectral_n": [4, SPECTRAL_NMAX], "netfile_n": H_N}

    @staticmethod
    def prepare(tmp, seed) -> dict:
        from qmcnet.families import balanced_hammersley, hammersley_matrices
        from qmcnet.nets import generate_points

        g = hammersley_matrices(H_N)
        mats = os.path.join(tmp, f"h{H_N}-seed{seed}.json")
        with open(mats, "w") as fh:
            fh.write(g.to_json())
        np.save(os.path.join(tmp, "h_expected.npy"), generate_points(g).numerators)
        refs = {}
        for n in range(4, SPECTRAL_NMAX + 1):
            nums = balanced_hammersley(n).numerators
            refs[n] = str(exact.l2_sq_exact_2d(nums, 2**n))
        return {
            "matrices": mats,
            "net": os.path.join(tmp, f"h{H_N}-seed{seed}.net"),
            "shape": [2, H_N, 2],
            "l2_sq": refs,
        }

    @staticmethod
    def jobs(inp, tmp, seed) -> list[Job]:
        net, mats = inp["net"], inp["matrices"]
        expected = np.load(os.path.join(tmp, "h_expected.npy"))
        refs = {int(n): Fraction(v) for n, v in inp["l2_sq"].items()}
        besov = _besov_seed()["hammersley_scaling"]
        fam = ["scaling", "--family", "balanced_hammersley", "--nmin", "4"]
        return [
            cli_job("scaling_l2", fam + ["--nmax", str(L2_NMAX), "--kinds", "l2"],
                    lambda t: check_scaling(t, ["l2"], L2_NMAX, refs, besov)),
            cli_job("scaling_spectral",
                    fam + ["--nmax", str(SPECTRAL_NMAX), "--kinds", "parseval,besov"],
                    lambda t: check_scaling(t, ["parseval", "besov"], SPECTRAL_NMAX, refs, besov)),
            cli_job("generate", ["generate", "--matrices", mats, "--out", net],
                    lambda _t: check_netfile(net, inp["shape"], expected)),
            cli_job("verify", ["verify", "--net", net], check_verify),
        ]


class DualWalsh:
    """The Walsh/dual route on the CS-11 net: Theta, V-counts, character sums."""

    name = "dual-walsh"
    params = {"net": B11, "residual_samples": 100, "vcount_pairs": 225, "freqs": 2 * N_FREQ}

    @staticmethod
    def prepare(tmp, seed) -> dict:
        from qmcnet.cs import CSParams, cs_generating_matrices
        from qmcnet.nets import dual_set

        g = cs_generating_matrices(CSParams(**B11))
        rng = np.random.default_rng(seed)
        elems = dual_set(g).elements
        dual = [list(elems[i]) for i in rng.choice(len(elems), N_FREQ, replace=False)]
        others = []
        while len(others) < N_FREQ:
            t = [int(v) for v in rng.integers(0, g.b**g.n, size=g.d)]
            if any(t) and not exact.is_dual(g.mats, g.b, t):
                others.append(t)
        # the library's dual set is confirmed from the matrices directly
        if not all(exact.is_dual(g.mats, g.b, t) for t in dual):
            raise CheckFailed("dual_set returned a non-dual frequency")
        return {"dual": dual, "nondual": others}

    @staticmethod
    def jobs(inp, tmp, seed) -> list[Job]:
        from qmcnet import nets, walsh
        from qmcnet.cs import CSParams, cs_code_space, cs_generating_matrices, cs_point_set

        params = CSParams(**B11)
        p, g, code = cs_point_set(params), cs_generating_matrices(params), cs_code_space(params)
        size = p.size
        pairs = [(a, b) for a in range(p.n + 1) for b in range(a + 1)]  # (gamma_i, lambda_i)
        gl = [((g1, g2), (l1, l2)) for g1, l1 in pairs for g2, l2 in pairs]

        def walsh_check(text):
            rep = json.loads(text)
            require(rep["passed"] is True, "walsh-check not passed")
            errs = [rep["theta_max_gap"], rep["fine_price_max_err"]]
            require(max(errs) < GAP_TOL, f"walsh-check errors {errs}")
            return errs

        def residual(rep):
            require(rep.max_theta_gap < GAP_TOL, f"theta gap {rep.max_theta_gap}")
            require(math.isfinite(rep.max_scaled_residual), "residual not finite")
            return [rep.max_theta_gap]

        def vcount(reps):
            require(len(reps) == len(gl), "missing V counts")
            require(all(r.identity_ok for r in reps), "counting identity fails")
            return []

        def chars(sums):
            on, off = sums[:N_FREQ], sums[N_FREQ:]
            require(all(abs(s - size) <= 1e-6 * size for s in on), "char_sum != N on dual")
            require(all(abs(s) <= 1e-6 * size for s in off), "char_sum != 0 off dual")
            return []

        freqs = inp["dual"] + inp["nondual"]
        return [
            cli_job("walsh_check", ["walsh-check", "--seed", str(seed)], walsh_check),
            # module attributes are looked up per call, so a traced run sees them
            Job("residual", lambda: walsh.residual_check(p, g, sample_count=100, seed=seed),
                residual),
            Job("vcount", lambda: [walsh.v_gamma_lambda(code, ga, la) for ga, la in gl], vcount),
            Job("char_sum", lambda: [nets.char_sum(p, t) for t in freqs], chars),
        ]


WORKLOADS = {w.name: w for w in (Cs11, Hammersley, DualWalsh)}


# --- stages -------------------------------------------------------------------


def accuracy_digits(errors) -> float:
    worst = max(errors, default=0.0)
    return DIGITS_CAP if worst <= 0 else min(DIGITS_CAP, -math.log10(worst))


def run_pass(jobs, tracer, index) -> dict:
    """One pass in a closed loop; outputs are checked after the pass ends."""
    results = []
    start = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = f"{index}:{job.name}"
        t0 = perf_counter()
        try:
            out, exc = job.run(), None
        except (Exception, SystemExit) as err:  # a crashing job counts as failed
            out, exc = None, err
        results.append((job, perf_counter() - t0, out, exc))
    wall = perf_counter() - start
    if tracer is not None:
        tracer.job = None
    errors, jobs_out = [], {}
    for job, secs, out, exc in results:
        msg = None
        if exc is not None:
            msg = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        else:
            try:
                errors += job.check(out)
            except CheckFailed as err:
                msg = str(err)
        if msg:
            print(f"pass {index} job {job.name} FAILED: {msg}", file=sys.stderr)
        jobs_out[job.name] = {"s": secs, "ok": msg is None, "error": msg}
    return {"pass_s": wall, "jobs": jobs_out, "accuracy_digits": accuracy_digits(errors)}


def measure(workload, inp, tmp, seed, seconds, traced) -> dict:
    jobs = workload.jobs(inp, tmp, seed)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(jobs, tracer, len(passes)))
    out = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.stats()
        tracer.write_jsonl(os.path.join(tmp, "spans.jsonl"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("stage", choices=["prepare", "measure"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    import qmcnet

    workload = WORKLOADS[args.workload]
    inputs_path = os.path.join(args.tmp, "inputs.json")
    if args.stage == "prepare":
        inp = workload.prepare(args.tmp, args.seed)
        out = {"inputs": inp, "params": workload.params, "qmcnet_version": qmcnet.__version__,
               "qmcnet_file": qmcnet.__file__, "numpy": np.__version__}
        with open(inputs_path, "w") as fh:
            json.dump(out, fh)
        return 0
    with open(inputs_path) as fh:
        inp = json.load(fh)["inputs"]
    res = measure(workload, inp, args.tmp, args.seed, args.seconds, args.traced)
    name = "measure-traced.json" if args.traced else "measure.json"
    with open(os.path.join(args.tmp, name), "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
