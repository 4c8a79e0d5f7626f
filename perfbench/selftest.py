"""Self-test of the benchmark's references, output checks and failure count.

    python3 perfbench/selftest.py

Run from the root of a checkout; exits 0 when every check holds.  Takes a
few seconds: it generates CS-11 and runs its generate, verify and norm jobs.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import exact  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def check_exact_l2() -> None:
    """Fenwick route equals the O(N^2) integer double sum on small sets."""
    from qmcnet.families import balanced_hammersley, hammersley

    sets = [(hammersley(n).numerators, 2**n) for n in range(1, 7)]
    sets += [(balanced_hammersley(n).numerators, 2**n) for n in range(1, 8)]
    rng = np.random.default_rng(7)
    for size, m in ((1, 5), (9, 4), (40, 7), (120, 1000)):  # ties in x and y
        sets.append((rng.integers(0, m, size=(size, 2)), m))
    for nums, m in sets:
        fast, slow = exact.l2_sq_exact_2d(nums, m), exact.l2_sq_brute(nums, m)
        assert fast == slow, (nums.shape, m, fast, slow)
    one = exact.l2_sq_brute([[0, 0]], 1)  # the point 0: D(x) = 1 - x1 x2
    assert one == 1 - 2 * exact.Fraction(1, 4) + exact.Fraction(1, 9), one


def check_failures_counted() -> None:
    """A corrupted netfile and a perturbed Parseval value each fail a job."""
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        inp = json.loads(json.dumps(workloads.Cs11.prepare(tmp, 0)))
        jobs = {j.name: j for j in workloads.Cs11.jobs(inp, tmp, 0)}
        good = workloads.run_pass([jobs["generate"], jobs["verify"], jobs["norm"]], None, 0)
        assert all(j["ok"] for j in good["jobs"].values()), good
        assert good["accuracy_digits"] > 6, good

        rc, text = workloads.run_cli(["norm", "--net", inp["net"]])
        reps = [json.loads(line) for line in text.splitlines()]
        for rep in reps:
            if rep["kind"] == "parseval":
                rep["value"] *= 1 + 1e-5
        perturbed = "\n".join(json.dumps(r) for r in reps) + "\n"
        bad_norm = workloads.Job("norm", lambda: (rc, perturbed), jobs["norm"].check)

        with open(inp["net"]) as fh:
            lines = fh.readlines()
        k = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        x, y = lines[k].split()
        lines[k] = f"{(int(x) + 1) % 11**4} {y}\n"  # move one numerator
        with open(inp["net"], "w") as fh:
            fh.writelines(lines)
        bad = workloads.run_pass([jobs["verify"], bad_norm], None, 1)
        assert not any(j["ok"] for j in bad["jobs"].values()), bad
        assert run.job_counts({"passes": [good, bad]}) == (5, 2)
        try:
            jobs["generate"].check((0, ""))
        except workloads.CheckFailed:
            pass
        else:
            raise AssertionError("corrupted netfile passed the generate check")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_benchmark_json() -> None:
    """BENCHMARK.json names exactly the metrics run.py reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    passes = [{"pass_s": 2.0, "accuracy_digits": 9.0,
               "jobs": {j: {"s": 1.0, "ok": True} for d in run.JOB_METRICS.values() for j in d}}]
    e2e, _ = run.end_to_end("cs11", {"passes": passes, "peak_rss_mb": 1.0}, [0.1, 0.2])
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert all(bench_m["unit"] == e2e[bench_m["name"]]["unit"] for bench_m in bench["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values()), bounds
    assert bounds["setup_s"] > max(b for k, b in bounds.items() if k != "setup_s"), bounds
    layers, _ = run.per_layer({"passes": passes}, {"passes": passes, "layers": {}})
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]]["unit"] for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def check_output_helpers() -> None:
    assert workloads.besov_overlaps(1.0, 0.1, (1.05, 0.0))
    assert workloads.besov_overlaps(1.0, 0.0, (1.0, 0.0))
    assert not workloads.besov_overlaps(1.0, 0.01, (1.05, 0.01))
    ref = exact.Fraction(1, 10**8)
    assert workloads.sq_rel_err(1e-8, ref) < 1e-15
    assert workloads.sq_rel_err(1e-4, ref) < 1e-12  # an unsquared report


def main() -> int:
    for check in (check_exact_l2, check_output_helpers, check_benchmark_json,
                  check_failures_counted):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
