"""Benchmark of the qmcnet pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload {cs11,hammersley,dual-walsh} \
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout.  Each stage runs in a fresh interpreter
with one thread per math library, importing qmcnet from the checkout's src/.
Every metric is printed by name with its unit; the last line of stdout is one
JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with --trace 1.
Scratch files live in .perfbench/ inside the checkout; the run's report and,
when traced, its spans stay there.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import tomllib
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cs11", "hammersley", "dual-walsh")
SETUP_REPEATS = 7
RUN_DEADLINE = 170.0  # seconds for all stages of one run together
JOB_METRICS = {
    "cs11": {"norm": "norm_s", "audit": "audit_s"},
    "hammersley": {"scaling_l2": "scaling_l2_s", "scaling_spectral": "scaling_spectral_s",
                   "generate": "generate_s", "verify": "verify_s"},
    "dual-walsh": {"residual": "residual_s", "vcount": "vcount_s",
                   "walsh_check": "walsh_check_s"},
}
# per-layer metrics: <name>.<stat> summed over one traced pass; `share` stats
# are time over the traced pass time (trace.traced_pass_s)
LAYER_STATS = {
    "haar.level_aggregate": ("calls", "share", "occupied_boxes", "l_combos"),
    "haar.parseval_l2": ("self_share",),
    "haar.besov_quasi_norm": ("self_share",),
    "haar.discrepancy_coeff": ("calls", "share", "points"),
    "haar.indicator_coeff": ("calls",),
    "nets.PointSet.fractions": ("share",),
    "norms.coeff_bound_audit": ("self_share", "levels"),
    "norms.warnock_l2": ("calls", "share", "pairs"),
    "nets.generate_points": ("share", "points", "digit_bytes"),
    "nets.save_pointset": ("share", "bytes"),
    "nets.load_pointset": ("share", "bytes"),
    "nets.is_net": ("share", "shapes"),
    "nets.dual_set": ("share", "elements"),
    "nets.char_sum": ("calls", "share"),
    "cs.verify_dual_properties": ("share", "words"),
    "walsh.theta": ("calls", "share", "self_share", "dual_terms"),
    "walsh.interval_coeff_vector": ("calls", "share"),
    "walsh.walsh_synthesis": ("calls", "share"),
    "walsh.v_gamma_lambda": ("calls", "share"),
    "field.enumerate_span": ("calls", "share", "words"),
    "field.gf_nullspace": ("calls", "share"),
    "cs.dual_code": ("calls", "share"),
    "families.balanced_hammersley": ("calls", "share"),
    **{f"cli.cmd_{c}": ("self_share",) for c in
       ("generate", "verify", "norm", "integrate", "audit", "scaling", "walsh_check")},
}
UNITS = {"calls": "count", "share": "ratio", "self_share": "ratio", "bytes": "bytes",
         "digit_bytes": "bytes", "distinct_ratio": "ratio"}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = tmp
    return env


def stage(env, deadline, *args) -> None:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        fail(f"stage {args[0]} timed out")
    if proc.returncode != 0:
        fail(f"stage {args[0]} exited with code {proc.returncode}")


def setup_times(env) -> list[float]:
    """Fresh interpreters importing qmcnet.cli and building its parser.

    wait() without a timeout blocks in waitpid; with one, subprocess polls
    every 50 ms and the times come out in 50 ms steps.
    """
    code = "import qmcnet.cli as c; c.build_parser()"
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT) as proc:
            returncode = proc.wait()
        if returncode != 0:
            fail("importing qmcnet.cli failed")
        if k:  # the first import may compile bytecode; it is not timed
            times.append(perf_counter() - t0)
    return times


def summary(values: list[float]) -> dict:
    """Median, quartiles and count; p90/p99 only with >= 10 samples beyond."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, prep: dict) -> dict:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project_version = tomllib.load(fh)["project"]["version"]
    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": prep["numpy"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "qmcnet_version": prep["qmcnet_version"],
        "pyproject_version": project_version,
        "machine": platform.machine(),
    }


def job_counts(*measures) -> tuple[int, int]:
    jobs = [j for m in measures for p in m["passes"] for j in p["jobs"].values()]
    return len(jobs), sum(not j["ok"] for j in jobs)


def end_to_end(workload, meas, setup) -> tuple[dict, list[str]]:
    passes = meas["passes"]
    pass_s = summary([p["pass_s"] for p in passes])
    acc = statistics.median(p["accuracy_digits"] for p in passes)
    setup_s = summary(setup)
    metrics = {
        "pass_s": {"value": pass_s["median"], "unit": "s"},
        "setup_s": {"value": setup_s["median"], "unit": "s"},
        "peak_rss_mb": {"value": meas["peak_rss_mb"], "unit": "MB"},
        "accuracy_digits": {"value": acc, "unit": "digits"},
    }
    lines = [fmt_timing("pass_s", pass_s), fmt_timing("setup_s", setup_s)]
    for job, name in JOB_METRICS[workload].items():
        lines.append(fmt_timing(name, summary([p["jobs"][job]["s"] for p in passes])))
    lines.append(f"peak_rss_mb      {meas['peak_rss_mb']:.1f} MB")
    lines.append(f"accuracy_digits  {acc:.3f} digits")
    return metrics, lines


def fmt_timing(name: str, s: dict) -> str:
    extra = "".join(f" {k} {s[k]:.4f}" for k in ("q1", "q3", "p90", "p99") if k in s)
    return f"{name:<18} median {s['median']:.4f} s{extra} (n={s['n']})"


def pass_totals(layers: dict, index: int) -> dict:
    total: dict[str, float] = {}
    prefix = f"{index}:"
    for job, row in layers.items():
        if job.startswith(prefix):
            for key, val in row.items():
                total[key] = total.get(key, 0.0) + val
    return total


def per_layer(meas, traced) -> tuple[dict, list[str]]:
    rows = []
    for k, p in enumerate(traced["passes"]):
        tot = pass_totals(traced["layers"], k)
        wall = p["pass_s"]
        row = {}
        for fn, stats in LAYER_STATS.items():
            for stat in stats:
                if stat in ("share", "self_share"):
                    secs = tot.get(f"{fn}.{'s' if stat == 'share' else 'self_s'}", 0.0)
                    row[f"{fn}.{stat}"] = secs / wall
                else:
                    row[f"{fn}.{stat}"] = tot.get(f"{fn}.{stat}", 0.0)
        calls = tot.get("haar.level_aggregate.calls", 0.0)
        distinct = tot.get("haar.level_aggregate.distinct", 0.0)
        # with no level aggregated, none is aggregated twice
        row["haar.level_aggregate.distinct_ratio"] = distinct / calls if calls else 1.0
        row["trace.traced_pass_s"] = wall
        rows.append(row)
    metrics = {}
    for name in rows[0]:
        stat = name.rsplit(".", 1)[1]
        unit = "s" if name == "trace.traced_pass_s" else UNITS.get(stat, "count")
        metrics[name] = {"value": statistics.median(r[name] for r in rows), "unit": unit}
    untraced = statistics.median(p["pass_s"] for p in meas["passes"])
    metrics["trace.overhead_frac"] = {
        "value": metrics["trace.traced_pass_s"]["value"] / untraced - 1.0, "unit": "ratio"}
    return metrics, layer_lines(traced["layers"])


def layer_lines(layers: dict) -> list[str]:
    """Per job of the first traced pass: the busiest functions and counters."""
    lines = []
    for job, row in sorted(layers.items()):
        if not job.startswith("0:"):
            continue
        lines.append(f"-- traced job {job[2:]}")
        if "haar.level_aggregate.distinct" in row:
            row = dict(row)
            row["haar.level_aggregate.distinct_ratio"] = (
                row["haar.level_aggregate.distinct"] / row["haar.level_aggregate.calls"])
        fns = sorted({k.rsplit(".", 1)[0] for k in row if k.endswith(".s")},
                     key=lambda f: -row[f + ".s"])
        for fn in fns[:10]:
            extra = " ".join(
                f"{k.rsplit('.', 1)[1]}={row[k]:g}" for k in sorted(row)
                if k.startswith(fn + ".") and k.count(".") == fn.count(".") + 1
                and not k.endswith((".s", ".self_s", ".calls"))
            )
            lines.append(f"   {fn:<34} calls {row[fn + '.calls']:>7g}  s {row[fn + '.s']:8.4f}"
                         f"  self_s {row[fn + '.self_s']:8.4f}  {extra}")
        leaf = [k for k in row if k.endswith(".calls") and k[:-6] + ".s" not in row]
        if leaf:
            lines.append("   counted: " + " ".join(f"{k}={row[k]:g}" for k in sorted(leaf)))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qmcnet", "cli.py")):
        fail(f"no qmcnet sources under {os.path.join(ROOT, 'src')}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    deadline = perf_counter() + RUN_DEADLINE
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        env = child_env(tmp)
        common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp]
        stage(env, deadline, "prepare", *common)
        with open(os.path.join(tmp, "inputs.json")) as fh:
            prep = json.load(fh)
        if not os.path.realpath(prep["qmcnet_file"]).startswith(os.path.realpath(ROOT) + os.sep):
            fail(f"qmcnet imported from outside the checkout: {prep['qmcnet_file']}")
        seconds = args.seconds / 2 if args.trace else args.seconds
        stage(env, deadline, "measure", *common, "--seconds", str(seconds))
        with open(os.path.join(tmp, "measure.json")) as fh:
            meas = json.load(fh)
        report = {"provenance": provenance(args, prep), "params": prep["params"]}
        if args.trace:
            stage(env, deadline, "measure", *common, "--seconds", str(seconds), "--traced")
            with open(os.path.join(tmp, "measure-traced.json")) as fh:
                traced = json.load(fh)
            metrics, lines = per_layer(meas, traced)
            attempted, failed = job_counts(meas, traced)
            spans = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
            shutil.move(os.path.join(tmp, "spans.jsonl"), spans)
            report["layers"] = traced["layers"]
        else:
            metrics, lines = end_to_end(args.workload, meas, setup_times(env))
            attempted, failed = job_counts(meas)
        report["passes"] = meas["passes"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# provenance " + json.dumps(report["provenance"], sort_keys=True))
    print("# workload params " + json.dumps(report["params"], sort_keys=True))
    for line in lines:
        print(line)
    print(f"fail_frac        {failed / attempted:.4f} ratio ({failed} failed / {attempted} attempted)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report["result"] = result
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
