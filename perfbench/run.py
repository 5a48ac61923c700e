"""Benchmark of the crystallize CLI: end-to-end timings, output checks and
per-layer timings from a traced replay.

Run from the repository root:

    python3 perfbench/run.py --workload mc-pair-n64-p0 --seed 1 --seconds 36 --trace 0

``--trace 0`` runs the workload's CLI call(s) in a fresh child process
(``child.py``) again and again until ``--seconds`` have passed, checks every
output against the closed forms (``checks.py``) and reports the end-to-end
metrics as medians over those invocations.  ``--trace 1`` runs one untraced
invocation and one traced replay (``traced.py``) and reports the per-layer
metrics.  Workload sizes are fixed; ``--smoke`` shrinks them for the
benchmark's own tests.

This process runs one child at a time.  Every child runs with one
BLAS thread, so a ``--threads 2`` workload runs two compute threads on the
two cores instead of four.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 0
when every check passed, 1 when a check failed, 2 when the program under
test is missing from the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
# every child must be done well inside the 180 s a run may take
RUN_DEADLINE_S = 165.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "realizations_per_s": "1/s"}

sys.path.insert(0, HERE)
import checks  # noqa: E402

# Fixed sizes: keep them from change to change so the results form a series.
# oracle_every is set so the companion oracle (about 30 ms a polynomial at
# N=64 and 0.9-1.3 s at N=256) costs about as much as the serial pass.
SIZES = {
    "mc-pair-n64-p0": {"N": 64, "p": 0, "realizations": 1000, "threads": 1,
                       "oracle_every": 10},
    "mc-spacing-n256-p20-t2": {"N": 256, "p": 20, "realizations": 200, "threads": 2,
                               "oracle_every": 40},
    "closed-form": {"vp_N": 4096, "vp_p_max": 200, "x_max": 30.0, "ps": [0, 3, 10, 80]},
}
SMOKE_SIZES = {
    "mc-pair-n64-p0": {"N": 64, "p": 0, "realizations": 24, "threads": 1,
                       "oracle_every": 8},
    "mc-spacing-n256-p20-t2": {"N": 256, "p": 20, "realizations": 4, "threads": 2,
                               "oracle_every": 4},
    "closed-form": {"vp_N": 64, "vp_p_max": 5, "x_max": 30.0, "ps": [0, 3]},
}


def workload_calls(name, sizes, seed):
    """The workload's crystallize calls: argv (without --out), check, parameters."""
    s = sizes[name]
    if name == "closed-form":
        x_max = repr(s["x_max"])
        calls = [
            (["vp-table", "--N", str(s["vp_N"]), "--p-max", str(s["vp_p_max"])],
             "vp_table", {"p_max": s["vp_p_max"]}),
            (["fraction", "--N", "30", "--p", "10", "--mode", "analytic"],
             "fraction_analytic", {"expected": 0.9696}),
            (["figure", "--which", "2", "--x-max", x_max, "--seed", str(seed)],
             "figure2", {"x_max": s["x_max"]}),
        ]
        for p in s["ps"]:
            calls.append((["paircorr", "--mode", "analytic", "--p", str(p), "--x-max", x_max],
                          "paircorr_analytic", {"p": p, "x_max": s["x_max"]}))
        # p = 0 has no asymptotic profile: the CLI exits 3 there (see README)
        for p in s["ps"]:
            if p >= 1:
                calls.append((["paircorr", "--mode", "asymptotic", "--p", str(p)],
                              "paircorr_asymptotic", {"p": p}))
    else:
        params = dict(s, seed=seed)
        common = ["--N", str(s["N"]), "--p", str(s["p"]), "--threads", str(s["threads"]),
                  "--realizations", str(s["realizations"]), "--seed", str(seed)]
        if name == "mc-pair-n64-p0":
            # --mode all exits 3 at p = 0 after the whole ensemble (see README)
            calls = [(["paircorr", *common, "--mode", "empirical"], "paircorr_empirical",
                      params)]
        else:
            calls = [(["spacing", *common], "spacing", params)]
    return [{"argv": argv, "check": check, "params": params} for argv, check, params in calls]


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ, **CHILD_ENV)
    env.pop("CRYSTALLIZE_THREADS", None)
    env["PYTHONPATH"] = SRC
    return env


def run_child(script, args, log_prefix, deadline):
    """Run one child in its own process group; return its exit status and rusage.

    os.wait4 gives the child's CPU time and peak RSS including the worker
    processes it waited for.  A child still running at the deadline is killed
    with its whole group.
    """
    with open(log_prefix + ".out", "w") as out, open(log_prefix + ".err", "w") as err:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), repr(spawned_at), *args],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_prefix + ".out", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return {
        "status": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
    }


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def invoke(script, calls, workdir, tag, deadline, extra=None):
    """One fresh child (child.py, or traced.py for the replay) runs every call
    of the workload, each with its own output directory."""
    argvs = [call["argv"] + ["--out", os.path.join(workdir, f"{tag}-call{i}")]
             for i, call in enumerate(calls)]
    spec_path = os.path.join(workdir, f"{tag}-spec.json")
    with open(spec_path, "w") as fh:
        json.dump({"calls": argvs, **(extra or {})}, fh)
    result_path = os.path.join(workdir, f"{tag}-result.json")
    child = run_child(script, [spec_path, result_path], os.path.join(workdir, tag), deadline)
    child["result"] = read_json(result_path)
    child["outdirs"] = [argv[-1] for argv in argvs]
    return child


def check_invocation(child, calls, problems):
    """Check every call of one invocation; returns (attempted, failed)."""
    result = child["result"]
    if child["status"] != 0 or result is None:
        problems.append(f"child exited {child['status']} without a result")
        return len(calls), len(calls)
    if os.path.dirname(os.path.dirname(result["module_file"])) != SRC:
        problems.append(f"trigcrystal was imported from {result['module_file']}, not {SRC}")
        return len(calls), len(calls)
    failed = 0
    for call, outcome, outdir in zip(calls, result["calls"], child["outdirs"]):
        found = checks.check_call(call, outdir, child["stdout"], outcome["rc"])
        if found:
            failed += 1
            problems.extend(f"{' '.join(call['argv'])}: {p}" for p in found)
    return len(calls), failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def layer_metrics(trace, threads, untraced_run_s):
    """Per-layer metrics from the traced replay's spans and counters."""
    spans = trace["spans"]
    dur = {}
    for name, start, end, parent, _ in spans:
        dur.setdefault(name, []).append(end - start)

    def total(name):
        return sum(dur.get(name, []), 0.0)

    def pct_ms(name, q):
        xs = sorted(dur.get(name, []))
        if not xs:
            return 0.0
        return 1e3 * xs[min(len(xs) - 1, int(q * len(xs)))]

    child_time = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    cli_self = sum(end - start - child_time.get(i, 0.0)
                   for i, (name, start, end, _, _) in enumerate(spans) if name == "cli.main")
    serial = total("poly.sample") + total("poly.derivative_rescaled") \
        + total("roots.real_roots_sampled")
    ens = total("ensemble.real_zero_ensemble")
    companion = dur.get("roots.all_roots_companion", [])
    c = trace["counts"]
    return {
        "roots.real_roots_sampled.s": (total("roots.real_roots_sampled"), "s"),
        "roots.real_roots_sampled.p50_ms": (pct_ms("roots.real_roots_sampled", 0.50), "ms"),
        "roots.real_roots_sampled.p99_ms": (pct_ms("roots.real_roots_sampled", 0.99), "ms"),
        "roots.real_roots_sampled.roots": (c["roots"], "count"),
        "roots.all_roots_companion.ms": (
            1e3 * statistics.median(companion) if companion else 0.0, "ms"),
        "roots.oracle.checked": (c["oracle_checked"], "count"),
        "roots.oracle.mismatch": (c["oracle_mismatch"], "count"),
        "roots.oracle.worst_gap": (c["oracle_worst_gap"], "rad"),
        "roots.count_violations": (c["count_violations"], "count"),
        "poly.sample.s": (total("poly.sample"), "s"),
        "poly.derivative_rescaled.s": (total("poly.derivative_rescaled"), "s"),
        "ensemble.real_zero_ensemble.s": (ens, "s"),
        "ensemble.parallel_eff": (serial / (threads * ens) if ens else 0.0, "ratio"),
        "ensemble.empirical_pair_correlation.s": (
            total("ensemble.empirical_pair_correlation"), "s"),
        "ensemble.ordered_pairs": (c["ordered_pairs"], "count"),
        "ensemble.nearest_neighbor_spacings.s": (
            total("ensemble.nearest_neighbor_spacings"), "s"),
        "ensemble.gaps": (c["gaps"], "count"),
        "analytic.pair_correlation_limit_curve.s": (
            total("analytic.pair_correlation_limit_curve"), "s"),
        "analytic.curve_points": (c["curve_points"], "count"),
        "analytic.expected_real_fraction.s": (total("analytic.expected_real_fraction"), "s"),
        "asymptotics.nn_density.s": (total("asymptotics.nn_density"), "s"),
        "asymptotics.new_real_fraction.s": (total("asymptotics.new_real_fraction"), "s"),
        "asymptotics.theorem_profile.s": (total("asymptotics.theorem_profile"), "s"),
        "svgplot.render.s": (total("svgplot.render"), "s"),
        "cli.main.s": (total("cli.main"), "s"),
        "cli.self_s": (cli_self, "s"),
        "trace.overhead_s": (total("cli.main") - untraced_run_s, "s"),
    }


def machine_facts(runtime, name, sizes, seed):
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for i in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}"
        level, size, kind = read(base + "/level"), read(base + "/size"), read(base + "/type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    head = read(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        commit = read(os.path.join(ROOT, ".git", head[5:]))
    elif head:
        commit = head
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        **runtime,
        "git_commit": commit or "unknown (not a git checkout)",
        "workload": name,
        "seed": seed,
        "sizes": sizes[name],
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trigcrystal", "cli.py")):
        print(f"no trigcrystal package under {SRC}: run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    deadline = time.monotonic() + RUN_DEADLINE_S
    sizes = SMOKE_SIZES if args.smoke else SIZES
    calls = workload_calls(args.workload, sizes, args.seed)
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    warm = invoke("child.py", [], workdir, "warmup", deadline)
    if warm["status"] != 0 or warm["result"] is None:
        print(f"the CLI does not import: see {workdir}/warmup.err", file=sys.stderr)
        return 2
    facts = machine_facts(warm["result"]["facts"], args.workload, sizes, args.seed)
    mc = None if args.workload == "closed-form" else dict(sizes[args.workload], seed=args.seed)

    problems = []
    attempted = failed = 0
    runs = []
    lengths = []
    measuring = time.monotonic()
    while True:
        begun = time.monotonic()
        child = invoke("child.py", calls, workdir, f"run{len(runs)}", deadline)
        lengths.append(time.monotonic() - begun)
        a, f = check_invocation(child, calls, problems)
        attempted, failed = attempted + a, failed + f
        if child["result"] is not None:
            run = {"run_s": sum(c["s"] for c in child["result"]["calls"]),
                   "setup_s": child["result"]["setup_s"],
                   "cpu_s": child["cpu_s"],
                   "peak_rss_mb": child["peak_rss_mb"]}
            if mc:
                run["realizations_per_s"] = mc["realizations"] / run["run_s"]
            runs.append(run)
        for out in child["outdirs"]:
            shutil.rmtree(out, ignore_errors=True)
        # start another invocation only if it should end within --seconds
        spent = time.monotonic() - measuring
        if f or args.trace or spent + statistics.median(lengths) > args.seconds:
            break
    e2e = {k: (statistics.median(r[k] for r in runs), UNITS[k]) for k in runs[0]} if runs else {}

    layers = {}
    if args.trace and runs:
        child = invoke("traced.py", calls, workdir, "trace", deadline,
                       {"mc": mc, "run_id": f"{args.workload}-{args.seed}"})
        a, f = check_invocation(child, calls, problems)
        attempted, failed = attempted + a, failed + f
        if child["result"] is not None:
            layers = layer_metrics(child["result"], mc["threads"] if mc else 1,
                                   runs[0]["run_s"])
            if mc:
                bad = child["result"]["realization_failures"]
                attempted += mc["realizations"]
                failed += len(bad)
                problems.extend(bad)

    correct = failed == 0 and not problems
    print(f"workload {args.workload}  seed {args.seed}  invocations {len(runs)}"
          f"  trace {args.trace}")
    for k, (v, u) in e2e.items():
        lo, hi = quartiles([r[k] for r in runs])
        print(f"  {k:<20} {v:12.4f} {u:<4} (quartiles {lo:.4f} .. {hi:.4f})")
    print(f"  {'failed_frac':<20} {failed / max(1, attempted):12.4f}      "
          f"({failed} of {attempted} checks)")
    for p in problems:
        print(f"  FAILED: {p}")
    for k, (v, u) in layers.items():
        print(f"  {k:<42} {v:14.6f} {u}")
    print("machine " + json.dumps(facts, sort_keys=True))
    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump({"facts": facts, "runs": runs, "problems": problems,
                   "end_to_end": e2e, "per_layer": layers}, fh, indent=1)

    source = layers if args.trace else e2e
    metrics = {}
    if source:
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        for m in declared:
            value, unit = source[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
