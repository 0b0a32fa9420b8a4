"""cyclefield benchmark: one workload per run, closed loop, one thread.

Run from the root of a checkout (the directory holding ``src/`` and
``base.cfg``)::

    python3 perfbench/run.py --workload mc_long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each run first times ``setup_s``: fresh interpreters that import
``cyclefield.cli`` and solve both phases (median of several).  It then
starts one worker process for the workload.  The worker prepares the
seeded inputs, runs the untimed checks and one untimed op at smoke size,
then repeats the workload's op (each op starts when the previous one ends)
for about ``--seconds`` seconds: an op starts only if it should end less
than half an op late, and a run has at least ``MIN_OPS`` ops.  Every
timing (``setup_s``, ``op_s``) is taken under ``speed.Probe`` and
rescaled to a fixed reference speed of the machine, because this kind
of shared host slows a thread by up to a factor of two for seconds at a
time; the report also prints the median wall time of an op.  Every op's
outputs are checked after it ends; an op fails on an exception or a failed
check.  The worker measures its own peak RSS up to the end of its first
op, so one workload's peak cannot mask another's.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops (spans recorded by ``tracing.Tracer``) and reports
the per-layer metrics plus ``trace.overhead_frac``; its report lines also
give each traced function's self time in seconds.  Human-readable lines
come first; the last line of standard output is the JSON result.

``--smoke`` runs every workload twice (untraced, then traced) at tiny
sizes with every check, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc_wide", "mc_long", "phase_scan", "panel_likelihood")
MIN_OPS = 3           # ops per run even when --seconds is short
SMOKE_MIN_OPS = 2
SETUP_REPEATS = 9     # measured cold starts per run, after one warm-up start
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Per workload: the name of its throughput (work units per second of op
# time, reported but not gated: with a fixed amount of work per op it moves
# with op_s) and of what good_outputs counts.
WORK_NAMES = {
    "mc_wide": ("mc_path_steps_per_s", "mc_gates_passed"),
    "mc_long": ("mc_path_steps_per_s", "mc_gates_passed"),
    "phase_scan": ("scan_rows_per_s", "scan_rows_written"),
    "panel_likelihood": ("panel_transitions_per_s", "panel_transitions_finite"),
}

# The cold start runs under the speed probe, which imports nothing that
# cyclefield needs; it prints the probe's figures for measure_setup().
COLD_START = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import speed\n"
    "probe = speed.Probe(speed.COLD_START_PERIOD_S)\n"
    "probe.start()\n"
    "import cyclefield.cli\n"
    "from cyclefield.params import load_config\n"
    "from cyclefield.phases import solve_phase\n"
    "p = load_config('base.cfg')\n"
    "solve_phase(p, 0)\n"
    "solve_phase(p, 1)\n"
    "probe.stop()\n"
    "print(probe.wall_s, probe.scaled_s, probe.reference_s)\n"
)


def bench_env(root: str) -> dict:
    """Environment for the benchmark's own processes: src/ first, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def check_checkout(root: str) -> str | None:
    for need in ("src/cyclefield/__init__.py", "src/cyclefield/cli.py", "base.cfg"):
        if not os.path.isfile(os.path.join(root, need)):
            return f"{need} not found under {root}; run from the root of a cyclefield checkout"
    return None


# ---------------------------------------------------------------------------
# parent: set-up timing, one worker, report
# ---------------------------------------------------------------------------


def measure_setup(root: str, repeats: int) -> list[float]:
    """Seconds of fresh interpreters that import the CLI and solve both phases.

    Each start's wall time, less the probe's reference samples, is
    rescaled by the machine speed the probe saw during that start
    (``speed.Probe``).
    """
    env = bench_env(root)
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", COLD_START, HERE], cwd=root, env=env,
                                stdout=subprocess.PIPE, text=True)
        # communicate() without a timeout returns as soon as the child exits;
        # a timeout would make it poll and quantise the time.
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        out, _ = proc.communicate()
        elapsed = time.perf_counter() - t0
        timer.cancel()
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        wall, scaled, reference = (float(x) for x in out.split()[-3:])
        if i > 0:  # the first start may compile bytecode
            times.append((elapsed - reference) * scaled / wall)
    return times


def run_worker(root: str, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    work = os.path.join(root, ".perfbench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    record = os.path.join(work, "record.json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--work", work, "--record", record] + (["--smoke"] if smoke else [])
    try:
        subprocess.run(cmd, cwd=root, env=bench_env(root), check=True, timeout=WORKER_TIMEOUT_S)
        with open(record, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    q = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if q < 50:
        return None
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rec: dict, setup: list[float]) -> dict:
    """The gated end-to-end metrics, as listed in BENCHMARK.json.

    ``op_s`` and ``good_outputs`` are left out when no op completed.
    """
    metrics = {}
    if rec["op_s"]:
        metrics["op_s"] = (statistics.median(rec["op_s"]), "s")
        metrics["good_outputs"] = (statistics.median(rec["good"]), "count")
    metrics["peak_rss_mb"] = (rec["peak_rss_mb"], "MB")
    metrics["setup_s"] = (statistics.median(setup), "s")
    return metrics


def report_lines(rec: dict, metrics: dict, setup: list[float]) -> list[str]:
    """Every metric by the name the workload gives it, with its unit."""
    w = rec["workload"]
    thr, good = WORK_NAMES[w]
    lines = [f"# workload {w}  seed {rec['seed']}  trace {rec['trace']}  env {json.dumps(rec['env'])}"]
    if rec["trace"]:
        lines += [f"{k:52s} {v[0]:.6g} {v[1]}" for k, v in metrics.items()]
        if rec["trace_missing"]:
            lines.append(f"# not traced or not counted: {', '.join(rec['trace_missing'])}")
        return lines
    ops = rec["op_s"]
    if ops:
        work_per_s = statistics.median(w / d for w, d in zip(rec["work"], ops))
        tail = tail_percentile(ops)
        tail_txt = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has ten samples beyond it"
        lines += [
            f"{'op_s':28s} {metrics['op_s'][0]:.4f} s  (median of {len(ops)} ops at the reference speed;"
            f" {tail_txt})",
            f"{'op_wall_s':28s} {statistics.median(rec['op_wall_s']):.4f} s  (median wall time, not rescaled)",
            f"{thr:28s} {work_per_s:.6g} 1/s  ({rec['work_unit']} per second of op_s)",
            f"{good:28s} {metrics['good_outputs'][0]:g} count",
        ]
    else:
        lines.append(f"{'op_s':28s} none: no untraced op completed")
    lines += [
        f"{'peak_rss_mb':28s} {metrics['peak_rss_mb'][0]:.1f} MB",
        f"{'setup_s':28s} {metrics['setup_s'][0]:.4f} s  (median of {len(setup)} cold starts)",
        f"{'ops_attempted':28s} {rec['attempted']} count",
        f"{'ops_failed':28s} {rec['failed']} count",
    ]
    if w.startswith("mc_"):
        lines.append(f"{'mc_gates_total':28s} 9 count  (six |z| <= 4, three KS p >= 1e-3)")
    if w == "phase_scan" and rec["aborted"]:
        lines.append(f"{'scan_rows_total':28s} {rec['rows_total']} count  (rows asked for per pass)")
        lines.append(f"{'scan_calls_aborted':28s} {statistics.median(rec['aborted']):g} count per pass"
                     "  (exit 4, no CSV; the kappa scan hits the Gamma3 iteration cap)")
    return lines


def main_parent(args, root: str) -> int:
    setup = measure_setup(root, SETUP_REPEATS)
    rec = run_worker(root, args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    if rec["trace"]:
        reported = {k: (v, rec["report_units"][k]) for k, v in rec["per_layer"].items()}
        metrics = {k: reported[k] for k in rec["per_layer_units"] if k in reported}
    else:
        reported = metrics = end_to_end(rec, setup)
    for line in report_lines(rec, reported, setup):
        print(line)
    problems = rec["setup_problems"] + rec["problems"]
    for p in problems[:20]:
        print(f"# CHECK FAILED: {p}")
    if len(problems) > 20:
        print(f"# ... and {len(problems) - 20} more failed checks")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": rec, "setup_s": setup, "metrics": metrics}, fh, indent=1)
    result = {
        "correct": not rec["setup_problems"] and rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main_smoke(root: str) -> int:
    setup = measure_setup(root, 1)
    ok = True
    for w in WORKLOADS:
        rec = run_worker(root, w, 1, 0.0, trace=True, smoke=True)
        problems = rec["setup_problems"] + rec["problems"]
        ok = ok and not problems and rec["failed"] == 0
        print(f"{w:18s} ops {rec['attempted']} failed {rec['failed']} good {rec['good']} "
              f"setup_s {setup[0]:.3f} overhead {rec['per_layer'].get('trace.overhead_frac', math.nan):+.2f}")
        for p in problems:
            print(f"  CHECK FAILED: {p}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# worker: one workload in its own process
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def max_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main_worker(args, root: str) -> int:
    import cyclefield

    if not os.path.abspath(cyclefield.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise RuntimeError(f"cyclefield imported from {cyclefield.__file__}, not from {root}/src")
    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](root, args.work, args.seed, args.smoke)
    try:
        setup_problems = wl.setup()
        # One untimed op at smoke size finishes lazy imports and first-call set-up.
        warm_dir = os.path.join(args.work, "warm")
        os.makedirs(warm_dir)
        warm = workloads.WORKLOADS[args.workload](root, warm_dir, args.seed, True)
        warm.setup()
        warm.op()
    except Exception:
        setup_problems = [traceback.format_exc()]
    tracer = tracing.Tracer() if args.trace else None
    min_ops = SMOKE_MIN_OPS if args.smoke else MIN_OPS
    rec = {"op_s": [], "op_wall_s": [], "traced_op_s": [], "work": [], "good": [], "aborted": [],
           "problems": []}
    attempted = failed = 0
    walls = []  # wall seconds of every completed op, for the end of the loop
    # Peak RSS up to the end of the first completed op: set-up, the warm-up op
    # and one full op.  Later ops raise ru_maxrss only by what the allocator
    # keeps from earlier ops, which varies from run to run.
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        if len(walls) >= min_ops:
            # start another op only if it is expected to end less than half an op late
            if time.perf_counter() - start + statistics.median(walls) / 2 > args.seconds:
                break
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.install()
            tracer.begin_op(f"op.{args.workload}")
        probe = speed.Probe()
        try:
            probe.start()
            try:
                out = wl.op()
            finally:
                probe.stop()
        except Exception:
            out = None
            rec["problems"].append(traceback.format_exc())
        finally:
            if traced:
                summary = tracer.end_op()
                tracer.uninstall()
        if out is None:
            failed += 1
            if traced:
                tracer.op_summaries.pop()  # per-layer figures come from completed ops only
            if failed > min_ops:
                break
            continue
        walls.append(probe.wall_s)
        if peak_rss_mb is None:
            peak_rss_mb = max_rss_mb()
        try:
            problems = wl.check(out)
        except Exception:
            problems = [traceback.format_exc()]
        failed += bool(problems)
        rec["problems"] += problems
        if traced:
            summary["cli.bytes_written"] = out.get("bytes_written", 0)
            rec["traced_op_s"].append(probe.scaled_s)
        else:
            rec["op_s"].append(probe.scaled_s)
            rec["op_wall_s"].append(probe.wall_s)
            rec["work"].append(wl.work_done(out))
        rec["good"].append(out.get("good", 0))
        rec["aborted"].append(out.get("aborted", 0))
    rec.update(
        workload=args.workload,
        seed=args.seed,
        trace=int(args.trace),
        attempted=attempted,
        failed=failed,
        setup_problems=setup_problems,
        work_unit=wl.work_unit,
        rows_total=sum(g.size for g in getattr(wl, "grids", {}).values()),
        peak_rss_mb=max_rss_mb() if peak_rss_mb is None else peak_rss_mb,
        env=environment(),
    )
    if tracer is not None:
        rec["per_layer"] = tracing.per_layer_metrics(tracer.op_summaries, rec["traced_op_s"], rec["op_s"])
        rec["per_layer_units"] = tracing.per_layer_metric_units()
        rec["report_units"] = tracing.report_metric_units()
        rec["trace_missing"] = sorted(tracer.missing)
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}.npz"))
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload and check once")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    ap.add_argument("--record", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = os.getcwd()
    problem = check_checkout(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.worker:
        return main_worker(args, root)
    if args.smoke:
        return main_smoke(root)
    if args.workload is None:
        ap.error("--workload is required")
    return main_parent(args, root)


if __name__ == "__main__":
    sys.exit(main())
