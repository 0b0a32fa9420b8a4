"""Run the benchmark over several seeds and summarise each metric.

Run from the root of a checkout::

    python3 perfbench/collect.py --seeds 10 --out perfbench/baseline.json

For every seed it runs each workload once untraced for ``run_seconds``
(seed-major order, so slow spells on the machine spread over workloads),
then each workload once traced.  Per workload and end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (Q3 - Q1) / median, and compares the spread with the bound
in ``BENCHMARK.json``.  ``--out`` also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "report": lines[:-1], "result": json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds, counting up from --first-seed")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write all results to this JSON file")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    runs = []
    for seed in seeds:
        for w in workloads:
            r = run_once(w, seed, seconds, 0)
            runs.append(r)
            res = r["result"]
            print(f"{w:18s} seed {seed:3d} wall {r['wall_s']:6.1f}s correct {res['correct']} "
                  f"ops {res['attempted']} failed {res['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
    traced = [run_once(w, args.first_seed, seconds, 1) for w in workloads]

    summary = {}
    ok = True
    print(f"\n{'workload':18s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w in workloads:
        rs = [r["result"] for r in runs if r["workload"] == w]
        ok = ok and all(r["correct"] for r in rs)
        summary[w] = {}
        for name in bounds:
            have = [r["metrics"][name] for r in rs if name in r["metrics"]]
            if not have:
                print(f"{w:18s} {name:14s} no samples: no run completed an op")
                continue
            s = summarise([m["value"] for m in have])
            s["unit"] = have[0]["unit"]
            summary[w][name] = s
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"{w:18s} {name:14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {bounds[name]:6.2f}{flag}")
    for r in traced:
        print(f"\n# traced {r['workload']} seed {r['seed']}")
        print("\n".join(r["report"][1:]))
    walls = [r["wall_s"] for r in runs]
    print(f"\nrun wall time: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": runs[0]["report"][0], "seconds": seconds, "summary": summary,
                       "runs": runs, "traced": traced}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
