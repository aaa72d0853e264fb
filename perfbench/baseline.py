"""Record a baseline: repeated benchmark runs per workload, summarized.

For each workload, runs ``run.py`` untraced once per seed and traced on the
first ``--traced`` seeds, then reports for every end-to-end metric the median,
the quartiles and the spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the bound
in BENCHMARK.json, and the median of every per-layer metric.

    python3 perfbench/baseline.py --seeds 10 --traced 2 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads lattice_cauchy --seeds 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--traced", type=int, default=1)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    report = {"seeds": list(range(1, args.seeds + 1)), "seconds": seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = [run_once(name, s, seconds, 0) for s in report["seeds"]]
        traced = [run_once(name, s, seconds, 1) for s in report["seeds"][:args.traced]]
        e2e = {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        for m, s in e2e.items():
            s["bound"] = bounds[m]
            s["spread_within_third_of_bound"] = s["spread"] < bounds[m] / 3
        entry = {
            "end_to_end": e2e,
            "failed": sum(r["failed"] for r in runs + traced),
            # per run: statistical operations, their assertion failures, the limit
            "assertions_failed": [[r["detail"][k] for k in ("statistical_ops", "assertions_failed",
                                                             "assertions_failed_limit")]
                                  for r in runs + traced],
            "attempted": sum(r["attempted"] for r in runs + traced),
            "machine": runs[0]["detail"]["machine"],
            "op_ms_tail_percentile": [r["detail"]["op_ms_tail_percentile"] for r in runs],
            "ops_per_run": [r["detail"]["ops"] for r in runs],
        }
        if traced:
            entry["per_layer_median"] = {
                m: statistics.median(r["metrics"][m]["value"] for r in traced)
                for m in traced[0]["metrics"]}
            entry["traffic_checks"] = [r["detail"]["traffic_checks"] for r in traced]
        report["workloads"][name] = entry
        for m, s in e2e.items():
            print(f"{name} {m}: spread {s['spread']:.4f} (bound {s['bound']})",
                  [round(v, 4) for v in s["values"]], flush=True)
        print(f"{name}: failed {entry['failed']} of {entry['attempted']}", flush=True)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
