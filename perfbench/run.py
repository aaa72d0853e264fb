"""seqot benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exact_lp --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): exact_lp, lattice_cauchy, invariant_orbits,
harness_sweep.  Load is closed-loop batch work in one process: operations
run one after another, rounds of a fixed operation mix with seeded inputs,
until ``--seconds`` have passed.  Every operation's output is checked after
it is timed; an operation that raises or fails a check counts as failed and
is never re-drawn.  A ``gibbs_cauchy`` assertion failure counts as failed
once a run holds more of them than chance explains (``workloads.chance_limit``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each round
twice on the same inputs, once plain and once with spans around seqot's
public functions (tracing.py), and prints the per-layer metrics, per traced
round, plus the tracing overhead and the share of operation time the
reported per-layer metrics account for.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the details (machine, seed, percentiles, failures, spans).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# per traced round, unless the unit says otherwise
PER_LAYER = {
    "ot.solve_discrete_ot.calls": "count/round",
    "ot.solve_discrete_ot.self_s": "s/round",
    "ot.solve_discrete_ot.iterations": "count/round",
    "ot.linprog.s": "s/round",
    "ot.solve_discrete_ot.uniform.s": "s/round",
    "ot.solve_discrete_ot.weighted.s": "s/round",
    "ot.sinkhorn.calls": "count/round",
    "ot.sinkhorn.s": "s/round",
    "ot.sinkhorn.iterations": "count/round",
    "ot.sinkhorn.converged_frac": "fraction",
    "ot.sinkhorn.matvec_gb": "GB/round",
    "ot.barycentric_map.s": "s/round",
    "ot.quantile_transport_1d.s": "s/round",
    "gibbs.sample_periodic_gibbs.s": "s/round",
    "gibbs.sample_periodic_gibbs.site_updates": "count/round",
    "gibbs.empirical_map_to_gaussian.self_s": "s/round",
    "gibbs.EmpiricalMap.evaluate.s": "s/round",
    "gibbs.EmpiricalMap.evaluate.points": "count/round",
    "gibbs.entropy_mn_estimate.s": "s/round",
    "gibbs.cauchy_convergence_experiment.self_s": "s/round",
    "invariance.solve_invariant_ot.self_s": "s/round",
    "invariance.invariant_duality_value.self_s": "s/round",
    "invariance.transitive_identity_check.self_s": "s/round",
    "invariance.linprog.s": "s/round",
    "invariance.symmetrize_coupling.s": "s/round",
    "invariance.close_support.s": "s/round",
    "invariance.n_orbits": "count/round",
    "invariance.pairs": "count/round",
    "bounds.talagrand_gap.s": "s/round",
    "bounds.lemma21_check.s": "s/round",
    "bounds.relative_entropy.s": "s/round",
    "processes.quasi_product_approx.s": "s/round",
    "processes.definetti_ot.s": "s/round",
    "processes.mixture_entropy_bound_check.s": "s/round",
    "processes.diagonal_transport.s": "s/round",
    "cli.run_experiment.self_s": "s/round",
    "cli.report_bytes": "bytes/round",
    "trace.overhead_frac": "fraction",
    "trace.span_coverage": "fraction",
}


# ---------------------------------------------------------------------------
# machine record


def _blas() -> list:
    """Version and thread count of each OpenBLAS loaded into this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info.update(config=config().decode(), threads=threads())
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


def _commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((workloads.SRC / "seqot").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": _commit(workloads.ROOT),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters


def setup_seconds(workload: str, seed: int) -> float:
    """Spawn an interpreter that imports seqot and builds the workload's
    objects; the time until they are ready, on the shared monotonic clock."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


# ---------------------------------------------------------------------------
# measurement


class Run:
    """Operation records of one benchmark run."""

    def __init__(self):
        self.op_seconds = []       # plain (untraced) operations
        self.round_seconds = []    # plain rounds
        self.paired = []           # (plain round, traced round) on equal inputs
        self.setup_seconds = []    # one fresh-interpreter set-up before each plain round
        self.traced_op_seconds = 0.0
        self.attempted = 0
        self.failures = []         # (label, problems, where): where = round, index, config
        self.values = []           # (label, values) of every operation
        self.statistical = 0       # operations whose assertions may fail by chance
        self.chance_failed = []    # (label, where) of those whose assertions failed

    def run_round(self, ops, instrument, tracer=None, k=0) -> float:
        total = 0.0
        for i, op in enumerate(ops):
            instrument.problems.clear()
            if tracer is not None:
                tracer.label = op.label
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as e:  # a failed operation is counted, not fatal
                result, error = None, f"{type(e).__name__}: {e}"
            else:
                error = None
            dt = time.perf_counter() - t0
            total += dt
            if error is None:
                problems, values = op.verify(result)
                problems = list(instrument.problems) + problems
            else:
                problems, values = list(instrument.problems) + [error], ()
            self.attempted += 1
            self.values.append((op.label, values))
            # enough to rebuild the operation: wl.round(k)[i] on the run's seed
            where = {"round": k, "index": i, **op.config}
            if problems:
                self.failures.append((op.label, problems, where))
            elif op.statistical and values[1] is False:
                self.chance_failed.append((op.label, where))
            if op.statistical:
                self.statistical += 1
            if tracer is None:
                self.op_seconds.append(dt)
            else:
                self.traced_op_seconds += dt
        return total

    def settle(self):
        """Count chance assertion failures as failures once there are more of
        them than chance explains."""
        limit = workloads.chance_limit(self.statistical)
        if len(self.chance_failed) > limit:
            for label, where in self.chance_failed:
                self.failures.append((label, [
                    f"{len(self.chance_failed)} of {self.statistical} statistical "
                    f"runs failed an assertion; chance explains at most {limit}"], where))


def measure(wl, sq, seconds: float, trace: bool):
    """Run rounds until ``seconds`` pass; an untraced run also times one
    fresh-interpreter set-up before each round, so set-up samples spread
    over the run as the rounds do."""
    run = Run()
    tracer = tracing.Tracer(PER_LAYER) if trace else None
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        ops = wl.round(k)
        plain = traced = None
        # alternate which pass goes first so warm caches favour neither
        passes = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        if not trace:
            run.setup_seconds.append(setup_seconds(wl.name, wl.seed))
        for with_trace in passes:
            _clear(wl.work_dir)
            inst = tracing.Instrument(sq, tracer if with_trace else None,
                                      wl.internal_checks)
            try:
                t = run.run_round(ops, inst, tracer if with_trace else None, k)
            finally:
                inst.restore()
            if with_trace:
                traced = t
            else:
                plain = t
        if trace:
            run.paired.append((plain, traced))
        else:
            run.round_seconds.append(plain)
        k += 1
        if time.perf_counter() >= deadline:
            run.settle()
            return run, tracer


def _clear(path):
    for entry in os.scandir(path):
        if entry.is_dir():
            shutil.rmtree(entry.path)
        else:
            os.unlink(entry.path)


def tail(op_seconds: list):
    """Highest percentile with at least TAIL_BEYOND operations beyond it."""
    s = sorted(op_seconds)
    n = len(s)
    if n > TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return s[0], 0.0, n - 1


def end_to_end(run: Run) -> tuple:
    value, pct, beyond = tail(run.op_seconds)
    metrics = {
        "setup_s": statistics.median(run.setup_seconds),
        "wall_s": statistics.median(run.round_seconds),
        "ops_per_s": len(run.op_seconds) / sum(run.op_seconds),
        "op_ms_p50": 1e3 * statistics.median(run.op_seconds),
        "op_ms_tail": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"rounds": len(run.round_seconds), "ops": len(run.op_seconds),
              "op_ms_tail_percentile": pct, "op_ms_tail_ops_beyond": beyond,
              "setup_s_samples": run.setup_seconds}
    return metrics, detail


def per_layer(run: Run, tracer: tracing.Tracer, workload: str) -> tuple:
    rounds = len(run.paired)
    c = tracer.counters
    calls_sk = tracer.calls["ot.sinkhorn"]
    ratios = [t / p for p, t in run.paired if p > 0]
    derived = {
        "ot.sinkhorn.converged_frac": c["ot.sinkhorn.converged"] / calls_sk if calls_sk else 0.0,
        "ot.sinkhorn.matvec_gb": c["ot.sinkhorn.matvec_bytes"] / 1e9 / rounds,
        "trace.overhead_frac": statistics.median(ratios) - 1.0,
        "trace.span_coverage": tracer.covered / run.traced_op_seconds,
    }
    stats = {"calls": tracer.calls, "s": tracer.busy, "self_s": tracer.self_time}
    metrics = {}
    for name in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        if name in derived:
            metrics[name] = derived[name]
        else:
            # a span or counter that never ran, or whose function is gone, reads 0
            total = c[name] if name in c else stats.get(stat, {}).get(span, 0)
            metrics[name] = total / rounds
    spans = {name: {"calls": tracer.calls[name] / rounds,
                    "s": tracer.busy[name] / rounds,
                    "self_s": tracer.self_time[name] / rounds}
             for name in sorted(tracer.busy)}
    detail = {"traced_rounds": rounds, "spans_per_round": spans,
              "top_self_s_by_op_class": {
                  label: sorted(t.items(), key=lambda kv: -kv[1])[:4]
                  for label, t in tracer.label_self.items()},
              "traffic_checks": traffic_checks(tracer, metrics, workload)}
    return metrics, detail


def traffic_checks(tracer, metrics, workload) -> dict:
    """Whether the traced run shows the traffic the roadmap assumes."""
    checks = {"named_spans_cover_90pct": metrics["trace.span_coverage"] >= 0.9}
    if workload == "lattice_cauchy":
        sk = tracer.label_self["sinkhorn"]
        checks["sinkhorn_largest_self_time_on_sinkhorn_branch"] = (
            bool(sk) and max(sk, key=sk.get) == "ot.sinkhorn")
    if workload == "invariant_orbits":
        inv_self = sum(v for k, v in tracer.self_time.items()
                       if k.startswith("invariance.") and k != "invariance.linprog")
        checks["invariance_self_exceeds_linprog"] = (
            inv_self > tracer.busy.get("invariance.linprog", 0.0))
    return checks


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("OUTPUT_DIR", None)  # seqot run would redirect reports
    try:
        sq = workloads.load_seqot()
    except (ImportError, OSError) as e:
        print(f"perfbench: cannot load seqot: {e}", file=sys.stderr)
        return 2
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        wl = workloads.WORKLOADS[args.workload](sq, args.seed, work_dir)
        run, tracer = measure(wl, sq, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        metrics, detail = per_layer(run, tracer, args.workload)
        units = PER_LAYER
    else:
        metrics, detail = end_to_end(run)
        units = END_TO_END
    failed = len(run.failures)
    detail.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  machine=machine_record(args.seed), attempted=run.attempted,
                  failed_ops_frac=failed / run.attempted,
                  statistical_ops=run.statistical,
                  assertions_failed=len(run.chance_failed),
                  assertions_failed_limit=workloads.chance_limit(run.statistical),
                  failures=[{"op": label, "at": where, "problems": p}
                            for label, p, where in run.failures[:20]])
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    print(f"{'failed_ops_frac':48s} {failed / run.attempted:>16.6g} fraction")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
