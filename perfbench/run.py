"""pitchftc benchmark: one closed-loop client issuing ops back to back.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reference_lc3 --seed 0 --seconds 20 --trace 0

Workloads are described in ``bench_workloads.py``.  With ``--trace 0`` the
run reports end-to-end metrics.  With ``--trace 1`` ops alternate between
untraced and traced, where spans are recorded around every layer's public
calls, and the run reports per-layer metrics, kernel micro-timings, tracing
overhead and the simulated metrics.  Every op's output is checked.
Human-readable lines come first; the last line of standard output is the
JSON result.

The program is imported from ``src/`` of the checkout and nothing sets the
BLAS thread variables, so the libraries run with their defaults.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse
import contextlib
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 3  # this process plus fresh-interpreter probes
PROBE_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples the tail percentile leaves above it


def _import_program():
    """Put the checkout's ``src/`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "pitchftc" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no src/pitchftc and configs/ to benchmark")
    sys.path.insert(0, str(src))
    import pitchftc

    if Path(pitchftc.__file__).resolve().parent != src / "pitchftc":
        sys.exit(f"perfbench: imported pitchftc from {pitchftc.__file__}, not {src}")


@dataclasses.dataclass
class Record:
    wall: float
    failures: list
    checked: object = None  # bench_workloads.Checked, None when the op raised
    traced: bool = False


def run_ops(workload, seconds: float, tracer=None) -> list[Record]:
    """Issue ops back to back for ``seconds`` (at least one), checking each.

    With a tracer, ops come in pairs on the same inputs, the first untraced
    and the second traced, so both halves see the same machine state.  An
    op whose inputs repeat an earlier op's, traced or not, must reproduce
    its simulated values exactly.
    """
    records, seen = [], {}
    per_input = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    i = 0
    while len(records) < per_input or i % per_input or time.perf_counter() < deadline:
        k = i // per_input  # input index
        traced = i % per_input == 1
        t0 = time.perf_counter()
        wall = None
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                if traced:
                    tracer.op = k
                result = workload.op(k)
            wall = time.perf_counter() - t0
            checked = workload.check(k, result)
            del result  # free it before the next op runs
        except Exception:
            wall = time.perf_counter() - t0 if wall is None else wall
            records.append(Record(wall, [traceback.format_exc(limit=4)], traced=traced))
        else:
            first = seen.setdefault(k % workload.cycle_length, checked.signature)
            if first != checked.signature:
                checked.failures.append(f"op {i}: simulated values differ from an earlier op on the same inputs")
            records.append(Record(wall, checked.failures, checked, traced))
        i += 1
    return records


def _tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, never below the median."""
    q = max(50.0, 100.0 * (1.0 - TAIL_BEYOND / len(walls)))
    return float(np.percentile(walls, q)), q


def _setup_probe(args) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup_record(workload, setup_s: float) -> dict:
    """Set-up time, and the speed of a closed-loop run made during set-up."""
    rate = workload.sim_s / workload.sim_wall_s if hasattr(workload, "sim_wall_s") else 0.0
    return {"setup_s": setup_s, "sim_s_per_wall_s": rate}


def end_to_end(args, workload, setup: dict, records: list[Record]) -> dict:
    setups = [setup] + [_setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    walls = [r.wall for r in records]
    tail, _ = _tail(walls)
    ok = [r for r in records if r.checked is not None]
    sim_s = sum(r.checked.sim_s for r in ok)
    if sim_s > 0:
        rate = sim_s / sum(r.wall for r in ok)
    else:  # no closed-loop run inside the op: the set-up runs are the workload's
        rate = statistics.median(s["sim_s_per_wall_s"] for s in setups)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "op_wall_s.median": (statistics.median(walls), "s"),
        "op_wall_s.tail": (tail, "s"),
        "sim_s_per_wall_s": (rate, "s/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced: list[Record], untraced: list[Record]) -> dict:
    totals, root = tracer.layer_totals()
    n = len(traced)
    out = {}
    for layer, t in totals.items():
        out[f"{layer}.calls"] = (t["calls"] / n, "count")
        out[f"{layer}.total_s"] = (t["total_s"] / n, "s")
        out[f"{layer}.self_s"] = (t["self_s"] / n, "s")
    c = tracer.counters
    rls_self = totals["numerics.rls_update"]["self_s"]
    gain_calls = totals["sprc.update_gain"]["calls"]
    out["numerics.rls_update.rows"] = (c["numerics.rls_update.rows"] / n, "count")
    out["numerics.rls_update.gflop"] = (c["numerics.rls_update.gflop"] / n, "GFLOP")
    out["numerics.rls_update.gflops"] = (
        c["numerics.rls_update.gflop"] / rls_self if rls_self > 0 else 0.0, "GFLOP/s"
    )
    out["sprc.gain_fallback_ratio"] = (
        c["sprc.gain_failures"] / gain_calls if gain_calls else 0.0, "ratio"
    )
    out["supervisor.switches_applied"] = (c["supervisor.switches_applied"] / n, "count")
    out["harness.csv_bytes"] = (c["harness.csv_bytes"] / n, "B")

    traced_wall = sum(r.wall for r in traced) / n
    untraced_wall = sum(r.wall for r in untraced) / len(untraced)
    out["trace.op_wall_s"] = (traced_wall, "s")
    out["trace.untraced_op_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.untraced_remainder_s"] = (traced_wall - root / n, "s")
    out["trace.spans"] = (len(tracer.spans) / n, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    _import_program()
    import bench_env
    import bench_kernels
    import bench_workloads
    from bench_trace import Tracer

    WORKDIR.mkdir(exist_ok=True)
    workload = bench_workloads.make(args.workload, ROOT, args.seed, WORKDIR)
    workload.setup()
    setup = _setup_record(workload, time.perf_counter() - _T0)
    if args.setup_probe:
        print(json.dumps(setup))
        return 0

    problems: list[str] = []
    try:
        if args.trace == 0:
            records = run_ops(workload, args.seconds)
            metrics = end_to_end(args, workload, setup, records)
        else:
            kernels = bench_kernels.measure(args.seed)
            tracer = Tracer()
            records = run_ops(workload, args.seconds, tracer)
            leftover = tracer.leftover_wrappers()
            if leftover:
                problems.append(f"wrappers left installed: {leftover}")
            metrics = per_layer(
                tracer,
                [r for r in records if r.traced],
                [r for r in records if not r.traced],
            )
            metrics.update(kernels)
            tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        workload.close()
        try:
            WORKDIR.rmdir()
        except OSError:  # holds the span file of a traced run
            pass

    failed = sum(1 for r in records if r.failures)
    checked = [r.checked for r in records if r.checked is not None]
    host = [c.host["tune_wall_s"] for c in checked if "tune_wall_s" in c.host]
    extra = bench_workloads.summarize_sim(checked)
    extra["failed_ops_ratio"] = (failed / len(records), "ratio")
    extra["tune_wall_s"] = (statistics.median(host) if host else 0.0, "s")
    if args.trace == 1:
        metrics.update(extra)

    walls = [r.wall for r in records]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(bench_env.environment(ROOT), sort_keys=True))
    tail_note = f"; op_wall_s.tail is p{_tail(walls)[1]:.1f} of {len(walls)} op times"
    print(f"ops: {len(records)} attempted, {failed} failed" + (tail_note if args.trace == 0 else ""))
    print("op walls (s): " + " ".join(f"{w:.4g}" for w in walls[:20]) + (" ..." if len(walls) > 20 else ""))
    for r in records:
        for line in r.failures[:3]:
            print(f"FAILED: {line}")
    for line in problems:
        print(f"FAILED: {line}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    if args.trace == 1:
        covered = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        print(f"self times + untraced remainder = {covered + metrics['trace.untraced_remainder_s'][0]:.6f} s; "
              f"traced op wall = {metrics['trace.op_wall_s'][0]:.6f} s")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
