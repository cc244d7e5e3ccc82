"""KOKO query benchmark: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload selective --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload with tracing off and ends with the
end-to-end metrics; ``--trace 1`` runs the traced layer replay instead and
ends with the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The lines
before it are a human-readable report, the provenance block and (traced)
the spans. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("selective", "unselective", "span_gsp", "ingest")
MEMORY_INTERVAL_S = 0.5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def closed_loop(wl, gate, seconds: float) -> None:
    deadline = perf_counter() + seconds
    while True:
        try:
            wl.step(gate)
        except Exception as e:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            gate.record(f"{wl.name} step {wl.n_steps}", False, repr(e))
        if perf_counter() >= deadline and wl.n_steps >= len(wl.kinds):
            return  # every operation kind has at least one sample


def measure(spark, args, gate) -> tuple[dict, list[str], dict]:
    from perfbench import system
    from perfbench.workloads import SETUP_REPS, WORKLOADS, format_timings

    wl = WORKLOADS[args.workload](spark, args.seed)
    setups = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        wl.set_up()
        setups.append(perf_counter() - t0)
    wl.prepare()
    # The memory window holds the program's own work only: the warm-up and
    # the closed loop. References and gate checks come after it.
    with system.PeakMemory(interval=MEMORY_INTERVAL_S) as mem:
        t0 = perf_counter()
        wl.warm_up()
        warm_s = perf_counter() - t0
        t0 = perf_counter()
        closed_loop(wl, gate, args.seconds)
        loop_s = perf_counter() - t0
    cached_mb = spark.cached_mb()
    t0 = perf_counter()
    wl.reference()
    wl.check(gate)
    ref_s = perf_counter() - t0

    setup_s = spark.start_s + median(setups) + warm_s
    metrics = {
        "setup_s": (setup_s, "s"),
        "cycle_s": (wl.cycle_s(), "s"),
        "peak_pss_mb": (mem.peak_mb, "MB"),
        "cached_mb": (cached_mb, "MB"),
    }
    lines = [
        f"workload {wl.name}: {wl.n_steps} operations, {gate.attempted} checked, "
        f"{gate.failed} failed",
        f"  setup_s = Spark start {spark.start_s:.3f} s + median data set-up "
        f"{median(setups):.3f} s (of {', '.join(f'{s:.3f}' for s in setups)}) "
        f"+ warm-up {warm_s:.3f} s",
        f"  closed loop {loop_s:.3f} s; untimed references and checks after it {ref_s:.3f} s",
    ]
    for name, value in wl.metrics().items():
        xs = sorted(wl.samples[name])
        n = len(xs)
        # the highest percentile with at least ten samples beyond it
        tail = (
            f"p{100 * (n - 10) / n:.1f} {xs[n - 11]:.4f}" if n > 10
            else " ".join(f"{x:.4f}" for x in wl.samples[name])
        )
        lines.append(f"  {name:<18} {value:10.4f} {wl.units[name]:<3} median of {n}: {tail}")
    lines += [
        f"  {'setup_s':<18} {setup_s:10.4f} s",
        f"  {'cycle_s':<18} {wl.cycle_s():10.4f} s   "
        f"(sum of the medians of {', '.join(wl.kinds)})",
        f"  {'peak_pss_mb':<18} {mem.peak_mb:10.1f} MB  (PSS of driver + JVM + Python workers, warm-up and loop)",
        f"  {'cached_mb':<18} {cached_mb:10.4f} MB  (Spark storage memory held by cached data)",
        f"  {'error_rate':<18} {gate.error_rate:10.4f}     ({gate.failed}/{gate.attempted})",
    ]
    for key, counts in wl.jobs.items():
        lines.append(
            f"  {key}: engine.jobs={counts.jobs} engine.stages={counts.stages} "
            f"engine.tasks={counts.tasks} engine.failed_tasks={counts.failed_tasks}"
        )
    for key, runs in wl.engine_timings.items():
        lines.append(f"  {key} RunResult.timings, median of {len(runs)}: " + format_timings(runs))
    return metrics, lines, wl.corpus


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "koko" / "engine.py").is_file():
        print(f"perfbench: no KOKO sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import gate as gate_mod
    from perfbench import system

    gate_mod.self_test()
    gate = gate_mod.Gate()
    spark = system.Spark(ROOT, ROOT / ".perfbench_tmp" / str(os.getpid()))
    try:
        if args.trace:
            from perfbench import tracing

            metrics, lines, corpus = tracing.run(spark, args.seed, gate)
        else:
            metrics, lines, corpus = measure(spark, args, gate)
        prov = system.provenance(ROOT, spark, args.seed, corpus)
    finally:
        spark.stop()
    for line in lines:
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for f in gate.failures[:20]:
        print(f"FAILED {f}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
