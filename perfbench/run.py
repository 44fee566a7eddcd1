"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tpch-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last output line is a JSON object holding the
end-to-end metrics (tracing off).  With ``--trace 1`` the JSON carries
the per-layer metrics of a traced run plus the tracing overhead against
the untraced run that the same process makes just before it.  The lines
before the JSON are a report for people: every metric by the name
the workload gives it, with unit and clock.

Exit codes: 0 when every output matched its reference, 1 on any
mismatch or failed operation (the JSON still prints), 2 when the
program cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import geometric_mean, median

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench-state"
#: set-ups before the measured passes; setup_s is the
#: fastest of them, as the operation metrics take each operation's best
#: time.  The first set-ups of a process pay one-time costs, and the
#: fastest of twelve varied far less between processes than the fastest
#: of the first four
SETUP_REPEATS = 12
#: str hashes are salted per process unless pinned, and the salt alone
#: moves host timings by tens of percent between otherwise identical runs
#: (dict and set layouts), so every run uses this one
HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s",
    "op_ms_geomean": "ms",
    "ops_per_s": "1/s",
    "sim_cycles": "cycles",
    "sim_latency_cycles_p50": "cycles",
    "peak_rss_mb": "MB",
}


def _import_program():
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def source_digest() -> str:
    """Digest of the program's and the benchmark's source: simulated
    metrics recorded under one digest are only compared with runs of the
    same code."""
    digest = hashlib.sha256()
    sources = [*(ROOT / "src" / "repro").rglob("*.py"),
               *Path(__file__).resolve().parent.glob("*.py")]
    for path in sorted(sources):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_workload(workload, seconds: float, tracer, checker) -> dict:
    """Set up, repeat passes until ``seconds`` are measured, check."""
    setups = []
    records = []
    state = None
    with tracer.phase_of("setup"):
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - started)
        # the discarded set-ups' cycles go now, not inside a pass
        gc.collect()
        started = time.perf_counter()
        workload.prepare(state)
        prepare_s = time.perf_counter() - started
    measured = 0.0
    while True:
        inputs = workload.inputs(state)
        with tracer.phase_of("measure"):
            record = workload.run_pass(state, inputs, tracer)
        tracer.request = None
        measured += record.seconds
        records.append(record)
        with tracer.phase_of("check", record=False):
            checker.attempted += record.requests
            workload.check(state, record, checker)
            if record.sim != records[0].sim:
                checker.fail(f"pass {len(records)} simulated metrics "
                             f"{record.sim} != first pass {records[0].sim}")
        if measured >= seconds:
            break
        if workload.fresh_per_pass:
            with tracer.phase_of("setup"):
                started = time.perf_counter()
                state = workload.setup()
                setups.append(time.perf_counter() - started)
                workload.prepare(state)
    return {
        "setups": setups,
        "prepare_s": prepare_s,
        "setup_s": min(setups) + prepare_s,
        "records": records,
        "measured_s": measured,
    }


def end_to_end(run: dict) -> dict:
    """The ``BENCHMARK.json`` metrics of a run.

    Host speed on a shared machine swings by up to 1.7x over seconds, so
    the gated host numbers take each operation's best time over the run's
    passes, as ``repro.vmbench`` takes the best of its repeats:
    ``op_ms_geomean`` is the geometric mean over a pass's operations of
    their best times, and ``ops_per_s`` is operations per second of the
    pass made of the best times (subscriber reads included on
    ``views-churn``).  A run of one pass reports that pass."""
    records = run["records"]
    best_ms = _fastest(records, "op_ms").values()
    return {
        "setup_s": run["setup_s"],
        "op_ms_geomean": geometric_mean(best_ms),
        "ops_per_s": 1e3 * len(records[0].op_ms)
        / sum(_fastest(records, "full_ms").values()),
        "sim_cycles": records[0].sim["sim_cycles"],
        "sim_latency_cycles_p50": records[0].sim["sim_latency_cycles_p50"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def _fastest(records, attribute: str) -> dict:
    """Per operation key, the least host ms over the passes."""
    fastest: dict = {}
    for record in records:
        for key, ms in (getattr(record, attribute) or record.op_ms).items():
            fastest[key] = min(ms, fastest.get(key, ms))
    return fastest


def check_recorded_sim(workload, seed: int, sim: dict, checker) -> None:
    """Simulated metrics must be identical between two runs at one seed:
    the first run at a (workload, seed, source) records them, every
    later one compares."""
    path = STATE / "sim" / f"{workload}-{seed}-{source_digest()}.json"
    if path.is_file():
        recorded = json.loads(path.read_text())
        checker.equal(f"simulated metrics vs an earlier run at seed {seed}",
                      sim, recorded)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sim, sort_keys=True))


def report_named(workload, run, e2e, checker, out) -> None:
    """Each workload's metrics under its own names, over every sample of
    the run (not the best-of-passes numbers of ``end_to_end``)."""
    from measure import tail_metric

    op_ms = [v for record in run["records"] for v in record.op_ms.values()]
    agg = {
        "op_ms_p50": median(op_ms),
        "op_ms_tail": tail_metric(op_ms, "ms", "host"),
        "ops_per_s": len(op_ms) / run["measured_s"],
    }
    print(f"{workload.name}: {workload.why}", file=out)
    print(f"  {len(run['records'])} passes, {len(op_ms)} operations, "
          f"{run['measured_s']:.2f} s measured", file=out)
    setups = run["setups"]
    rows = workload.named(run["records"], agg) + [
        ("setup_s", e2e["setup_s"],
         f"s (fastest of {len(setups)} in {min(setups):.3g}..{max(setups):.3g}"
         f" s, plus {run['prepare_s']:.3g} s warm-up)", "host"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "host"),
        ("error_rate", checker.failed / max(1, checker.attempted), "share",
         "-"),
    ]
    for name, value, unit, clock in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<26} {shown:>14} {unit} [{clock}]", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from measure import Checker
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    factory = WORKLOADS[args.workload]
    checker = Checker()
    out = sys.stdout

    # a traced run makes this untraced run first, right before the
    # traced one, as the other side of its overhead report
    untraced = run_workload(factory(args.seed), args.seconds, Tracer(),
                            checker)
    e2e = end_to_end(untraced)
    check_recorded_sim(args.workload, args.seed,
                       untraced["records"][0].sim, checker)
    report_named(factory(args.seed), untraced, e2e, checker, out)
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END.items()}

    if args.trace:
        from layers import layer_metrics, print_layer_report

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_workload(factory(args.seed), args.seconds, tracer,
                                  checker)
        finally:
            tracer.uninstall()
        check_recorded_sim(args.workload, args.seed,
                           traced["records"][0].sim, checker)
        traced_e2e = end_to_end(traced)
        layers = layer_metrics(tracer, traced, e2e, traced_e2e)
        print_layer_report(args.workload, layers, e2e, traced_e2e, traced,
                           out)
        tracer.dump(STATE / "traces" / f"{args.workload}-{args.seed}.jsonl")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}

    for failure in checker.failures[:20]:
        print(f"  MISMATCH {failure}", file=out)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if checker.correct else 1


def _pin_hash_seed() -> None:
    """Re-execute this process in place with ``PYTHONHASHSEED`` pinned."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
