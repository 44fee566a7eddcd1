"""Per-layer metrics from a traced run, and the report that prints them.

Every metric is a per-pass average over the measured passes, except the
set-up layers (``data.generate_ms``, ``storage.build_ms``,
``views.register_ms``), which are per set-up.  ``*.self_ms`` is span
time minus the time of child spans; a layer a workload never reaches
reads 0.  ``LAYER_METRICS`` names, for each metric, the end-to-end
metric and workload it should move (``BENCHMARK.json`` cannot carry
that: its per-layer entries have a fixed set of keys).
"""

from __future__ import annotations

from spans import NAME, PHASE, covered_ns, inclusive_times, self_times

COLD, WARM, FLEET, VIEWS = "tpch-cold", "tpch-warm", "serve-fleet", \
    "views-churn"
_COMPILE = f"query_ms_p50, profile_ms_p50 on {COLD}; none on {WARM}"

#: name -> (unit, better, which end-to-end metric it should move, where)
LAYER_METRICS = {
    "sql.self_ms": ("ms", "lower", _COMPILE),
    "plan.self_ms": ("ms", "lower", _COMPILE),
    "pipeline.self_ms": ("ms", "lower", _COMPILE),
    "codegen.self_ms": ("ms", "lower", _COMPILE),
    "codegen.ir_instructions": ("count", "lower", _COMPILE),
    "backend.self_ms": ("ms", "lower", _COMPILE),
    "backend.modules_compiled": ("count", "lower", _COMPILE),
    "backend.machine_instructions": (
        "count", "lower", _COMPILE + f"; sim_cycles on {COLD}"),
    "engine.self_ms": ("ms", "lower", f"query_ms_p50 on {COLD} and {WARM}"),
    "vm.translate.self_ms": (
        "ms", "lower", _COMPILE + f"; queries_per_s on {FLEET}"),
    "vm.translate.calls": (
        "count", "lower", _COMPILE + f"; queries_per_s on {FLEET}"),
    "vm.translate.source_lines": (
        "lines", "lower", _COMPILE + f"; queries_per_s on {FLEET}"),
    "vm.tiering.translate_ms": (
        "ms", "lower", f"queries_per_s on {FLEET}; none on tpch-*"),
    "vm.tiering.promotions": (
        "count", "lower", f"queries_per_s on {FLEET}; none on tpch-*"),
    "vm.tiering.deopts": (
        "count", "lower", f"queries_per_s on {FLEET}; none on tpch-*"),
    "plancache.hit_ratio": ("share", "higher", f"queries_per_s on {FLEET}"),
    "plancache.misses": ("count", "lower", f"queries_per_s on {FLEET}"),
    "plancache.evictions": ("count", "lower", f"queries_per_s on {FLEET}"),
    "vm.exec.self_ms": (
        "ms", "lower", f"query_ms_p50, query_ms_tail on {WARM}"),
    "vm.exec.calls": (
        "count", "lower", f"query_ms_p50, query_ms_tail on {WARM}"),
    "vm.sim_instructions": (
        "count", "lower", f"query_ms_p50, query_ms_tail on {WARM}"),
    "vm.exec.ns_per_sim_instruction": (
        "ns", "lower", f"query_ms_p50, query_ms_tail on {WARM}"),
    "vm.external.self_ms": (
        "ms", "lower", f"batch_ms_p50 on {VIEWS}"),
    "storage.build_ms": ("ms", "lower", "setup_s on every workload"),
    "data.generate_ms": ("ms", "lower", "setup_s on every workload"),
    "storage.zone_skip_ratio": (
        "share", "higher", f"sim_cycles, query_ms_p50 on {WARM}"),
    "profiling.attribute_ms": ("ms", "lower", f"profile_ms_p50 on {COLD}"),
    "profiling.samples": ("count", "lower", f"profile_ms_p50 on {COLD}"),
    "profiling.reports_ms": ("ms", "lower", f"profile_ms_p50 on {COLD}"),
    "serve.self_ms": (
        "ms", "lower", f"queries_per_s, latency_cycles_* on {FLEET}"),
    "serve.profiler_ms": (
        "ms", "lower", f"queries_per_s, latency_cycles_* on {FLEET}"),
    "serve.queue_wait_cycles_p50": (
        "cycles", "lower", f"latency_cycles_* on {FLEET}"),
    "serve.shed_ratio": ("share", "lower", f"queries_per_s on {FLEET}"),
    "serve.context_switches": (
        "count", "lower", f"latency_cycles_* on {FLEET}"),
    "serve.epochs": ("count", "lower", f"queries_per_s on {FLEET}"),
    "serve.tag_accuracy": ("share", "higher", f"correctness on {FLEET}"),
    "fleet.route_ms": (
        "ms", "lower", f"queries_per_s, latency_cycles_tail on {FLEET}"),
    "fleet.gather_ms": (
        "ms", "lower", f"queries_per_s, latency_cycles_tail on {FLEET}"),
    "fleet.profile_merge_ms": ("ms", "lower", f"queries_per_s on {FLEET}"),
    "fleet.scattered_share": (
        "share", "lower", f"latency_cycles_tail on {FLEET}"),
    "fleet.refused": ("count", "lower", f"queries_per_s on {FLEET}"),
    "fleet.makespan_cycles": (
        "cycles", "lower", f"latency_cycles_* on {FLEET}"),
    "views.apply_self_ms": ("ms", "lower", f"batch_ms_* on {VIEWS}"),
    "views.register_ms": ("ms", "lower", f"setup_s on {VIEWS}"),
    "views.delta_rows": ("count", "lower", f"batch_ms_* on {VIEWS}"),
    "views.rejected_batches": ("count", "lower", f"batch_ms_* on {VIEWS}"),
    "views.maintenance_instructions": (
        "count", "lower", f"batch_ms_* on {VIEWS} (modelled, CostMeter)"),
    "views.materialize_ms": ("ms", "lower", f"read_ms_p50 on {VIEWS}"),
    "views.pull_ms": ("ms", "lower", f"read_ms_p50 on {VIEWS}"),
    "unattributed_ms": ("ms", "lower", "host time outside every span"),
    "trace.coverage_share": (
        "share", "higher", "measured host time inside a span"),
    "trace.overhead_share": (
        "share", "lower", "untraced ops_per_s / traced ops_per_s - 1"),
    "traffic.distinct_sql_share": (
        "share", "lower", "distinct SQL texts / SQL requests in the run"),
    "traffic.translate_share": (
        "share", "lower", "traced host time in vm.translate + vm.tiering"),
}

#: span name -> self-time metric
_SELF_MS = {
    "sql": "sql.self_ms",
    "plan": "plan.self_ms",
    "pipeline": "pipeline.self_ms",
    "codegen": "codegen.self_ms",
    "backend": "backend.self_ms",
    "engine": "engine.self_ms",
    "vm.translate": "vm.translate.self_ms",
    "vm.tiering.translate": "vm.tiering.translate_ms",
    "vm.exec": "vm.exec.self_ms",
    "vm.external": "vm.external.self_ms",
    "profiling.attribute": "profiling.attribute_ms",
    "profiling.reports": "profiling.reports_ms",
    "serve": "serve.self_ms",
    "serve.profiler": "serve.profiler_ms",
    "fleet.route": "fleet.route_ms",
    "fleet.gather": "fleet.gather_ms",
    "fleet.profile_merge": "fleet.profile_merge_ms",
    "views.apply": "views.apply_self_ms",
    "views.materialize": "views.materialize_ms",
    "views.pull": "views.pull_ms",
}

#: set-up span name -> inclusive-time metric (per set-up)
_SETUP_MS = {
    "data.generate": "data.generate_ms",
    "storage.build": "storage.build_ms",
    "views.register": "views.register_ms",
}

#: read from the system's own stats after each pass
_SYSTEM = (
    "plancache.hit_ratio", "plancache.misses", "plancache.evictions",
    "storage.zone_skip_ratio", "vm.tiering.promotions", "vm.tiering.deopts",
    "serve.queue_wait_cycles_p50", "serve.shed_ratio",
    "serve.context_switches", "serve.epochs", "serve.tag_accuracy",
    "fleet.scattered_share", "fleet.refused", "fleet.makespan_cycles",
    "views.delta_rows", "views.rejected_batches",
    "views.maintenance_instructions",
)


def layer_metrics(tracer, run: dict, untraced: dict, traced: dict) -> dict:
    """``name -> (value, unit)`` for every metric in LAYER_METRICS."""
    records = run["records"]
    passes = len(records)
    setups = len(run["setups"])
    counts = tracer.counts
    values = dict.fromkeys(LAYER_METRICS, 0.0)

    self_ns = self_times(tracer.spans, "measure")
    for span, metric in _SELF_MS.items():
        values[metric] = self_ns.get(span, 0) / passes / 1e6
    setup_ns = inclusive_times(tracer.spans, "setup")
    for span, metric in _SETUP_MS.items():
        values[metric] = setup_ns.get(span, 0) / setups / 1e6
    for metric in _SYSTEM:
        values[metric] = sum(
            record.system.get(metric, 0) for record in records
        ) / passes

    queries = counts["codegen.queries"]
    if queries:
        for key in ("codegen.ir_instructions", "backend.modules_compiled",
                    "backend.machine_instructions"):
            values[key] = counts[key] / queries
    for key in ("vm.translate.calls", "vm.translate.source_lines",
                "vm.sim_instructions", "profiling.samples"):
        values[key] = counts[key] / passes
    values["vm.exec.calls"] = sum(
        1 for span in tracer.spans
        if span[NAME] == "vm.exec" and span[PHASE] == "measure"
    ) / passes
    if counts["vm.sim_instructions"]:
        values["vm.exec.ns_per_sim_instruction"] = (
            self_ns.get("vm.exec", 0) / counts["vm.sim_instructions"]
        )

    measured_ns = tracer.measured_ns
    covered = covered_ns(tracer.spans, "measure")
    values["unattributed_ms"] = (measured_ns - covered) / passes / 1e6
    values["trace.coverage_share"] = covered / measured_ns
    values["trace.overhead_share"] = (
        untraced["ops_per_s"] / traced["ops_per_s"] - 1
    )
    texts = [text for record in records for text in record.sql_texts]
    if texts:
        values["traffic.distinct_sql_share"] = len(set(texts)) / len(texts)
    values["traffic.translate_share"] = (
        self_ns.get("vm.translate", 0) + self_ns.get("vm.tiering.translate", 0)
    ) / measured_ns
    return {
        name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS
    }


def print_layer_report(workload: str, layers: dict, untraced: dict,
                       traced: dict, run: dict, out) -> None:
    print(f"{workload}: tracing overhead (untraced vs traced run)", file=out)
    for name in untraced:
        a, b = untraced[name], traced[name]
        change = f"{(b / a - 1) * 100:+.1f}%" if a else "n/a"
        print(f"  {name:<26} {a:>14.6g} {b:>14.6g}  {change}", file=out)
    print(f"{workload}: traffic properties", file=out)
    for name in ("traffic.distinct_sql_share", "plancache.hit_ratio",
                 "traffic.translate_share"):
        print(f"  {name:<30} {layers[name][0]:.4f}", file=out)
    print(f"{workload}: per-layer metrics, per pass "
          f"({len(run['records'])} passes traced)", file=out)
    for name, (unit, _, moves) in LAYER_METRICS.items():
        value = layers[name][0]
        print(f"  {name:<32} {value:>14.6g} {unit:<6} -> {moves}", file=out)
    print(f"  coverage: {layers['trace.coverage_share'][0] * 100:.1f}% of "
          f"measured host time inside spans, "
          f"unattributed {layers['unattributed_ms'][0]:.3f} ms per pass",
          file=out)
