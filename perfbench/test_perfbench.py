"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from layers import LAYER_METRICS
from measure import Checker, tail
from run import END_TO_END, run_workload
from spans import Tracer, covered_ns, inclusive_times, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _span(name, start, end, parent=-1, phase="measure"):
    return [name, start, end, parent, None, phase]


def test_self_time_subtracts_nested_children():
    spans = [
        _span("engine", 0, 100),            # 0: root
        _span("sql", 10, 30, parent=0),     # 1
        _span("backend", 40, 90, parent=0),  # 2
        _span("vm.translate", 50, 70, parent=2),  # 3: grandchild
    ]
    assert self_times(spans) == {
        "engine": 100 - 20 - 50,
        "sql": 20,
        "backend": 50 - 20,
        "vm.translate": 20,
    }
    assert covered_ns(spans, "measure") == 100
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans).values()) == 100


def test_same_named_nesting_counts_once_inclusive():
    spans = [
        _span("profiling.reports", 0, 50),
        _span("profiling.reports", 10, 20, parent=0),
        _span("profiling.reports", 60, 70),
        _span("storage.build", 0, 5, phase="setup"),
    ]
    assert inclusive_times(spans, "measure") == {"profiling.reports": 60}
    assert self_times(spans, "measure") == {"profiling.reports": 60}
    assert inclusive_times(spans, "setup") == {"storage.build": 5}


def test_tracer_records_parent_spans_only_while_recording():
    tracer = Tracer()

    inner_traced = tracer._wrap(lambda: 1, "inner")
    outer_traced = tracer._wrap(lambda: inner_traced() + 1, "outer")
    assert outer_traced() == 2 and not tracer.spans  # not recording
    with tracer.phase_of("measure"):
        assert outer_traced() == 2
    names = [(span[0], span[3]) for span in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert tracer.measured_ns > 0


def test_install_then_uninstall_leaves_program_untouched():
    from repro.engine import Database
    from repro.vm import tiering, translate

    execute = Database.__dict__["execute"]
    tier1 = translate.translate_program
    tracer = Tracer()
    tracer.install()
    try:
        assert Database.__dict__["execute"] is not execute
        # tier 2 keeps a binding of its own with its own span name
        assert tiering.translate_program is not translate.translate_program
    finally:
        tracer.uninstall()
    assert Database.__dict__["execute"] is execute
    assert translate.translate_program is tier1
    assert tiering.translate_program is tier1


def test_traced_execute_attributes_every_compile_layer():
    from repro.engine import Database

    db = Database.example(n_sales=200, n_products=20)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.phase_of("measure"):
            rows = db.execute("select count(*) from sales").rows
    finally:
        tracer.uninstall()
    assert rows == [(200,)]
    assert tracer.counts["codegen.queries"] == 1
    assert tracer.counts["backend.modules_compiled"] == 3
    assert tracer.counts["backend.machine_instructions"] > 0
    assert tracer.counts["vm.translate.calls"] == 1
    assert tracer.counts["vm.sim_instructions"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"engine", "sql", "plan", "pipeline", "codegen", "backend",
            "vm.translate", "vm.exec"} <= names
    # one root span: everything ran inside Database.execute
    assert [span[3] for span in tracer.spans].count(-1) == 1


@pytest.mark.parametrize("n, rank, percentile", [
    (11, 0, 100 / 11),    # the smallest: exactly ten samples beyond it
    (20, 9, 50.0),
    (100, 89, 90.0),
    (1000, 989, 99.0),
])
def test_tail_has_ten_samples_beyond(n, rank, percentile):
    values = list(range(n))[::-1]  # order must not matter
    value, got_percentile, count = tail(values)
    assert value == rank
    assert sum(1 for v in values if v > value) == 10
    assert got_percentile == pytest.approx(percentile)
    assert count == n


def test_tail_needs_eleven_samples():
    assert tail(list(range(10))) is None
    assert tail([]) is None


def test_bag_check_catches_a_planted_wrong_row():
    want = [("A", 1, 2.5), ("B", 2, 3.25), ("B", 2, 3.25)]
    checker = Checker()
    assert checker.rows("same bag, other order", list(reversed(want)), want)
    assert checker.correct
    planted = [("A", 1, 2.5), ("B", 2, 3.25), ("B", 2, 3.35)]
    assert not checker.rows("planted", planted, want)
    assert not checker.rows("missing row", want[:2], want)
    assert not checker.rows("no rows", None, want)
    assert checker.failed == 3 and not checker.correct


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == {name: entry[:2] for name, entry in LAYER_METRICS.items()}


class _StubProfile:
    result = SimpleNamespace(rows=[(1,)])

    def operator_costs(self):
        return {}

    def annotated_plan(self):
        return ""

    render_timeline = render_query_breakdown = annotated_plan


class _StubDb:
    """A database whose simulated cycles depend on the query before, as
    a cold query's do on the cache state the previous one left."""

    plan_cache = SimpleNamespace(
        stats=lambda: {"hits": 0, "misses": 0, "evictions": 0})
    storage = None

    def __init__(self):
        self.sent = []

    def execute(self, sql):
        cycles = 1000 + len(self.sent[-1] if self.sent else "")
        self.sent.append(sql)
        return SimpleNamespace(rows=[(1,)], cycles=cycles,
                               instructions=len(sql))

    def profile(self, sql):
        return _StubProfile()

    def execute_interpreted(self, sql):
        return SimpleNamespace(rows=[(1,)])


def test_cold_passes_replay_one_order_and_its_sim_metrics():
    class StubCold(WORKLOADS["tpch-cold"]):
        def setup(self):
            self.dbs.append(_StubDb())
            return self.dbs[-1]

    workload = StubCold(7)
    workload.dbs = []
    checker = Checker()
    run = run_workload(workload, 0.01, Tracer(), checker)
    assert len(run["records"]) >= 2
    assert checker.correct, checker.failures[:3]
    # each pass's database saw the same sequence of queries
    orders = {tuple(db.sent[:9]) for db in workload.dbs if db.sent}
    assert len(orders) == 1
