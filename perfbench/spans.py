"""Outside-in tracing: spans around the public entry points of each layer.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
each listed function or method for a wrapper that records a span
``(name, start_ns, end_ns, parent, request, phase)`` and restores the
originals on exit, so an untraced run executes the unmodified program.
A module-level function is replaced in every ``repro`` module that
bound it by ``from ... import``, except where a binding gets a span
name of its own (tier 2's ``translate_program``).

Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from repro.vm import CodeRegion

#: (module, attribute, span name).  ``Class.method`` attributes patch the
#: class; plain attributes patch every ``repro`` module binding the object.
BINDINGS = [
    ("repro.sql.parser", "parse", "sql"),
    ("repro.sql.binder", "Binder.bind", "sql"),
    ("repro.plan.physical", "plan_physical", "plan"),
    ("repro.pipeline.pipeliner", "decompose", "pipeline"),
    ("repro.codegen.querygen", "generate_query_ir", "codegen"),
    ("repro.codegen.runtime", "build_syslib_module", "codegen"),
    ("repro.codegen.runtime", "build_runtime_module", "codegen"),
    ("repro.backend.compiler", "compile_module", "backend"),
    ("repro.engine", "Database.execute", "engine"),
    ("repro.engine", "Database.profile", "engine"),
    ("repro.vm.translate", "translate_program", "vm.translate"),
    ("repro.vm.tiering", "translate_program", "vm.tiering.translate"),
    ("repro.vm.machine", "Machine.call", "vm.exec"),
    ("repro.vm.machine", "Machine.advance_external", "vm.external"),
    ("repro.storage.layout", "StorageEngine.build", "storage.build"),
    ("repro.data.tpch", "generate_tpch", "data.generate"),
    ("repro.data.example", "generate_example", "data.generate"),
    ("repro.profiling.postprocess", "SampleProcessor.attribute",
     "profiling.attribute"),
    ("repro.profiling.reports", "annotated_plan", "profiling.reports"),
    ("repro.profiling.reports", "render_timeline", "profiling.reports"),
    ("repro.profiling.reports", "render_query_breakdown",
     "profiling.reports"),
    ("repro.profiling.profile", "Profile.operator_costs",
     "profiling.reports"),
    ("repro.serve.service", "QueryService.submit", "serve"),
    ("repro.serve.service", "QueryService.drain", "serve"),
    ("repro.serve.profiler", "ContinuousProfiler.observe_unit",
     "serve.profiler"),
    ("repro.serve.profiler", "ContinuousProfiler.complete_query",
     "serve.profiler"),
    ("repro.serve.profiler", "ContinuousProfiler.observe_view_unit",
     "serve.profiler"),
    ("repro.fleet.router", "Fleet.submit", "fleet.route"),
    ("repro.fleet.router", "Fleet.drain", "fleet.gather"),
    ("repro.fleet.router", "Fleet.profile_snapshot", "fleet.profile_merge"),
    ("repro.views.service", "ViewService.apply", "views.apply"),
    ("repro.views.service", "ViewService.register", "views.register"),
    ("repro.views.service", "MaterializedView.materialize",
     "views.materialize"),
    ("repro.views.service", "Subscription.pull", "views.pull"),
]

#: modules whose own binding of a shared function has a dedicated entry
_OWN_BINDING = {("repro.vm.tiering", "translate_program")}

# span tuple fields
NAME, START, END, PARENT, REQUEST, PHASE = range(6)


class Tracer:
    """Collects spans and layer counters for one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self.phase = "setup"
        self.recording = False
        self.measured_ns = 0
        self._stack: list[int] = []
        self._restore: list = []

    @contextlib.contextmanager
    def phase_of(self, phase: str, record: bool = True):
        """Attribute the spans of a block to ``phase``; ``measure`` time
        also accumulates the window that unattributed time is taken from."""
        saved = self.phase, self.recording
        self.phase, self.recording = phase, record
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            if phase == "measure":
                self.measured_ns += time.perf_counter_ns() - started
            self.phase, self.recording = saved

    def _wrap(self, fn, name: str, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0, 0, stack[-1] if stack else -1,
                    tracer.request, tracer.phase]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if after is not None and tracer.phase == "measure":
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        for module_name, attribute, name in BINDINGS:
            module = importlib.import_module(module_name)
            after = _AFTER.get((module_name, attribute))
            if "." in attribute:
                self._patch_method(module, attribute, name, after)
            else:
                self._patch_function(module, module_name, attribute, name,
                                     after)
        self._patch_call_counter()

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _patch_method(self, module, attribute, name, after) -> None:
        class_name, method = attribute.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, after))
        else:
            wrapped = self._wrap(raw, name, after)
        self._restore.append((cls, method, raw))
        setattr(cls, method, wrapped)

    def _patch_function(self, module, module_name, attribute, name,
                        after) -> None:
        original = getattr(module, attribute)
        wrapped = self._wrap(original, name, after)
        if (module_name, attribute) in _OWN_BINDING:
            owners = [module]
        else:
            owners = [
                candidate for candidate_name, candidate
                in list(sys.modules.items())
                if candidate_name.split(".")[0] == "repro"
                and (candidate_name, attribute) not in _OWN_BINDING
                and getattr(candidate, attribute, None) is original
            ]
        for owner in owners:
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def _patch_call_counter(self) -> None:
        """``Machine.call`` additionally counts retired simulated
        instructions, read from the machine before and after the call."""
        from repro.vm.machine import Machine

        traced_call = Machine.call
        tracer = self

        def call(machine, *args, **kwargs):
            if not tracer.recording or tracer.phase != "measure":
                return traced_call(machine, *args, **kwargs)
            before = machine.state.instructions
            try:
                return traced_call(machine, *args, **kwargs)
            finally:
                tracer.counts["vm.sim_instructions"] += (
                    machine.state.instructions - before
                )

        self._restore.append((Machine, "call", traced_call))
        Machine.call = call

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start_ns", "end_ns", "parent", "request", "phase")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")


def _count_ir(tracer, args, result) -> None:
    module = getattr(result, "module", result)
    tracer.counts["codegen.ir_instructions"] += sum(
        sum(1 for _ in fn.all_instructions()) for fn in module.functions
    )


def _count_query_ir(tracer, args, result) -> None:
    tracer.counts["codegen.queries"] += 1
    _count_ir(tracer, args, result)


def _count_backend(tracer, args, result) -> None:
    tracer.counts["backend.modules_compiled"] += 1
    _, program, region = args[:3]
    if region is CodeRegion.QUERY:  # compiled last: the program is whole
        tracer.counts["backend.machine_instructions"] += len(program.code)


def _count_translation(key):
    def count(tracer, args, result) -> None:
        tracer.counts[key + ".calls"] += 1
        tracer.counts[key + ".source_lines"] += result.source.count("\n") + 1
    return count


def _count_attribute(tracer, args, result) -> None:
    tracer.counts["profiling.samples"] += 1


_AFTER = {
    ("repro.codegen.querygen", "generate_query_ir"): _count_query_ir,
    ("repro.codegen.runtime", "build_syslib_module"): _count_ir,
    ("repro.codegen.runtime", "build_runtime_module"): _count_ir,
    ("repro.backend.compiler", "compile_module"): _count_backend,
    ("repro.vm.translate", "translate_program"):
        _count_translation("vm.translate"),
    ("repro.vm.tiering", "translate_program"):
        _count_translation("vm.tiering"),
    ("repro.profiling.postprocess", "SampleProcessor.attribute"):
        _count_attribute,
}


def self_times(spans, phase: str | None = None) -> dict[str, int]:
    """Per span name: the summed duration minus the time child spans
    cover, in ns.  Children of a span run inside its interval and never
    overlap each other (one host thread), so coverage is their sum."""
    child_ns = defaultdict(int)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    out: dict[str, int] = defaultdict(int)
    for index, span in enumerate(spans):
        if phase is not None and span[PHASE] != phase:
            continue
        out[span[NAME]] += span[END] - span[START] - child_ns[index]
    return dict(out)


def inclusive_times(spans, phase: str | None = None) -> dict[str, int]:
    """Per span name: the duration of spans with no same-named ancestor
    (a nested same-named span is already inside its ancestor), in ns."""
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        if phase is not None and span[PHASE] != phase:
            continue
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == span[NAME]:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            out[span[NAME]] += span[END] - span[START]
    return dict(out)


def covered_ns(spans, phase: str) -> int:
    """Host time inside root spans of ``phase``."""
    return sum(
        span[END] - span[START] for span in spans
        if span[PARENT] < 0 and span[PHASE] == phase
    )
