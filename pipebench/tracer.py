"""Span recorder for traced benchmark runs.

The tracer wraps the public entry points of each pipeline layer where
the callers look them up (every ``repro.*`` module namespace holding the
function, or the class attribute for methods) and records a span per
call.  Nothing under ``src/`` is edited and the program's own timers
are never read.

Spans nest per thread.  A node of the span tree aggregates every call
with the same path; its self time is its duration minus the time its
child spans cover.

Layers that feed one another through generators are not timed per
yield.  When a consumer (profiling, simulation, ILP) opens the trace of
one execution, the tracer records a *pull*: the program, the inputs and
whether the trace is executed live, captured into a trace store or
replayed from one.  After the traced run :meth:`Tracer.run_probes`
drains each pull alone on the same inputs and charges the probe time
to a ``machine.*`` child of the consumer, taking it off the consumer's
self time.  The sum of all self times therefore still equals the sum of
the top-level spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

Path_ = Tuple[str, ...]

#: Layer of the synthetic node that carries each pull kind's probe time.
PULL_NODES = {
    "live": "machine.exec",
    "live_records": "machine.exec",
    "capture": "machine.capture",
    "replay": "machine.replay",
}


class Node:
    """All calls that share one span path."""

    __slots__ = ("layer", "calls", "total", "self_s", "durations")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.durations: List[float] = []


class Pull:
    """One trace opened by a consumer; timed later by a probe."""

    __slots__ = ("kind", "path", "program", "inputs", "budget", "store", "weight",
                 "seconds", "records")

    def __init__(self, kind, path, program, inputs, budget, store, weight) -> None:
        self.kind = kind
        self.path = path
        self.program = program
        self.inputs = inputs
        self.budget = budget
        self.store = store
        self.weight = weight
        self.seconds = 0.0
        self.records = 0


class Tracer:
    """Per-thread span stacks, aggregated span nodes and pulls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.nodes: Dict[Path_, Node] = {}
        self.pulls: List[Pull] = []
        self.counts: Dict[str, float] = {}
        #: Seconds the wrappers spent on their own bookkeeping (binding
        #: arguments, span records, extra store lookups): the tracing cost.
        self.own = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        path = (parent[0] + (name,)) if parent else (name,)
        # [path, seconds covered by child spans, weight of pulls made here]
        frame = [path, 0.0, 1]
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if parent is not None:
                parent[1] += elapsed
            with self._lock:
                node = self.nodes.get(path)
                if node is None:
                    node = self.nodes[path] = Node(layer)
                node.calls += 1
                node.total += elapsed
                node.self_s += elapsed - frame[1]
                node.durations.append(elapsed)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def charge(self, seconds: float) -> None:
        with self._lock:
            self.own += seconds

    def pull(self, kind, program, inputs, budget, store=None) -> None:
        stack = self._stack()
        path = stack[-1][0] if stack else ()
        weight = stack[-1][2] if stack else 1
        with self._lock:
            self.pulls.append(Pull(kind, path, program, inputs, budget, store, weight))

    # -- patching -----------------------------------------------------

    def patch_function(self, module_name: str, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` in every ``repro.*`` namespace holding it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def patch_method(self, cls: type, attr: str, make: Callable) -> None:
        original = cls.__dict__[attr]
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spanned(self, name: str, layer: str, before=None, after=None) -> Callable:
        """A wrapper factory: span around each call, optional hooks.

        ``before(arguments)`` sees the bound call arguments and returns
        the span weight (or ``None`` for 1); ``after(arguments, result)``
        sees the result.
        """

        def make(original):
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                entered = time.perf_counter()
                arguments = None
                if before is not None or after is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                with self.span(name, layer):
                    if before is not None:
                        self._stack()[-1][2] = before(arguments) or 1
                    called = time.perf_counter()
                    result = original(*args, **kwargs)
                    returned = time.perf_counter()
                if after is not None:
                    after(arguments, result)
                self.charge(called - entered + time.perf_counter() - returned)
                return result

            return wrapper

        return make

    # -- probes -------------------------------------------------------

    def run_probes(self, probe_dir: str) -> None:
        """Drain every recorded pull alone and charge it to ``machine``.

        Patches must be uninstalled first, so probes run the original
        entry points.  On-disk captures are re-made under ``probe_dir``.
        """
        for index, pull in enumerate(self.pulls):
            pull.records, pull.seconds = _probe(pull, f"{probe_dir}/{index}")
        for pull in self.pulls:
            child = pull.path + (PULL_NODES[pull.kind],)
            node = self.nodes.get(child)
            if node is None:
                node = self.nodes[child] = Node("machine")
            node.calls += 1
            node.total += pull.seconds
            node.self_s += pull.seconds
            if pull.path in self.nodes:
                self.nodes[pull.path].self_s -= pull.seconds

    # -- reporting ----------------------------------------------------

    def pull_totals(self) -> Dict[str, Dict[str, float]]:
        """Seconds, records and weighted records per pull kind (``live``,
        ``capture``, ...) and per consumer layer (``*@ilp``, ...)."""
        out: Dict[str, Dict[str, float]] = {}
        for pull in self.pulls:
            consumer = self.nodes[pull.path].layer if pull.path in self.nodes else "bench"
            for key in (pull.kind, f"*@{consumer}"):
                entry = out.setdefault(key, {"n": 0, "seconds": 0.0, "records": 0,
                                             "weighted": 0})
                entry["n"] += 1
                entry["seconds"] += pull.seconds
                entry["records"] += pull.records
                entry["weighted"] += pull.records * pull.weight
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "nodes": [
                {
                    "path": list(path),
                    "layer": node.layer,
                    "calls": node.calls,
                    "total": node.total,
                    "self": node.self_s,
                    "durations": node.durations,
                }
                for path, node in self.nodes.items()
            ],
            "pulls": self.pull_totals(),
            "counts": dict(self.counts),
            "own_s": self.own,
        }


def _probe(pull: Pull, directory: str) -> Tuple[int, float]:
    """Drain one pull's trace alone; returns (records, seconds)."""
    from repro.machine import ExecutionError, TraceStore, trace_batches, trace_program

    records = 0
    if pull.kind == "replay":
        store = pull.store
        packed = store.fetch(pull.program, pull.inputs, pull.budget)
        if packed is None:
            # Evicted from a memory-only store: capture again, untimed.
            store = TraceStore(None)
            for _batch in store.batches(pull.program, pull.inputs, pull.budget):
                pass
            packed = store.fetch(pull.program, pull.inputs, pull.budget)
        # The consumer reads every record's value slot, so the rate is
        # records read, not batch wrappers built.
        started = time.perf_counter()
        for batch in packed.replay(pull.program):
            records += len(batch.record_values())
        return records, time.perf_counter() - started
    started = time.perf_counter()
    try:
        if pull.kind == "live":
            for batch in trace_batches(pull.program, pull.inputs, pull.budget):
                records += len(batch)
        elif pull.kind == "live_records":
            for _record in trace_program(pull.program, pull.inputs, pull.budget):
                records += 1
        else:
            on_disk = pull.store is not None and pull.store.directory is not None
            fresh = TraceStore(directory if on_disk else None)
            for batch in fresh.batches(pull.program, pull.inputs, pull.budget):
                records += len(batch)
    except ExecutionError:
        pass
    return records, time.perf_counter() - started


def render_tree(nodes: List[Dict[str, Any]], wall: float) -> str:
    """The span tree as indented text: calls, total and self seconds."""
    children: Dict[Path_, List[Dict[str, Any]]] = {}
    for node in nodes:
        path = tuple(node["path"])
        children.setdefault(path[:-1], []).append(node)
    lines = [f"{'span':<58} {'layer':<10} {'calls':>7} {'total_s':>9} {'self_s':>9}"]

    def walk(prefix: Path_, depth: int) -> None:
        for node in sorted(children.get(prefix, []), key=lambda n: -n["total"]):
            path = tuple(node["path"])
            label = ("  " * depth + path[-1])[:58]
            lines.append(
                f"{label:<58} {node['layer']:<10} {node['calls']:>7} "
                f"{node['total']:>9.3f} {node['self']:>9.3f}"
            )
            walk(path, depth + 1)

    walk((), 0)
    lines.append(f"{'(wall)':<58} {'':<10} {'':>7} {wall:>9.3f}")
    return "\n".join(lines)


def install_pipeline_spans(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    import repro.experiments.runner  # noqa: F401  (import sites must exist)
    import repro.runner.executor  # noqa: F401
    import repro.service.engine  # noqa: F401
    from repro.machine import TraceStore
    from repro.runner.cache import ArtifactCache

    def pull_if_live(arguments):
        # Without a store (or stored records) the consumer runs its own
        # Executor, which no wrapper sees.
        if arguments.get("store") is None and arguments.get("records") is None:
            tracer.pull("live", arguments["program"], list(arguments["inputs"]),
                        arguments.get("max_instructions") or _default_budget())

    def count(name):
        return lambda arguments, result: tracer.count(name)

    tracer.patch_function(
        "repro.lang", "compile_source",
        tracer.spanned("lang.compile_source", "lang", after=count("lang.compiles")),
    )

    def after_run(arguments, result):
        tracer.count("machine.run_program.instructions", result.instruction_count)

    tracer.patch_function(
        "repro.machine", "run_program",
        tracer.spanned("machine.run_program", "machine", after=after_run),
    )

    def generator_factory(kind):
        def make(original):
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                entered = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                inputs = list(bound.arguments["inputs"])
                bound.arguments["inputs"] = inputs
                tracer.pull(kind, bound.arguments["program"], inputs,
                            bound.arguments["max_instructions"], None)
                tracer.charge(time.perf_counter() - entered)
                return original(*bound.args, **bound.kwargs)

            return wrapper
        return make

    tracer.patch_function("repro.machine", "trace_batches", generator_factory("live"))
    tracer.patch_function("repro.machine", "trace_program", generator_factory("live_records"))

    def store_batches(original):
        def wrapper(store, program, inputs=(), max_instructions=_default_budget(), **kwargs):
            entered = time.perf_counter()
            inputs = list(inputs)
            hit = store.fetch(program, inputs, max_instructions) is not None
            tracer.pull("replay" if hit else "capture", program, inputs,
                        max_instructions, store)
            tracer.charge(time.perf_counter() - entered)
            return original(store, program, inputs, max_instructions, **kwargs)
        return wrapper

    tracer.patch_method(TraceStore, "batches", store_batches)

    def profiles_before(arguments):
        tracer.count("profiling.profiles")
        pull_if_live(arguments)

    tracer.patch_function(
        "repro.profiling.collector", "collect_profiles",
        tracer.spanned("profiling.collect_profiles", "profiling", before=profiles_before),
    )
    tracer.patch_function(
        "repro.profiling", "merge_profiles",
        tracer.spanned("profiling.merge_profiles", "profiling"),
    )
    tracer.patch_function(
        "repro.annotate", "annotate_program",
        tracer.spanned("annotate.annotate_program", "annotate", after=count("annotate.calls")),
    )

    def simulate_before(arguments):
        tracer.count("core.grids")
        pull_if_live(arguments)
        return len(arguments["engines"])

    tracer.patch_function(
        "repro.core.simulate", "simulate_prediction_many",
        tracer.spanned("core.simulate_prediction_many", "core", before=simulate_before),
    )

    def ilp_before(arguments):
        configs = len(arguments["engines"] or {"baseline": None})
        tracer.count("ilp.configs", configs)
        return configs

    tracer.patch_function(
        "repro.ilp.model", "measure_ilp_many",
        tracer.spanned("ilp.measure_ilp_many", "ilp", before=ilp_before),
    )
    tracer.patch_function(
        "repro.runner.executor", "execute_graph",
        tracer.spanned("runner.execute_graph", "runner",
                       before=lambda a: tracer.count("runner.jobs", len(a["graph"]))),
    )

    def cache_loaded(arguments, result):
        tracer.count("runner.cache_loads")
        if result is not None:
            tracer.count("runner.cache_hits")

    def cache_stored(arguments, result):
        tracer.count("runner.cache_bytes_written", len(arguments["payload"].encode("utf-8")))

    tracer.patch_method(
        ArtifactCache, "load",
        tracer.spanned("runner.cache_load", "runner", after=cache_loaded),
    )
    tracer.patch_method(
        ArtifactCache, "store",
        tracer.spanned("runner.cache_store", "runner", after=cache_stored),
    )
    from repro.service.engine import ServiceEngine

    tracer.patch_method(
        ServiceEngine, "execute",
        tracer.spanned("service.execute", "service", after=count("service.jobs")),
    )


def _default_budget():
    from repro.machine import DEFAULT_BUDGET

    return DEFAULT_BUDGET
