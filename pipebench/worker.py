"""One pass of a table workload, in a fresh process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 pipebench/worker.py --workload paper-cold --work DIR [--setup-only]
        [--trace-out FILE] [--inject-fault]

The pass sets up (imports, compiles the 13 workloads, generates their
pinned input sets and, for ``predict-warm``, profiles and merges every
training run into a fresh artifact cache), prints the ready line, runs
the workload's tables once on a fresh ``ExperimentContext`` (the timed
phase) and then reruns them on the populated cache.  It checks every
table's TSV digest against ``digests.json`` and prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

TABLES = {
    "paper-cold": ("table-2.1", "table-5.2", "fig-5.1"),
    "predict-warm": ("fig-5.1", "fig-5.3", "table-5.1"),
}
PREWARM = {"paper-cold": False, "predict-warm": True}
WARM_REPEATS = 3
_JOB_LINE = re.compile(r"^\[\s*\d+/\d+\]")


class JobStamps(io.TextIOBase):
    """Progress stream that keeps the moment each engine job finished."""

    def __init__(self) -> None:
        self.stamps = []

    def write(self, text: str) -> int:
        if _JOB_LINE.match(text):
            self.stamps.append(time.perf_counter())
        return len(text)


def table_digest(table) -> str:
    return hashlib.sha256(table.to_tsv().encode("utf-8")).hexdigest()


def check_tables(tables, expected, phase: str):
    """(attempted, mismatch names) for one run's tables against references."""
    produced = {table.experiment_id: table for table in tables}
    mismatches = []
    for name in expected:
        table = produced.get(name)
        if table is None:
            mismatches.append(f"{phase}:{name}:missing")
        elif table_digest(table) != expected[name]:
            mismatches.append(f"{phase}:{name}:digest")
    return len(expected), mismatches


def inject_fault(first_table: str) -> None:
    """Perturb one numeric cell of ``first_table`` as it is built."""
    from repro.experiments.tables import ExperimentTable

    original = ExperimentTable.add_row

    def add_row(self, *cells):
        if self.experiment_id == first_table and not self.rows:
            cells = (cells[0], cells[1] + 1e-9) + tuple(cells[2:])
        return original(self, *cells)

    ExperimentTable.add_row = add_row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(TABLES), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    common.use_source_tree()
    work = Path(args.work)
    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import run_experiments
    from repro.workloads import REGISTRY, TABLE_4_1_NAMES, TRAINING_RUNS

    names = TABLES[args.workload]
    expected = json.loads(common.DIGESTS.read_text())["tables"]
    expected = {name: expected[name] for name in names}
    if tracer is not None:
        from repro.telemetry import Telemetry, set_registry

        registry = Telemetry()
        set_registry(registry)
        tracing.install_pipeline_spans(tracer)
        root = tracer.span("pass", "bench")
        root.__enter__()

    def phase(name):
        return tracer.span(name, "bench") if tracer is not None else contextlib.nullcontext()

    cache = work / "cache"
    with phase("setup"):
        # Set-up covers compiling and input generation.  Compiled
        # programs are memoized; inputs are regenerated on demand by the
        # engine, so building them here only puts their cost in set-up.
        for workload in REGISTRY.all():
            workload.compile()
            for index in range(TRAINING_RUNS + 1):
                workload.input_set(index, scale=common.TABLE_SCALE)
        if PREWARM[args.workload]:
            context = ExperimentContext(scale=common.TABLE_SCALE, cache_dir=cache)
            for name in TABLE_4_1_NAMES:
                context.merged_profile(name)
    common.signal_ready()
    if args.setup_only:
        return 0
    if args.inject_fault:
        inject_fault(names[0])

    attempted = 0
    mismatches = []
    with phase("cold"):
        context = ExperimentContext(scale=common.TABLE_SCALE, cache_dir=cache)
        progress = JobStamps()
        cpu_started = common.cpu_seconds()
        cold_started = time.perf_counter()
        tables = run_experiments(list(names), context, stream=io.StringIO(),
                                 progress=progress)
        wall = time.perf_counter() - cold_started
        cpu = common.cpu_seconds() - cpu_started
    count, bad = check_tables(tables, expected, "cold")
    attempted += count
    mismatches += bad
    warm = []
    with phase("warm"):
        for _ in range(WARM_REPEATS):
            context = ExperimentContext(scale=common.TABLE_SCALE, cache_dir=cache)
            started = time.perf_counter()
            tables = run_experiments(list(names), context, stream=io.StringIO())
            warm.append(time.perf_counter() - started)
            count, bad = check_tables(tables, expected, "warm")
            attempted += count
            mismatches += bad
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "warm_s": statistics.median(warm),
        "peak_rss_mb": common.peak_rss_mb(),
        "job_latencies_s": common.diffs(cold_started, progress.stamps),
        "attempted": attempted,
        "mismatches": mismatches,
    }
    if tracer is not None:
        root.__exit__(None, None, None)
        tracer.uninstall()
        tracer.run_probes(str(work / "probes"))
        counters = registry.snapshot()["counters"]
        Path(args.trace_out).write_text(json.dumps({
            "trace": tracer.to_dict(),
            "wall_s": tracer.nodes[("pass",)].total,
            "vec_grids": counters.get("simulate.vec.runs", 0),
        }))
    common.emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
