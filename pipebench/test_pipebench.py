"""Self-tests of the pipeline benchmark.

Run from the repository root::

    python3 -m pytest pipebench -q

They check that the correctness gate catches a corrupted table and a
corrupted service output, that per-layer self times plus the
unattributed remainder sum to the traced wall time, and that the
benchmark refuses to run without the source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

common.use_source_tree()


def _table(value):
    from repro.experiments.tables import ExperimentTable

    table = ExperimentTable(experiment_id="fig-5.1", title="t", headers=["b", "x"])
    table.add_row("099.go", value)
    return table


def test_table_digest_mismatch_is_named():
    good = _table(1.5)
    expected = {"fig-5.1": worker.table_digest(good)}
    assert worker.check_tables([good], expected, "cold") == (1, [])
    attempted, bad = worker.check_tables([_table(1.5 + 1e-9)], expected, "cold")
    assert (attempted, bad) == (1, ["cold:fig-5.1:digest"])
    assert worker.check_tables([], expected, "warm") == (1, ["warm:fig-5.1:missing"])


def test_serve_check_counts_wrong_output_and_rejections():
    references = {"p": {"compile": "a", "profile": "b", "annotate": "c"}}
    records = [
        {"round": "cold", "program": "p", "kind": "compile", "digest": "a", "error": None},
        {"round": "cold", "program": "p", "kind": "profile", "digest": "x", "error": None},
        {"round": "warm", "program": "p", "kind": "annotate", "digest": None,
         "error": "queue-full"},
    ]
    attempted, failures = run.check_serve([{"records": records}], references)
    assert attempted == 3
    assert failures == ["pass0:cold:p:profile:output", "pass0:warm:p:annotate:queue-full"]


def test_self_times_and_unattributed_sum_to_wall(tmp_path):
    import repro.core.simulate
    import repro.ilp
    import repro.profiling
    from repro.core import HardwareClassification, PredictionEngine
    from repro.machine import TraceStore
    from repro.predictors import StridePredictor
    from repro.workloads import get_workload

    tracer = tracing.Tracer()
    tracing.install_pipeline_spans(tracer)
    # Looked up through the modules after install: the wrappers replace
    # the names there, as they do for the pipeline's own import sites.
    collect_profile = repro.profiling.collect_profile
    merge_profiles = repro.profiling.merge_profiles
    simulate_prediction_many = repro.core.simulate.simulate_prediction_many
    measure_ilp_many = repro.ilp.measure_ilp_many
    try:
        with tracer.span("pass", "bench"):
            workload = get_workload("124.m88ksim")
            program = workload.compile()
            inputs = workload.test_inputs(scale=common.TABLE_SCALE)
            store = TraceStore(None)
            images = [collect_profile(program, inputs, store=store) for _ in range(2)]
            merge_profiles(images)
            engines = {"fsm": PredictionEngine(program, predictor=StridePredictor(),
                                               scheme=HardwareClassification())}
            simulate_prediction_many(program, inputs, engines, store=store)
            measure_ilp_many(program, inputs, {"novp": None})
    finally:
        tracer.uninstall()
    tracer.run_probes(str(tmp_path))
    doc = {"trace": tracer.to_dict()}
    wall = tracer.nodes[("pass",)].total
    metrics = run.per_layer(doc, wall=wall, mips={"aggregate": 1.0, "programs": {}})
    layers = (metrics["lang.compile_s"] + metrics["machine.exec_s"]
              + metrics["machine.capture_s"] + metrics["machine.replay_s"]
              + metrics["profiling.collect_s"] + metrics["profiling.merge_s"]
              + metrics["annotate.s"] + metrics["core.simulate_s"] + metrics["ilp.s"]
              + metrics["runner.self_s"] + metrics["runner.cache_load_s"]
              + metrics["runner.cache_store_s"] + metrics["service.engine_s"])
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(wall)
    assert metrics["machine.captures"] == 1
    assert metrics["machine.store_hit_ratio"] == pytest.approx(2 / 3)
    assert metrics["ilp.scheduled_instructions"] == metrics["machine.exec_instructions"] > 0
    assert metrics["profiling.profiles"] == 2 and metrics["core.grids"] == 1
    assert 1.0 < metrics["trace.overhead_ratio"] < 1.5
    assert "profiling.collect_profiles" in tracing.render_tree(doc["trace"]["nodes"], wall)


def _run(args, cwd=common.ROOT):
    return subprocess.run([sys.executable, "pipebench/run.py", *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["serve-mix", "predict-warm"])
def test_injected_fault_fails_the_run(workload):
    done = _run(["--workload", workload, "--seed", "2", "--seconds", "1", "--inject-fault"])
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "pipebench: FAILED" in done.stderr


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(["--workload", "paper-cold", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
