"""The pipeline benchmark: one command, three workloads.

Usage, from the repository root::

    python3 pipebench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs one
traced pass and prints the per-layer metrics, with the span tree on
stderr.  A human-readable table goes to stderr and the
last line of stdout is one JSON object::

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

Every pass runs in a fresh process (see ``worker.py`` and ``serve.py``)
and the timed phase repeats whole passes until ``--seconds`` of timed
work has been measured, with at least ``MIN_PASSES`` passes.  A table or
service output that differs from its reference is a failed operation;
the command then exits 1.  See ``README.md`` for the workloads, metrics
and how to read the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("paper-cold", "predict-warm", "serve-mix")
MIN_PASSES = {"paper-cold": 1, "predict-warm": 1, "serve-mix": 3}
#: Extra set-up-only processes, so cheap set-ups have three samples.
EXTRA_SETUPS = {"paper-cold": 2, "predict-warm": 1, "serve-mix": 1}
PASS_TIMEOUT_S = 170
MIPS_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
)
#: Job latency percentiles, printed in the summary only (like
#: ``warm_s``): their run-to-run spread on a shared host exceeds any
#: bound the benchmark may set (see README.md).
LATENCIES = (("job_p50_ms", 50), ("job_p90_ms", 90))


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, work: Path, *, setup_only=False, trace_out=None,
             inject_fault=False):
    """Start one pass process; returns (setup seconds, result dict)."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "serve-mix":
        command = [sys.executable, str(common.BENCH_DIR / "serve.py"), "--seed", str(seed)]
    else:
        command = [sys.executable, str(common.BENCH_DIR / "worker.py"),
                   "--workload", workload]
    command += ["--work", str(work)]
    if setup_only:
        command.append("--setup-only")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if inject_fault:
        command.append("--inject-fault")
    started = time.monotonic()
    # A session of its own, so a timeout also stops the daemon of a
    # serve-mix pass.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=str(common.ROOT), env=common.child_env(),
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} pass timed out after {PASS_TIMEOUT_S} s") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines or not lines[0].startswith(common.READY):
        raise PassFailed(f"{workload} pass exited with {process.returncode}")
    setup = float(lines[0].split()[1]) - started
    if setup_only:
        return setup, None
    return setup, json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, work: Path, inject_fault: bool):
    setups, results = [], []
    measured = 0.0
    while len(results) < MIN_PASSES[workload] or measured < seconds:
        setup, result = run_pass(workload, seed, work / f"pass-{len(results)}",
                                 inject_fault=inject_fault)
        shutil.rmtree(work / f"pass-{len(results)}", ignore_errors=True)
        setups.append(setup)
        results.append(result)
        measured += result["wall_s"] + result["warm_s"]
    for index in range(EXTRA_SETUPS[workload]):
        setup, _ = run_pass(workload, seed, work / f"setup-{index}", setup_only=True)
        shutil.rmtree(work / f"setup-{index}", ignore_errors=True)
        setups.append(setup)
    return setups, results


# -- correctness ---------------------------------------------------------------


def serve_references(seed: int):
    """The in-process batch output digest per (program, job kind)."""
    import serve
    from repro.annotate import AnnotationPolicy, annotate_program
    from repro.isa import disassemble
    from repro.lang import compile_source
    from repro.profiling import collect_profile, dumps_profile, loads_profile, merge_profiles

    references = {}
    for name, source, sets in serve.build_pool(seed):
        program = compile_source(source, name=name)
        images = [collect_profile(program, inputs, run_label=f"run-{index}")
                  for index, inputs in enumerate(sets)]
        image = images[0] if len(images) == 1 else merge_profiles(images)
        profile = dumps_profile(image)
        annotated = annotate_program(program, loads_profile(profile), AnnotationPolicy())
        references[name] = {
            "compile": serve.digest(disassemble(program)),
            "profile": serve.digest(profile),
            "annotate": serve.digest(disassemble(annotated)),
        }
    return references


def check_serve(results, references):
    """(attempted, failure names) over every job of every serve pass."""
    attempted = 0
    failures = []
    for index, result in enumerate(results):
        for record in result["records"]:
            attempted += 1
            where = f"pass{index}:{record['round']}:{record['program']}:{record['kind']}"
            if record["error"] is not None:
                failures.append(f"{where}:{record['error']}")
            elif references.get(record["program"], {}).get(record["kind"]) != record["digest"]:
                failures.append(f"{where}:output")
    return attempted, failures


def check_tables(results):
    attempted = sum(result["attempted"] for result in results)
    failures = [f"pass{index}:{name}" for index, result in enumerate(results)
                for name in result["mismatches"]]
    return attempted, failures


# -- metrics -------------------------------------------------------------------


def job_latencies(workload: str, results):
    if workload == "serve-mix":
        return [record["latency_s"] for result in results for record in result["records"]
                if record["round"] == "cold" and record["latency_s"] is not None]
    return [latency for result in results for latency in result["job_latencies_s"]]


def end_to_end(workload: str, setups, results):
    """(end-to-end metrics, summary-only figures)."""
    latencies = job_latencies(workload, results)
    walls = [result["wall_s"] for result in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median([result["cpu_s"] for result in results]),
        "peak_rss_mb": statistics.median([result["peak_rss_mb"] for result in results]),
        "jobs_per_s": len(latencies) / sum(walls),
    }
    extra = {"warm_s": (statistics.median([result["warm_s"] for result in results]), "s")}
    for name, q in LATENCIES:
        extra[f"{name} ({len(latencies)} jobs)"] = (
            1000.0 * common.percentile(latencies, q), "ms")
    return metrics, extra


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(trace_doc, *, wall, mips, client=None, records=None, vec_grids=0):
    """Every per-layer metric from one traced pass (0 where a layer is idle).

    ``wall`` is the traced wall time the self times are attributed
    against: the pass, or slot-seconds for the daemon's worker threads.
    """
    trace = trace_doc["trace"]
    nodes = trace["nodes"]
    pulls = trace["pulls"]
    counts = trace["counts"]

    def self_of(name):
        return sum(node["self"] for node in nodes if node["path"][-1] == name)

    def total_of(name):
        return sum(node["total"] for node in nodes if node["path"][-1] == name)

    def pull(key, field):
        return pulls.get(key, {}).get(field, 0)

    exec_s = self_of("machine.exec") + self_of("machine.run_program")
    exec_instructions = (pull("live", "records") + pull("live_records", "records")
                         + counts.get("machine.run_program.instructions", 0))
    captures, replays = pull("capture", "n"), pull("replay", "n")
    collect_s = self_of("profiling.collect_profiles")
    simulate_s = self_of("core.simulate_prediction_many")
    ilp_s = self_of("ilp.measure_ilp_many")
    grids = counts.get("core.grids", 0)
    metrics = {
        "lang.compile_s": self_of("lang.compile_source"),
        "lang.compiles": counts.get("lang.compiles", 0),
        "machine.exec_s": exec_s,
        "machine.exec_instructions": exec_instructions,
        "machine.exec_mips": ratio(exec_instructions, exec_s) / 1e6,
        "machine.capture_s": self_of("machine.capture"),
        "machine.captures": captures,
        "machine.replay_s": self_of("machine.replay"),
        "machine.replay_records": pull("replay", "records"),
        "machine.replay_mrec_per_s": ratio(pull("replay", "records"),
                                           self_of("machine.replay")) / 1e6,
        "machine.store_hit_ratio": ratio(replays, replays + captures),
        "profiling.collect_s": collect_s,
        "profiling.profiles": counts.get("profiling.profiles", 0),
        "profiling.records": pull("*@profiling", "records"),
        "profiling.krec_per_s": ratio(pull("*@profiling", "records"), collect_s) / 1e3,
        "profiling.merge_s": self_of("profiling.merge_profiles"),
        "annotate.s": self_of("annotate.annotate_program"),
        "annotate.calls": counts.get("annotate.calls", 0),
        "core.simulate_s": simulate_s,
        "core.grids": grids,
        "core.engine_records": pull("*@core", "weighted"),
        "core.mrec_engine_per_s": ratio(pull("*@core", "weighted"), simulate_s) / 1e6,
        "core.vec_grid_ratio": ratio(vec_grids, grids),
        "ilp.s": ilp_s,
        "ilp.configs": counts.get("ilp.configs", 0),
        "ilp.scheduled_instructions": pull("*@ilp", "weighted"),
        "ilp.minstr_per_s": ratio(pull("*@ilp", "weighted"), ilp_s) / 1e6,
        "runner.execute_s": total_of("runner.execute_graph"),
        "runner.self_s": self_of("runner.execute_graph"),
        "runner.jobs": counts.get("runner.jobs", 0),
        "runner.cache_load_s": self_of("runner.cache_load"),
        "runner.cache_store_s": self_of("runner.cache_store"),
        "runner.cache_hit_ratio": ratio(counts.get("runner.cache_hits", 0),
                                        counts.get("runner.cache_loads", 0)),
        "runner.cache_bytes_written": counts.get("runner.cache_bytes_written", 0),
        "service.engine_s": self_of("service.execute"),
        "service.jobs": counts.get("service.jobs", 0),
    }
    metrics.update(service_metrics(client, records))
    attributed = sum(node["self"] for node in nodes if node["layer"] != "bench")
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - attributed
    # The wrappers time their own bookkeeping, so the untraced wall is
    # the traced wall less that; two separate passes would differ by
    # more host noise than tracing costs.
    own = trace["own_s"] + (client["own_s"] if client is not None else 0.0)
    metrics["trace.overhead_ratio"] = wall / (wall - own)
    from repro.workloads import REGISTRY

    metrics["machine.workload_mips"] = mips["aggregate"]
    for name in REGISTRY.names():
        metrics[f"machine.workload_mips.{name}"] = mips["programs"].get(name, 0.0)
    return metrics


def service_metrics(client, records):
    """Client-side service metrics of a traced serve-mix pass (else zeros)."""
    out = dict.fromkeys(("service.submit_ms", "service.run_ms", "service.overhead_p50_ms",
                         "service.overhead_p90_ms", "service.rejected"), 0.0)
    if client is None:
        return out
    import serve

    submits = [node for node in client["nodes"] if node["path"][-1] == "service.client.submit"]
    done = [record for record in records
            if record["latency_s"] is not None and record["server_s"] is not None]
    overheads = [record["latency_s"] - record["server_s"] for record in done]
    out["service.submit_ms"] = 1000.0 * common.percentile(submits[0]["durations"], 50)
    out["service.run_ms"] = 1000.0 * common.percentile([r["server_s"] for r in done], 50)
    out["service.overhead_p50_ms"] = 1000.0 * common.percentile(overheads, 50)
    out["service.overhead_p90_ms"] = 1000.0 * common.percentile(overheads, 90)
    out["service.rejected"] = sum(1 for record in records
                                  if record["error"] in serve.REJECTIONS)
    return out


def workload_mips():
    """Executor MIPS per workload program, draining its test input alone.

    Each of the 13 workloads' test inputs is drained through
    ``trace_batches`` ``MIPS_REPEATS`` times; the median time counts.
    """
    from repro.machine import trace_batches
    from repro.workloads import REGISTRY

    per_program = {}
    instructions = seconds = 0
    for workload in REGISTRY.all():
        program = workload.compile()
        inputs = workload.test_inputs(scale=common.TABLE_SCALE)
        times = []
        for _ in range(MIPS_REPEATS):
            started = time.perf_counter()
            count = sum(len(batch) for batch in trace_batches(program, inputs))
            times.append(time.perf_counter() - started)
        median = statistics.median(times)
        per_program[workload.name] = count / median / 1e6
        instructions += count
        seconds += median
    return {"aggregate": instructions / seconds / 1e6, "programs": per_program}


def traced_run(workload: str, seed: int, work: Path, inject_fault: bool):
    """One traced pass; returns (results, per-layer metrics)."""
    trace_out = work / "trace.json"
    _, result = run_pass(workload, seed, work / "traced", trace_out=trace_out,
                         inject_fault=inject_fault)
    doc = json.loads(trace_out.read_text())
    mips = workload_mips()
    if workload == "serve-mix":
        metrics = per_layer(doc, wall=result["slots"] * result["session_s"], mips=mips,
                            client=result["client_trace"], records=result["records"])
    else:
        metrics = per_layer(doc, wall=doc["wall_s"], mips=mips, vec_grids=doc["vec_grids"])
    import tracer

    sys.stderr.write(tracer.render_tree(doc["trace"]["nodes"], metrics["trace.wall_s"]) + "\n")
    return [result], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-test: corrupt one table cell or annotate output; "
                        "the run must then fail")
    args = parser.parse_args(argv)
    common.use_source_tree()

    work = common.WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            results, metrics = traced_run(args.workload, args.seed, work, args.inject_fault)
            units, extra = {}, {}
        else:
            setups, results = run_passes(args.workload, args.seed, args.seconds, work,
                                         args.inject_fault)
            metrics, extra = end_to_end(args.workload, setups, results)
            units = dict(END_TO_END)
        if args.workload == "serve-mix":
            attempted, failures = check_serve(results, serve_references(args.seed))
        else:
            attempted, failures = check_tables(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK.rmdir()
        except OSError:
            pass

    for failure in failures:
        print(f"pipebench: FAILED {failure}", file=sys.stderr)
    print(f"pipebench: {args.workload} seed={args.seed} passes={len(results)} "
          f"error_rate={len(failures) / attempted:.4f} ({len(failures)}/{attempted} ops)",
          file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units.get(name, layer_unit(name))}",
              file=sys.stderr)
    for name, (value, unit) in extra.items():
        print(f"  {name:<40} {value:>16.6g} {unit} (not a BENCHMARK.json metric)",
              file=sys.stderr)
    common.emit({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    })
    return 1 if failures else 0


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("krec_per_s", "krec/s"), ("mrec_per_s", "Mrec/s"),
                         ("mrec_engine_per_s", "Mrec/s"), ("minstr_per_s", "Minstr/s"),
                         ("_s", "s"), (".s", "s"), ("_ratio", "ratio"), ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "MIPS" if "mips" in name else "count"


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (PassFailed, OSError, subprocess.SubprocessError) as error:
        print(f"pipebench: {error}", file=sys.stderr)
        raise SystemExit(2)
