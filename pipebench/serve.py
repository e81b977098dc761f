"""One pass of the ``serve-mix`` workload, in a fresh process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 pipebench/serve.py --seed N --work DIR [--setup-only]
        [--trace-out FILE] [--inject-fault]

Set-up imports the toolchain, builds the seeded program pool (the 13
workloads plus ``CORPUS_PROGRAMS`` programs from ``generate_corpus``,
each with its first ``TRAINING_SETS`` training input sets), starts
``repro serve --no-cache --workers 2`` in its own process and waits for
``/v1/health``.  Then ``CLIENTS`` client threads run a closed loop:
each takes the next program of a seeded order and runs compile ->
profile -> annotate through the service, waiting for each result
before the next request.  The cold round visits every program once
against the daemon's empty trace store; the warm round visits them all
again in another seeded order, so every profile job replays its trace.
The pass prints one JSON object with timings and the SHA-256 of every
job output; ``run.py`` compares those with the in-process batch path.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

CORPUS_PROGRAMS = 19
TRAINING_SETS = 1
CORPUS_SCALE = 1.0
CLIENTS = 2
WORKERS = 2
KINDS = ("compile", "profile", "annotate")
#: Error codes a loaded service answers with instead of doing the work.
REJECTIONS = ("quota-exceeded", "queue-full", "shutting-down")


def build_pool(seed: int):
    """The seeded program pool: ``[(name, source, input_sets)]``."""
    from repro.workloads import REGISTRY
    from repro.workloads.corpus import generate_corpus

    pool = []
    for workload in REGISTRY.all():
        sets = [workload.input_set(index, scale=common.TABLE_SCALE)
                for index in range(TRAINING_SETS)]
        pool.append((workload.name, workload.source, sets))
    for workload in generate_corpus(seed, CORPUS_PROGRAMS, name_prefix="bench"):
        sets = [workload.input_set(index, scale=CORPUS_SCALE)
                for index in range(TRAINING_SETS)]
        pool.append((workload.name, workload.source, sets))
    return pool


def round_order(pool, seed: int, round_index: int):
    order = list(pool)
    random.Random(seed * 1000 + round_index).shuffle(order)
    return order


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Session:
    """The client side of one pass: a closed loop over a program order."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.lock = threading.Lock()
        self.records = []

    def run_round(self, label: str, order) -> float:
        queue = collections.deque(order)
        errors = []

        def client_loop() -> None:
            from repro.service import ServiceClient

            client = ServiceClient("127.0.0.1", self.port, timeout=120.0)
            while True:
                with self.lock:
                    if not queue:
                        return
                    program = queue.popleft()
                try:
                    self.run_loop(client, label, program)
                except Exception as error:  # recorded, then the loop goes on
                    errors.append(f"{type(error).__name__}: {error}")

        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        for error in errors:
            self.record(label, "?", "loop", None, None, None, error)
        return elapsed

    def run_loop(self, client, label: str, program) -> None:
        from repro.service import AnnotateJob, CompileJob, ProfileJob

        name, source, sets = program
        asm = self.job(client, label, name, "compile", CompileJob(source=source, name=name))
        if asm is None:
            for kind in KINDS[1:]:
                self.record(label, name, kind, None, None, None, "skipped")
            return
        profile = self.job(client, label, name, "profile", ProfileJob(
            program=asm, name=name, input_sets=tuple(tuple(s) for s in sets)))
        if profile is None:
            self.record(label, name, "annotate", None, None, None, "skipped")
            return
        self.job(client, label, name, "annotate",
                 AnnotateJob(program=asm, profile=profile, name=name))

    def job(self, client, label, name, kind, payload):
        from repro.service.api import ApiError

        started = time.perf_counter()
        try:
            reply = client.submit(payload)
            result = client.result(reply.job_id)
        except ApiError as error:
            self.record(label, name, kind, None, None, None, error.code)
            return None
        latency = time.perf_counter() - started
        self.record(label, name, kind, latency, reply.job_id, digest(result.output), None)
        return result.output

    def record(self, label, name, kind, latency, job_id, output_digest, error) -> None:
        with self.lock:
            self.records.append({
                "round": label, "program": name, "kind": kind, "latency_s": latency,
                "job_id": job_id, "digest": output_digest, "error": error,
            })


def start_daemon(args, log_lines):
    command = [sys.executable, str(common.BENCH_DIR / "daemon.py")]
    if args.trace_out:
        command += ["--trace-out", args.trace_out, "--work", args.work]
    if args.inject_fault:
        command.append("--inject-fault")
    command += ["--", "--host", "127.0.0.1", "--port", "0", "--no-cache",
                "--workers", str(WORKERS)]
    daemon = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, cwd=str(common.ROOT), env=common.child_env())
    port = None
    for line in daemon.stderr:
        log_lines.append(line)
        if line.startswith("serving on "):
            port = int(line.rsplit(":", 1)[1])
            break
    drain = threading.Thread(target=lambda: log_lines.extend(daemon.stderr), daemon=True)
    drain.start()
    if port is None:
        daemon.wait(timeout=30)
        raise RuntimeError("daemon exited before serving: " + "".join(log_lines)[-2000:])
    return daemon, port, drain


def wait_healthy(port: int, deadline_s: float = 30.0) -> None:
    from repro.service import ServiceClient

    client = ServiceClient("127.0.0.1", port, timeout=5.0)
    deadline = time.perf_counter() + deadline_s
    while True:
        try:
            client.health()
            return
        except OSError:
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.01)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    common.use_source_tree()
    client_tracer = None
    if args.trace_out:
        import tracer as tracing
        from repro.service import ServiceClient

        client_tracer = tracing.Tracer()
        for method in ("submit", "result"):
            client_tracer.patch_method(
                ServiceClient, method,
                client_tracer.spanned(f"service.client.{method}", "client"))
    pool = build_pool(args.seed)
    log_lines = []
    daemon, port, drain = start_daemon(args, log_lines)
    try:
        wait_healthy(port)
        common.signal_ready()
        from repro.service import ServiceClient

        if args.setup_only:
            ServiceClient("127.0.0.1", port, timeout=120.0).shutdown()
            daemon.wait(timeout=120)
            return 0
        session = Session(port)
        cpu_started = common.cpu_seconds()
        daemon_cpu_started = common.proc_cpu_seconds(daemon.pid)
        wall = session.run_round("cold", round_order(pool, args.seed, 0))
        cpu = (common.cpu_seconds() - cpu_started
               + common.proc_cpu_seconds(daemon.pid) - daemon_cpu_started)
        warm = session.run_round("warm", round_order(pool, args.seed, 1))
        peak = common.proc_peak_rss_mb(daemon.pid)
        report = ServiceClient("127.0.0.1", port, timeout=120.0).shutdown()
        code = daemon.wait(timeout=120)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    drain.join(timeout=10)
    if code != 0:
        sys.stderr.write("".join(log_lines)[-4000:])
        raise SystemExit(f"serve-mix: daemon exited with {code}")
    # The drain report carries the server-side seconds of every job.
    server_seconds = {job.job_id: job.seconds for job in report.jobs}
    for record in session.records:
        record["server_s"] = server_seconds.get(record["job_id"])
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "warm_s": warm,
        "peak_rss_mb": peak,
        "session_s": wall + warm,
        "slots": WORKERS,
        "records": session.records,
    }
    if client_tracer is not None:
        result["client_trace"] = client_tracer.to_dict()
    common.emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
