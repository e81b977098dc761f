"""End-to-end tests for the profiling-as-a-service daemon.

Covers the issue's acceptance scenario: two tenants with overlapping
jobs against one shared trace store, results byte-identical to the
batch CLI, quotas enforced, streaming delivery, and graceful drain into
a ``RunReport``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cli import main
from repro.runner.retry import RetryPolicy
from repro.service import api
from repro.service.api import (
    AnnotateJob,
    ApiError,
    CompileJob,
    ProfileJob,
    TraceJob,
)
from repro.service.client import ServiceClient
from repro.service.engine import ServiceEngine
from repro.service.server import CHUNK_SIZE, ServiceServer

DEMO_SOURCE = """
int t[8];
void main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 8; i = i + 1) {
        t[i] = in() * 2;
        total = total + t[i];
    }
    out(total);
}
"""

INPUTS_A = "1,2,3,4,5,6,7,8"
INPUTS_B = "8,7,6,5,4,3,2,1"


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- the real daemon against the real engine --------------------------------


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    engine = ServiceEngine(store_dir=tmp_path_factory.mktemp("traces"))
    server = ServiceServer(engine=engine, workers=2)
    thread = server.run_in_thread()
    client = ServiceClient("127.0.0.1", server.port, timeout=120.0)
    yield client
    if server.report is None:
        client.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def batch_artifacts(tmp_path_factory):
    """The batch CLI's outputs for the demo program (the oracle)."""
    directory = tmp_path_factory.mktemp("batch")
    source = directory / "demo.mc"
    source.write_text(DEMO_SOURCE, encoding="utf-8")
    assembly = directory / "demo.asm"
    profile = directory / "demo.profile"
    trace = directory / "demo.trace"
    tagged = directory / "tagged.asm"
    assert main(["compile", str(source), "-o", str(assembly)]) == 0
    assert main(
        ["profile", str(assembly), "--inputs", INPUTS_A, "--inputs", INPUTS_B,
         "-o", str(profile)]
    ) == 0
    assert main(
        ["trace", str(assembly), "--inputs", INPUTS_A, "-o", str(trace)]
    ) == 0
    assert main(
        ["annotate", str(assembly), str(profile), "--threshold", "80",
         "-o", str(tagged)]
    ) == 0
    return {
        "assembly": assembly.read_text(encoding="utf-8"),
        "profile": profile.read_text(encoding="utf-8"),
        "trace": trace.read_text(encoding="utf-8"),
        "tagged": tagged.read_text(encoding="utf-8"),
    }


class TestEndToEnd:
    def test_health_and_stats(self, service):
        health = service.health()
        assert health["ok"] is True
        assert health["schema"] == api.SCHEMA
        stats = service.stats()
        assert stats.state == "serving"
        assert stats.queue_depth >= 1 and stats.tenant_quota >= 1

    def test_two_tenants_overlapping_jobs_match_batch_cli(
        self, service, batch_artifacts
    ):
        """The acceptance scenario: two tenants, one store, byte identity.

        All four jobs are submitted before any result is collected, so
        they overlap in the daemon's queue/workers, and the trace and
        profile jobs share capture work through the one TraceStore.
        """
        assembly = batch_artifacts["assembly"]
        inputs_a = [1, 2, 3, 4, 5, 6, 7, 8]
        inputs_b = [8, 7, 6, 5, 4, 3, 2, 1]
        submitted = [
            ("alice", CompileJob(source=DEMO_SOURCE, name="demo"), "assembly"),
            (
                "alice",
                ProfileJob(
                    program=assembly,
                    name="demo",
                    input_sets=(tuple(inputs_a), tuple(inputs_b)),
                ),
                "profile",
            ),
            ("bob", TraceJob(program=assembly, name="demo",
                             inputs=tuple(inputs_a)), "trace"),
            (
                "bob",
                AnnotateJob(
                    program=assembly,
                    profile=batch_artifacts["profile"],
                    name="demo",
                    accuracy_threshold=80.0,
                ),
                "tagged",
            ),
        ]
        replies = [
            (service.submit(job, tenant=tenant), expected)
            for tenant, job, expected in submitted
        ]
        for reply, expected in replies:
            result = service.result(reply.job_id)
            assert result.state == api.DONE
            assert result.output == batch_artifacts[expected], expected

    def test_result_replayed_from_shared_store(self, service, batch_artifacts):
        """A second tenant's identical trace job replays, byte-identical."""
        job = TraceJob(
            program=batch_artifacts["assembly"], name="demo",
            inputs=(1, 2, 3, 4, 5, 6, 7, 8),
        )
        result = service.run(job, tenant="carol")
        assert result.output == batch_artifacts["trace"]
        assert "trace_key" in result.meta

    def test_streaming_events_reassemble(self, service, batch_artifacts):
        reply = service.submit(
            CompileJob(source=DEMO_SOURCE, name="demo"), tenant="dave"
        )
        events = list(service.stream_result(reply.job_id))
        kinds = [event["event"] for event in events]
        assert kinds[-1] == api.EVENT_END
        assert api.EVENT_CHUNK in kinds
        assert set(kinds) <= {api.EVENT_STATUS, api.EVENT_CHUNK, api.EVENT_END}
        output = "".join(
            event["data"] for event in events if event["event"] == api.EVENT_CHUNK
        )
        assert output == batch_artifacts["assembly"]
        # The end event carries identity + meta, not a duplicate payload.
        end = events[-1]["result"]
        assert end["state"] == api.DONE and end["output"] == ""

    def test_job_status_lifecycle(self, service):
        reply = service.submit(CompileJob(source=DEMO_SOURCE, name="demo"))
        assert reply.state == api.QUEUED
        service.result(reply.job_id)
        status = service.status(reply.job_id)
        assert status.state == api.DONE
        assert status.kind == "compile"
        assert status.attempts == 1
        assert status.error is None

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ApiError) as info:
            service.status("no-such-job")
        assert info.value.code == api.UNKNOWN_JOB
        assert info.value.http_status == 404

    def test_bad_schema_is_400(self, service):
        body = {"schema": "repro-serve/999", "job": {"kind": "compile", "source": "x"}}
        status, payload = service._request("POST", api.JOBS_PATH, body)
        assert status == 400
        assert payload["error"]["code"] == api.BAD_REQUEST

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_is_400(self, service, constant):
        # json.dumps spells these as bare NaN/Infinity tokens, which
        # Python's json.loads would otherwise admit.
        job = api.ExperimentJob(experiment="fig-5.1", scale=float(constant))
        body = api.SubmitRequest(job=job).to_dict()
        before = service.stats()
        status, payload = service._request("POST", api.JOBS_PATH, body)
        assert status == 400
        assert payload["error"]["code"] == api.BAD_REQUEST
        after = service.stats()
        assert (after.queued + after.running + after.finished) == (
            before.queued + before.running + before.finished
        )

    def test_invalid_job_rejected_at_submit(self, service):
        with pytest.raises(ApiError) as info:
            service.submit(CompileJob(source=""))
        assert info.value.code == api.INVALID_JOB

    def test_execution_error_fails_job(self, service, batch_artifacts):
        # The demo program reads eight inputs; an empty stream exhausts it.
        reply = service.submit(
            TraceJob(program=batch_artifacts["assembly"], name="demo", inputs=())
        )
        with pytest.raises(ApiError) as info:
            service.result(reply.job_id)
        assert info.value.code == api.EXECUTION_ERROR
        status = service.status(reply.job_id)
        assert status.state == api.FAILED
        assert status.error is not None
        assert status.error.code == api.EXECUTION_ERROR


# -- admission control and drain, with a controllable engine ----------------


class GatedEngine:
    """A stand-in engine whose jobs block until the test releases them."""

    def __init__(self, retry=None, output="gated-output"):
        self.retry = retry or RetryPolicy()
        self.gate = threading.Event()
        self.output = output
        self.failures = 0
        self.order = []

    def execute(self, job):
        if not self.gate.wait(timeout=30):  # pragma: no cover - test hang guard
            raise RuntimeError("gate never opened")
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("transient fault for the retry test")
        self.order.append(getattr(job, "name", job.KIND))
        return self.output, {"kind": job.KIND}


@pytest.fixture
def gated():
    engine = GatedEngine()
    server = ServiceServer(
        engine=engine, workers=1, queue_depth=2, tenant_quota=2
    )
    thread = server.run_in_thread()
    client = ServiceClient("127.0.0.1", server.port, timeout=60.0)
    yield engine, server, client
    engine.gate.set()
    if server.report is None:
        try:
            client.shutdown()
        except ApiError:
            pass
    thread.join(timeout=30)


JOB = CompileJob(source="void main() { out(1); }", name="tiny")


class TestAdmission:
    def test_tenant_quota_and_queue_depth(self, gated):
        engine, server, client = gated
        first = client.submit(JOB, tenant="alice")
        # The single worker picks the job up and blocks on the gate.
        assert wait_for(lambda: client.status(first.job_id).state == api.RUNNING)
        client.submit(JOB, tenant="alice")
        with pytest.raises(ApiError) as info:
            client.submit(JOB, tenant="alice")
        assert info.value.code == api.QUOTA_EXCEEDED
        assert info.value.http_status == 429
        # Another tenant still gets in (depth: 1 queued of 2)...
        client.submit(JOB, tenant="bob")
        # ...until the queue itself is full.
        with pytest.raises(ApiError) as full:
            client.submit(JOB, tenant="carol")
        assert full.value.code == api.QUEUE_FULL
        stats = client.stats()
        assert stats.tenants == {"alice": 2, "bob": 1}
        engine.gate.set()
        report = client.shutdown()
        assert [entry.status for entry in report.jobs] == ["ok"] * 3

    def test_quota_slot_frees_at_terminal_state(self, gated):
        engine, server, client = gated
        engine.gate.set()
        for _ in range(5):  # quota is 2; sequential jobs never collide
            result = client.run(JOB, tenant="alice")
            assert result.output == "gated-output"

    def test_priority_order(self, gated):
        engine, server, client = gated
        blocker = client.submit(CompileJob(source="s", name="blocker"),
                                tenant="alice")
        assert wait_for(lambda: client.status(blocker.job_id).state == api.RUNNING)
        # Submitted low before high; the single worker must still run
        # high first once the blocker clears.
        low = client.submit(CompileJob(source="s", name="low"),
                            tenant="bob", priority=0)
        high = client.submit(CompileJob(source="s", name="high"),
                             tenant="carol", priority=5)
        engine.gate.set()
        client.result(low.job_id)
        client.result(high.job_id)
        assert engine.order == ["blocker", "high", "low"]


class TestDrain:
    def test_drain_finishes_in_flight_jobs(self, gated):
        engine, server, client = gated
        running = client.submit(JOB, tenant="alice")
        assert wait_for(lambda: client.status(running.job_id).state == api.RUNNING)
        queued = client.submit(JOB, tenant="bob")
        reports = []
        shutdown = threading.Thread(
            target=lambda: reports.append(client.shutdown())
        )
        shutdown.start()
        assert wait_for(lambda: client.health()["state"] == "draining")
        # Draining: no new admissions, but admitted jobs will finish.
        with pytest.raises(ApiError) as info:
            client.submit(JOB, tenant="late")
        assert info.value.code == api.SHUTTING_DOWN
        assert info.value.http_status == 503
        engine.gate.set()
        shutdown.join(timeout=30)
        assert reports, "shutdown never returned"
        report = reports[0]
        assert {entry.job_id for entry in report.jobs} == {
            running.job_id, queued.job_id,
        }
        assert all(entry.status == "ok" for entry in report.jobs)
        assert report.exit_code == 0

    def test_failed_job_lands_in_report(self):
        # A real engine: the broken source fails deterministically, and
        # the drain report must carry the failure and its cause.
        server = ServiceServer(engine=ServiceEngine(), workers=1)
        thread = server.run_in_thread()
        client = ServiceClient("127.0.0.1", server.port, timeout=60.0)
        try:
            reply = client.submit(
                CompileJob(source="int main() {", name="broken"), tenant="alice"
            )
            with pytest.raises(ApiError):
                client.result(reply.job_id)
            report = client.shutdown()
            entry = {e.job_id: e for e in report.jobs}[reply.job_id]
            assert entry.status == "failed"
            assert entry.causes and api.INVALID_JOB in entry.causes[0]
            assert report.exit_code != 0
        finally:
            if server.report is None:
                client.shutdown()
            thread.join(timeout=30)


class TestRetries:
    def test_transient_failure_retried_to_success(self):
        engine = GatedEngine(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.001)
        )
        engine.failures = 1
        engine.gate.set()
        server = ServiceServer(engine=engine, workers=1)
        thread = server.run_in_thread()
        client = ServiceClient("127.0.0.1", server.port, timeout=60.0)
        try:
            reply = client.submit(JOB, tenant="alice")
            result = client.result(reply.job_id)
            assert result.state == api.DONE
            assert client.status(reply.job_id).attempts == 2
            report = client.shutdown()
            assert report.retries == 1
        finally:
            if server.report is None:
                client.shutdown()
            thread.join(timeout=30)


class TestChunking:
    def test_large_output_streams_in_chunks(self):
        output = "x" * (2 * CHUNK_SIZE + 17)
        engine = GatedEngine(output=output)
        engine.gate.set()
        server = ServiceServer(engine=engine, workers=1)
        thread = server.run_in_thread()
        client = ServiceClient("127.0.0.1", server.port, timeout=60.0)
        try:
            reply = client.submit(JOB, tenant="alice")
            events = list(client.stream_result(reply.job_id))
            chunks = [e["data"] for e in events if e["event"] == api.EVENT_CHUNK]
            assert len(chunks) == 3
            assert all(len(chunk) <= CHUNK_SIZE for chunk in chunks)
            assert "".join(chunks) == output
            assert client.result(reply.job_id).output == output
        finally:
            client.shutdown()
            thread.join(timeout=30)
