"""Job execution against the service's shared stores.

One :class:`ServiceEngine` owns what every tenant shares: the
content-addressed :class:`~repro.machine.TraceStore` (capture a trace
once, every later job replays it), the on-disk
:class:`~repro.runner.cache.ArtifactCache`, and the
:class:`~repro.runner.retry.RetryPolicy` under which jobs re-run.

The ``run_<kind>`` methods are generated from
:data:`repro.operations.OPERATIONS`: each calls the operation's own
``run`` with the engine's shared trace store, the very code the batch
CLI runs with no store, so a service
:class:`~repro.service.api.JobResult` ``output`` is byte-identical to
the bytes ``python -m repro compile/trace/profile/...`` would have
produced.  The pinned-digest tests and the CI smoke job assert this.

Experiment jobs genuinely multiplex onto the fault-tolerant runner:
the job graph is built by :func:`repro.runner.build_experiment_graph`
and executed by :func:`repro.runner.executor.execute_graph` under the
engine's retry policy, and the run's
:class:`~repro.runner.retry.RunReport` rides back in the result meta.

Execution happens on worker threads (the server calls :meth:`execute`
through an executor), so everything here is thread-safe: the trace
store locks its LRU, experiment contexts are created under a lock, and
per-kind telemetry uses the registry's monotonic instruments.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..lang import CompileError
from ..machine import ExecutionError, TraceStore
from ..operations import OPERATIONS, Operation
from ..profiling import ProfileFormatError
from ..runner.cache import ArtifactCache
from ..runner.retry import RetryPolicy
from ..telemetry import get_registry
from .api import EXECUTION_ERROR, INVALID_JOB, ApiError, ExperimentJob, Job

#: Exceptions that mean the *job* is wrong, not the server — never retried.
_JOB_FAULTS = (CompileError, ProfileFormatError, SyntaxError, ValueError, KeyError)


class ServiceEngine:
    """Executes decoded jobs against the shared tenant-wide resources.

    Args:
        store_dir: on-disk root for the shared trace store (``None``
            keeps traces memory-only).
        cache_dir: on-disk root for the shared artifact cache used by
            experiment jobs (``None`` disables it).
        retry: policy under which the server re-runs failed attempts.
    """

    def __init__(
        self,
        store_dir: Optional[Path] = None,
        cache_dir: Optional[Path] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.store_dir = Path(store_dir) if store_dir else None
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.retry = retry or RetryPolicy()
        self.traces = TraceStore(self.store_dir)
        self.artifacts = ArtifactCache(self.cache_dir) if self.cache_dir else None
        self._contexts: Dict[Tuple[float, int], Any] = {}
        self._context_lock = threading.Lock()

    # -- dispatch ----------------------------------------------------

    def execute(self, job: Job) -> Tuple[str, Dict[str, Any]]:
        """Run one job; returns ``(output text, meta)``.

        Dispatches to ``self.run_<kind>``, looked up at call time.
        Raises :class:`ApiError` — ``invalid-job`` for payloads that can
        never succeed (never retried by the server), ``execution-error``
        for runs the machine terminated.  Any other exception is a
        transient server-side failure eligible for retry.
        """
        telemetry = get_registry()
        started = time.perf_counter()
        try:
            result = getattr(self, f"run_{job.KIND}")(job)
        except ApiError:
            telemetry.counter("serve.jobs_failed").add(1)
            raise
        except ExecutionError as error:
            telemetry.counter("serve.jobs_failed").add(1)
            raise ApiError(EXECUTION_ERROR, f"{type(error).__name__}: {error}") from error
        except _JOB_FAULTS as error:
            telemetry.counter("serve.jobs_failed").add(1)
            raise ApiError(INVALID_JOB, f"{type(error).__name__}: {error}") from error
        finally:
            elapsed = time.perf_counter() - started
            telemetry.timer("serve.job_latency").add(elapsed)
            telemetry.timer(f"serve.job.{job.KIND}").add(elapsed)
        telemetry.counter("serve.jobs").add(1)
        return result

    # -- experiment jobs run on the engine's own fault-tolerant runner ----

    def run_experiment(self, job: ExperimentJob) -> Tuple[str, Dict[str, Any]]:
        from ..experiments.runner import EXPERIMENTS
        from ..runner import build_experiment_graph
        from ..runner.executor import execute_graph

        if job.experiment not in EXPERIMENTS:
            raise ApiError(
                INVALID_JOB,
                f"unknown experiment {job.experiment!r} "
                "(see `python -m repro experiments list`)",
            )
        context = self._context(job.scale, job.training_runs)
        graph = build_experiment_graph([job.experiment], context)
        outcome = execute_graph(graph, context, jobs=1, retry=self.retry)
        table = outcome.tables.get(job.experiment)
        meta: Dict[str, Any] = {}
        if outcome.report is not None:
            meta["run_report"] = outcome.report.to_dict()
        if table is None:
            causes = [
                cause
                for entry in (outcome.report.failed if outcome.report else [])
                for cause in entry.causes
            ]
            detail = causes[-1] if causes else "experiment produced no table"
            raise ApiError(EXECUTION_ERROR, detail)
        meta["tsv"] = table.to_tsv()
        return table.format(), meta

    def _context(self, scale: float, training_runs: int):
        """One memoizing :class:`ExperimentContext` per (scale, runs) pair.

        All contexts share the engine's trace store and artifact cache,
        so every tenant's experiment jobs replay each other's traces.
        """
        from ..experiments.context import ExperimentContext

        key = (scale, training_runs)
        with self._context_lock:
            context = self._contexts.get(key)
            if context is None:
                context = ExperimentContext(
                    scale=scale,
                    training_runs=training_runs,
                    cache_dir=self.cache_dir,
                )
                context.traces = self.traces
                self._contexts[key] = context
            return context


def _run_on_shared_store(operation: Operation):
    def run(self: ServiceEngine, job: Job) -> Tuple[str, Dict[str, Any]]:
        return operation.run(job, self.traces)

    run.__name__ = f"run_{operation.name}"
    run.__qualname__ = f"ServiceEngine.{run.__name__}"
    run.__doc__ = operation.doc
    return run


# One ``run_<kind>`` method per operation in the table: the daemon runs
# exactly what the batch CLI runs, against the tenant-wide TraceStore.
for _operation in OPERATIONS.values():
    if _operation.run is not None:
        setattr(ServiceEngine, f"run_{_operation.name}", _run_on_shared_store(_operation))


__all__ = ["ServiceEngine"]
