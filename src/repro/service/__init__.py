"""Profiling-as-a-service: the daemon behind ``python -m repro serve``.

The paper's central economy is *profile once, reuse the result*; this
package is that economy as a long-running service.  One process owns a
shared :class:`~repro.machine.TraceStore` and artifact cache, accepts
compile/trace/profile/annotate/classify/experiment jobs from many
tenants over HTTP, and multiplexes them onto the fault-tolerant runner.

Layering — each operation is declared once, below this package:

* :mod:`repro.operations` — one declaration per job kind (typed
  parameters with defaults, bounds and CLI flags, plus ``run``) and the
  error taxonomy.  The batch CLI sits on it directly; everything here
  derives from it.
* :mod:`repro.service.api` — the wire contract (schema
  ``repro-serve/1``): the job classes generated from the operation
  table, envelopes, job states and error codes.  The server, the client
  library and the CLI all import their types from here.
* :mod:`repro.service.queue` — the priority job queue with per-tenant
  admission quotas.
* :mod:`repro.service.engine` — runs one job against the shared stores
  through the operation's own ``run`` (a ``run_<kind>`` method per
  operation), byte-identical to the equivalent batch CLI invocation.
* :mod:`repro.service.server` — the stdlib-asyncio HTTP daemon:
  streaming (chunked) result delivery and graceful drain into a
  :class:`~repro.runner.retry.RunReport`.
* :mod:`repro.service.client` — the synchronous client library used by
  ``python -m repro client``.
* :mod:`repro.service.cli` — ``repro serve`` and ``repro client``; the
  client's job subcommands are the operations' own CLI arguments.
"""

from .api import (
    SCHEMA,
    AnnotateJob,
    ApiError,
    ClassifyJob,
    CompileJob,
    ErrorInfo,
    ExperimentJob,
    FuseJob,
    JobResult,
    JobStatus,
    ProfileJob,
    SubmitReply,
    SubmitRequest,
    TraceJob,
)
from .client import ServiceClient
from .server import ServiceServer

__all__ = [
    "SCHEMA",
    "AnnotateJob",
    "ApiError",
    "ClassifyJob",
    "CompileJob",
    "ErrorInfo",
    "ExperimentJob",
    "FuseJob",
    "JobResult",
    "JobStatus",
    "ProfileJob",
    "ServiceClient",
    "ServiceServer",
    "SubmitReply",
    "SubmitRequest",
    "TraceJob",
]
