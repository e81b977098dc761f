"""The service wire contract (schema ``repro-serve/1``).

Everything that crosses the HTTP boundary is defined here, once: the
submission envelope, job states and status/result shapes, plus the job
payloads and the error taxonomy, re-exported from
:mod:`repro.operations`, where each job kind is declared once for every
surface.  The server handlers (:mod:`repro.service.server`),
the client library (:mod:`repro.service.client`) and the ``repro
client`` CLI (:mod:`repro.service.cli`) all import these types rather
than hand-rolling dictionaries, so the wire protocol, the Python API
and the CLI cannot drift apart.

Design rules:

* Payloads are text, in the repo's existing on-disk formats — mini-C
  source, textual assembly, ``# repro-profile-image v1`` images,
  ``# repro-trace v1`` traces.  A service result is therefore
  byte-comparable to the equivalent batch CLI output.
* Every envelope carries ``"schema": "repro-serve/1"``; decoding
  rejects unknown schemas up front instead of failing deep in a
  handler.
* Errors are closed-vocabulary: an :class:`ApiError` carries one of
  :data:`ERROR_CODES`, each with a fixed HTTP status
  (:data:`HTTP_STATUS`).  Clients can switch on the code without
  parsing prose.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional, Union

from ..operations import (
    BAD_REQUEST,
    ERROR_CODES,
    EXECUTION_ERROR,
    HTTP_STATUS,
    INTERNAL_ERROR,
    INVALID_JOB,
    OPERATIONS,
    QUEUE_FULL,
    QUOTA_EXCEEDED,
    SHUTTING_DOWN,
    UNKNOWN_JOB,
    ApiError,
    ErrorInfo,
)

#: Version tag carried by every request and response envelope.
SCHEMA = "repro-serve/1"

# -- job states -------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state a job can be observed in, in lifecycle order.
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

# -- error taxonomy and job payloads ---------------------------------------
#
# Both are shared with the batch CLI, so they live one layer down in
# :mod:`repro.operations`: the error vocabulary, and the one declaration
# per operation that the job classes, their ``to_dict``/``from_dict`` and
# the CLI arguments are generated from.

CompileJob = OPERATIONS["compile"].job
TraceJob = OPERATIONS["trace"].job
ProfileJob = OPERATIONS["profile"].job
AnnotateJob = OPERATIONS["annotate"].job
ExperimentJob = OPERATIONS["experiment"].job
FuseJob = OPERATIONS["fuse"].job
ClassifyJob = OPERATIONS["classify"].job

Job = Union[tuple(operation.job for operation in OPERATIONS.values())]

#: The closed set of job kinds the service accepts.
JOB_KINDS = tuple(OPERATIONS)


def job_from_dict(payload: Any) -> Job:
    """Decode one job payload; raises :class:`ApiError` on anything off."""
    if not isinstance(payload, dict):
        raise ApiError(BAD_REQUEST, "job payload must be an object")
    kind = payload.get("kind")
    operation = OPERATIONS.get(kind) if isinstance(kind, str) else None
    if operation is None:
        raise ApiError(
            INVALID_JOB,
            f"unknown job kind {kind!r} (expected one of {', '.join(JOB_KINDS)})",
        )
    return operation.decode(payload)


def job_digest(job: Job) -> str:
    """SHA-256 content digest of a job's canonical JSON form."""
    canonical = json.dumps(job.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- endpoints --------------------------------------------------------------

HEALTH_PATH = "/v1/health"
STATS_PATH = "/v1/stats"
JOBS_PATH = "/v1/jobs"
SHUTDOWN_PATH = "/v1/shutdown"


def job_path(job_id: str) -> str:
    return f"{JOBS_PATH}/{job_id}"


def result_path(job_id: str) -> str:
    return f"{JOBS_PATH}/{job_id}/result"


# -- envelopes --------------------------------------------------------------

DEFAULT_TENANT = "default"


@dataclasses.dataclass(frozen=True)
class SubmitRequest:
    """``POST /v1/jobs`` body: one job plus its admission metadata."""

    job: Job
    tenant: str = DEFAULT_TENANT
    priority: int = 0

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "tenant": self.tenant,
            "priority": self.priority,
            "job": self.job.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "SubmitRequest":
        if not isinstance(payload, dict):
            raise ApiError(BAD_REQUEST, "submit body must be a JSON object")
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise ApiError(
                BAD_REQUEST, f"unsupported schema {schema!r} (expected {SCHEMA!r})"
            )
        tenant = payload.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise ApiError(BAD_REQUEST, "tenant must be a non-empty string")
        priority = payload.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ApiError(BAD_REQUEST, "priority must be an integer")
        return cls(
            job=job_from_dict(payload.get("job")), tenant=tenant, priority=priority
        )


class _Envelope:
    """A response envelope: its fields, plus the schema tag, as JSON.

    ``error`` fields travel as :class:`ErrorInfo` objects; every other
    field is JSON as it stands.
    """

    def to_dict(self) -> dict:
        payload: Dict[str, Any] = {"schema": SCHEMA}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            payload[field.name] = value.to_dict() if isinstance(value, ErrorInfo) else value
        return payload

    @classmethod
    def from_dict(cls, payload: dict):
        values = {
            field.name: payload[field.name]
            for field in dataclasses.fields(cls)
            if field.name in payload
        }
        if values.get("error"):
            values["error"] = ErrorInfo.from_dict(values["error"])
        return cls(**values)


@dataclasses.dataclass(frozen=True)
class SubmitReply(_Envelope):
    """``POST /v1/jobs`` response: the admitted job's identity."""

    job_id: str
    state: str
    position: int


@dataclasses.dataclass(frozen=True)
class JobStatus(_Envelope):
    """``GET /v1/jobs/<id>`` response: where one job is in its lifecycle."""

    job_id: str
    kind: str
    tenant: str
    state: str
    priority: int = 0
    attempts: int = 0
    seconds: float = 0.0
    error: Optional[ErrorInfo] = None


@dataclasses.dataclass(frozen=True)
class JobResult(_Envelope):
    """The terminal outcome of one job.

    ``output`` is the job's primary artifact as text — exactly the bytes
    the equivalent batch CLI command would have produced on stdout (or
    written with ``-o``).  ``meta`` carries the side-channel facts the
    CLI prints to stderr (instruction counts, annotation tallies, the
    experiment ``RunReport``), keyed per job kind.
    """

    job_id: str
    kind: str
    state: str
    output: str = ""
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)
    error: Optional[ErrorInfo] = None


@dataclasses.dataclass(frozen=True)
class ServerStats(_Envelope):
    """``GET /v1/stats`` response: one queue/tenant snapshot."""

    state: str
    queued: int
    running: int
    finished: int
    tenants: Dict[str, int]
    queue_depth: int
    tenant_quota: int


#: Result-stream event names (``GET /v1/jobs/<id>/result`` ndjson lines).
EVENT_STATUS = "status"
EVENT_CHUNK = "chunk"
EVENT_END = "end"
EVENT_ERROR = "error"


__all__ = [
    "ApiError",
    "AnnotateJob",
    "BAD_REQUEST",
    "CANCELLED",
    "ClassifyJob",
    "CompileJob",
    "DEFAULT_TENANT",
    "DONE",
    "ERROR_CODES",
    "EVENT_CHUNK",
    "EVENT_END",
    "EVENT_ERROR",
    "EVENT_STATUS",
    "EXECUTION_ERROR",
    "ErrorInfo",
    "ExperimentJob",
    "FAILED",
    "FuseJob",
    "HEALTH_PATH",
    "HTTP_STATUS",
    "INTERNAL_ERROR",
    "INVALID_JOB",
    "JOBS_PATH",
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobResult",
    "JobStatus",
    "ProfileJob",
    "QUEUED",
    "QUEUE_FULL",
    "QUOTA_EXCEEDED",
    "RUNNING",
    "SCHEMA",
    "SHUTDOWN_PATH",
    "SHUTTING_DOWN",
    "STATS_PATH",
    "ServerStats",
    "SubmitReply",
    "SubmitRequest",
    "TERMINAL_STATES",
    "TraceJob",
    "UNKNOWN_JOB",
    "job_digest",
    "job_from_dict",
    "job_path",
    "result_path",
]
