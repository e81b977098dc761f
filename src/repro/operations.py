"""The toolchain operations, each declared once.

The paper's workflow — compile, profile on training inputs, annotate
from the profile — plus trace, fuse, classify and experiment is offered
on three surfaces: the batch CLI (``repro X``), the daemon's
``repro-serve/1`` jobs and the ``repro client X`` CLI.  Each operation
is one :class:`Operation` in :data:`OPERATIONS`: its name, its ordered
typed parameters (default, bounds, CLI spelling) and
``run(job, store) -> (text, meta)``.  Everything else derives from it:

* the wire job classes (``CompileJob`` … ``ClassifyJob``) with their
  ``to_dict``/``from_dict``, re-exported by :mod:`repro.service.api`;
* the arguments of both ``repro X`` and ``repro client X``
  (:meth:`Operation.add_arguments`, :meth:`Operation.job_from_arguments`);
* the daemon's ``ServiceEngine.run_<kind>`` dispatch.

Every parameter of one type shares that type's validator, so the CLI,
the client and the server accept and reject exactly the same jobs.
``run`` is handed the daemon's shared :class:`~repro.machine.TraceStore`,
or ``None`` for a local ``repro compile``/``annotate``/``classify predict``
run.  The local ``trace``, ``profile`` and ``fuse`` commands add
local-only flags and call the shared pieces below (:func:`job_program`,
:func:`profile_images`, :func:`fuse_image`) themselves.

The module sits below both :mod:`repro.cli` and :mod:`repro.service`, so
it also holds the error vocabulary they share (:class:`ApiError`).
"""

from __future__ import annotations

import dataclasses
import glob
import io
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .annotate import AnnotationPolicy, annotate_program, annotation_report
from .isa import Program, assemble, disassemble
from .lang import compile_source
from .machine import DEFAULT_BUDGET, TraceStore, write_trace
from .machine.tracestore import trace_key
from .profiling import (
    MergeAccumulator,
    ProfileImage,
    collect_profile,
    decode_profile_payload,
    dumps_profile,
    encode_profile_payload,
    loads_profile,
    merge_profiles,
)

Number = Union[int, float]

# -- error taxonomy ---------------------------------------------------------

BAD_REQUEST = "bad-request"          # malformed envelope / JSON / schema
INVALID_JOB = "invalid-job"          # well-formed but unexecutable payload
UNKNOWN_JOB = "unknown-job"          # job id the server has never seen
QUOTA_EXCEEDED = "quota-exceeded"    # tenant at its admission quota
QUEUE_FULL = "queue-full"            # global queue depth reached
SHUTTING_DOWN = "shutting-down"      # server is draining; no admissions
EXECUTION_ERROR = "execution-error"  # the job itself failed
INTERNAL_ERROR = "internal-error"    # anything else; a server bug

ERROR_CODES = (
    BAD_REQUEST,
    INVALID_JOB,
    UNKNOWN_JOB,
    QUOTA_EXCEEDED,
    QUEUE_FULL,
    SHUTTING_DOWN,
    EXECUTION_ERROR,
    INTERNAL_ERROR,
)

#: The one HTTP status each error code maps to.
HTTP_STATUS: Dict[str, int] = {
    BAD_REQUEST: 400,
    INVALID_JOB: 400,
    UNKNOWN_JOB: 404,
    QUOTA_EXCEEDED: 429,
    QUEUE_FULL: 429,
    SHUTTING_DOWN: 503,
    EXECUTION_ERROR: 500,
    INTERNAL_ERROR: 500,
}


class ApiError(Exception):
    """A failure with a closed-vocabulary ``code`` and an HTTP status."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            code = INTERNAL_ERROR
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")

    @property
    def http_status(self) -> int:
        return HTTP_STATUS[self.code]

    def to_info(self) -> "ErrorInfo":
        return ErrorInfo(code=self.code, message=self.message)


@dataclasses.dataclass(frozen=True)
class ErrorInfo:
    """The serialized form of an :class:`ApiError`."""

    code: str
    message: str

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_dict(cls, payload: dict) -> "ErrorInfo":
        return cls(
            code=str(payload.get("code", INTERNAL_ERROR)),
            message=str(payload.get("message", "")),
        )

    def raise_(self) -> None:
        raise ApiError(self.code, self.message)


# -- CLI text helpers -------------------------------------------------------


def _parse_number(token: str) -> Number:
    try:
        return int(token)
    except ValueError:
        return float(token)


def parse_inputs_spec(spec: Optional[str]) -> List[Number]:
    """One ``--inputs`` value: ``1,2,3.5`` inline or ``@file`` on disk.

    The single parser behind every ``--inputs`` flag, on ``repro`` and
    ``repro client`` alike, so the spec syntax cannot drift between
    commands.
    """
    if not spec:
        return []
    if spec.startswith("@"):
        text = Path(spec[1:]).read_text(encoding="utf-8")
        return [_parse_number(token) for token in text.split()]
    return [_parse_number(token) for token in spec.split(",") if token]


def parse_input_stream(specs: Sequence[Optional[str]]) -> List[Number]:
    """Repeated ``--inputs`` flags as *one* stream (``run``/``trace``).

    These commands execute the program once, so repeated flags
    concatenate in order; a single flag behaves exactly as before.
    """
    stream: List[Number] = []
    for spec in specs:
        stream.extend(parse_inputs_spec(spec))
    return stream


def parse_input_sets(specs: Sequence[Optional[str]]) -> List[List[Number]]:
    """Repeated ``--inputs`` flags as one stream *each* (``profile``).

    Profiling runs the program once per training stream, so every flag
    stays its own input set.
    """
    return [parse_inputs_spec(spec) for spec in specs]


def write_output(text: str, output: Optional[str]) -> None:
    """An operation's text to ``-o PATH``, or to stdout for none or ``-``."""
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


# -- parameter types --------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _text(value, param):
    if not isinstance(value, str) or not value:
        raise ValueError("a non-empty string")
    return value


def _name(value, param):
    if not isinstance(value, str):
        raise ValueError("a string")
    return value


def _bool(value, param):
    if not isinstance(value, bool):
        raise ValueError("a boolean")
    return value


def _int(value, param):
    if value is None and param.default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value <= param.above:
        nullable = " or null" if param.default is None else ""
        raise ValueError(f"an int > {param.above}{nullable}")
    return value


def _float(value, param):
    if (
        not _is_number(value)
        or (isinstance(value, float) and not math.isfinite(value))
        or (param.above is not None and value <= param.above)
    ):
        bound = "" if param.above is None else f" > {param.above:g}"
        raise ValueError(f"a finite number{bound}")
    return float(value)


def _numbers(value, param=None):
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
        raise ValueError("a list of numbers")
    return tuple(value)


def _number_sets(value, param):
    if value is None:
        return param.default
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("a non-empty list of number lists")
    return tuple(_numbers(inputs) for inputs in value)


def _payloads(value, param):
    if (
        not isinstance(value, (list, tuple))
        or not value
        or not all(isinstance(entry, str) and entry for entry in value)
    ):
        raise ValueError("a non-empty list of non-empty strings")
    return tuple(value)


def profile_paths(patterns: Sequence[str]) -> List[str]:
    """``fuse`` file arguments: each glob expanded, sorted, first seen kept."""
    paths: List[str] = []
    for pattern in patterns:
        matches = sorted(glob.glob(pattern))
        if not matches:
            raise ApiError(INVALID_JOB, f"no profiles match {pattern!r}")
        paths.extend(match for match in matches if match not in paths)
    return paths


def _read_payloads(patterns: Sequence[str]) -> Tuple[str, ...]:
    return tuple(
        encode_profile_payload(Path(path).read_bytes())
        for path in profile_paths(patterns)
    )


def _same(value: Any) -> Any:
    return value


@dataclasses.dataclass(frozen=True)
class ParamType:
    """A value type and every form it takes.

    ``check`` is the one validator all parameters of the type share: it
    returns the canonical value or raises :class:`ValueError` saying what
    the value must be.  ``cli`` holds the argparse options, ``read``
    turns a parsed CLI value into the wire value and ``wire`` gives the
    JSON form of a canonical value.
    """

    check: Callable[[Any, "Param"], Any]
    cli: Dict[str, Any] = dataclasses.field(default_factory=dict)
    read: Callable[[Any], Any] = _same
    wire: Callable[[Any], Any] = _same


#: A non-empty string; on the CLI, a file read as UTF-8 text.
TEXT = ParamType(_text, read=lambda path: Path(path).read_text(encoding="utf-8"))
#: A non-empty string, given inline on the CLI.
WORD = ParamType(_text)
#: A label; a CLI-built job takes it from its first file's stem.
NAME = ParamType(_name)
#: A JSON boolean; on the CLI a flag, spelled ``--no-x`` for a true default.
BOOL = ParamType(_bool, {"action": "store_true"})
#: An int above ``Param.above``; null too when null is the default.
INT = ParamType(_int, {"type": int})
#: A finite number above ``Param.above``, held as a float.
FLOAT = ParamType(_float, {"type": float})
#: One input stream; repeated ``--inputs`` flags concatenate.
NUMBERS = ParamType(
    _numbers, {"action": "append"},
    read=lambda specs: tuple(parse_input_stream(specs)), wire=list,
)
#: One input stream per run; each ``--inputs`` flag is one run.
NUMBER_SETS = ParamType(
    _number_sets, {"action": "append"},
    read=lambda specs: tuple(map(tuple, parse_input_sets(specs))),
    wire=lambda sets: [list(inputs) for inputs in sets],
)
#: Profile images or sketches; on the CLI, files or glob patterns.
PAYLOADS = ParamType(_payloads, {"nargs": "+"}, read=_read_payloads, wire=list)

_REQUIRED: Any = object()  # the default of a parameter every job must give


@dataclasses.dataclass(frozen=True)
class Param:
    """One job parameter: wire field, type, default, bounds, CLI spelling.

    ``cli`` is a ``--flag``, a positional name, or ``None`` for a
    parameter that exists on the wire only.  ``above`` is an exclusive
    lower bound for the numeric types.
    """

    name: str
    type: ParamType
    default: Any = _REQUIRED
    cli: Optional[str] = None
    help: str = ""
    above: Optional[Number] = None


Runner = Callable[[Any, Optional[TraceStore]], Tuple[str, Dict[str, Any]]]


@dataclasses.dataclass(frozen=True)
class Operation:
    """One toolchain operation, the single source every surface derives from.

    Args:
        name: the job kind, the ``repro``/``repro client`` command name.
        doc: one line; the command help and the job class docstring.
        params: the job's fields, in wire order.
        run: ``run(job, store) -> (output text, meta)``; ``None`` for the
            experiment kind, which the daemon runs on its own runner.
        output: help of the ``-o`` flag; ``None`` when output is stdout only.
        cli_order: parameters the CLI takes first, in this order.
    """

    name: str
    doc: str
    params: Tuple[Param, ...]
    run: Optional[Runner] = None
    output: Optional[str] = None
    cli_order: Tuple[str, ...] = ()
    job: type = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "job", _job_class(self))

    def decode(self, payload: dict) -> Any:
        """A validated job from its wire fields; raises ``invalid-job``."""
        values = {}
        for param in self.params:
            value = payload.get(param.name, param.default)
            if value is _REQUIRED:
                raise ApiError(INVALID_JOB, f"{self.name} job needs {param.name!r}")
            try:
                values[param.name] = param.type.check(value, param)
            except ValueError as error:
                raise ApiError(
                    INVALID_JOB, f"{self.name} job {param.name!r} must be {error}"
                ) from None
        return self.job(**values)

    def encode(self, job: Any) -> dict:
        fields = {p.name: p.type.wire(getattr(job, p.name)) for p in self.params}
        return {"kind": self.name, **fields}

    def add_arguments(self, parser, output_help: Optional[str] = None) -> None:
        """This operation's CLI parameters (plus ``-o``) on ``parser``."""
        first = [p for name in self.cli_order for p in self.params if p.name == name]
        for param in first + [p for p in self.params if p not in first]:
            if param.cli is not None:
                parser.add_argument(param.cli, help=param.help, **param.type.cli)
        if self.output is not None:
            parser.add_argument("-o", "--output", help=output_help or self.output)

    def job_from_arguments(self, arguments) -> Any:
        """The job parsed CLI arguments describe, through the one validator.

        A job read from files is named after the first file's stem.
        """
        payload = {}
        for param in self.params:
            if param.cli is None:
                continue
            value = getattr(arguments, param.cli.lstrip("-").replace("-", "_"))
            if param.cli.startswith("--no-"):
                payload[param.name] = not value
            elif value is not None:
                payload[param.name] = param.type.read(value)
        files = [param.cli for param in self.params if param.type is TEXT]
        if files:
            payload["name"] = Path(getattr(arguments, files[0])).stem
        return self.decode(payload)


def _job_class(operation: Operation) -> type:
    fields = [
        (p.name, Any) if p.default is _REQUIRED else (p.name, Any, p.default)
        for p in operation.params
    ]
    cls = dataclasses.make_dataclass(
        f"{operation.name.capitalize()}Job",
        fields,
        frozen=True,
        namespace={
            "__doc__": operation.doc,
            "KIND": operation.name,
            "to_dict": lambda self: operation.encode(self),
            "from_dict": classmethod(lambda cls, payload: operation.decode(payload)),
        },
    )
    cls.__module__ = "repro.service.api"  # where the job classes are public
    return cls


# -- the computations -------------------------------------------------------


def job_program(job: Any) -> Program:
    """The job's assembly text, assembled; a bad program is ``invalid-job``."""
    try:
        return assemble(job.program, name=job.name)
    except Exception as error:
        raise ApiError(INVALID_JOB, f"bad program: {error}") from error


def merge_runs(images: List[ProfileImage]) -> ProfileImage:
    """Per-run images as one profile; a single run stays as it is."""
    return images[0] if len(images) == 1 else merge_profiles(images)


def profile_images(job: Any, store: Optional[TraceStore]) -> List[ProfileImage]:
    """One profile image per training input set of a profile job."""
    program = job_program(job)
    return [
        collect_profile(
            program,
            list(inputs),
            run_label=f"run-{index}",
            max_instructions=job.max_instructions,
            sample_every=job.sample_every,
            store=store,
        )
        for index, inputs in enumerate(job.input_sets)
    ]


def fuse_image(
    images: Iterable[ProfileImage], name: str = "merged", require_common: bool = False
) -> ProfileImage:
    """Fold profile images, one at a time, into one (bounded memory)."""
    accumulator = MergeAccumulator(run_label=name, require_common=require_common)
    for image in images:
        accumulator.fold(image)
    return accumulator.result()


def _run_compile(job, store):
    program = compile_source(job.source, name=job.name, optimize=job.optimize)
    meta = {
        "name": program.name,
        "instructions": len(program),
        "candidates": len(program.candidate_addresses),
    }
    return disassemble(program), meta


def _run_trace(job, store):
    """Daemon-only: the batch ``repro trace -o`` streams via ``save_trace``."""
    program = job_program(job)
    budget = DEFAULT_BUDGET if job.max_instructions is None else job.max_instructions
    records = (
        record
        for batch in store.batches(program, job.inputs, max_instructions=budget)
        for record in batch.records()
    )
    buffer = io.StringIO()
    count = write_trace(records, buffer, program.name)
    meta = {"records": count, "trace_key": trace_key(program, list(job.inputs), budget)}
    return buffer.getvalue(), meta


def _run_profile(job, store):
    images = profile_images(job, store)
    image = merge_runs(images)
    return dumps_profile(image), {"instructions": len(image), "runs": len(images)}


def _run_annotate(job, store):
    program = job_program(job)
    image = loads_profile(job.profile)
    policy = AnnotationPolicy(
        accuracy_threshold=job.accuracy_threshold,
        stride_threshold=job.stride_threshold,
    )
    report = annotation_report(program, image, policy)
    meta = {
        "candidates": report.candidates,
        "stride_tagged": report.stride_tagged,
        "last_value_tagged": report.last_value_tagged,
    }
    return disassemble(annotate_program(program, image, policy)), meta


def _run_fuse(job, store):
    images = map(decode_profile_payload, job.profiles)
    image = fuse_image(images, job.name, job.require_common)
    meta = {
        "images": len(job.profiles),
        "sketches": sum(
            not payload.startswith("# repro-profile-image") for payload in job.profiles
        ),
        "instructions": len(image),
    }
    return dumps_profile(image), meta


def _run_classify(job, store):
    from .classify import ModelFormatError, annotate_with_model, loads_model, model_digest

    try:
        model = loads_model(job.model)
    except ModelFormatError as error:
        raise ApiError(INVALID_JOB, f"bad model: {error}") from error
    program = job_program(job)
    annotated = annotate_with_model(model, program)
    meta = {
        "candidates": len(program.candidate_addresses),
        "tagged": len(annotated.directives()),
        "model_digest": model_digest(model),
    }
    return disassemble(annotated), meta


# -- the table --------------------------------------------------------------

_PROGRAM = Param("program", TEXT, cli="program", help="assembly file")
_NAME = Param("name", NAME, "program")
_BUDGET = Param(
    "max_instructions", INT, None, cli="--max-instructions",
    help="dynamic budget", above=0,
)

OPERATIONS: Dict[str, Operation] = {
    operation.name: operation
    for operation in (
        Operation(
            "compile",
            "compile mini-C source to textual assembly (phase 1)",
            (
                Param("source", TEXT, cli="source", help="mini-C source file"),
                Param("name", NAME, "<minic>"),
                Param("optimize", BOOL, True, cli="--no-optimize",
                      help="disable -O2 stand-in passes"),
            ),
            _run_compile,
            output="assembly output (default stdout)",
        ),
        Operation(
            "trace",
            "execute once and write the dynamic trace",
            (
                _PROGRAM,
                _NAME,
                Param("inputs", NUMBERS, (), cli="--inputs",
                      help="input stream: '1,2,3' inline or '@file' "
                      "(repeatable; streams concatenate)"),
                _BUDGET,
            ),
            _run_trace,
            output="trace output (default stdout)",
        ),
        Operation(
            "profile",
            "collect one profile image over one or more training input streams "
            "(phase 2)",
            (
                _PROGRAM,
                _NAME,
                Param("input_sets", NUMBER_SETS, ((),), cli="--inputs",
                      help="one training input stream per flag (repeatable)"),
                _BUDGET,
                Param("sample_every", INT, 1, cli="--sample-every",
                      help="keep one dynamic record in every SAMPLE_EVERY "
                      "(1 = full profile, the default)", above=0),
            ),
            _run_profile,
            output="profile output (default stdout)",
        ),
        Operation(
            "annotate",
            "insert value-prediction directives from a profile image (phase 3)",
            (
                _PROGRAM,
                Param("profile", TEXT, cli="profile", help="profile image file"),
                _NAME,
                Param("accuracy_threshold", FLOAT, 90.0, cli="--threshold",
                      help="accuracy threshold [%%]"),
                Param("stride_threshold", FLOAT, 50.0, cli="--stride-threshold",
                      help="stride-efficiency split [%%]"),
            ),
            _run_annotate,
            output="annotated assembly output (default stdout)",
        ),
        Operation(
            "experiment",
            "run one paper table/figure on the fault-tolerant runner",
            (
                Param("experiment", WORD, cli="experiment",
                      help="experiment id (e.g. table-5.2)"),
                Param("scale", FLOAT, 1.0, cli="--scale",
                      help="workload input scale", above=0),
                Param("training_runs", INT, 5, cli="--training-runs",
                      help="training input sets to profile (default 5)", above=0),
            ),
        ),
        Operation(
            "fuse",
            "merge profile images/sketches into one (streaming, bounded memory)",
            (
                Param("profiles", PAYLOADS, cli="profiles",
                      help="profile/sketch files or glob patterns "
                      "(formats auto-detected)"),
                Param("name", NAME, "merged"),
                Param("require_common", BOOL, False, cli="--require-common",
                      help="keep only instructions present in every input "
                      "(Section 4)"),
            ),
            _run_fuse,
            output="merged profile output (default stdout)",
        ),
        Operation(
            "classify",
            "re-tag a binary with a learned predictability model (phase 3 with "
            "no profile)",
            (
                _PROGRAM,
                Param("model", TEXT, cli="model", help="trained model file"),
                _NAME,
            ),
            _run_classify,
            output="annotated assembly output (default stdout)",
            cli_order=("model",),
        ),
    )
}

__all__ = [
    "ApiError",
    "ErrorInfo",
    "OPERATIONS",
    "Operation",
    "Param",
    "ParamType",
    "fuse_image",
    "job_program",
    "merge_runs",
    "parse_input_sets",
    "parse_input_stream",
    "parse_inputs_spec",
    "profile_images",
    "profile_paths",
    "write_output",
]
