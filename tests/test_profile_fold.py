"""The vectorised phase-2 profile fold against the per-record reference.

Every test runs :func:`collect_profiles` twice on the same batches: with
numpy live (the fold) and with ``REPRO_NO_NUMPY`` set (the per-record
``predictor.access`` reference), and compares the images, their dumped
bytes and instruction / group insertion order, and the predictors'
tables (as mappings, with their meters).
"""

from __future__ import annotations

import math
import os
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulate_vec import DISABLE_ENV, numpy_or_none
from repro.isa import assemble
from repro.machine import Executor, value_flags
from repro.machine.batch import TraceBatch
from repro.machine.columns import ValueColumn
from repro.machine.errors import ExecutionError, InstructionBudgetExceeded
from repro.predictors import (
    LastValuePredictor,
    StridePredictor,
    TwoDeltaStridePredictor,
)
from repro.predictors.stride import StrideEntry
from repro.profiling import collect_profile, collect_profiles, dumps_profile
from repro.telemetry import Telemetry, use_registry

needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="the fold needs numpy"
)

#: Five candidates over three categories, one non-candidate producer
#: (``in``) and one silent instruction (``st``).  The synthetic traces
#: below never execute it; they only need its static flags.
SHAPE_ASM = """
.text
    add r1, r1, r1
    ld r2, gp, 8
    fadd r3, r3, r3
    mov r4, r1
    slt r5, r1, r2
    in r6
    st r5, gp, 8
    halt
"""

CANDIDATES = (0, 1, 2, 3, 4)
IN_ADDRESS = 5
STORE_ADDRESS = 6

LOOP_ASM = """
.text
    li r1, 0
    fli r2, 0.5
loop:
    addi r1, r1, 3
    fadd r2, r2, r2
    mul r3, r1, r1
    fmul r4, r2, r2
    jmp loop
"""


@pytest.fixture(scope="module")
def shape():
    return assemble(SHAPE_ASM)


@contextmanager
def reference_path():
    previous = os.environ.get(DISABLE_ENV)
    os.environ[DISABLE_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(DISABLE_ENV, None)
        else:
            os.environ[DISABLE_ENV] = previous


class SyntheticTraces:
    """Trace source yielding hand-built batches of ``(address, value, phase)``.

    ``value`` is ignored for the silent store.  ``fault`` is raised after
    the last batch, as the executor raises after a faulting partial batch.
    """

    def __init__(self, records, chunk, fault=None):
        self.records = records
        self.chunk = chunk
        self.fault = fault

    def batches(self, program, inputs, max_instructions=None):
        flags = value_flags(program)
        silent = bytes(len(flags))
        for start in range(0, len(self.records), self.chunk):
            part = self.records[start : start + self.chunk]
            runs = []
            for index, (_address, _value, phase) in enumerate(part):
                if not runs or runs[-1][1] != phase:
                    runs.append((index, phase))
            yield TraceBatch(
                array("q", [address for address, _, _ in part]),
                ValueColumn.from_values(
                    [value for address, value, _ in part if flags[address]]
                ),
                flags,
                runs,
                [],
                silent,
            )
        if self.fault is not None:
            raise self.fault


class ChunkedExecutor:
    """Trace source running the program live in ``chunk``-record batches."""

    def __init__(self, chunk):
        self.chunk = chunk

    def batches(self, program, inputs, max_instructions=None):
        executor = Executor(program, inputs=inputs, max_instructions=max_instructions)
        return executor.run_batches(chunk_size=self.chunk)


def canon(value):
    if isinstance(value, float):
        return ("f", "nan" if math.isnan(value) else repr(value))
    return (type(value).__name__, value)


def observe(images, predictors):
    observed = {}
    for name, image in images.items():
        table = predictors[name].table
        observed[name] = {
            "dump": dumps_profile(image),
            "instructions": [
                (address, p.executions, p.attempts, p.correct, p.nonzero_stride_correct)
                for address, p in image.instructions.items()
            ],
            "groups": [
                (key, list(members.items()))
                for key, members in image.group_detail.items()
            ],
            "entries": sorted(
                (
                    address,
                    type(entry).__name__,
                    canon(entry.last_value),
                    canon(getattr(entry, "stride", None)),
                )
                for address, entry in table
            ),
            "meters": (table.lookups, table.hits, table.evictions),
        }
    return observed


def run(program, traces, make_predictors=None, **options):
    """One profiling call: (observation, error, fold telemetry)."""
    predictors = (make_predictors or default_predictors)()
    registry = Telemetry()
    images = {}
    error = None
    with use_registry(registry):
        try:
            images = collect_profiles(
                program, [], predictors=predictors, store=traces, **options
            )
        except ExecutionError as exc:
            error = (type(exc).__name__, str(exc))
    counters = registry.snapshot()["counters"]
    fold = (
        counters.get("profiling.fold.runs", 0),
        counters.get("profiling.fold.reference_records", 0),
    )
    return observe(images, predictors), error, fold


def default_predictors():
    return {"S": StridePredictor(), "L": LastValuePredictor()}


def assert_fold_matches_reference(program, traces, **options):
    """Run both paths; return the fold's telemetry for extra assertions."""
    fast, fast_error, fold = run(program, traces, **options)
    with reference_path():
        slow, slow_error, reference_fold = run(program, traces, **options)
    assert fast_error == slow_error
    assert fast == slow
    assert reference_fold == (0, 0)
    return fold


def stride_stream(address, start, step, count, phase=0):
    return [(address, start + step * index, phase) for index in range(count)]


# -- hypothesis: arbitrary streams --------------------------------------------

VALUES = st.one_of(
    st.integers(-6, 6),
    st.sampled_from(
        [
            (1 << 61) - 1,
            -((1 << 61) - 1),
            1 << 61,
            -(1 << 61),
            (1 << 63) - 1,
            1 << 63,
            1 << 70,
            -(1 << 80),
        ]
    ),
    st.sampled_from([0.0, -0.0, 0.5, 1.5, -2.25, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
RECORDS = st.lists(
    st.tuples(
        st.sampled_from(CANDIDATES + (IN_ADDRESS, STORE_ADDRESS)),
        VALUES,
        st.sampled_from([0, 1, 2, -1, 7, 1000]),
    ),
    max_size=60,
)


@needs_numpy
@settings(max_examples=150, deadline=None)
@given(
    records=RECORDS,
    chunk=st.integers(1, 12),
    sample_every=st.integers(1, 4),
    buckets=st.sampled_from([(1, 0), (2, 0), (2, 1)]),
)
def test_random_streams_match_reference(shape, records, chunk, sample_every, buckets):
    assert_fold_matches_reference(
        shape,
        SyntheticTraces(records, chunk),
        sample_every=sample_every,
        address_buckets=buckets[0],
        address_bucket=buckets[1],
    )


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(
    per_address=st.lists(
        st.one_of(
            st.lists(st.integers(-(1 << 61) + 1, (1 << 61) - 1), max_size=12),
            st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12),
        ),
        min_size=5,
        max_size=5,
    ),
    seed=st.randoms(use_true_random=False),
)
def test_single_kind_addresses_never_leave_the_fold(shape, per_address, seed):
    # Interleave one all-int or all-float stream per candidate address.
    pending = [
        [(address, value, 0) for value in values]
        for address, values in zip(CANDIDATES, per_address)
    ]
    records = []
    while any(pending):
        stream = seed.choice([stream for stream in pending if stream])
        records.append(stream.pop(0))
    fold = assert_fold_matches_reference(shape, SyntheticTraces(records, 7))
    assert fold == (1, 0)


# -- targeted cases -------------------------------------------------------------


@needs_numpy
def test_segments_cross_seven_record_batches(shape):
    records = []
    for index in range(40):
        records.append((0, 3 * index, 0))
        records.append((1, 100 - index * index, 0))
        if index % 3 == 0:
            records.append((3, 7, 0))
        if index % 5 == 0:
            records.append((IN_ADDRESS, index, 0))
    fold = assert_fold_matches_reference(shape, SyntheticTraces(records, 7))
    assert fold == (1, 0)


@needs_numpy
def test_address_demoted_from_int_to_float_mid_run(shape):
    # Batches of 7: address 0 is int in the first two, float from the
    # third on, so it leaves the fold with its carried int entry.
    records = stride_stream(0, 10, 2, 9) + stride_stream(1, 0, 1, 9)
    records += [(0, 28.0, 0), (0, 30.0, 0)] + stride_stream(1, 9, 1, 5)
    records += [(0, 32.0, 0), (0, 34.5, 0)]
    fold = assert_fold_matches_reference(shape, SyntheticTraces(records, 7))
    assert fold == (1, 4)


@needs_numpy
def test_address_demoted_from_float_to_int(shape):
    records = [(2, 0.5 * index, 0) for index in range(10)] + [(2, 5, 0), (2, 5.5, 0)]
    fold = assert_fold_matches_reference(shape, SyntheticTraces(records, 4))
    assert fold[1] > 0


@needs_numpy
@pytest.mark.parametrize(
    "values",
    [
        [(1 << 61) - 3, (1 << 61) - 2, (1 << 61) - 1],
        [-(1 << 61) + 3, -(1 << 61) + 2, -(1 << 61) + 1],
        [(1 << 61) - 2, (1 << 61) - 1, 1 << 61, (1 << 61) + 1],
        [-(1 << 61) + 1, -(1 << 61), -(1 << 61) - 1],
        [1 << 64, (1 << 64) + 1, (1 << 64) + 2, 5],
        [-(1 << 90), 0, 1 << 90],
    ],
)
def test_int_magnitude_limits(shape, values):
    records = [(0, value, 0) for value in values] + stride_stream(1, 0, 4, 5)
    fold = assert_fold_matches_reference(shape, SyntheticTraces(records, 2))
    in_range = all(abs(value) < (1 << 61) for value in values)
    assert (fold[1] == 0) == in_range


@needs_numpy
@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, 0.0, -0.0],
        [-0.0, -0.0, 0.0],
        [math.nan, math.nan, 1.0, 2.0, 3.0],
        [1.0, math.nan, 3.0, 5.0],
        [math.inf, math.inf, math.inf, -math.inf],
        [1e308, 1.7e308, 1e308],
        [0.1, 0.2, 0.30000000000000004, 0.4],
    ],
)
def test_float_corner_values(shape, values):
    records = [(2, value, 0) for value in values]
    fold = assert_fold_matches_reference(shape, SyntheticTraces(records, 3))
    assert fold == (1, 0)


@needs_numpy
def test_phases_outside_zero_to_two(shape):
    records = []
    for index, phase in enumerate([5, 5, -1, 1000, 0, 5, 2, 3, 3, -7] * 3):
        records.append((index % 2, index * 2, phase))
        records.append((2, 0.25 * index, phase))
    assert assert_fold_matches_reference(shape, SyntheticTraces(records, 7)) == (1, 0)


@needs_numpy
def test_single_access_stride_is_int_zero(shape):
    records = [(0, 5, 0), (2, 2.5, 0), (1, 1, 0), (1, 4, 0), (3, 7.0, 0), (3, 7.5, 0)]
    predictors = default_predictors()
    traces = SyntheticTraces(records, 7)
    collect_profiles(shape, [], predictors=predictors, store=traces)
    entries = dict(predictors["S"].table)
    for address in (0, 2):
        assert entries[address].stride == 0
        assert type(entries[address].stride) is int
    assert type(entries[0].last_value) is int
    assert type(entries[2].last_value) is float
    assert entries[1].stride == 3 and type(entries[1].stride) is int
    assert entries[3].stride == 0.5 and type(entries[3].stride) is float


def test_prepopulated_predictor_takes_reference_path(shape):
    records = stride_stream(0, 1, 1, 10)
    traces = SyntheticTraces(records, 7)

    def warmed():
        predictor = StridePredictor()
        predictor.table.insert(0, StrideEntry(0, 1))
        return {"S": predictor}

    fast, _, fold = run(shape, traces, make_predictors=warmed)
    with reference_path():
        slow, _, _ = run(shape, traces, make_predictors=warmed)
    assert fold == (0, 0)
    assert fast == slow
    assert fast["S"]["instructions"][0][1:4] == (10, 10, 10)


def test_ineligible_predictor_takes_reference_path(shape):
    traces = SyntheticTraces(stride_stream(0, 1, 1, 10), 7)
    _, _, fold = run(
        shape, traces, make_predictors=lambda: {"T": TwoDeltaStridePredictor()}
    )
    assert fold == (0, 0)
    _, _, fold = run(
        shape, traces, make_predictors=lambda: {"S": StridePredictor(512, 2)}
    )
    assert fold == (0, 0)


@needs_numpy
def test_fault_after_batches_leaves_reference_state(shape):
    records = stride_stream(0, 0, 3, 20) + [(2, 0.5 * i, 1) for i in range(9)]
    fault = InstructionBudgetExceeded("exceeded budget of 29 dynamic instructions")
    assert_fold_matches_reference(shape, SyntheticTraces(records, 7, fault=fault))


@needs_numpy
@pytest.mark.parametrize("chunk", [7, 16_384])
def test_budget_exceeded_partway_through_a_live_run(chunk):
    program = assemble(LOOP_ASM)
    fast, fast_error, fold = run(
        program, ChunkedExecutor(chunk), max_instructions=1_000
    )
    assert fast_error is not None and fast_error[0] == "InstructionBudgetExceeded"
    assert fold == (0, 0)  # the run raised before telemetry was published
    with reference_path():
        slow, slow_error, _ = run(
            program, ChunkedExecutor(chunk), max_instructions=1_000
        )
    assert fast_error == slow_error
    assert fast == slow


def test_empty_predictor_mapping_is_rejected_before_execution(shape):
    class Untouchable:
        def batches(self, *args, **kwargs):
            raise AssertionError("profiling executed the program")

    with pytest.raises(ValueError, match="need at least one predictor"):
        collect_profiles(shape, [], predictors={}, store=Untouchable())
    with use_registry(Telemetry()):
        with pytest.raises(ValueError, match="need at least one predictor"):
            collect_profiles(shape, [], predictors={}, store=Untouchable())


@needs_numpy
def test_fold_metrics_published_once_per_call(shape):
    records = stride_stream(0, 0, 1, 5) + [(0, 5.0, 0)] + stride_stream(1, 0, 1, 5)
    registry = Telemetry()
    with use_registry(registry):
        for _ in range(2):
            collect_profile(shape, [], store=SyntheticTraces(records, 16))
    counters = registry.snapshot()["counters"]
    assert counters["profiling.fold.runs"] == 2
    # One batch, so address 0 takes the reference for all six records.
    assert counters["profiling.fold.reference_records"] == 12
    assert counters["profiling.records"] == 22
