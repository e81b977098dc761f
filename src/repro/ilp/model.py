"""The abstract ILP machine of the paper's Section 5.3.

"Our experiments consider an abstract machine with a finite instruction
window of 40 entries, unlimited number of execution units and a perfect
branch prediction mechanism. ... In case of value-misprediction, the
penalty in our abstract machine is 1 clock cycle."

Each retired instruction of the dynamic trace is assigned:

* an *enter* cycle — bounded by the 40-entry window (an instruction enters
  when the instruction 40 positions earlier retires);
* an *issue* cycle — when its operands are ready (unit execution latency,
  unlimited execution units, so issue = ready);
* a *retire* cycle — in order.

Value prediction changes when a producer's destination value becomes
visible to consumers: a correctly predicted (and taken) value is available
the moment the producer enters the window — the true-data dependence is
collapsed; a mispredicted taken value is available only after the producer
executes plus the misprediction penalty; an unpredicted value after the
producer executes.

Branches constrain nothing (perfect branch prediction).  Loads optionally
depend on the last store to the same address (perfect memory
disambiguation with store-to-load forwarding); disable
``track_memory_dependencies`` to treat memory as unconstrained, closer to
a pure register-dataflow limit study.

The recurrence has two implementations, held equal by the tests and by
the ``ilp-batch-vs-record`` pair of ``repro check``:

* :class:`WindowScheduler` is the per-record reference.  It is fed one
  :class:`~repro.machine.TraceRecord` at a time and calls
  :meth:`PredictionEngine.step` itself for each candidate;
  :func:`reference_ilp_many` drives several of them over a batch stream.
* :func:`measure_ilp_many` is the batch walker the experiments run.  It
  reads the trace as :class:`~repro.machine.TraceBatch` chunks —
  replayed from a :class:`~repro.machine.TraceStore` when given one,
  else from a fresh execution — and per batch
  builds the candidate ``(address, value)`` stream once, runs each
  engine's simulation consumer over it (the inlined stride loop, or
  ``step`` per candidate) writing one outcome code per candidate, then
  runs the window recurrence once per machine over integer columns: the
  address column, the ``mems`` column through a cursor, a per-address
  decoded table and a ring buffer of retire cycles.  Machine state
  carries across batches, so memory stays bounded by one batch.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..isa import NUM_REGISTERS, Number, Opcode, Program, RA, ZERO
from ..machine import (
    DEFAULT_BUDGET,
    TraceBatch,
    TraceRecord,
    TraceStore,
    trace_batches,
)
from ..core.simulate import (
    TAKEN_CORRECT,
    TAKEN_WRONG,
    PredictionEngine,
    _candidate_pairs,
    _fast_stride_consumer,
    _generic_consumer,
)
from ..telemetry import get_registry


@dataclasses.dataclass(frozen=True)
class IlpConfig:
    """Machine parameters (defaults = the paper's abstract machine)."""

    window_size: int = 40
    misprediction_penalty: int = 1
    track_memory_dependencies: bool = True

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be positive")
        if self.misprediction_penalty < 0:
            raise ValueError("misprediction_penalty must be non-negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "IlpConfig":
        return cls(
            window_size=int(payload["window_size"]),
            misprediction_penalty=int(payload["misprediction_penalty"]),
            track_memory_dependencies=bool(payload["track_memory_dependencies"]),
        )


@dataclasses.dataclass(frozen=True)
class IlpResult:
    """Outcome of one scheduled run."""

    instructions: int
    cycles: int
    taken_predictions: int
    correct_predictions: int
    mispredictions: int

    @property
    def ilp(self) -> float:
        """Retired instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def to_dict(self) -> dict:
        """Exact, JSON-compatible encoding for caching/pool transport."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "IlpResult":
        return cls(
            instructions=int(payload["instructions"]),
            cycles=int(payload["cycles"]),
            taken_predictions=int(payload["taken_predictions"]),
            correct_predictions=int(payload["correct_predictions"]),
            mispredictions=int(payload["mispredictions"]),
        )


_Decoded = Tuple[Tuple[int, ...], Optional[int], bool, bool, bool]


def _decode_for_scheduling(program: Program) -> List[_Decoded]:
    decoded: List[_Decoded] = []
    for instruction in program.instructions:
        dest = instruction.dest
        if instruction.opcode is Opcode.CALL:
            dest = RA  # call writes the return-address register
        decoded.append(
            (
                instruction.srcs,
                dest,
                instruction.opcode.reads_memory,
                instruction.opcode.writes_memory,
                instruction.is_prediction_candidate,
            )
        )
    return decoded


class WindowScheduler:
    """Schedules one dynamic instruction stream on the abstract machine.

    Feed it records in program order via :meth:`feed`, then read
    :meth:`result`.  Several schedulers (different engines/configs) can
    consume the same trace.
    """

    def __init__(
        self,
        program: Program,
        engine: Optional[PredictionEngine] = None,
        config: Optional[IlpConfig] = None,
        decoded: Optional[List[_Decoded]] = None,
    ) -> None:
        self.config = config or IlpConfig()
        self.engine = engine
        self._decoded = decoded if decoded is not None else _decode_for_scheduling(program)
        self._register_ready = [0] * NUM_REGISTERS
        self._memory_ready: Dict[int, int] = {}
        self._window: deque[int] = deque()
        self._retire_prev = 0
        self._instruction_count = 0
        self._taken = 0
        self._correct = 0
        self._mispredicted = 0

    def feed(self, record: TraceRecord) -> None:
        """Schedule one retired dynamic instruction."""
        srcs, dest, reads_memory, writes_memory, is_candidate = self._decoded[
            record.address
        ]
        self._instruction_count += 1
        config = self.config
        register_ready = self._register_ready

        window = self._window
        if len(window) >= config.window_size:
            enter = window.popleft()
        else:
            enter = 0

        ready = enter
        for source in srcs:
            source_ready = register_ready[source]
            if source_ready > ready:
                ready = source_ready
        if (
            config.track_memory_dependencies
            and reads_memory
            and record.mem_address is not None
        ):
            memory_time = self._memory_ready.get(record.mem_address, 0)
            if memory_time > ready:
                ready = memory_time

        complete = ready + 1

        taken = False
        correct = False
        if self.engine is not None and is_candidate:
            taken, correct = self.engine.step(record.address, record.value)
            if taken:
                self._taken += 1
                if correct:
                    self._correct += 1
                else:
                    self._mispredicted += 1

        if dest is not None and dest != ZERO:
            if taken and correct:
                # Collapsed dependence: consumers see the predicted value
                # as soon as the producer is in flight.
                register_ready[dest] = enter
            elif taken:
                register_ready[dest] = complete + config.misprediction_penalty
            else:
                register_ready[dest] = complete
        if (
            config.track_memory_dependencies
            and writes_memory
            and record.mem_address is not None
        ):
            self._memory_ready[record.mem_address] = complete

        retire = complete if complete > self._retire_prev else self._retire_prev
        self._retire_prev = retire
        window.append(retire)

    def result(self) -> IlpResult:
        return IlpResult(
            instructions=self._instruction_count,
            cycles=self._retire_prev,
            taken_predictions=self._taken,
            correct_predictions=self._correct,
            mispredictions=self._mispredicted,
        )


def measure_ilp(
    program: Program,
    inputs: Iterable[Number] = (),
    engine: Optional[PredictionEngine] = None,
    config: Optional[IlpConfig] = None,
    max_instructions: Optional[int] = None,
) -> IlpResult:
    """Schedule one run on the abstract machine and measure its ILP.

    Args:
        program: the binary to execute.
        inputs: the run's input stream.
        engine: value-prediction engine (predictor + classification
            scheme); ``None`` disables value prediction entirely — the
            pure dataflow baseline the paper's Table 5.2 normalizes to.
        config: machine parameters.
        max_instructions: optional dynamic-instruction cap.
    """
    results = measure_ilp_many(
        program,
        inputs,
        engines={"only": engine},
        config=config,
        max_instructions=max_instructions,
    )
    return results["only"]


def _machine_configs(
    engines: Mapping[str, Optional[PredictionEngine]],
    config: Optional[IlpConfig],
    configs: Optional[Mapping[str, IlpConfig]],
) -> Dict[str, IlpConfig]:
    """Each label's machine parameters; rejects a grid that cannot run."""
    if not engines:
        raise ValueError("need at least one engine")
    configs = configs or {}
    unknown = sorted(set(configs) - set(engines))
    if unknown:
        raise ValueError(f"configs name no engine: {unknown}")
    predicting = [engine for engine in engines.values() if engine is not None]
    if len({id(engine) for engine in predicting}) != len(predicting):
        raise ValueError("each label needs its own PredictionEngine")
    default = config or IlpConfig()
    return {label: configs.get(label, default) for label in engines}


def reference_ilp_many(
    program: Program,
    batches: Iterable[TraceBatch],
    engines: Mapping[str, Optional[PredictionEngine]],
    config: Optional[IlpConfig] = None,
    configs: Optional[Mapping[str, IlpConfig]] = None,
) -> Dict[str, IlpResult]:
    """The per-record reference for :func:`measure_ilp_many`.

    Feeds every record of ``batches`` (via :meth:`TraceBatch.records`)
    to one :class:`WindowScheduler` per label, each calling
    :meth:`PredictionEngine.step` per candidate, interleaved record by
    record.  An :class:`~repro.machine.ExecutionError` from the stream
    propagates after the records before it were scheduled.
    """
    machine_configs = _machine_configs(engines, config, configs)
    decoded = _decode_for_scheduling(program)
    schedulers = {
        label: WindowScheduler(
            program, engine=engine, config=machine_configs[label], decoded=decoded
        )
        for label, engine in engines.items()
    }
    feeders = [scheduler.feed for scheduler in schedulers.values()]
    for batch in batches:
        for record in batch.records():
            for feed in feeders:
                feed(record)
    return {label: scheduler.result() for label, scheduler in schedulers.items()}


_LOAD, _STORE = 1, 2
#: Extra register-file slots of the batch walker: one never written (the
#: absent second source reads it) and one never read (where writes to no
#: register or to ``ZERO`` land), so the loop needs no ``None`` checks.
_NO_SOURCE, _NO_DEST = NUM_REGISTERS, NUM_REGISTERS + 1

#: Per-address row of the batch walker: ``(src1, src2, dest, memory,
#: predicted)`` — ``memory`` is 0 / ``_LOAD`` / ``_STORE`` (0 everywhere
#: when memory is untracked), and ``predicted`` is set only for
#: candidates of a machine that has an engine.
_Row = Tuple[int, int, int, int, bool]


def _walker_table(
    decoded: List[_Decoded], track_memory: bool, predicted: bool
) -> List[_Row]:
    table: List[_Row] = []
    for srcs, dest, reads_memory, writes_memory, is_candidate in decoded:
        src1, src2 = (srcs + (_NO_SOURCE, _NO_SOURCE))[:2]
        memory = 0
        if track_memory:
            memory = _LOAD if reads_memory else _STORE if writes_memory else 0
        table.append(
            (
                src1,
                src2,
                _NO_DEST if dest is None or dest == ZERO else dest,
                memory,
                predicted and is_candidate,
            )
        )
    return table


class _Machine:
    """One label's scheduler state, carried from batch to batch."""

    __slots__ = (
        "table", "penalty", "outcomes", "register_ready", "memory_ready",
        "ring", "position", "retire", "instructions", "correct", "wrong",
    )

    def __init__(self, table: List[_Row], config: IlpConfig, outcomes) -> None:
        self.table = table
        self.penalty = config.misprediction_penalty
        self.outcomes = outcomes
        self.register_ready = [0] * (NUM_REGISTERS + 2)
        self.memory_ready: Dict[int, int] = {}
        # Retire cycles of the last ``window_size`` instructions; the
        # slot under ``position`` is the one that leaves the window next
        # (0 while the window is still filling).
        self.ring = [0] * config.window_size
        self.position = 0
        self.retire = 0
        self.instructions = 0
        self.correct = 0
        self.wrong = 0

    def schedule(self, addresses, mems) -> None:
        """Advance the recurrence over one batch's records."""
        table = self.table
        outcomes = self.outcomes
        penalty = self.penalty
        register_ready = self.register_ready
        memory_ready = self.memory_ready
        ring = self.ring
        size = len(ring)
        position = self.position
        retire = self.retire
        mem_cursor = 0
        cursor = 0
        for address in addresses:
            src1, src2, dest, memory, predicted = table[address]
            enter = ring[position]
            ready = register_ready[src1]
            if ready < enter:
                ready = enter
            source_ready = register_ready[src2]
            if source_ready > ready:
                ready = source_ready
            if memory:
                mem_address = mems[mem_cursor]
                mem_cursor += 1
                if memory == _LOAD:
                    memory_time = memory_ready.get(mem_address, 0)
                    if memory_time > ready:
                        ready = memory_time
                    complete = ready + 1
                else:
                    complete = ready + 1
                    memory_ready[mem_address] = complete
            else:
                complete = ready + 1
            if predicted:
                outcome = outcomes[cursor]
                cursor += 1
                if outcome == TAKEN_CORRECT:
                    # Collapsed dependence: consumers see the predicted
                    # value as soon as the producer is in flight.
                    register_ready[dest] = enter
                elif outcome == TAKEN_WRONG:
                    register_ready[dest] = complete + penalty
                else:
                    register_ready[dest] = complete
            else:
                register_ready[dest] = complete
            if complete > retire:
                retire = complete
            ring[position] = retire
            position += 1
            if position == size:
                position = 0
        self.position = position
        self.retire = retire
        self.instructions += len(addresses)
        if outcomes is not None:
            self.correct += outcomes.count(TAKEN_CORRECT)
            self.wrong += outcomes.count(TAKEN_WRONG)

    def result(self) -> IlpResult:
        return IlpResult(
            instructions=self.instructions,
            cycles=self.retire,
            taken_predictions=self.correct + self.wrong,
            correct_predictions=self.correct,
            mispredictions=self.wrong,
        )


def measure_ilp_many(
    program: Program,
    inputs: Iterable[Number] = (),
    engines: Optional[Mapping[str, Optional[PredictionEngine]]] = None,
    config: Optional[IlpConfig] = None,
    configs: Optional[Mapping[str, IlpConfig]] = None,
    max_instructions: Optional[int] = None,
    store: Optional[TraceStore] = None,
) -> Dict[str, IlpResult]:
    """Schedule several machine configurations against one execution.

    ``engines`` maps a label to its own :class:`PredictionEngine` or
    ``None`` (no value prediction).  Every machine consumes the same
    trace, so the program executes at most once — and not at all when
    ``store`` already holds the trace.  ``configs`` optionally overrides
    the shared ``config`` per label — e.g. to sweep window sizes or
    penalties in the same pass.

    Raises:
        ValueError: ``engines`` is empty, a ``configs`` key names no
            engine label, or two labels share one engine object.
        ExecutionError: whatever the run raises, after every record
            before the fault was scheduled; the engines then hold the
            same state the per-record reference leaves them in.
    """
    if engines is None:
        engines = {"baseline": None}
    machine_configs = _machine_configs(engines, config, configs)
    decoded = _decode_for_scheduling(program)
    is_candidate = [row[4] for row in decoded]
    tables: Dict[Tuple[bool, bool], List[_Row]] = {}
    consumers = []
    finishers = []
    machines: Dict[str, _Machine] = {}
    for label, engine in engines.items():
        machine_config = machine_configs[label]
        key = (machine_config.track_memory_dependencies, engine is not None)
        if key not in tables:
            tables[key] = _walker_table(decoded, *key)
        outcomes = None
        if engine is not None:
            outcomes = []
            plan = _fast_stride_consumer(engine, sink=outcomes)
            if plan is None:
                consume = _generic_consumer(engine, sink=outcomes)
            else:
                consume, finish, _shared = plan
                finishers.append(finish)
            consumers.append((consume, outcomes))
        machines[label] = _Machine(tables[key], machine_config, outcomes)

    budget = max_instructions or DEFAULT_BUDGET
    started = time.perf_counter()
    if store is not None:
        batches = store.batches(program, inputs, max_instructions=budget)
    else:
        batches = trace_batches(program, inputs, max_instructions=budget)
    try:
        for batch in batches:
            if consumers:
                pairs = _candidate_pairs(batch, is_candidate)
                for consume, outcomes in consumers:
                    outcomes.clear()
                    consume(pairs)
            for machine in machines.values():
                machine.schedule(batch.addresses, batch.mems)
    finally:
        # Fold the inlined consumers' accumulators even when the trace
        # raised mid-run, as ``step`` would have kept every observation
        # up to the fault.
        for finish in finishers:
            finish()
        telemetry = get_registry()
        if telemetry.enabled:
            telemetry.timer("ilp.schedule").add(time.perf_counter() - started)
            telemetry.counter("ilp.configs").add(len(machines))
            telemetry.counter("ilp.scheduled_instructions").add(
                sum(machine.instructions for machine in machines.values())
            )
    return {label: machine.result() for label, machine in machines.items()}


def ilp_increase(with_prediction: IlpResult, baseline: IlpResult) -> float:
    """Percent ILP increase of ``with_prediction`` over ``baseline`` (Table 5.2)."""
    if baseline.ilp == 0:
        return 0.0
    return 100.0 * (with_prediction.ilp - baseline.ilp) / baseline.ilp
