"""Profile collection: run a program under an emulated value predictor.

This is phase 2 of the paper's methodology.  The tracing simulator
(:mod:`repro.machine`) executes the program while a value predictor —
by default an *unbounded* stride predictor, so the profile reflects pure
value behaviour rather than table pressure — observes every dynamic
instance of every value-prediction candidate.  The result records, per
static instruction, its prediction accuracy and stride efficiency ratio,
and per (category, phase) the aggregate accuracies behind Table 2.1.

Two paths compute the same images:

* the per-record reference, :func:`observe_triples`: one
  ``predictor.access`` per candidate record, for any predictor;
* the vectorised fold (:mod:`repro.profiling.fold`), which folds each
  trace batch per address in numpy.  It runs when numpy is available
  (and ``REPRO_NO_NUMPY`` is unset) and every predictor is a stock
  stride or last-value predictor over an infinite, empty, unmetered
  table.  Addresses mixing int and float values, or reaching
  ``|v| >= 2**61``, take the reference inside a folded run.

The ``profile-fold-vs-record`` oracle pair holds the two equal.
"""

from __future__ import annotations

import dataclasses
import time
from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..isa import Category, Number, Program
from ..machine import DEFAULT_BUDGET, Executor, TraceStore
from ..predictors import StridePredictor, ValuePredictor
from ..telemetry import get_registry


@dataclasses.dataclass(slots=True)
class InstructionProfile:
    """Per-static-instruction prediction statistics.

    ``attempts`` counts accesses where the predictor held an entry (its
    first dynamic instance only trains).  ``correct`` of those matched;
    ``nonzero_stride_correct`` matched using a non-zero stride.
    """

    address: int
    executions: int = 0
    attempts: int = 0
    correct: int = 0
    nonzero_stride_correct: int = 0

    @property
    def accuracy(self) -> float:
        """Prediction accuracy in percent (0 when never attempted)."""
        if self.attempts == 0:
            return 0.0
        return 100.0 * self.correct / self.attempts

    @property
    def stride_efficiency(self) -> float:
        """Stride efficiency ratio in percent (0 when never correct)."""
        if self.correct == 0:
            return 0.0
        return 100.0 * self.nonzero_stride_correct / self.correct


@dataclasses.dataclass(slots=True)
class GroupStats:
    """Aggregate accuracy for one (category, phase) group."""

    executions: int = 0
    attempts: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        if self.attempts == 0:
            return 0.0
        return 100.0 * self.correct / self.attempts


class ProfileImage:
    """The output of one profiling run (paper Section 3.2, Table 3.1).

    Maps instruction address -> :class:`InstructionProfile`, with program
    and run labels.  The (category, phase) aggregates ride along for the
    Table 2.1 measurements.

    Group accounting is stored at *per-address* granularity
    (:attr:`group_detail`: ``(category, phase) -> {address: [executions,
    attempts, correct]}``) and the coarse :attr:`groups` view is derived
    by summation.  The detail is what makes two operations exact that an
    aggregate-only image cannot support: filtering group counts to a
    subset of instructions (``merge_profiles(require_common=True)``) and
    the lossless save→load→merge round trip of
    :mod:`~repro.profiling.image_io`.
    """

    def __init__(self, program_name: str, run_label: str = "") -> None:
        self.program_name = program_name
        self.run_label = run_label
        self.instructions: Dict[int, InstructionProfile] = {}
        #: (category, phase) -> address -> [executions, attempts, correct]
        self.group_detail: Dict[Tuple[Category, int], Dict[int, List[int]]] = {}

    def profile_for(self, address: int) -> InstructionProfile:
        profile = self.instructions.get(address)
        if profile is None:
            profile = InstructionProfile(address)
            self.instructions[address] = profile
        return profile

    def group_slot(self, category: Category, phase: int, address: int) -> List[int]:
        """The mutable ``[executions, attempts, correct]`` accumulator for
        ``address`` within the ``(category, phase)`` group."""
        key = (category, phase)
        members = self.group_detail.get(key)
        if members is None:
            members = self.group_detail[key] = {}
        slot = members.get(address)
        if slot is None:
            slot = members[address] = [0, 0, 0]
        return slot

    @property
    def groups(self) -> Dict[Tuple[Category, int], GroupStats]:
        """The (category, phase) aggregates, summed from the detail."""
        aggregated: Dict[Tuple[Category, int], GroupStats] = {}
        for key, members in self.group_detail.items():
            stats = GroupStats()
            for executions, attempts, correct in members.values():
                stats.executions += executions
                stats.attempts += attempts
                stats.correct += correct
            aggregated[key] = stats
        return aggregated

    @property
    def addresses(self) -> list[int]:
        return sorted(self.instructions)

    def accuracy_of(self, address: int) -> float:
        profile = self.instructions.get(address)
        return 0.0 if profile is None else profile.accuracy

    def stride_efficiency_of(self, address: int) -> float:
        profile = self.instructions.get(address)
        return 0.0 if profile is None else profile.stride_efficiency

    def overall_accuracy(self, category: Optional[Category] = None) -> float:
        """Aggregate accuracy over all (or one category of) instructions."""
        attempts = 0
        correct = 0
        for (group_category, _phase), stats in self.groups.items():
            if category is not None and group_category is not category:
                continue
            attempts += stats.attempts
            correct += stats.correct
        return 0.0 if attempts == 0 else 100.0 * correct / attempts

    def __len__(self) -> int:
        return len(self.instructions)

    def __eq__(self, other: object) -> bool:
        """Exact equality: labels, per-instruction counts, group detail."""
        if not isinstance(other, ProfileImage):
            return NotImplemented
        return (
            self.program_name == other.program_name
            and self.run_label == other.run_label
            and self.instructions == other.instructions
            and self.group_detail == other.group_detail
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProfileImage({self.program_name!r}, run={self.run_label!r}, "
            f"{len(self.instructions)} instructions, "
            f"{len(self.group_detail)} groups)"
        )


def collect_profile(
    program: Program,
    inputs: Iterable[Number] = (),
    predictor: Optional[ValuePredictor] = None,
    run_label: str = "",
    max_instructions: Optional[int] = None,
    records=None,
    store: Optional[TraceStore] = None,
    sample_every: int = 1,
    address_buckets: int = 1,
    address_bucket: int = 0,
) -> ProfileImage:
    """Profile one run of ``program`` under ``predictor``.

    Args:
        program: the compiled binary.
        inputs: the run's input stream.
        predictor: predictor to emulate; default is an unbounded
            :class:`~repro.predictors.StridePredictor` (the paper profiles
            with the stride predictor so the stride efficiency ratio is
            also available).
        run_label: stored in the image for bookkeeping.
        max_instructions: optional dynamic-instruction cap.
        store: optional :class:`~repro.machine.TraceStore`; the trace is
            replayed from the store when present there, captured into it
            otherwise.
        sample_every: keep only every ``k``-th dynamic trace record
            (``k = 1`` keeps everything and is byte-identical to full
            profiling; see :func:`collect_profiles`).
        address_buckets / address_bucket: optionally restrict the profile
            to candidate addresses in one modulo bucket.
    """
    images = collect_profiles(
        program,
        inputs,
        predictors={"default": predictor or StridePredictor()},
        run_label=run_label,
        max_instructions=max_instructions,
        records=records,
        store=store,
        sample_every=sample_every,
        address_buckets=address_buckets,
        address_bucket=address_bucket,
    )
    return images["default"]


def collect_profiles(
    program: Program,
    inputs: Iterable[Number] = (),
    predictors: Optional[Mapping[str, ValuePredictor]] = None,
    run_label: str = "",
    max_instructions: Optional[int] = None,
    records=None,
    store: Optional[TraceStore] = None,
    sample_every: int = 1,
    address_buckets: int = 1,
    address_bucket: int = 0,
) -> Dict[str, ProfileImage]:
    """Profile one run under several predictors simultaneously.

    A single execution of the program feeds every predictor, so comparing
    last-value against stride (Table 2.1) costs one simulation, not two.

    Without ``records`` the run's columnar trace batches come from the
    executor, or are captured into / replayed from ``store``.  When numpy
    is available and every predictor is a stock
    :class:`~repro.predictors.StridePredictor` or
    :class:`~repro.predictors.LastValuePredictor` over an infinite,
    empty, unmetered table, the batches are folded per address in numpy
    (:mod:`repro.profiling.fold`); all-int addresses fold in int64,
    all-float ones in float64 (IEEE, as Python floats), and an address
    that mixes the two or reaches ``|v| >= 2**61`` takes the per-record
    reference from that batch on.  Otherwise every candidate record goes
    through :func:`observe_triples`, one ``predictor.access`` at a time.
    Both paths leave identical images, table entries and meters, also
    when the run faults: the images then hold every record before the
    fault, and the error propagates.

    Pass ``records`` (an iterable of
    :class:`~repro.machine.trace.TraceRecord`, e.g. from
    :func:`repro.machine.read_trace`) to profile a *stored* trace instead
    of executing the program — the SHADE-style trace/analyze split.

    ``sample_every=k`` keeps only dynamic records whose 0-based position
    in the run's full trace is a multiple of ``k`` — the sampled phase-2
    mode.  The rule is applied to the *unfiltered* dynamic stream (before
    the candidate filter), identically on the reference and the fold, so
    profiling with ``sample_every=k`` equals profiling ``records[::k]``
    and ``k=1`` is byte-identical to full profiling (the
    ``profile-sampled`` oracle pair enforces this).
    ``address_buckets``/``address_bucket`` optionally restrict collection
    to candidate addresses with ``address % address_buckets ==
    address_bucket`` — the bucketed profiles of one run partition the
    full profile.

    Raises:
        ValueError: on a bad sampling argument or an empty ``predictors``
            mapping, before anything is executed.
    """
    if (
        isinstance(sample_every, bool)
        or not isinstance(sample_every, int)
        or sample_every < 1
    ):
        raise ValueError(f"sample_every must be an int >= 1, got {sample_every!r}")
    if (
        isinstance(address_buckets, bool)
        or not isinstance(address_buckets, int)
        or address_buckets < 1
    ):
        raise ValueError(
            f"address_buckets must be an int >= 1, got {address_buckets!r}"
        )
    if not 0 <= address_bucket < address_buckets:
        raise ValueError(
            f"address_bucket must be in [0, {address_buckets}), got {address_bucket!r}"
        )
    if predictors is None:
        predictors = {"stride": StridePredictor()}
    if not predictors:
        raise ValueError("need at least one predictor")
    images = {
        name: ProfileImage(program.name, run_label=run_label) for name in predictors
    }
    is_candidate = [
        instruction.is_prediction_candidate for instruction in program.instructions
    ]
    if address_buckets > 1:
        is_candidate = [
            flag and address % address_buckets == address_bucket
            for address, flag in enumerate(is_candidate)
        ]
    categories = [instruction.category for instruction in program.instructions]

    started = time.perf_counter()
    fold = None
    if records is None:
        from .fold import build_profile_fold  # the fold imports this module

        budget = max_instructions if max_instructions is not None else DEFAULT_BUDGET
        if store is not None:
            batches = store.batches(program, inputs, max_instructions=budget)
        else:
            batches = Executor(
                program, inputs=inputs, max_instructions=budget
            ).run_batches()
        fold = build_profile_fold(
            program, predictors, images, is_candidate, categories, sample_every
        )
        if fold is None:
            records = (record for batch in batches for record in batch.records())
    if fold is None:
        if sample_every > 1:
            records = islice(records, 0, None, sample_every)
        observe_triples(
            [(predictor, images[name]) for name, predictor in predictors.items()],
            categories,
            (
                (record.address, record.value, record.phase)
                for record in records
                if is_candidate[record.address]
            ),
        )
    else:
        try:
            for batch in batches:
                fold.consume(batch)
        finally:
            # Write back even when the trace faulted mid-run: the
            # reference keeps every observation up to the fault.
            fold.finish()
    telemetry = get_registry()
    if telemetry.enabled:
        # Candidate records observed = per-image executions (identical
        # across images, so read the first); records/sec derives from the
        # profiling.collect timer downstream.
        first = next(iter(images.values()))
        observed = sum(profile.executions for profile in first.instructions.values())
        telemetry.counter("profiling.records").add(observed)
        telemetry.counter("profiling.runs").add(1)
        telemetry.timer("profiling.collect").add(time.perf_counter() - started)
        if sample_every > 1 or address_buckets > 1:
            telemetry.counter("profiling.sampled.runs").add(1)
            telemetry.counter("profiling.sampled.records").add(observed)
        if fold is not None:
            telemetry.counter("profiling.fold.runs").add(1)
            telemetry.counter("profiling.fold.reference_records").add(
                fold.reference_records
            )
    return images


def observe_triples(pairs, categories, triples) -> None:
    """The per-record reference: one ``predictor.access`` per candidate.

    ``pairs`` lists ``(predictor, image)``; ``triples`` yields each
    candidate record as ``(address, value, phase)``.  Every access adds
    one execution to the address's profile and ``(category, phase)``
    group slot, and an attempt / correct / non-zero-stride hit as the
    predictor reports it.  A ``triples`` iterator that raises leaves
    every observation before the fault in place.
    """
    for address, value, phase in triples:
        category = categories[address]
        for predictor, image in pairs:
            result = predictor.access(address, value)
            profile = image.profile_for(address)
            profile.executions += 1
            group = image.group_slot(category, phase, address)
            group[0] += 1
            if result.hit:
                profile.attempts += 1
                group[1] += 1
                if result.correct:
                    profile.correct += 1
                    group[2] += 1
                    if result.nonzero_stride:
                        profile.nonzero_stride_correct += 1
