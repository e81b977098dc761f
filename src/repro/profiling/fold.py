"""Vectorised phase-2 profile fold (numpy).

Phase 2 runs every training input under an *unbounded* stride (or
last-value) predictor.  A fresh unbounded table holds, per static
address, exactly the last value and the last first difference of that
address's own value stream, so the whole profile is a per-address
segmented fold over the candidate stream:

* a first access only trains (no attempt; the entry's stride is ``0``);
* last-value is correct where ``v_i == v_{i-1}``;
* stride is correct where ``v_i == v_{i-1} + d_{i-1}`` with
  ``d_{i-1} = v_{i-1} - v_{i-2}`` (the carried stride at a segment
  head), and counts as a non-zero-stride hit where ``d_{i-1} != 0``.

:class:`ProfileFold` applies that rule batch by batch.  Each
:class:`~repro.machine.TraceBatch` is lifted with ``np.frombuffer``,
filtered by the candidate/bucket mask and the global ``sample_every``
rule, stable-sorted by address and folded against per-address carry
arrays sized to the code segment (last value, stride, kind) plus
per-``(phase, address)`` counters, so memory stays O(batch + code size)
however long the run.

Values keep Python semantics exactly.  An address whose values are all
ints below ``2**61`` in magnitude folds in int64 (no intermediate can
wrap); one whose values are all floats folds in float64, whose IEEE
subtraction, addition and comparison are Python's float operations
(NaN never matches, ``-0.0 == 0.0``).  An address that mixes ints and
floats, or reaches ``|v| >= 2**61`` (bigints included), leaves the fold
from that batch on: its records go through the per-record reference
(:func:`~repro.profiling.collector.observe_triples` over
``predictor.access``) on a private predictor seeded with the carried
entry.  :meth:`ProfileFold.finish` then writes the images, the
predictors' table entries and their meters in first-occurrence order —
the state the reference leaves, faulting runs included.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..isa import Number, Program
from ..machine import value_flags
from ..predictors import LastValuePredictor, StridePredictor, ValuePredictor
from ..predictors.last_value import LastValueEntry
from ..predictors.stride import StrideEntry
from ..predictors.table import PredictionTable
from .collector import ProfileImage, observe_triples

#: Predictor type -> fold family.  Two predictors of one family fold to
#: identical state, so each family is folded once per batch.
_FAMILIES = {StridePredictor: "stride", LastValuePredictor: "last_value"}

#: Fold family -> table entry built from a carried ``(last, stride)``.
_ENTRIES = {
    "stride": StrideEntry,
    "last_value": lambda last, stride: LastValueEntry(last),
}

#: Per-address kind carried across batches.
_UNSEEN, _INT, _FLOAT, _REFERENCE = 0, 1, 2, 3


def build_profile_fold(
    program: Program,
    predictors: Mapping[str, ValuePredictor],
    images: Mapping[str, ProfileImage],
    is_candidate: List[bool],
    categories: List,
    sample_every: int,
) -> Optional["ProfileFold"]:
    """A :class:`ProfileFold` for ``predictors``, or ``None``.

    ``None`` when numpy is unavailable (or disabled with
    ``REPRO_NO_NUMPY``) or any predictor is not a stock stride /
    last-value predictor over an infinite, empty, unmetered table; the
    caller then runs the per-record reference.
    """
    from ..core.simulate_vec import numpy_or_none

    np = numpy_or_none()
    if np is None:
        return None
    for predictor in predictors.values():
        if type(predictor) not in _FAMILIES:
            return None
        table = predictor.table
        if type(table) is not PredictionTable or not table.is_infinite:
            return None
        if len(table) or table.lookups or table.hits or table.evictions:
            return None
    return ProfileFold(
        np, program, predictors, images, is_candidate, categories, sample_every
    )


class ProfileFold:
    """Folds one run's candidate stream into profile images, per batch."""

    def __init__(
        self, np, program, predictors, images, is_candidate, categories, sample_every
    ) -> None:
        from ..core.simulate_vec import SAFE_MAGNITUDE

        self._np = np
        self._safe = SAFE_MAGNITUDE
        self._predictors = predictors
        self._images = images
        self._categories = categories
        self._sample_every = sample_every
        self._offset = 0
        size = len(program.instructions)
        self._size = size
        self._producer = np.frombuffer(value_flags(program), dtype=np.uint8).astype(
            bool
        )
        self._candidate = np.array(is_candidate, dtype=bool).reshape(size)
        # A stable sort of 16-bit keys is a radix sort.
        self._sort_dtype = np.uint16 if size <= 1 << 16 else np.int64
        self._families = sorted({_FAMILIES[type(p)] for p in predictors.values()})
        # Per-address carry.
        self._kind = np.zeros(size, dtype=np.int8)
        self._last_int = np.zeros(size, dtype=np.int64)
        self._stride_int = np.zeros(size, dtype=np.int64)
        self._last_float = np.zeros(size, dtype=np.float64)
        self._stride_float = np.zeros(size, dtype=np.float64)
        self._nonzero = np.zeros(size, dtype=np.int64)
        # Per-(phase row, address) counters of the folded records, and the
        # global position of each pair's first record (-1: never seen).
        self._phases: List[int] = []
        self._rows: Dict[int, int] = {}
        self._first = np.empty((0, size), dtype=np.int64)
        self._executions = np.empty((0, size), dtype=np.int64)
        self._attempts = np.empty((0, size), dtype=np.int64)
        self._correct = {
            family: np.empty((0, size), dtype=np.int64) for family in self._families
        }
        # Addresses that left the fold: a private predictor and image per
        # family, fed by the per-record reference.
        self._shadows = {
            family: (
                StridePredictor() if family == "stride" else LastValuePredictor(),
                ProfileImage(program.name),
            )
            for family in self._families
        }
        self.reference_records = 0

    # -- per batch -----------------------------------------------------------

    def _row(self, phase: int) -> int:
        row = self._rows.get(phase)
        if row is None:
            np = self._np
            row = self._rows[phase] = len(self._phases)
            self._phases.append(phase)
            grow = np.zeros((1, self._size), dtype=np.int64)
            self._first = np.vstack((self._first, grow - 1))
            self._executions = np.vstack((self._executions, grow))
            self._attempts = np.vstack((self._attempts, grow))
            for family, counts in self._correct.items():
                self._correct[family] = np.vstack((counts, grow))
        return row

    def consume(self, batch) -> None:
        """Fold one trace batch."""
        np = self._np
        base = self._offset
        addresses_all = np.frombuffer(batch.addresses, dtype=np.int64)
        self._offset += addresses_all.size
        # Record positions of the value producers, in produced-value order.
        positions = np.flatnonzero(self._producer[addresses_all])
        keep = self._candidate[addresses_all[positions]]
        if self._sample_every > 1:
            keep &= (positions + base) % self._sample_every == 0
        selected = np.flatnonzero(keep)
        if not selected.size:
            return
        positions = positions[selected]
        addresses = addresses_all[positions]
        column = batch.values
        ints = np.frombuffer(column.ints, dtype=np.int64)
        values = ints[selected]
        kinds = np.full(selected.size, _INT, dtype=np.int8)
        kinds[(values >= self._safe) | (values <= -self._safe)] = _REFERENCE
        floats = None
        escapes = column.escapes
        if escapes:
            escaped = np.fromiter(escapes, dtype=np.int64, count=len(escapes))
            escaped_values = list(escapes.values())
            if set(map(type, escaped_values)) == {float}:
                is_float = np.ones(escaped.size, dtype=bool)
            else:
                is_float = np.array([type(value) is float for value in escaped_values])
                escaped_values = [
                    value if type(value) is float else 0.0 for value in escaped_values
                ]
            code = np.zeros(ints.size, dtype=np.int8)
            code[escaped] = np.where(is_float, _FLOAT, _REFERENCE)
            as_float = np.zeros(ints.size, dtype=np.float64)
            as_float[escaped] = escaped_values
            code = code[selected]
            kinds = np.where(code != 0, code, kinds)
            floats = as_float[selected]
        run_starts = np.array([start for start, _ in batch.phase_runs], dtype=np.int64)
        run_rows = np.array(
            [self._row(phase) for _, phase in batch.phase_runs], dtype=np.int64
        )
        rows = run_rows[np.searchsorted(run_starts, positions, side="right") - 1]

        # Address segments in time order.
        order = np.argsort(addresses.astype(self._sort_dtype), kind="stable")
        sorted_addresses = addresses[order]
        sorted_rows = rows[order]

        # First global position of every (phase row, address) pair.
        for row in sorted(set(run_rows.tolist())):
            picked = np.flatnonzero(sorted_rows == row)
            if not picked.size:
                continue
            members = sorted_addresses[picked]
            lead = np.empty(picked.size, dtype=bool)
            lead[0] = True
            np.not_equal(members[1:], members[:-1], out=lead[1:])
            members = members[lead]
            fresh = self._first[row, members] < 0
            self._first[row, members[fresh]] = (
                base + positions[order[picked[lead]]][fresh]
            )

        # Decide each address's kind for this batch.
        sorted_kinds = kinds[order]
        head = np.empty(order.size, dtype=bool)
        head[0] = True
        np.not_equal(sorted_addresses[1:], sorted_addresses[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        segment_addresses = sorted_addresses[starts]
        low = np.minimum.reduceat(sorted_kinds, starts)
        high = np.maximum.reduceat(sorted_kinds, starts)
        carried = self._kind[segment_addresses]
        leave = (
            (low != high)
            | (high == _REFERENCE)
            | (carried == _REFERENCE)
            | ((carried != _UNSEEN) & (carried != low))
        )
        self._leave_fold(segment_addresses[leave & (carried != _REFERENCE)].tolist())
        self._kind[segment_addresses[leave]] = _REFERENCE

        reference = np.flatnonzero(self._kind[addresses] == _REFERENCE)
        if reference.size:
            self._reference(batch, selected, addresses, rows, reference)

        folded = np.repeat(~leave, np.diff(np.append(starts, order.size)))
        parts = []
        for kind, last, stride, column_values in (
            (_INT, self._last_int, self._stride_int, values),
            (_FLOAT, self._last_float, self._stride_float, floats),
        ):
            if column_values is None:
                continue
            subset = np.flatnonzero(folded & (sorted_kinds == kind))
            if subset.size:
                parts.append(
                    self._fold(
                        sorted_addresses[subset],
                        sorted_rows[subset],
                        column_values[order[subset]],
                        last,
                        stride,
                    )
                )
        self._kind[segment_addresses[~leave]] = low[~leave]
        if not parts:
            return
        keys = np.concatenate([part[0] for part in parts])
        hits = np.concatenate([part[1] for part in parts])
        cells = self._executions.size
        self._executions += np.bincount(keys, minlength=cells).reshape(
            self._executions.shape
        )
        self._attempts += np.bincount(keys[hits], minlength=cells).reshape(
            self._attempts.shape
        )
        for family, counts in self._correct.items():
            correct = np.concatenate([part[2][family] for part in parts])
            counts += np.bincount(keys[correct], minlength=cells).reshape(
                counts.shape
            )
        if "stride" in self._correct:
            nonzero = np.concatenate([part[3] for part in parts])
            self._nonzero += np.bincount(
                keys[nonzero] % self._size, minlength=self._size
            )

    def _fold(self, addresses, rows, values, last, stride):
        """Fold one address-sorted, single-dtype run of segments.

        Updates the ``last``/``stride`` carry in place and returns the
        flat ``(row, address)`` keys, the hit mask, the per-family
        correct masks and the non-zero-stride mask.
        """
        np = self._np
        count = addresses.size
        head = np.empty(count, dtype=bool)
        head[0] = True
        np.not_equal(addresses[1:], addresses[:-1], out=head[1:])
        heads = addresses[head]
        previous = np.empty_like(values)
        previous[1:] = values[:-1]
        previous[head] = last[heads]
        hit = np.ones(count, dtype=bool)
        hit[head] = self._kind[heads] != _UNSEEN
        correct = {}
        nonzero = None
        with np.errstate(all="ignore"):
            delta = values - previous
            delta[~hit] = 0
            if "last_value" in self._families:
                correct["last_value"] = hit & (previous == values)
            if "stride" in self._families:
                before = np.empty_like(values)
                before[1:] = delta[:-1]
                before[head] = stride[heads]
                matched = hit & (previous + before == values)
                correct["stride"] = matched
                nonzero = matched & (before != 0)
        tail = np.empty(count, dtype=bool)
        tail[-1] = True
        tail[:-1] = head[1:]
        tails = addresses[tail]
        last[tails] = values[tail]
        stride[tails] = delta[tail]
        return rows * self._size + addresses, hit, correct, nonzero

    def _carried(self, addresses: List[int]) -> List[Tuple[Number, Number]]:
        """``(last value, stride)`` the reference holds for folded addresses."""
        index = self._np.array(addresses, dtype=self._np.int64)
        return [
            (last_int, stride_int) if is_int
            # A first access stores the int stride 0; only a hit makes it a
            # float difference.
            else (last_float, stride_float if attempted else 0)
            for is_int, attempted, last_int, stride_int, last_float, stride_float
            in zip(
                (self._kind[index] == _INT).tolist(),
                self._attempts[:, index].any(axis=0).tolist(),
                self._last_int[index].tolist(),
                self._stride_int[index].tolist(),
                self._last_float[index].tolist(),
                self._stride_float[index].tolist(),
            )
        ]

    def _leave_fold(self, addresses: List[int]) -> None:
        """Seed the private predictors with the carried entries."""
        seen = [address for address in addresses if self._kind[address] != _UNSEEN]
        for address, (last, stride) in zip(seen, self._carried(seen)):
            for family, (predictor, _image) in self._shadows.items():
                predictor.table.insert(address, _ENTRIES[family](last, stride))

    def _reference(self, batch, selected, addresses, rows, reference) -> None:
        """Run the records of addresses outside the fold per record."""
        escapes = batch.values.escapes
        ints = batch.values.ints
        phases = self._phases
        triples = []
        for produced, address, row in zip(
            selected[reference].tolist(),
            addresses[reference].tolist(),
            rows[reference].tolist(),
        ):
            value = escapes.get(produced)
            if value is None:
                value = ints[produced]
            triples.append((address, value, phases[row]))
        self.reference_records += len(triples)
        observe_triples(list(self._shadows.values()), self._categories, triples)

    # -- writing back --------------------------------------------------------

    def finish(self) -> None:
        """Write images, table entries and meters in first-occurrence order.

        The caller invokes it once, from a ``finally``, so a run that
        faults leaves every observation up to the fault, as the
        reference does.
        """
        if not self._phases:
            return
        np = self._np
        first = self._first
        rows, columns = np.nonzero(first >= 0)
        order = np.argsort(first[rows, columns])
        pairs = list(zip(rows[order].tolist(), columns[order].tolist()))
        addresses = list(dict.fromkeys(address for _row, address in pairs))

        executions = self._executions.tolist()
        attempts = self._attempts.tolist()
        totals = (
            self._executions.sum(axis=0).tolist(),
            self._attempts.sum(axis=0).tolist(),
        )
        nonzero = self._nonzero.tolist()
        kinds = self._kind.tolist()
        carried = self._carried(addresses)
        categories = self._categories
        phases = self._phases
        for name, predictor in self._predictors.items():
            family = _FAMILIES[type(predictor)]
            make_entry = _ENTRIES[family]
            shadow_predictor, shadow = self._shadows[family]
            shadow_groups = shadow.group_detail
            correct = self._correct[family]
            correct_rows = correct.tolist()
            correct_total = correct.sum(axis=0).tolist()
            stride_family = family == "stride"
            image = self._images[name]
            table = predictor.table
            for address, (last, stride) in zip(addresses, carried):
                profile = image.profile_for(address)
                profile.executions += totals[0][address]
                profile.attempts += totals[1][address]
                profile.correct += correct_total[address]
                if stride_family:
                    profile.nonzero_stride_correct += nonzero[address]
                if kinds[address] == _REFERENCE:
                    other = shadow.instructions[address]
                    profile.executions += other.executions
                    profile.attempts += other.attempts
                    profile.correct += other.correct
                    profile.nonzero_stride_correct += other.nonzero_stride_correct
                    entry = shadow_predictor.table.peek(address)
                    last = entry.last_value
                    stride = getattr(entry, "stride", 0)
                table.insert(address, make_entry(last, stride))
                table.lookups += profile.executions
                table.hits += profile.attempts
            for row, address in pairs:
                phase = phases[row]
                category = categories[address]
                slot = image.group_slot(category, phase, address)
                slot[0] += executions[row][address]
                slot[1] += attempts[row][address]
                slot[2] += correct_rows[row][address]
                if kinds[address] == _REFERENCE:
                    other = shadow_groups.get((category, phase), {}).get(address)
                    if other is not None:
                        slot[0] += other[0]
                        slot[1] += other[1]
                        slot[2] += other[2]


__all__ = ["ProfileFold", "build_profile_fold"]
