"""Unit tests for the abstract ILP machine."""

from __future__ import annotations

import pytest

from repro.core import (
    AlwaysClassification,
    HardwareClassification,
    PredictionEngine,
)
from repro.isa import assemble
from repro.ilp import IlpConfig, measure_ilp, measure_ilp_many, ilp_increase
from repro.ilp.model import reference_ilp_many
from repro.predictors import StridePredictor

SERIAL_CHAIN = """
.text
    li r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    halt
"""

INDEPENDENT = """
.text
    li r1, 1
    li r2, 2
    li r3, 3
    li r4, 4
    li r5, 5
    li r6, 6
    li r7, 7
    halt
"""

STRIDE_LOOP = """
.text
    li r1, 0
    li r2, 200
loop:
    addi r1, r1, 1
    mul r3, r1, r1
    add r4, r3, r1
    slt r5, r1, r2
    bnez r5, loop
    halt
"""

MEMORY_LOOP = """
.text
    li r1, 0
    li r2, 60
loop:
    st r1, gp, 0
    ld r3, gp, 0
    addi r3, r3, 3
    st r3, gp, 1
    ld r4, gp, 1
    mul r5, r4, r1
    addi r1, r1, 1
    slt r6, r1, r2
    bnez r6, loop
    halt
"""


class TestDataflowScheduling:
    def test_independent_instructions_run_in_parallel(self):
        result = measure_ilp(assemble(INDEPENDENT))
        # All 7 li's issue at cycle 0 and complete at cycle 1 (+ halt).
        assert result.ilp > 3.0

    def test_serial_chain_is_serialized(self):
        result = measure_ilp(assemble(SERIAL_CHAIN))
        # Each addi depends on the previous one: ~1 instruction per cycle.
        assert result.ilp < 1.5

    def test_chain_slower_than_independent(self):
        chain = measure_ilp(assemble(SERIAL_CHAIN))
        parallel = measure_ilp(assemble(INDEPENDENT))
        assert parallel.ilp > chain.ilp

    def test_window_limits_ilp(self):
        wide = measure_ilp(assemble(INDEPENDENT), config=IlpConfig(window_size=40))
        narrow = measure_ilp(assemble(INDEPENDENT), config=IlpConfig(window_size=2))
        assert wide.ilp >= narrow.ilp

    def test_memory_dependence_honored(self):
        source = """
.text
    li r1, 7
    st r1, gp, 0
    ld r2, gp, 0
    addi r3, r2, 1
    halt
"""
        with_memory = measure_ilp(
            assemble(source), config=IlpConfig(track_memory_dependencies=True)
        )
        without_memory = measure_ilp(
            assemble(source), config=IlpConfig(track_memory_dependencies=False)
        )
        assert with_memory.cycles >= without_memory.cycles

    def test_instruction_count_matches_trace(self):
        from repro.machine import run_program

        program = assemble(STRIDE_LOOP)
        result = measure_ilp(program)
        assert result.instructions == run_program(program).instruction_count


class TestValuePredictionEffect:
    def make_engine(self, program, scheme=None):
        return PredictionEngine(
            program,
            predictor=StridePredictor(),
            scheme=scheme or AlwaysClassification(),
        )

    def test_prediction_collapses_serial_chain(self):
        program = assemble(STRIDE_LOOP)
        baseline = measure_ilp(program)
        predicted = measure_ilp(program, engine=self.make_engine(program))
        assert predicted.ilp > baseline.ilp
        assert predicted.taken_predictions > 0
        assert predicted.correct_predictions > 0

    def test_result_counters_consistent(self):
        program = assemble(STRIDE_LOOP)
        result = measure_ilp(program, engine=self.make_engine(program))
        assert (
            result.taken_predictions
            == result.correct_predictions + result.mispredictions
        )

    def test_misprediction_penalty_hurts(self):
        # An anti-predictable value stream: always take, often wrong.
        source = """
.text
    li r1, 1
    li r2, 120
    li r3, 0
loop:
    mul r4, r3, r3
    xori r3, r3, 1
    mul r5, r4, r4
    addi r1, r1, 1
    slt r6, r1, r2
    bnez r6, loop
    halt
"""
        program = assemble(source)
        cheap = measure_ilp(
            program,
            engine=self.make_engine(program),
            config=IlpConfig(misprediction_penalty=0),
        )
        costly = measure_ilp(
            program,
            engine=self.make_engine(program),
            config=IlpConfig(misprediction_penalty=10),
        )
        assert costly.cycles >= cheap.cycles

    def test_classified_never_worse_than_unclassified_on_noise(self):
        program = assemble(STRIDE_LOOP)
        unclassified = measure_ilp(program, engine=self.make_engine(program))
        classified = measure_ilp(
            program, engine=self.make_engine(program, HardwareClassification())
        )
        # The FSM avoids some predictions; on this highly predictable loop
        # both should still beat the baseline.
        baseline = measure_ilp(program)
        assert classified.ilp > baseline.ilp
        assert unclassified.ilp > baseline.ilp


class TestMultiConfig:
    def test_many_matches_single(self):
        program = assemble(STRIDE_LOOP)
        single_baseline = measure_ilp(program)
        single_predicted = measure_ilp(program, engine=self.engine(program))
        many = measure_ilp_many(
            program,
            (),
            engines={"novp": None, "vp": self.engine(program)},
        )
        assert many["novp"].cycles == single_baseline.cycles
        assert many["vp"].cycles == single_predicted.cycles

    @staticmethod
    def engine(program):
        return PredictionEngine(
            program, predictor=StridePredictor(), scheme=AlwaysClassification()
        )


class TestConfigValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            IlpConfig(window_size=0)

    def test_bad_penalty(self):
        with pytest.raises(ValueError):
            IlpConfig(misprediction_penalty=-1)

    def test_ilp_increase_helper(self):
        program = assemble(STRIDE_LOOP)
        baseline = measure_ilp(program)
        assert ilp_increase(baseline, baseline) == 0.0


class TestPerLabelConfigs:
    def test_configs_override_shared(self):
        from repro.isa import assemble

        program = assemble(STRIDE_LOOP)
        results = measure_ilp_many(
            program,
            (),
            engines={"narrow": None, "wide": None},
            config=IlpConfig(window_size=40),
            configs={"narrow": IlpConfig(window_size=2)},
        )
        assert results["narrow"].cycles >= results["wide"].cycles

    def test_configs_sweep_matches_individual_runs(self):
        from repro.isa import assemble

        program = assemble(STRIDE_LOOP)
        swept = measure_ilp_many(
            program,
            (),
            engines={"w4": None, "w64": None},
            configs={
                "w4": IlpConfig(window_size=4),
                "w64": IlpConfig(window_size=64),
            },
        )
        individual_w4 = measure_ilp(program, config=IlpConfig(window_size=4))
        individual_w64 = measure_ilp(program, config=IlpConfig(window_size=64))
        assert swept["w4"].cycles == individual_w4.cycles
        assert swept["w64"].cycles == individual_w64.cycles


class TestInputValidation:
    def test_config_label_without_engine_rejected(self):
        program = assemble(STRIDE_LOOP)
        with pytest.raises(ValueError, match="wdie"):
            measure_ilp_many(
                program,
                (),
                engines={"wide": None},
                configs={"wdie": IlpConfig(window_size=2)},
            )

    def test_empty_engines_rejected(self):
        program = assemble(STRIDE_LOOP)
        with pytest.raises(ValueError, match="need at least one engine"):
            measure_ilp_many(program, (), engines={})

    def test_engine_shared_by_two_labels_rejected(self):
        program = assemble(STRIDE_LOOP)
        engine = TestMultiConfig.engine(program)
        with pytest.raises(ValueError, match="its own PredictionEngine"):
            measure_ilp_many(program, (), engines={"a": engine, "b": engine})


def _grid(program):
    """A no-VP machine plus stride engines on infinite and evicting tables."""
    from repro.core import ProfileClassification
    from repro.isa import Directive

    directives = {
        address: Directive.STRIDE for address in program.candidate_addresses
    }
    return {
        "novp": None,
        "always": PredictionEngine(
            program, StridePredictor(), AlwaysClassification()
        ),
        "fsm": PredictionEngine(
            program, StridePredictor(2, 1), HardwareClassification()
        ),
        "profile": PredictionEngine(
            program,
            StridePredictor(2, 2),
            ProfileClassification.from_directives(directives),
        ),
    }


def _engine_states(engines):
    from repro.check.oracle import _observe_engine

    return {
        label: _observe_engine(engine)
        for label, engine in engines.items()
        if engine is not None
    }


class TestTraceStore:
    def test_second_call_replays_instead_of_capturing(self):
        from repro.machine import TraceStore
        from repro.telemetry import Telemetry, use_registry

        program = assemble(STRIDE_LOOP)
        store = TraceStore()
        with use_registry(Telemetry()) as registry:
            first = measure_ilp_many(program, (), _grid(program), store=store)
            counters = registry.snapshot()["counters"]
            assert counters["machine.trace.captures"] == 1
            assert "machine.trace.replays" not in counters
            second = measure_ilp_many(program, (), _grid(program), store=store)
            counters = registry.snapshot()["counters"]
        assert counters["machine.trace.captures"] == 1
        assert counters["machine.trace.replays"] == 1
        assert second == first

    def test_results_and_engines_equal_with_and_without_store(self):
        from repro.machine import TraceStore

        program = assemble(STRIDE_LOOP)
        live_engines = _grid(program)
        live = measure_ilp_many(program, (), live_engines)
        store = TraceStore()
        measure_ilp_many(program, (), _grid(program), store=store)
        replay_engines = _grid(program)
        replayed = measure_ilp_many(program, (), replay_engines, store=store)
        assert replayed == live
        assert _engine_states(replay_engines) == _engine_states(live_engines)

    def test_budget_overrun_same_on_live_and_replay_paths(self):
        from repro.machine import InstructionBudgetExceeded, TraceStore

        program = assemble(STRIDE_LOOP)
        store = TraceStore()
        raised = []
        states = []
        for use_store in (False, True, True):  # live, capture, replay
            engines = _grid(program)
            with pytest.raises(InstructionBudgetExceeded) as excinfo:
                measure_ilp_many(
                    program,
                    (),
                    engines,
                    max_instructions=300,
                    store=store if use_store else None,
                )
            raised.append((type(excinfo.value), str(excinfo.value)))
            states.append(_engine_states(engines))
        assert raised[0] == raised[1] == raised[2]
        assert "300" in raised[0][1]
        assert states[0] == states[1] == states[2]


class TestBatchWalkerMatchesReference:
    """The batch walker against ``reference_ilp_many`` (per-record feed)."""

    @staticmethod
    def reference(program, inputs, engines, **kwargs):
        from repro.machine import trace_batches

        return reference_ilp_many(
            program, trace_batches(program, inputs), engines, **kwargs
        )

    @pytest.mark.parametrize(
        "config",
        [
            IlpConfig(),
            IlpConfig(window_size=1),
            IlpConfig(window_size=4, misprediction_penalty=3),
            IlpConfig(track_memory_dependencies=False),
        ],
    )
    def test_programs_and_machines(self, config):
        sources = [SERIAL_CHAIN, INDEPENDENT, STRIDE_LOOP, MEMORY_LOOP]
        for source in sources:
            program = assemble(source)
            fast_engines = _grid(program)
            fast = measure_ilp_many(program, (), fast_engines, config=config)
            reference_engines = _grid(program)
            reference = self.reference(
                program, (), reference_engines, config=config
            )
            assert fast == reference
            assert _engine_states(fast_engines) == _engine_states(
                reference_engines
            )

    def test_scheduler_state_carries_across_batches(self, monkeypatch):
        import repro.machine.executor as executor_module

        program = assemble(MEMORY_LOOP)
        whole = measure_ilp_many(program, (), _grid(program))
        original = executor_module.Executor.run_batches
        monkeypatch.setattr(
            executor_module.Executor,
            "run_batches",
            lambda self, chunk_size=7: original(self, chunk_size=7),
        )
        assert measure_ilp_many(program, (), _grid(program)) == whole

    def test_table_5_2_grid_matches_reference(self):
        from repro.core import ProfileClassification
        from repro.experiments.context import ExperimentContext
        from repro.experiments.shared import (
            FSM_LABEL,
            TABLE_ENTRIES,
            TABLE_WAYS,
            THRESHOLDS,
            ilp_results,
            threshold_label,
        )

        context = ExperimentContext(scale=0.01, training_runs=2)
        name = "124.m88ksim"
        fast = ilp_results(context, name)
        program = context.program(name)
        engines = {
            "novp": None,
            FSM_LABEL: PredictionEngine(
                program,
                predictor=StridePredictor(TABLE_ENTRIES, TABLE_WAYS),
                scheme=HardwareClassification(),
            ),
        }
        for threshold in THRESHOLDS:
            annotated = context.annotated(name, threshold)
            engines[threshold_label(threshold)] = PredictionEngine(
                annotated,
                predictor=StridePredictor(TABLE_ENTRIES, TABLE_WAYS),
                scheme=ProfileClassification(annotated),
            )
        batches = context.traces.batches(program, context.test_inputs(name))
        reference = reference_ilp_many(program, batches, engines)
        assert fast == reference
        assert set(fast) == {"novp", FSM_LABEL} | {
            threshold_label(threshold) for threshold in THRESHOLDS
        }
