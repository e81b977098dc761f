"""The ``repro`` toolchain CLI.

Mirrors the paper's three-phase workflow as shell commands::

    python -m repro compile  program.mc -o program.asm
    python -m repro run      program.asm --inputs 3,4,5
    python -m repro profile  program.asm --inputs in0.txt -o program.profile
    python -m repro annotate program.asm program.profile --threshold 90 -o tagged.asm
    python -m repro disasm   tagged.asm
    python -m repro fuse     "profiles/*.profile" -o merged.profile

and exposes the whole experiment suite through the same entry point::

    python -m repro experiments all --jobs 4
    python -m repro experiments fig-2.2 table-5.2 --scale 0.3
    python -m repro experiments all --jobs 4 --retries 2 --job-timeout 600 \\
        --report-json run-report.json

plus the pinned performance suite::

    python -m repro bench --output BENCH.json
    python -m repro bench --smoke

and the correctness tooling (differential oracle + invariant lint)::

    python -m repro check
    python -m repro check --smoke

plus the learned predictability classifier (profile-free phase 3)::

    python -m repro classify train -o model.json
    python -m repro classify predict model.json program.asm -o tagged.asm
    python -m repro classify eval model.json

plus the profiling service (one shared trace store, many tenants)::

    python -m repro serve --port 8750
    python -m repro client compile demo.mc -o demo.asm
    python -m repro client profile demo.asm --inputs 1,2,3 -o demo.profile
    python -m repro client shutdown

Programs on disk are stored in the textual assembly format
(:mod:`repro.isa.assembler`); ``compile`` turns mini-C into it, and every
other command consumes it.  Inputs may be given inline (``--inputs 1,2,3``)
or as a whitespace-separated file (``--inputs @file``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .annotate import AnnotationPolicy
from .isa import Program, assemble, disassemble
from .machine import run_program
from .operations import (
    OPERATIONS,
    ApiError,
    parse_input_sets,
    parse_input_stream,
    parse_inputs_spec,  # noqa: F401  (re-exported: the --inputs spec parser)
    write_output,
)
from .profiling import read_profile


def _load_program(path: str) -> Program:
    text = Path(path).read_text(encoding="utf-8")
    return assemble(text, name=Path(path).stem)


def _command_operation(arguments: argparse.Namespace) -> int:
    """Run one operation locally: ``compile``, ``annotate``, ``classify predict``.

    ``arguments.summary`` is the stderr line, formatted with the parsed
    arguments and the run's meta.
    """
    job = arguments.operation.job_from_arguments(arguments)
    text, meta = arguments.operation.run(job, None)
    write_output(text, arguments.output)
    print(arguments.summary.format_map({**vars(arguments), **meta}), file=sys.stderr)
    return 0


def _command_run(arguments: argparse.Namespace) -> int:
    program = _load_program(arguments.program)
    result = run_program(
        program,
        inputs=parse_input_stream(arguments.inputs or []),
        max_instructions=arguments.max_instructions,
    )
    for value in result.outputs:
        print(value)
    print(
        f"retired {result.instruction_count} instructions",
        file=sys.stderr,
    )
    return 0


def _command_profile(arguments: argparse.Namespace) -> int:
    """``profile``, plus the local-only ``--trace`` files and sharded capture."""
    import contextlib
    import tempfile

    from .machine import DEFAULT_BUDGET, TraceStore, capture_sharded, read_trace
    from .operations import job_program, merge_runs, profile_images
    from .profiling import collect_profile, dumps_profile, save_profile

    job = arguments.operation.job_from_arguments(arguments)
    program = job_program(job)
    images = [
        collect_profile(
            program,
            records=read_trace(path),
            run_label=f"trace-{index}",
            sample_every=job.sample_every,
        )
        for index, path in enumerate(arguments.trace or [])
    ]
    if arguments.inputs or not images:
        with contextlib.ExitStack() as stack:
            store = None
            store_dir = arguments.store
            if arguments.jobs > 1 or store_dir:
                # Capture the training runs across worker processes into one
                # shared TraceStore, then profile by (in-process) replay.  A
                # --store directory persists the traces; otherwise they live
                # in a temporary directory for the duration of the command.
                if store_dir is None:
                    store_dir = stack.enter_context(tempfile.TemporaryDirectory())
                report = capture_sharded(
                    program,
                    job.input_sets,
                    directory=store_dir,
                    jobs=arguments.jobs,
                    max_instructions=job.max_instructions or DEFAULT_BUDGET,
                )
                if report.failures:
                    # The replay would re-raise each fault at the exact same
                    # record a serial run would — surface them early instead.
                    for failure in report.failures:
                        print(
                            f"profile: input set {failure.index} faulted: "
                            f"{failure.error}",
                            file=sys.stderr,
                        )
                    return 1
                store = TraceStore(directory=store_dir)
            images.extend(profile_images(job, store))
    image = merge_runs(images)
    if arguments.output:
        save_profile(image, arguments.output)
        print(
            f"profiled {len(image)} instructions over {len(images)} run(s) "
            f"-> {arguments.output}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(dumps_profile(image))
    return 0


def _command_fuse(arguments: argparse.Namespace) -> int:
    """``fuse``, plus the local-only sketch output, batch engine and report."""
    import json

    from .operations import fuse_image, profile_paths
    from .profiling import (
        ProfileSketch,
        dumps_profile,
        fidelity_report,
        merge_profiles,
        read_any_profile,
        save_profile,
        save_sketch,
    )

    paths = profile_paths(arguments.profiles)
    make_sketch = arguments.sketch or arguments.quantize > 0
    if make_sketch and (not arguments.output or arguments.output == "-"):
        print("fuse: --sketch output is binary; -o PATH is required",
              file=sys.stderr)
        return 2

    images = map(read_any_profile, paths)
    if arguments.batch:
        image = merge_profiles(images, require_common=arguments.require_common)
    else:
        image = fuse_image(images, require_common=arguments.require_common)

    if arguments.report:
        report = fidelity_report(map(read_any_profile, paths))
        Path(arguments.report).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )

    if make_sketch:
        save_sketch(
            ProfileSketch.from_image(image, arguments.quantize), arguments.output
        )
        destination = arguments.output
    elif arguments.output and arguments.output != "-":
        save_profile(image, arguments.output)
        destination = arguments.output
    else:
        sys.stdout.write(dumps_profile(image))
        destination = "stdout"
    engine = "batch" if arguments.batch else "streaming"
    print(
        f"fused {len(paths)} profile(s) into {len(image)} instructions "
        f"({engine}) -> {destination}",
        file=sys.stderr,
    )
    return 0


def _command_corpus(arguments: argparse.Namespace) -> int:
    """Generate a seeded mini-C workload corpus; compile and verify it."""
    import json

    from .machine import ExecutionError
    from .workloads import TEST_INDEX
    from .workloads.corpus import DEFAULT_MIX, generate_corpus, parse_mix

    try:
        mix = parse_mix(arguments.mix) if arguments.mix else DEFAULT_MIX
        workloads = generate_corpus(
            arguments.seed, arguments.count, mix, name_prefix=arguments.prefix
        )
    except ValueError as error:
        print(f"corpus: {error}", file=sys.stderr)
        return 2
    out_dir = Path(arguments.out_dir) if arguments.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    compiled = [
        (
            workload,
            workload.compile(),
            [workload.input_set(index) for index in range(TEST_INDEX + 1)],
        )
        for workload in workloads
    ]
    verification: dict = {}
    if not arguments.no_verify and getattr(arguments, "jobs", 1) > 1:
        # Flatten every (workload, input set) run into one case list and
        # verify across worker processes; results come back in case order.
        from .machine import parallel_runs

        cases = [
            (program, inputs)
            for _workload, program, input_sets in compiled
            for inputs in input_sets
        ]
        outcomes = parallel_runs(
            cases, jobs=arguments.jobs,
            max_instructions=arguments.max_instructions,
        )
        cursor = 0
        for workload, _program, input_sets in compiled:
            verification[workload.name] = outcomes[
                cursor : cursor + len(input_sets)
            ]
            cursor += len(input_sets)
    manifest = []
    for workload, program, input_sets in compiled:
        entry = {
            "name": workload.name,
            "suite": workload.suite,
            "seed": arguments.seed,
            "static_instructions": len(program),
            "candidates": len(program.candidate_addresses),
        }
        if not arguments.no_verify:
            dynamic = 0
            outcomes = verification.get(workload.name)
            for index, inputs in enumerate(input_sets):
                if outcomes is not None:
                    count, error_text = outcomes[index]
                else:
                    try:
                        result = run_program(
                            program,
                            inputs=inputs,
                            max_instructions=arguments.max_instructions,
                        )
                        count, error_text = result.instruction_count, None
                    except ExecutionError as error:
                        count, error_text = 0, str(error)
                if error_text is not None:
                    print(
                        f"corpus: {workload.name} failed on input set "
                        f"{index}: {error_text}",
                        file=sys.stderr,
                    )
                    return 1
                dynamic += count
            entry["dynamic_instructions"] = dynamic
        if out_dir is not None:
            # Workload names contain dots, so build filenames by plain
            # concatenation — Path.with_suffix would clobber the last part.
            (out_dir / f"{workload.name}.mc").write_text(
                workload.source, encoding="utf-8"
            )
            (out_dir / f"{workload.name}.asm").write_text(
                disassemble(program), encoding="utf-8"
            )
            for index, inputs in enumerate(input_sets):
                (out_dir / f"{workload.name}.inputs-{index}.txt").write_text(
                    " ".join(str(value) for value in inputs) + "\n",
                    encoding="utf-8",
                )
        manifest.append(entry)
    if arguments.manifest:
        Path(arguments.manifest).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    verified = "verified" if not arguments.no_verify else "unverified"
    suites = {entry["suite"] for entry in manifest}
    print(
        f"generated {len(manifest)} workloads (seed {arguments.seed}, "
        f"suites {'+'.join(sorted(suites))}, {verified})"
        + (f" -> {out_dir}" if out_dir is not None else ""),
        file=sys.stderr,
    )
    return 0


def _command_trace(arguments: argparse.Namespace) -> int:
    """``trace`` to a file (``.gz`` compresses), or sharded into a TraceStore."""
    from .machine import capture_sharded, save_trace
    from .operations import job_program

    job = arguments.operation.job_from_arguments(arguments)
    program = job_program(job)
    if arguments.store:
        # Sharded capture: each --inputs flag is its own run, captured
        # into one content-addressed TraceStore across --jobs workers.
        if arguments.output:
            print(
                "trace: choose one of -o (single trace file) or "
                "--store (sharded capture directory)",
                file=sys.stderr,
            )
            return 2
        report = capture_sharded(
            program,
            parse_input_sets(arguments.inputs or [""]),
            directory=arguments.store,
            jobs=arguments.jobs,
            max_instructions=job.max_instructions,
        )
        for failure in report.failures:
            print(
                f"trace: input set {failure.index} faulted: {failure.error} "
                "(partial trace stored; it replays the same fault)",
                file=sys.stderr,
            )
        print(
            f"captured {len(report.results)} run(s), {report.records} records "
            f"({report.jobs} job(s), {report.elapsed:.2f}s) "
            f"-> {arguments.store}",
            file=sys.stderr,
        )
        return 0
    if not arguments.output:
        print("trace: -o is required without --store", file=sys.stderr)
        return 2
    if arguments.jobs != 1:
        print(
            "trace: --jobs needs --store (a single trace file is one run)",
            file=sys.stderr,
        )
        return 2
    records = save_trace(
        program,
        arguments.output,
        inputs=job.inputs,
        max_instructions=job.max_instructions,
    )
    print(f"wrote {records} records to {arguments.output}", file=sys.stderr)
    return 0


def _command_disasm(arguments: argparse.Namespace) -> int:
    program = _load_program(arguments.program)
    write_output(disassemble(program), arguments.output)
    return 0


def _command_report(arguments: argparse.Namespace) -> int:
    """Rank instructions by profiled value predictability."""
    program = _load_program(arguments.program)
    image = read_profile(arguments.profile)
    rows = []
    for address, profile in image.instructions.items():
        if profile.attempts < arguments.min_attempts:
            continue
        rows.append((profile.accuracy, profile.stride_efficiency, profile, address))
    rows.sort(key=lambda row: (row[0], row[1], row[3]), reverse=True)
    limit = arguments.top

    def print_section(title: str, section) -> None:
        print(title)
        print(f"  {'addr':>6s} {'exec':>8s} {'acc%':>7s} {'stride%':>8s}  instruction")
        for accuracy, stride_ratio, profile, address in section:
            print(
                f"  {address:6d} {profile.executions:8d} {accuracy:7.1f} "
                f"{stride_ratio:8.1f}  {program[address].render()}"
            )

    print_section(f"most predictable ({limit}):", rows[:limit])
    print()
    print_section(f"least predictable ({limit}):", rows[-limit:][::-1])
    executed = sum(profile.executions for _, _, profile, _ in rows)
    correct = sum(profile.correct for _, _, profile, _ in rows)
    attempts = sum(profile.attempts for _, _, profile, _ in rows)
    overall = 100.0 * correct / attempts if attempts else 0.0
    print(
        f"\n{len(rows)} instructions, {executed} dynamic executions, "
        f"overall accuracy {overall:.1f}%"
    )
    return 0


def _classify_corpus(arguments: argparse.Namespace):
    """The seeded corpus shared by ``classify train`` and ``classify eval``.

    Returns ``(training slice, held-out slice)``; the split point is
    ``--train-count``, so the two subcommands agree on which programs the
    model has never seen.
    """
    from .workloads.corpus import DEFAULT_MIX, generate_corpus

    workloads = generate_corpus(
        arguments.corpus_seed, arguments.corpus_count, DEFAULT_MIX
    )
    cut = max(1, min(arguments.train_count, len(workloads) - 1))
    return workloads[:cut], workloads[cut:]


def _classify_policy(arguments: argparse.Namespace) -> AnnotationPolicy:
    return AnnotationPolicy(
        accuracy_threshold=arguments.threshold,
        stride_threshold=arguments.stride_threshold,
    )


def _command_classify_train(arguments: argparse.Namespace) -> int:
    """Train the predictability model on the corpus training slice."""
    from .classify import (
        build_dataset,
        dataset_rows,
        dumps_model,
        model_digest,
        train_model,
    )

    training, _held_out = _classify_corpus(arguments)
    labeled = build_dataset(
        training,
        training_runs=arguments.training_runs,
        scale=arguments.scale,
        policy=_classify_policy(arguments),
    )
    rows = dataset_rows(labeled)
    model = train_model(
        rows,
        seed=arguments.seed,
        max_depth=arguments.max_depth,
        min_leaf=arguments.min_leaf,
    )
    write_output(dumps_model(model), arguments.output)
    print(
        f"trained on {len(labeled)} programs ({model.training_rows} rows): "
        f"{model.node_count} nodes, depth {model.depth}, "
        f"digest {model_digest(model)[:16]}",
        file=sys.stderr,
    )
    return 0


def _command_classify_eval(arguments: argparse.Namespace) -> int:
    """Held-out per-instruction label accuracy vs the majority baseline."""
    from .classify import (
        LABEL_NAMES,
        ModelFormatError,
        build_dataset,
        dataset_rows,
        loads_model,
        majority_label,
    )

    try:
        model = loads_model(Path(arguments.model).read_text(encoding="utf-8"))
    except ModelFormatError as error:
        print(f"classify: bad model: {error}", file=sys.stderr)
        return 2
    _training, held_out = _classify_corpus(arguments)
    labeled = build_dataset(
        held_out,
        training_runs=arguments.training_runs,
        scale=arguments.scale,
        policy=_classify_policy(arguments),
    )
    rows = dataset_rows(labeled)
    if not rows:
        print("classify: held-out slice has no candidates", file=sys.stderr)
        return 1
    baseline = majority_label(rows)
    learned = sum(1 for features, label in rows if model.predict(features) == label)
    majority = sum(1 for _, label in rows if label == baseline)
    print(
        f"held-out: {len(held_out)} programs, {len(rows)} candidate "
        f"instructions"
    )
    print(f"learned accuracy:  {100.0 * learned / len(rows):.1f}%")
    print(
        f"majority baseline: {100.0 * majority / len(rows):.1f}% "
        f"(always {LABEL_NAMES[baseline]!r})"
    )
    return 0 if learned > majority else 1


def _command_experiments(arguments: argparse.Namespace) -> int:
    from .experiments.runner import run_from_arguments

    return run_from_arguments(arguments)


def _command_bench(arguments: argparse.Namespace) -> int:
    from .telemetry.bench import run_from_arguments

    return run_from_arguments(arguments)


def _command_check(arguments: argparse.Namespace) -> int:
    from .check.cli import run_from_arguments

    return run_from_arguments(arguments)


def _command_serve(arguments: argparse.Namespace) -> int:
    from .service.cli import run_serve

    return run_serve(arguments)


def _command_client(arguments: argparse.Namespace) -> int:
    from .service.cli import run_client

    return run_client(arguments)


def _add_operation(
    commands,
    command: str,
    kind: Optional[str] = None,
    *,
    handler=_command_operation,
    output_help: Optional[str] = None,
    summary: str = "",
) -> argparse.ArgumentParser:
    """A subcommand whose help and arguments the operation ``kind`` declares."""
    operation = OPERATIONS[kind or command]
    parser = commands.add_parser(command, help=operation.doc)
    operation.add_arguments(parser, output_help=output_help)
    parser.set_defaults(handler=handler, operation=operation, summary=summary)
    return parser


def build_parser() -> argparse.ArgumentParser:
    # Imported here so `import repro.cli` stays light and the
    # cli -> experiments dependency exists only at parser-build time.
    from .check.cli import add_arguments as add_check_arguments
    from .experiments.runner import add_arguments as add_experiment_arguments
    from .service.cli import (
        add_client_arguments,
        add_serve_arguments,
    )
    from .telemetry.bench import add_arguments as add_bench_arguments

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Toolchain for the MICRO-30 1997 profiling/value-prediction "
        "reproduction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiments_parser = commands.add_parser(
        "experiments",
        help="reproduce the paper's tables and figures (parallel engine, "
        "content-addressed cache)",
    )
    add_experiment_arguments(experiments_parser)
    experiments_parser.set_defaults(handler=_command_experiments)

    bench_parser = commands.add_parser(
        "bench",
        help="run the pinned performance suite and write a BENCH_<rev>.json "
        "report (schema repro-bench/4)",
    )
    add_bench_arguments(bench_parser)
    bench_parser.set_defaults(handler=_command_bench)

    check_parser = commands.add_parser(
        "check",
        help="run the differential oracle (fast vs reference paths) and "
        "the static invariant lint",
    )
    add_check_arguments(check_parser)
    check_parser.set_defaults(handler=_command_check)

    classify_parser = commands.add_parser(
        "classify",
        help="learned predictability classifier: train on profiled corpus "
        "programs, re-tag binaries with no profile at all",
    )
    classify_commands = classify_parser.add_subparsers(
        dest="classify_command", required=True
    )

    def add_classify_corpus_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--corpus-seed", type=int, default=1997,
            help="seed of the generated corpus (default 1997)",
        )
        subparser.add_argument(
            "--corpus-count", type=int, default=24,
            help="corpus size (default 24)",
        )
        subparser.add_argument(
            "--train-count", type=int, default=16,
            help="corpus prefix used for training; the rest is the "
            "held-out slice (default 16)",
        )
        subparser.add_argument(
            "--training-runs", type=int, default=5,
            help="profiling runs per program for labels (default 5)",
        )
        subparser.add_argument(
            "--scale", type=float, default=1.0,
            help="workload input scale (default 1.0)",
        )
        subparser.add_argument(
            "--threshold", type=float, default=90.0,
            help="label accuracy threshold [%%] (default 90)",
        )
        subparser.add_argument(
            "--stride-threshold", type=float, default=50.0,
            help="label stride-efficiency split [%%] (default 50)",
        )

    classify_train_parser = classify_commands.add_parser(
        "train",
        help="profile the corpus training slice and train the model",
    )
    add_classify_corpus_arguments(classify_train_parser)
    classify_train_parser.add_argument(
        "--seed", type=int, default=1997,
        help="training seed for subsampling (default 1997)",
    )
    classify_train_parser.add_argument(
        "--max-depth", type=int, default=8,
        help="decision-tree depth limit (default 8)",
    )
    classify_train_parser.add_argument(
        "--min-leaf", type=int, default=2,
        help="minimum rows per leaf (default 2)",
    )
    classify_train_parser.add_argument(
        "-o", "--output", help="model file (default stdout)"
    )
    classify_train_parser.set_defaults(handler=_command_classify_train)

    _add_operation(
        classify_commands, "predict", "classify",
        summary="tagged {tagged} of {candidates} candidates "
        "(model digest {model_digest:.16})",
    )

    classify_eval_parser = classify_commands.add_parser(
        "eval",
        help="held-out label accuracy vs the majority-class baseline "
        "(non-zero exit when the model does not beat it)",
    )
    classify_eval_parser.add_argument("model", help="trained model file")
    add_classify_corpus_arguments(classify_eval_parser)
    classify_eval_parser.set_defaults(handler=_command_classify_eval)

    serve_parser = commands.add_parser(
        "serve",
        help="run the profiling-as-a-service daemon (schema repro-serve/1, "
        "shared trace store, per-tenant quotas)",
    )
    add_serve_arguments(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    client_parser = commands.add_parser(
        "client", help=f"submit {'/'.join(OPERATIONS)} jobs to a running daemon"
    )
    add_client_arguments(client_parser)
    client_parser.set_defaults(handler=_command_client)

    _add_operation(
        commands, "compile",
        summary="compiled {source}: {instructions} instructions, "
        "{candidates} prediction candidates",
    )

    run_parser = commands.add_parser("run", help="execute a program")
    run_parser.add_argument("program", help="assembly file")
    run_parser.add_argument(
        "--inputs", action="append",
        help="input stream: '1,2,3' inline or '@file' (repeatable; "
        "streams concatenate)",
    )
    run_parser.add_argument(
        "--max-instructions", type=int, default=None, help="dynamic budget"
    )
    run_parser.set_defaults(handler=_command_run)

    profile_parser = _add_operation(commands, "profile", handler=_command_profile)
    profile_parser.add_argument(
        "--trace",
        action="append",
        help="profile a stored trace file instead of executing (repeatable)",
    )
    profile_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="capture the training runs across N worker processes, then "
        "profile by replay (default 1: in-process)",
    )
    profile_parser.add_argument(
        "--store",
        metavar="DIR",
        help="TraceStore directory shared between the capture workers "
        "(default: a temporary directory; traces persist when given)",
    )

    corpus_parser = commands.add_parser(
        "corpus",
        help="generate a seeded mini-C workload corpus (compile + verify "
        "termination by default)",
    )
    corpus_parser.add_argument(
        "--seed", type=int, default=1997, help="corpus seed (default 1997)"
    )
    corpus_parser.add_argument(
        "--count", type=int, default=24, help="number of workloads (default 24)"
    )
    corpus_parser.add_argument(
        "--mix",
        help="idiom mix weights, e.g. 'stride=2,table=1,chain=1,mixed=1'",
    )
    corpus_parser.add_argument(
        "--prefix", default="gen", help="workload name prefix (default 'gen')"
    )
    corpus_parser.add_argument(
        "--out-dir",
        metavar="DIR",
        help="write <name>.mc, <name>.asm and per-run input files here",
    )
    corpus_parser.add_argument(
        "--manifest",
        metavar="PATH",
        help="write a JSON manifest of the generated corpus",
    )
    corpus_parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip executing each workload on all of its input sets",
    )
    corpus_parser.add_argument(
        "--max-instructions",
        type=int,
        default=200_000,
        help="per-run dynamic budget during verification (default 200000)",
    )
    corpus_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="verify workloads across N worker processes (default 1)",
    )
    corpus_parser.set_defaults(handler=_command_corpus)

    fuse_parser = _add_operation(
        commands, "fuse", handler=_command_fuse,
        output_help="merged output (default stdout; required with --sketch)",
    )
    fuse_parser.add_argument(
        "--sketch",
        action="store_true",
        help="write the merged image as a compact binary sketch",
    )
    fuse_parser.add_argument(
        "--quantize",
        type=int,
        default=0,
        metavar="LEVEL",
        help="sketch count-quantization level (implies --sketch; 0 = lossless)",
    )
    fuse_parser.add_argument(
        "--batch",
        action="store_true",
        help="use the batch merge engine instead of streaming "
        "(byte-identity checks)",
    )
    fuse_parser.add_argument(
        "--report",
        metavar="PATH",
        help="write a JSON size/fidelity report over the inputs",
    )

    _add_operation(
        commands, "annotate",
        summary="tagged {stride_tagged} stride + {last_value_tagged} last-value "
        "of {candidates} candidates (threshold {threshold:g}%)",
    )

    disasm_parser = commands.add_parser(
        "disasm", help="canonicalize/inspect an assembly file"
    )
    disasm_parser.add_argument("program", help="assembly file")
    disasm_parser.add_argument("-o", "--output", help="output (default stdout)")
    disasm_parser.set_defaults(handler=_command_disasm)

    trace_parser = _add_operation(
        commands, "trace", handler=_command_trace,
        output_help="trace file (.gz suffix compresses); required without --store",
    )
    trace_parser.add_argument(
        "--store",
        metavar="DIR",
        help="capture each input set into this TraceStore directory "
        "instead of writing one trace file",
    )
    trace_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --store capture (default 1)",
    )

    report_parser = commands.add_parser(
        "report", help="rank instructions by profiled value predictability"
    )
    report_parser.add_argument("program", help="assembly file")
    report_parser.add_argument("profile", help="profile image file")
    report_parser.add_argument(
        "--top", type=int, default=10, help="rows per section (default 10)"
    )
    report_parser.add_argument(
        "--min-attempts",
        type=int,
        default=5,
        help="ignore instructions profiled fewer times than this",
    )
    report_parser.set_defaults(handler=_command_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ApiError as error:
        # An operation refused its job: a bad value, program or model.
        print(f"{arguments.command}: {error.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
