"""Start the ``repro serve`` daemon, optionally traced or with a fault.

Usage (``serve.py`` starts it)::

    python3 pipebench/daemon.py [--trace-out FILE --work DIR] [--inject-fault]
        -- <repro serve arguments>

Without options this is exactly ``python -m repro serve <arguments>``.
With ``--trace-out`` the layer entry points are wrapped in span
recorders before the daemon starts; after it drains and returns, the
recorded pulls are probed and the trace is written as JSON.  With
``--inject-fault`` every annotate job's output loses its last byte, so
the benchmark's byte-identity check has something to catch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--work", default=None)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    common.use_source_tree()
    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install_pipeline_spans(tracer)
    if args.inject_fault:
        from repro.service.engine import ServiceEngine

        original = ServiceEngine.run_annotate

        def run_annotate(self, job):
            output, meta = original(self, job)
            return output[:-1], meta

        ServiceEngine.run_annotate = run_annotate
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    if tracer is not None:
        tracer.uninstall()
        tracer.run_probes(str(Path(args.work) / "probes"))
        Path(args.trace_out).write_text(json.dumps({"trace": tracer.to_dict()}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
