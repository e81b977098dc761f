"""Record (or check) the reference TSV digests of the benchmark's tables.

Usage, from the repository root::

    python3 pipebench/record_digests.py            # rewrite digests.json
    python3 pipebench/record_digests.py --check    # compare, exit 1 on drift
    REPRO_NO_NUMPY=1 python3 pipebench/record_digests.py --check

Every table the table workloads produce is built once, serially, on a
fresh memory-only ``ExperimentContext`` at the benchmark's scale.  The
digests must be identical with and without numpy, so the vectorised
path is never its own reference.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import worker  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    common.use_source_tree()
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import run_experiments

    names = sorted({name for names in worker.TABLES.values() for name in names})
    context = ExperimentContext(scale=common.TABLE_SCALE)
    tables = run_experiments(names, context, stream=io.StringIO())
    digests = {table.experiment_id: worker.table_digest(table) for table in tables}
    if args.check:
        recorded = json.loads(common.DIGESTS.read_text())["tables"]
        drift = sorted(name for name in names if recorded.get(name) != digests[name])
        for name in drift:
            print(f"digest drift: {name}", file=sys.stderr)
        return 1 if drift else 0
    common.DIGESTS.write_text(json.dumps(
        {"scale": common.TABLE_SCALE, "tables": digests}, indent=2, sort_keys=True
    ) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
