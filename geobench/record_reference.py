"""Record ``reference.json``: the output of every input in every workload's universe.

Run from the root of a source checkout, only when the benchmark's inputs or
the program's intended outputs change on purpose:

    python3 geobench/record_reference.py

Each op must pass its workload's own checks before its output is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, import_package


def main() -> int:
    workloads = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=OUT_DIR)
        try:
            workload = cls(0, Path(workdir), None)
            entries = {}
            for i in range(cls.universe):
                summary, problems = workload.verify(i, workload.op(i))
                if problems:
                    raise SystemExit(f"{name} input {workload.key(i)}: {problems}")
                entries[str(workload.key(i))] = workload.reference_entry(summary)
            reference[name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(entries)} inputs recorded", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
