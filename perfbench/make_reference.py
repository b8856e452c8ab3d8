"""Record the reference outputs the benchmark checks every operation against.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

The references were recorded at the commit that introduced the benchmark,
whose outputs the package promises to keep byte-identical.  Re-recording
them only belongs in a change that alters an output on purpose; the
paper's facts in workloads.py are checked independently either way.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from worker import Worker  # noqa: E402


def main(names: list[str]) -> int:
    for name in names or workloads.WORKLOADS:
        worker = Worker(name, 0, HERE.parent / ".perfbench" / "work-reference", None)
        ops = worker.run_pass(traced=False)["ops"]
        attempted, failed = workloads.check(name, ops, ops)
        if failed:
            print(f"{name}: {failed} of {attempted} operations break a paper fact",
                  file=sys.stderr)
            return 1
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ops, sort_keys=True, indent=0) + "\n")
        print(f"{name}: {attempted} operations -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
