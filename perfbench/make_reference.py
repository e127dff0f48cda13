"""Record ``reference.json``: the value of every universe item of every workload.

Run only at a commit whose outputs are known to be right, since every later
run is checked against what this writes:

    python3 perfbench/make_reference.py

It refuses to write if any item fails its independent check.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from worker import REFERENCE, reference_digest  # noqa: E402
from workloads import WORKLOADS, canon  # noqa: E402


def main() -> int:
    workdir = HERE.parent / ".bench_build" / "perfbench-reference"
    out = {"workloads": {}}
    problems = []
    for name, cls in WORKLOADS.items():
        workload = cls()
        values = []
        for index in range(workload.size()):
            if index % 200 == 0:  # keeps the CLI workload's cache file short
                workload.prepare(str(workdir))
            value, problem = workload.run(workload.make(index))
            if problem is not None:
                problems.append(f"{name} item {index}: {problem}")
            values.append(canon(value))
        out["workloads"][name] = {"digest": reference_digest(values), "values": values}
        print(f"{name}: {len(values)} values", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems[:20]), file=sys.stderr)
        print(f"{len(problems)} items failed; reference not written", file=sys.stderr)
        return 1
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        # one line per workload keeps the file small and its diffs readable
        fh.write("{\"workloads\": {\n")
        fh.write(",\n".join(
            f"{json.dumps(name)}: {json.dumps(doc, separators=(',', ':'))}"
            for name, doc in out["workloads"].items()
        ))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
