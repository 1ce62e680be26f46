"""Write perfbench/expected.json: the digests of every seedless task output,
the statuses of the symbolic reports of the generated files, and the
standard-basis dimensions that the conjugated instances must reproduce.

    python3 perfbench/pin.py

Run it only when a change alters outputs on purpose, and say so where the
change is recorded; the benchmark compares every later run against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import instances  # noqa: E402
import workloads  # noqa: E402
from bihomcheck import structure  # noqa: E402
from bihomcheck.linalg import Subspace  # noqa: E402
from worker import run_pass  # noqa: E402


def main():
    gl3 = instances.general_linear(3)
    standard = {
        "gl3": {
            "center": structure.center(gl3).dim,
            "derived": [t.dim for t in structure.derived_series(gl3).terms],
            "lcs": [t.dim for t in structure.lower_central_series(gl3, Subspace.full_space(9, ())).terms],
        }
    }
    expected = workloads.Expected(workloads.read_goldens(), {}, {}, standard)
    digests = {}
    statuses = {}
    for workload in ("cli-catalog", "sparse-scale"):
        tasks = workloads.build(workload, 0, expected)
        outputs, _, _ = run_pass(tasks)
        for task, (out, error) in zip(tasks, outputs):
            if error is not None:
                sys.exit(f"{task.name}: {error}")
            if task.canon is not None:
                digests[task.name] = workloads.sha256(task.canon(out))
            if task.name in ("check:sweedler-h4", "check:yau-m2"):
                report = json.loads(out.stdout)
                if not report["ok"]:
                    sys.exit(f"{task.name}: symbolic report does not pass")
                statuses[task.name.split(":", 1)[1]] = workloads.statuses(report)
    workloads.EXPECTED_FILE.write_text(
        json.dumps({"digests": digests, "statuses": statuses, "standard": standard}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"pinned {len(digests)} digests to {workloads.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
