"""The driver's entry point: one workload, time-boxed, one JSON line.

    python3 benchmarks/perf/run.py --workload <name> --seed <n> \
        --seconds <run_seconds> --trace <0|1>

Starts reps of the workload (each a fresh child process) while they fit
in ``--seconds``, checks them, and prints as the last line of standard
output ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer ledger of one
profiled run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Run as a script from any directory: make the repository root
# importable; the simulator itself is only ever imported by the children.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf import harness, spec  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    harness.require_simulator()
    result = harness.measure_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
