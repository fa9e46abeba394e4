"""Record the reference outputs the benchmark checks at the default seed.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Runs each workload once at full size and the default seed and writes the
outputs to perfbench/reference.json. Record them only from a commit whose
outputs are known to be right; the committed file was recorded from the
seed code of the library.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        result = run.run_job(workload, workloads.DEFAULT_SEED, "full")
        if "error" in result:
            sys.stderr.write(f"{workload}: {result['error']}\n")
            return 1
        reference[workload] = result["output"]
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
