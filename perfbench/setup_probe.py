"""Set-up cost of one workload in a fresh interpreter, as a CLI user pays it.

Imports ``pvmppt.cli``, then loads or generates the workload's inputs,
calibrates the module and commissions the controller references once.
Prints one JSON object: the import time, one timing of the reference loop
(how fast this core runs now) and, with ``--trace 1``, the per-layer span
totals of the set-up.

    python3 perfbench/setup_probe.py --workload psc-onset --seed 2026 --trace 0
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

t_start = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pvmppt.cli  # noqa: E402,F401  (the import a CLI invocation pays)

import_s = perf_counter() - t_start

import tracing  # noqa: E402
import workloads  # noqa: E402
from pvmppt import converter, harness  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = {"import_s": import_s, "ref_s": workloads.reference_s()}
    if args.trace:
        tracer = tracing.Tracer(tracing.library_wrap_points(harness, converter, workloads))
        with tracer.installed():
            workloads.prepare(args.workload, args.seed)
        out["layers"] = tracing.aggregate(tracer, 0, len(tracer))["layers"]
    else:
        workloads.prepare(args.workload, args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
