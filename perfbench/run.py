"""The repository's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload design_grow --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload warehouse_load --seed 1 --trace 1

Each workload runs in a fresh process of its own (``all`` spawns one
per workload), checks its outputs outside the timed calls, prints a
human-readable report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (:data:`END_TO_END`);
with ``--trace 1`` a traced run wraps the public functions of the
``repro`` layers and reports the per-layer ones
(:data:`layers.PER_LAYER`).  Any output mismatch exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("design_grow", "warehouse_load", "serve_sessions")

#: Contract metric -> unit.  Every workload reports all of them; what
#: each one means per workload is listed in ``perfbench/README.md``.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "aux1_ms": "ms",
    "aux2_ms": "ms",
    "aux3_ms": "ms",
    "rate_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own fresh process; exit 1 if any failed."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(completed.stdout, end="")
        lines = completed.stdout.strip().splitlines() or ["null"]
        try:
            summary[workload] = json.loads(lines[-1])
        except json.JSONDecodeError:
            summary[workload] = None  # it crashed before its result line
        if completed.returncode != 0:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from common import spans_path
    from layers import PER_LAYER, Layers
    from spans import Recorder

    module = __import__(args.workload)
    layers = Layers(Recorder()) if args.trace else None
    result = module.run(args.seed, args.seconds, layers)
    if layers is not None and layers.recorder.spans:
        path = spans_path(f"{args.workload}-{args.seed}")
        layers.recorder.write(path)
        result.say(f"  spans written to {path}")
    names = list(PER_LAYER) if args.trace else list(END_TO_END)
    return result.emit(names)


if __name__ == "__main__":
    sys.exit(main())
