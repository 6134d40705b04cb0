"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {serve,sweep,reduce} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: it measures the ``repro`` package
in ``./src``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it holds the run's detail: raw wall-clock values, the
reference speed, the seeds and the pinned vCPU.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import os
import platform
import sys

from common import HASH_SEED, child_env, emit, metric, src_dir
from refspeed import REFERENCE, pin_to_one_cpu

WORKLOADS = {"serve": "serve_workload", "sweep": "sweep_workload",
             "reduce": "reduce_workload"}

#: Every per-layer metric and its unit.  A traced run reports all of
#: them; a layer the run's workload never reaches reads 0.
PER_LAYER_UNITS = {
    "service.transport_ms": "ms",
    "service.front_ms": "ms",
    "service.resolve_ms": "ms",
    "service.resolve_hit_ratio": "ratio",
    "service.queue_ms": "ms",
    "evaluation.evaluate_ms": "ms",
    "tape.kernel_ms": "ms",
    "wmc.compiles": "count",
    "obs.overhead_pct": "%",
    "circuit.exact_batch_ms": "ms",
    "circuit.exact_lanes_per_s": "1/s",
    "tape.float_batch_ms": "ms",
    "circuit.forward_ms": "ms",
    "evaluation.sweep_self_ms": "ms",
    "wmc.hit_ratio": "ratio",
    "tape.flattens": "count",
    "lineage.ground_ms": "ms",
    "circuit.compile_ms": "ms",
    "circuit.nodes": "count",
    "tape.flatten_ms": "ms",
    "reduction.coefficient_row_ms": "ms",
    "reduction.rows_kept_ratio": "ratio",
    "reduction.oracle_ms": "ms",
    "algebra.solve_ms": "ms",
    "reduction.run_self_ms": "ms",
    "trace.unattributed_ms": "ms",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one repro benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (src_dir() / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src_dir()}; run from "
              "the root of a repro checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED \
            or "REPRO_CIRCUIT_STORE" in os.environ:
        # Set and dict order must repeat from run to run, and no disk
        # store may warm the caches: restart this process under the fixed
        # hash seed and without a store (same pid, same arguments).
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    sys.path.insert(0, str(src_dir()))
    cpu = pin_to_one_cpu()
    module = importlib.import_module(WORKLOADS[args.workload])
    phase = module.traced if args.trace else module.timed
    run, metrics, detail = phase(args.seed, args.seconds)
    if args.trace:
        metrics = {name: metrics.get(name, metric(0, unit))
                   for name, unit in PER_LAYER_UNITS.items()}
    detail.update({
        "workload": args.workload, "seed": args.seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"), "cpu": cpu,
        "seconds": args.seconds, "trace": args.trace,
        "reference": REFERENCE.name,
        "r_nom_ms": REFERENCE.r_nom * 1000,
        "python": platform.python_version(), "errors": run.errors,
    })
    emit(run.attempted, run.failed, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
