"""The working sets of the in-process workloads, ``sweep`` and
``reduce``.  The set-up probe builds one in a fresh interpreter, and
the workload builds it again before its timed phase.

This module imports only the program and modules the program imports
too, so ``setup_s`` times no code of the benchmark's own harness.  The
working sets do not depend on the seed, which only orders the ops.
"""

from __future__ import annotations

import importlib

from dataclasses import dataclass, field

PATH_LENGTHS = (1, 2, 3)
BLOCK_LENGTHS = (8, 10, 12, 14, 16)
EXACT_GRID = 16
FLOAT_GRID = 256


@dataclass
class Lineage:
    name: str
    formula: object = field(repr=False)
    tid: object = field(repr=False)
    exact_grid: list = field(repr=False)
    float_grid: list = field(repr=False)


def sweep_lineages() -> list[Lineage]:
    """Ground, compile and flatten the fifteen lineages of ``sweep``
    and build their grids."""
    from repro.core.catalog import path_query
    from repro.reduction.blocks import path_block

    evaluation = importlib.import_module("repro.evaluation")
    grounding = importlib.import_module("repro.tid.lineage")
    lineages = []
    for k in PATH_LENGTHS:
        query = path_query(k)
        for p in BLOCK_LENGTHS:
            tid = path_block(query, p)
            formula = grounding.lineage(query, tid)
            lin = Lineage(
                f"path{k}/B{p}", formula, tid,
                evaluation.endpoint_weight_grid(formula, tid, EXACT_GRID),
                evaluation.endpoint_weight_grid(formula, tid, FLOAT_GRID))
            # A one-vector float sweep compiles the circuit and flattens
            # its tape through the public call, and computes little else.
            evaluation.probability_sweep(formula, lin.float_grid[:1],
                                         numeric="float", cross_check=0)
            lineages.append(lin)
    return lineages


def reduce_query():
    """Import the reduction and compile its one-link block circuit
    (the A(1) matrix every op's constructor reads from the cache)."""
    from repro.core.catalog import path_query
    from repro.reduction.type1 import Type1Reduction

    query = path_query(1)
    Type1Reduction(query)
    return query


BUILDERS = {"sweep": sweep_lineages, "reduce": reduce_query}
