"""The ``reduce`` workload: the Theorem 3.1 Cook reduction
#P2CNF -> GFOMC(Q), the library path behind ``repro reduce``.

Each op runs ``Type1Reduction(path_query(1)).run(phi)`` on a fresh
seeded random P2CNF instance with n = 6 variables and m = 5 clauses:
about 0.1 s per op on the host the bounds were measured on, so a host
speed switch rarely falls inside one and a 25 s run gets over 200
ops.  About half the time is ``Matrix.solve``, a quarter the
incremental elimination inside row selection, a fifth the
block-product oracle, and the rest the Eq. (10) coefficient rows; no
circuit work happens after set-up.
"""

from __future__ import annotations

import random

from common import (
    end_to_end,
    LayerTimer,
    metric,
    ms,
    own_peak_rss_mb,
    probe_launch,
    run_timed,
    summarize,
    timed_setups,
)
from working_sets import reduce_query

VARIABLES = 6
CLAUSES = 5


def random_instances(seed: int):
    """Endless seeded P2CNF instances: ``CLAUSES`` distinct variable
    pairs out of ``VARIABLES``, each clause with a random orientation."""
    from repro.counting.p2cnf import P2CNF

    rng = random.Random(seed)
    pairs = [(i, j) for i in range(VARIABLES)
             for j in range(i + 1, VARIABLES)]
    while True:
        edges = tuple((i, j) if rng.random() < 0.5 else (j, i)
                      for i, j in rng.sample(pairs, CLAUSES))
        yield P2CNF(VARIABLES, edges)


def reduce_op(query, phi):
    from repro.reduction.type1 import Type1Reduction

    return Type1Reduction(query).run(phi)


def run_ops(query, seed, seconds, on_op=None):
    """The timed phase: one reduction per fresh instance, each count
    checked against the brute-force count after the op's timing."""
    def check(phi, result):
        return result.model_count == phi.count_satisfying_brute()

    return run_timed(random_instances(seed),
                     lambda phi: reduce_op(query, phi), check, seconds, on_op)


def timed(seed: int, seconds: float):
    setup, _, release = timed_setups(probe_launch("reduce"))
    release()
    query = reduce_query()
    run = run_ops(query, seed, seconds)
    summary = summarize(run.samples)
    metrics = end_to_end(setup, summary, own_peak_rss_mb())
    return run, metrics, {**summary, **setup}


def traced(seed: int, seconds: float):
    from repro.algebra.matrices import Matrix
    from repro.reduction.type1 import Type1Reduction

    query = reduce_query()
    timer = LayerTimer()
    timer.wrap(Type1Reduction, "run", "reduction.run_self")
    timer.wrap(Type1Reduction, "coefficient_row", "reduction.coefficient_row")
    timer.wrap(Type1Reduction, "product_oracle_value", "reduction.oracle")
    timer.wrap(Matrix, "solve", "algebra.solve")
    per_op = {}
    rows = {"computed": 0, "kept": 0}

    def on_op(phi, sample, result):
        if sample is not None:
            factor = sample.norm_s / sample.raw_s
            parts = dict(timer.own)
            parts["trace.unattributed"] = max(
                sample.raw_s - timer.covered(), 0.0)
            for name, seconds_ in parts.items():
                per_op[name] = per_op.get(name, 0.0) + seconds_ * factor
            rows["computed"] += timer.calls.get(
                "reduction.coefficient_row", 0)
            rows["kept"] += result.oracle_calls
        timer.reset()

    try:
        run = run_ops(query, seed, seconds, on_op)
    finally:
        timer.restore()
    ops = max(len(run.samples), 1)

    def per_op_ms(name):
        return metric(ms(per_op.get(name, 0.0)) / ops, "ms")

    metrics = {
        "reduction.coefficient_row_ms": per_op_ms("reduction.coefficient_row"),
        "reduction.rows_kept_ratio": metric(
            rows["kept"] / rows["computed"] if rows["computed"] else 0.0,
            "ratio"),
        "reduction.oracle_ms": per_op_ms("reduction.oracle"),
        "algebra.solve_ms": per_op_ms("algebra.solve"),
        "reduction.run_self_ms": per_op_ms("reduction.run_self"),
        "trace.unattributed_ms": per_op_ms("trace.unattributed"),
    }
    detail = summarize(run.samples)
    detail["unwrapped"] = timer.missing
    return run, metrics, detail
