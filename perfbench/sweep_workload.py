"""The ``sweep`` workload: ``probability_sweep`` in-process on warm
block lineages.

Each op takes one of fifteen lineages (path queries of length 1-3 over
the blocks B_p, p in {8, 10, 12, 14, 16}) and runs two sweeps on it: an
exact sweep of 16 ``endpoint_weight_grid`` vectors and a float sweep of
256.  Every circuit is compiled and every tape flattened during set-up
(``working_sets.py``), so the timed phase is the exact ``Fraction``
kernel, the float tape lanes and the float sweep's exact cross-checks,
with no protocol and no grounding.
"""

from __future__ import annotations

import importlib

from common import (
    end_to_end,
    LayerTimer,
    deck_sequence,
    metric,
    ms,
    own_peak_rss_mb,
    probe_launch,
    reference_factor,
    run_timed,
    summarize,
    timed_setups,
)
from oracles import EndpointOracle, floats_match
from refspeed import REFERENCE
from working_sets import EXACT_GRID, FLOAT_GRID, Lineage, sweep_lineages

def sweep_op(evaluation, lin: Lineage):
    exact = evaluation.probability_sweep(lin.formula, lin.exact_grid)
    floats = evaluation.probability_sweep(lin.formula, lin.float_grid,
                                          numeric="float")
    return exact, floats


def expected_values(lineages) -> dict:
    out = {}
    for lin in lineages:
        oracle = EndpointOracle(lin.formula, lin.tid)
        out[lin.name] = (oracle.grid(EXACT_GRID), oracle.grid(FLOAT_GRID))
    return out


def run_ops(lineages, expected, seed, seconds, on_op=None):
    """The timed phase: sweep ops from the seeded sequence, each checked
    against the endpoint oracle after its timing."""
    evaluation = importlib.import_module("repro.evaluation")

    def check(lin, output):
        exact, floats = output
        want_exact, want_float = expected[lin.name]
        return exact == want_exact and floats_match(floats, want_float)

    return run_timed(deck_sequence(lineages, seed),
                     lambda lin: sweep_op(evaluation, lin), check, seconds,
                     on_op)


def timed(seed: int, seconds: float):
    setup, _, release = timed_setups(probe_launch("sweep"))
    release()
    lineages = sweep_lineages()
    expected = expected_values(lineages)
    run = run_ops(lineages, expected, seed, seconds)
    summary = summarize(run.samples)
    peak = own_peak_rss_mb()
    metrics = end_to_end(setup, summary, peak)
    return run, metrics, {**summary, **setup}


def traced(seed: int, seconds: float):
    from repro.booleans.circuit import Circuit

    evaluation = importlib.import_module("repro.evaluation")
    wmc = importlib.import_module("repro.tid.wmc")
    timer = LayerTimer()
    timer.wrap(importlib.import_module("repro.tid.lineage"), "lineage",
               "lineage.ground")
    timer.wrap(wmc, "compile_cnf", "circuit.compile")
    timer.wrap(importlib.import_module("repro.booleans.tape"),
               "flatten_circuit", "tape.flatten")
    before = REFERENCE.seconds()
    lineages = sweep_lineages()
    setup_factor = reference_factor(before, REFERENCE.seconds())
    set_up = {name: ms(own) * setup_factor
              for name, own in timer.own.items()}
    timer.restore()
    unwrapped = timer.missing
    nodes = sum(wmc.compiled(lin.formula).size for lin in lineages)
    expected = expected_values(lineages)

    # Exact lanes of the current op, and of every op that returned.
    lanes = {"op": 0, "total": 0}

    def batch_layer(circuit, weight_specs, default=None, numeric="exact",
                    *rest, **kwargs):
        if numeric != "exact":
            return "tape.float_batch"
        lanes["op"] += len(weight_specs)
        return "circuit.exact_batch"

    timer = LayerTimer()
    timer.wrap(evaluation, "probability_sweep", "evaluation.sweep_self")
    timer.wrap(Circuit, "probability_batch", batch_layer)
    timer.wrap(Circuit, "probability", "circuit.forward")
    per_op = {}

    def on_op(lin, sample, output):
        if sample is not None:
            factor = sample.norm_s / sample.raw_s
            parts = dict(timer.own)
            parts["trace.unattributed"] = max(
                sample.raw_s - timer.covered(), 0.0)
            for name, seconds_ in parts.items():
                per_op[name] = per_op.get(name, 0.0) + seconds_ * factor
            lanes["total"] += lanes["op"]
        lanes["op"] = 0
        timer.reset()

    info = wmc.cache_info()
    timer.reset()
    try:
        run = run_ops(lineages, expected, seed, seconds, on_op)
    finally:
        timer.restore()
    after = wmc.cache_info()
    ops = max(len(run.samples), 1)
    hits = after["hits"] - info["hits"]
    lookups = hits + sum(after[key] - info[key]
                         for key in ("store_hits", "compiles"))
    exact_s = per_op.get("circuit.exact_batch", 0.0)
    metrics = {
        "circuit.exact_batch_ms": metric(ms(exact_s) / ops, "ms"),
        "circuit.exact_lanes_per_s": metric(
            lanes["total"] / exact_s if exact_s else 0.0, "1/s"),
        "tape.float_batch_ms": metric(
            ms(per_op.get("tape.float_batch", 0.0)) / ops, "ms"),
        "circuit.forward_ms": metric(
            ms(per_op.get("circuit.forward", 0.0)) / ops, "ms"),
        "evaluation.sweep_self_ms": metric(
            ms(per_op.get("evaluation.sweep_self", 0.0)) / ops, "ms"),
        "trace.unattributed_ms": metric(
            ms(per_op.get("trace.unattributed", 0.0)) / ops, "ms"),
        "wmc.hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio"),
        "tape.flattens": metric(
            after["tape_flattens"] - info["tape_flattens"], "count"),
        "lineage.ground_ms": metric(set_up.get("lineage.ground", 0.0), "ms"),
        "circuit.compile_ms": metric(set_up.get("circuit.compile", 0.0), "ms"),
        "circuit.nodes": metric(nodes, "count"),
        "tape.flatten_ms": metric(set_up.get("tape.flatten", 0.0), "ms"),
    }
    detail = summarize(run.samples)
    detail["unwrapped"] = unwrapped + timer.missing
    return run, metrics, detail
