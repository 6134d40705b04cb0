"""Budgeted approximate WMC vs exact compilation on blow-up lineages.

The workload is a family of random bipartite monotone 2-CNFs — n left
and n right variables, each left variable in 4 clauses ``(x_i | y_j)``
with seeded-random partners.  This is exactly the #PP2CNF shape behind
the paper's hardness reductions, and the d-DNNF compiler's circuit for
it grows super-linearly in n (empirically ~exponentially: the clause
count grows 2x across the probe range below while the node count grows
>30x).  Shape expectations:

* circuit sizes across the probe range confirm super-linear growth;
* at the blow-up size, ``cnf_probability_auto`` under a node budget
  must answer via the estimator (``engine == "estimate"``), its
  Hoeffding interval must contain the exact value (computed once,
  unbudgeted, as ground truth), and the whole budgeted path —
  abort-at-budget plus sampling — must beat exact compilation;
* on the blow-up formula, ``draw_worlds`` (one float comparison with
  an exact ``draw_threshold`` per variable, bitmask clauses) must
  yield the same ``(world, satisfied)`` draws as ``fraction_draws``
  (``rng.random()`` compared with each ``Fraction`` marginal, clauses
  as index lists: the loop it replaced, kept here as the baseline)
  for a fixed seed and weightings with wide denominators, and be
  **>= 5x** faster per draw.

Runable two ways:

* ``pytest benchmarks/bench_approx.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_approx.py [--quick]`` — a self-contained
  smoke run (CI uses ``--quick``) that exits non-zero if any of the
  expectations above fail, and writes ``BENCH_approx.json``.
"""

import random
import sys
import time

from fractions import Fraction

import _bench_io

from repro.booleans.approximate import (
    draw_worlds,
    estimate_probability,
    sampling_frame,
)
from repro.booleans.cnf import CNF
from repro.booleans.circuit import compile_cnf, draw_threshold
from repro.tid import wmc

F = Fraction

#: Marginal giving the family a mid-range Pr(F): each clause fails
#: with probability 1/100, so Pr(F) sits around e^(-|clauses|/100).
WEIGHT = F(9, 10)
EPSILON = F(1, 20)
DELTA = F(1, 20)

#: The acceptance floor for the float-threshold draw loop over the
#: Fraction one, per draw.
DRAW_SPEEDUP_GATE = 5.0


def blowup_formula(n: int, degree: int = 4, seed: int = 7) -> CNF:
    """A random bipartite monotone 2-CNF over 2n variables (seeded, so
    every run and every hash seed sees the same formula)."""
    rng = random.Random(seed)
    clauses = set()
    for i in range(n):
        for j in rng.sample(range(n), degree):
            clauses.add((("x", i), ("y", j)))
    return CNF(sorted(clauses))


def weights(_var) -> Fraction:
    return WEIGHT


def fraction_draws(marginals: list, masks: list, rng: random.Random,
                   count: int):
    """The draw loop ``draw_worlds`` replaced, kept as the baseline:
    each variable compares ``rng.random()`` with its ``Fraction``
    marginal, and each clause is checked as a list of indices."""
    clauses = [[i for i in range(len(marginals)) if mask >> i & 1]
               for mask in masks]
    for _ in range(count):
        world = [rng.random() < p for p in marginals]
        yield world, all(any(world[i] for i in clause)
                         for clause in clauses)


def mixed_weights(formula: CNF, seed: int = 11) -> dict:
    """Seeded marginals, dyadic and not, some with ~1000-bit
    denominators and some a fifth of a draw step off a draw."""
    rng = random.Random(seed)
    choices = [F(1, 2), F(1, 3), F(9, 10), F(5, 7), F(1, 2 ** 60),
               (3 * 2 ** 51 + F(1, 5)) / 2 ** 53,
               F(rng.getrandbits(999), 2 ** 1000 + 1)]
    return {var: rng.choice(choices)
            for var in sorted(formula.variables(), key=repr)}


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_exact_compilation_blowup(benchmark):
    formula = blowup_formula(24)
    circuit = benchmark(compile_cnf, formula)
    assert 0 < circuit.probability(weights) < 1


def test_estimator_flat_cost(benchmark):
    formula = blowup_formula(24)
    estimate = benchmark(
        estimate_probability, formula, weights, EPSILON, DELTA, 0)
    exact = compile_cnf(formula).probability(weights)
    assert estimate.contains(exact)


# ----------------------------------------------------------------------
# Script / CI smoke mode
# ----------------------------------------------------------------------
def check_growth(sizes: list[int]) -> tuple[bool, list[dict]]:
    """Compile the probe range; the circuit must grow super-linearly
    in the clause count across it."""
    records = []
    for n in sizes:
        formula = blowup_formula(n)
        start = time.perf_counter()
        circuit = compile_cnf(formula)
        elapsed = time.perf_counter() - start
        records.append({
            "n": n,
            "clauses": len(formula),
            "circuit_nodes": circuit.size,
            "compile_ms": round(elapsed * 1e3, 2),
        })
        print(f"n={n:3d} clauses={len(formula):4d} "
              f"circuit={circuit.size:7d} nodes  "
              f"compile {elapsed * 1e3:8.1f}ms")
    first, last = records[0], records[-1]
    clause_ratio = last["clauses"] / first["clauses"]
    node_ratio = last["circuit_nodes"] / first["circuit_nodes"]
    ok = node_ratio > 2 * clause_ratio
    if not ok:
        print(f"NOT SUPER-LINEAR: clauses grew {clause_ratio:.1f}x but "
              f"the circuit only {node_ratio:.1f}x", file=sys.stderr)
    return ok, records


def check_auto_beats_exact(n: int, budget_nodes: int
                           ) -> tuple[bool, dict]:
    """At the blow-up size: the auto path must degrade to the
    estimator, stay inside its stated error bound, and beat exact
    compilation end to end."""
    formula = blowup_formula(n)
    wmc.clear_circuit_cache()

    start = time.perf_counter()
    circuit = compile_cnf(formula)
    exact_value = circuit.probability(weights)
    t_exact = time.perf_counter() - start

    wmc.clear_circuit_cache()
    start = time.perf_counter()
    answer = wmc.cnf_probability_auto(
        formula, weights, budget_nodes=budget_nodes,
        epsilon=EPSILON, delta=DELTA, rng=0)
    t_auto = time.perf_counter() - start

    record = {
        "n": n,
        "budget_nodes": budget_nodes,
        "circuit_nodes": circuit.size,
        "exact_ms": round(t_exact * 1e3, 2),
        "auto_ms": round(t_auto * 1e3, 2),
        "speedup": round(t_exact / t_auto, 2),
        "engine": answer.engine,
        "exact_value": float(exact_value),
        "estimate": float(answer.value),
        "samples": answer.estimate.samples if answer.estimate else 0,
        "interval_low": float(answer.estimate.low)
        if answer.estimate else None,
        "interval_high": float(answer.estimate.high)
        if answer.estimate else None,
    }
    print(f"n={n}: exact {t_exact * 1e3:.1f}ms "
          f"(circuit {circuit.size} nodes > budget {budget_nodes})  "
          f"auto {t_auto * 1e3:.1f}ms ({record['speedup']}x) "
          f"via {answer.engine}")
    if answer.engine != "estimate":
        print(f"AUTO DID NOT DEGRADE: circuit of {circuit.size} nodes "
              f"compiled under a budget of {budget_nodes}",
              file=sys.stderr)
        return False, record
    contains = answer.estimate.contains(exact_value)
    record["interval_contains_exact"] = contains
    print(f"      estimate {float(answer.value):.4f} in "
          f"[{float(answer.estimate.low):.4f}, "
          f"{float(answer.estimate.high):.4f}], "
          f"exact {float(exact_value):.4f} "
          f"({'inside' if contains else 'OUTSIDE'})")
    if not contains:
        print("ESTIMATE INTERVAL MISSED the exact value",
              file=sys.stderr)
        return False, record
    if t_auto >= t_exact:
        print("AUTO LOST to exact compilation", file=sys.stderr)
        return False, record
    return True, record


def _per_draw_us(loop, marginals, masks, count, repeats=3) -> float:
    """Best-of-``repeats`` microseconds per draw of ``count`` draws."""
    best = None
    for _ in range(repeats):
        rng = random.Random(0)
        start = time.perf_counter()
        for _ in loop(marginals, masks, rng, count):
            pass
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / count * 1e6


def check_draw_loop(n: int, count: int) -> tuple[bool, dict]:
    """On the blow-up formula, ``draw_worlds`` must draw what
    ``fraction_draws`` draws and beat it per draw by
    ``DRAW_SPEEDUP_GATE``."""
    formula = blowup_formula(n)
    frames = []
    for spec in (weights, mixed_weights(formula)):
        marginals, masks = sampling_frame(formula, spec)
        frames.append((marginals, [draw_threshold(p) for p in marginals],
                       masks))
    identical = all(
        list(draw_worlds(thresholds, masks, random.Random(5), count))
        == list(fraction_draws(marginals, masks, random.Random(5), count))
        for marginals, thresholds, masks in frames)
    marginals, thresholds, masks = frames[0]
    fraction_us = _per_draw_us(fraction_draws, marginals, masks, count)
    threshold_us = _per_draw_us(draw_worlds, thresholds, masks,
                                10 * count)
    speedup = fraction_us / threshold_us
    record = {
        "n": n,
        "variables": len(marginals),
        "clauses": len(masks),
        "draws_compared": count,
        "fraction_us_per_draw": round(fraction_us, 2),
        "threshold_us_per_draw": round(threshold_us, 2),
        "speedup": round(speedup, 2),
        "gate": DRAW_SPEEDUP_GATE,
        "identical": identical,
    }
    verdict = ("" if speedup >= DRAW_SPEEDUP_GATE
               else f"  <-- below {DRAW_SPEEDUP_GATE}x gate")
    print(f"draws n={n}: Fraction loop {fraction_us:.1f}us/draw  "
          f"float thresholds {threshold_us:.2f}us/draw "
          f"({speedup:.1f}x){verdict}")
    if not identical:
        print("DRAWS DIFFER: draw_worlds and the Fraction loop drew "
              "different worlds", file=sys.stderr)
    return identical and speedup >= DRAW_SPEEDUP_GATE, record


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    probe = [16, 24, 32] if quick else [16, 24, 32, 36]
    blowup_n = 32 if quick else 36
    ok_growth, growth = check_growth(probe)
    ok_auto, blowup = check_auto_beats_exact(blowup_n,
                                             budget_nodes=2000)
    ok_draws, draws = check_draw_loop(blowup_n,
                                      count=200 if quick else 1000)
    ok = ok_growth and ok_auto and ok_draws
    _bench_io.emit("approx", {
        "quick": quick,
        "growth": growth,
        "blowup": blowup,
        "draws": draws,
        "ok": ok,
    })
    if not ok:
        print("perf regression: the budgeted estimator no longer "
              "covers blow-up lineages, or its draw loop lost its "
              "margin over the Fraction loop", file=sys.stderr)
        return 1
    print("ok: circuits blow up super-linearly, the budgeted "
          "estimator answers within bounds, faster than exact "
          "compilation, and its draws match the Fraction loop's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
