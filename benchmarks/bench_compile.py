"""Knowledge compilation: compile-once-evaluate-many vs recompute WMC.

Shape expectations: compiling a block-matrix-sized lineage costs about
one run of the recursive Shannon engine, after which every extra weight
vector is a linear circuit pass — so for k >= 4 evaluations the
compiled pipeline must beat k independent recursive runs (the
pre-compilation behaviour of ``cnf_probability``), and the gap must
widen with k.

Runable two ways:

* ``pytest benchmarks/bench_compile.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_compile.py [--quick]`` — a self-contained
  smoke run (used by CI with ``--quick``) that times both pipelines,
  prints the speedup, exits non-zero if compile-once loses at k = 4,
  and writes ``BENCH_compile.json``.
"""

import sys
import time
from fractions import Fraction

import _bench_io

from repro.booleans.circuit import compile_cnf
from repro.core import catalog
from repro.reduction.blocks import path_block
from repro.tid.brute import shannon_probability
from repro.tid.database import r_tuple
from repro.tid.lineage import lineage

F = Fraction
HALF = F(1, 2)


def block_workload(p=8, k=8):
    """A block-matrix-sized lineage plus k endpoint-weight vectors —
    the Eq. 20 grid pattern (interior weights, so neither engine can
    shortcut on 0/1 probabilities)."""
    query = catalog.rst_query()
    tid = path_block(query, p)
    formula = lineage(query, tid)
    base = dict.fromkeys(formula.variables(), HALF)
    r_u, r_v = r_tuple("u"), r_tuple("v")
    weight_maps = []
    for i in range(k):
        weights = dict(base)
        weights[r_u] = F(i + 1, k + 2)
        weights[r_v] = F(k + 1 - i, k + 2)
        weight_maps.append(weights)
    return formula, weight_maps


def run_recursive(formula, weight_maps):
    """k independent recursive WMC runs (recompute every call)."""
    return [shannon_probability(formula, w) for w in weight_maps]


def run_compiled(formula, weight_maps):
    """One fresh compilation + k linear evaluations (no warm cache)."""
    circuit = compile_cnf(formula)
    return [circuit.probability(w) for w in weight_maps]


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_recursive_engine_recomputes(benchmark):
    formula, weight_maps = block_workload(p=8, k=8)
    values = benchmark(run_recursive, formula, weight_maps)
    assert all(0 < v < 1 for v in values)
    benchmark.extra_info["k"] = len(weight_maps)


def test_compile_once_evaluate_many(benchmark):
    formula, weight_maps = block_workload(p=8, k=8)
    values = benchmark(run_compiled, formula, weight_maps)
    assert values == run_recursive(formula, weight_maps)
    benchmark.extra_info["k"] = len(weight_maps)


def test_evaluation_is_linear(benchmark):
    """A single evaluation of an already-compiled circuit."""
    formula, weight_maps = block_workload(p=8, k=1)
    circuit = compile_cnf(formula)
    value = benchmark(circuit.probability, weight_maps[0])
    assert 0 < value < 1
    benchmark.extra_info["circuit_size"] = circuit.size


# ----------------------------------------------------------------------
# Script / CI smoke mode
# ----------------------------------------------------------------------
def _best_of(fn, *args, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    print(f"{'k':>4s} {'recursive':>12s} {'compiled':>12s} "
          f"{'speedup':>8s}")
    failed = False
    records = []
    for k in (1, 4, 8) if quick else (1, 4, 8, 16):
        formula, weight_maps = block_workload(p=8, k=k)
        t_rec, rec = _best_of(run_recursive, formula, weight_maps)
        t_cmp, cmp_ = _best_of(run_compiled, formula, weight_maps)
        if rec != cmp_:
            print(f"VALUE MISMATCH at k={k}", file=sys.stderr)
            return 1
        verdict = ""
        if k >= 4 and t_cmp >= t_rec:
            verdict = "  <-- compile-once LOST"
            failed = True
        print(f"{k:4d} {t_rec * 1e3:10.2f}ms {t_cmp * 1e3:10.2f}ms "
              f"{t_rec / t_cmp:7.1f}x{verdict}")
        records.append({
            "k": k,
            "recursive_ms": round(t_rec * 1e3, 2),
            "compiled_ms": round(t_cmp * 1e3, 2),
            "speedup": round(t_rec / t_cmp, 2),
        })
    _bench_io.emit("compile", {
        "quick": quick,
        "shapes": records,
        "ok": not failed,
    })
    if failed:
        print("perf regression: compilation no longer pays for k >= 4",
              file=sys.stderr)
        return 1
    print("ok: compile-once + k evaluations beats k recursive runs "
          "for every k >= 4")
    return 0


if __name__ == "__main__":
    sys.exit(main())
