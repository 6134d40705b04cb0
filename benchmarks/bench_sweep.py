"""Batched circuit sweeps vs per-vector evaluation, plus warm starts.

Shape expectations: a sweep varies a few variables (endpoints, theta
tuples) over a fixed lineage, so ``Circuit.probability_batch`` keeps
the unswept part of the circuit scalar.  On the same endpoint grid,
the exact batch must beat k separate ``probability`` calls and the
float batch must beat the exact batch, staying within 1e-9 of the
exact values; each time is the best of ``REPEATS`` runs.  Separately,
a populated ``CircuitStore`` must make a cold process (cold memory
cache) run a full sweep with **zero** recompilations, returning
Fractions bit-identical to a fresh compilation.

Runable two ways:

* ``pytest benchmarks/bench_sweep.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_sweep.py [--quick]`` — a self-contained
  smoke run (CI uses ``--quick``) that exits non-zero if the exact
  batch loses to per-vector calls, the float batch loses to the exact
  batch or drifts, or a warm start recompiles.
"""

import sys
import tempfile
import time
from fractions import Fraction

import _bench_io

from repro.booleans.circuit import compile_cnf
from repro.core import catalog
from repro.evaluation import endpoint_weight_grid
from repro.reduction.blocks import path_block
from repro.tid import wmc
from repro.tid.lineage import lineage

F = Fraction

#: Runs per timing in script mode; each figure is the best of them.
REPEATS = 15


def sweep_workload(p=8, k=64):
    """A block lineage plus a k-vector endpoint grid (the Eq. 20 /
    interpolation pattern: two swept variables, the rest fixed) —
    the same grid the ``repro sweep`` CLI ships."""
    query = catalog.rst_query()
    tid = path_block(query, p)
    formula = lineage(query, tid)
    return formula, endpoint_weight_grid(formula, tid, k)


def run_per_vector(circuit, weight_maps):
    return [circuit.probability(w) for w in weight_maps]


def run_batched(circuit, weight_maps):
    return circuit.probability_batch(weight_maps)


def run_batched_float(circuit, weight_maps):
    return circuit.probability_batch(weight_maps, numeric="float")


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_per_vector_baseline(benchmark):
    formula, weight_maps = sweep_workload(p=8, k=32)
    circuit = compile_cnf(formula)
    values = benchmark(run_per_vector, circuit, weight_maps)
    assert all(0 < v < 1 for v in values)


def test_batched_sweep(benchmark):
    formula, weight_maps = sweep_workload(p=8, k=32)
    circuit = compile_cnf(formula)
    values = benchmark(run_batched, circuit, weight_maps)
    assert values == run_per_vector(circuit, weight_maps)


def test_batched_float_sweep(benchmark):
    formula, weight_maps = sweep_workload(p=8, k=32)
    circuit = compile_cnf(formula)
    values = benchmark(run_batched_float, circuit, weight_maps)
    exact = run_per_vector(circuit, weight_maps)
    assert all(abs(a - float(t)) < 1e-9
               for a, t in zip(values, exact))


# ----------------------------------------------------------------------
# Script / CI smoke mode
# ----------------------------------------------------------------------
def _best_of(fn, *args):
    best = None
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def check_batched_beats_per_vector(p, k) -> tuple[bool, dict]:
    formula, weight_maps = sweep_workload(p=p, k=k)
    circuit = compile_cnf(formula)
    t_pv, pv = _best_of(run_per_vector, circuit, weight_maps)
    t_b, batched = _best_of(run_batched, circuit, weight_maps)
    t_f, floats = _best_of(run_batched_float, circuit, weight_maps)
    record = {
        "p": p, "k": k,
        "per_vector_ms": round(t_pv * 1e3, 2),
        "batched_ms": round(t_b * 1e3, 2),
        "batched_speedup": round(t_pv / t_b, 2),
        "float_ms": round(t_f * 1e3, 2),
        "float_speedup": round(t_pv / t_f, 2),
    }
    if batched != pv:
        print(f"VALUE MISMATCH: batched != per-vector at p={p} k={k}",
              file=sys.stderr)
        return False, record
    if any(abs(a - float(t)) > 1e-9 for a, t in zip(floats, pv)):
        print(f"FLOAT DRIFT beyond 1e-9 at p={p} k={k}",
              file=sys.stderr)
        return False, record
    verdict = ("" if t_b < t_pv else "  <-- batched LOST") + \
        ("" if t_f < t_b else "  <-- float LOST to exact")
    print(f"p={p:2d} k={k:3d} per-vector {t_pv * 1e3:8.2f}ms  "
          f"batched {t_b * 1e3:8.2f}ms ({t_pv / t_b:4.1f}x)  "
          f"float {t_f * 1e3:7.2f}ms ({t_pv / t_f:5.1f}x){verdict}")
    return t_b < t_pv and t_f < t_b, record


def check_warm_start(p, k) -> tuple[bool, dict]:
    """A populated disk store + cold memory cache must run the whole
    sweep with zero recompilations and bit-identical Fractions."""
    formula, weight_maps = sweep_workload(p=p, k=k)
    record = {"p": p, "k": k}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            wmc.clear_circuit_cache()
            wmc.set_circuit_store(tmp)
            fresh = wmc.compiled(formula)
            expected = fresh.probability_batch(weight_maps)
            if wmc.cache_info()["compiles"] != 1:
                print("warm-start setup did not compile exactly once",
                      file=sys.stderr)
                return False, record

            wmc.clear_circuit_cache()  # simulate a new process
            start = time.perf_counter()
            circuit = wmc.compiled(formula)
            values = circuit.probability_batch(weight_maps)
            elapsed = time.perf_counter() - start
            record["warm_sweep_ms"] = round(elapsed * 1e3, 2)
            info = wmc.cache_info()
            record["compiles"] = info["compiles"]
            record["store_hits"] = info["store_hits"]
            record["store_misses"] = info["store_misses"]
            if info["compiles"] != 0 or info["store_hits"] != 1:
                print(f"warm start recompiled: {info}", file=sys.stderr)
                return False, record
            if values != expected:
                print("warm start values differ from fresh compilation",
                      file=sys.stderr)
                return False, record
            print(f"warm start: load + {k}-vector sweep in "
                  f"{elapsed * 1e3:.2f}ms, 0 compilations, "
                  f"bit-identical values")
            return True, record
        finally:
            wmc.set_circuit_store(None)
            wmc.clear_circuit_cache()


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    shapes = [(6, 16)] if quick else [(6, 16), (8, 64)]
    ok = True
    records = []
    for p, k in shapes:
        shape_ok, record = check_batched_beats_per_vector(p, k)
        ok &= shape_ok
        records.append(record)
    warm_ok, warm = check_warm_start(6 if quick else 8,
                                     16 if quick else 64)
    ok &= warm_ok
    _bench_io.emit("sweep", {
        "quick": quick,
        "shapes": records,
        "warm_start": warm,
        "ok": bool(ok),
    })
    if not ok:
        print("perf regression: batched sweeps, float sweeps or warm "
              "starts broke", file=sys.stderr)
        return 1
    print("ok: batched sweeps beat per-vector evaluation, float sweeps "
          "beat exact ones, and warm starts skip recompilation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
