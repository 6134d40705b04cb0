"""Fraction-free elimination on the Type-I reduction's linear systems.

Shape expectations: on the Eq. (10) systems of the Theorem 3.1
reduction through ``rst_query()`` (m = 5 and 6 clauses: 21 and 28
unknowns, dyadic coefficients of a few hundred bits), ``Matrix.solve``
(fraction-free elimination over the integers) must return exactly the
solution of a ``Fraction`` Gauss-Jordan elimination
(``fraction_solve``, the routine ``Matrix.solve`` used before, kept
here as the baseline, as ``bench_tape`` keeps ``node_float_batch``);
that solution must satisfy the system; the model count it recovers must
equal the brute-force #Phi; and ``solve`` must beat the baseline by
**>= 5x**.  ``determinant``, ``rank`` and ``inverse`` on the same
matrices are timed and reported, not gated.

Cold against warm: ``Type1Reduction`` keeps its selected system per
(query, m), so a run after the first one for a given (Q, m) in one
process is its oracle calls plus one replayed solve.  On seeded random
P2CNFs with n = 6 variables through ``path_query(1)`` (m = 3, 5 and 7
clauses), each instance runs three ways: cold (both reduction caches
emptied first), warm (right after), and uncached (``uncached_run``:
the reduction without the caches, ``select_rows`` and
``basis.solve`` called directly, as every run went before them).  All
three must give the brute-force count and the cold and warm
``ReductionResult``s must be equal; at m = 5 the warm median must beat
the cold one by **>= 2x**, and the median cold/uncached ratio must
stay under **1.2**, so the caches cost a run that cannot use them
almost nothing.  The medians are recorded as ``cold_ms``, ``warm_ms``
and ``uncached_ms``.

Run: ``python benchmarks/bench_algebra.py [--quick]`` (CI uses
``--quick``); it exits non-zero if a check or a speed gate fails and
writes ``BENCH_algebra.json`` through ``_bench_io.emit``.
"""

import random
import statistics
import sys
import time
from fractions import Fraction

import _bench_io

from repro.algebra.matrices import Matrix, select_rows
from repro.core import catalog
from repro.core.final import is_final
from repro.core.safety import query_type
from repro.counting.p2cnf import P2CNF
from repro.reduction import type1
from repro.reduction.block_matrix import z_matrix_direct, z_matrix_power
from repro.reduction.type1 import Type1Reduction, valid_signatures

#: ``Matrix.solve`` over the Fraction baseline, per system.
SPEEDUP_GATE = 5.0
#: A warm reduction over a cold one, at ``GATED_CLAUSES``.
WARM_GATE = 2.0
#: The most a cold reduction may cost over the uncached path (median
#: of the per-instance ratios), at ``GATED_CLAUSES``.
COLD_GATE = 1.2
GATED_CLAUSES = 5
#: Variables of the random P2CNFs (m clauses out of n(n-1)/2 pairs).
VARIABLES = 6


def fraction_solve(rows, rhs):
    """The baseline: Gauss-Jordan elimination over ``Fraction``s, one
    gcd per operation."""
    n = len(rows)
    work = [[Fraction(e) for e in row] + [Fraction(rhs[i])]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [entry / pivot for entry in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[col])]
    return [work[i][n] for i in range(n)]


def type1_system(m):
    """The rows the reduction keeps for ``P2CNF.path(m + 1)`` (m
    clauses) and their product-oracle right-hand sides."""
    reduction = Type1Reduction(catalog.rst_query())
    phi = P2CNF.path(m + 1)
    params = reduction.run(phi).parameters_used
    rows = [reduction.coefficient_row(m, p) for p in params]
    rhs = [reduction.product_oracle_value(phi, p) for p in params]
    return phi, rows, rhs


def _best_of(fn, *args, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def check_system(m, repeats) -> tuple[bool, dict]:
    phi, rows, rhs = type1_system(m)
    matrix = Matrix(rows)
    t_solve, solution = _best_of(matrix.solve, rhs, repeats=repeats)
    t_ref, reference = _best_of(fraction_solve, rows, rhs,
                                repeats=repeats)
    t_det, _ = _best_of(matrix.determinant, repeats=repeats)
    t_rank, rank = _best_of(matrix.rank, repeats=repeats)
    t_inv, _ = _best_of(matrix.inverse, repeats=repeats)
    recovered = sum(x for (k00, _, _), x in
                    zip(valid_signatures(m), solution) if k00 == 0)
    expected = phi.count_satisfying_brute()
    speedup = t_ref / t_solve
    checks = {
        "equals_reference": solution == reference,
        "satisfies_system": matrix.apply(solution) == rhs,
        "count_matches_brute": recovered == expected,
        "full_rank": rank == len(rows),
        "clears_gate": speedup >= SPEEDUP_GATE,
    }
    record = {
        "m": m, "unknowns": len(rows),
        "solve_ms": round(t_solve * 1e3, 3),
        "fraction_solve_ms": round(t_ref * 1e3, 3),
        "speedup": round(speedup, 2),
        "determinant_ms": round(t_det * 1e3, 3),
        "rank_ms": round(t_rank * 1e3, 3),
        "inverse_ms": round(t_inv * 1e3, 3),
        "model_count": int(recovered),
        **checks,
    }
    failed = [name for name, passed in checks.items() if not passed]
    verdict = f"  <-- FAILED: {', '.join(failed)}" if failed else ""
    print(f"m={m} ({len(rows)} unknowns): solve {t_solve * 1e3:7.2f}ms  "
          f"Fraction baseline {t_ref * 1e3:8.2f}ms ({speedup:5.1f}x)  "
          f"det {t_det * 1e3:6.2f}ms  rank {t_rank * 1e3:6.2f}ms  "
          f"inverse {t_inv * 1e3:7.2f}ms  #Phi={recovered}{verdict}")
    return not failed, record


def random_p2cnfs(seed, m, count):
    """``count`` seeded P2CNFs: m distinct variable pairs out of
    ``VARIABLES``, each clause randomly oriented."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(VARIABLES)
             for j in range(i + 1, VARIABLES)]
    return [P2CNF(VARIABLES, tuple((i, j) if rng.random() < 0.5
                                   else (j, i)
                                   for i, j in rng.sample(pairs, m)))
            for _ in range(count)]


class UncachedReduction(Type1Reduction):
    """``Type1Reduction`` without the caches: the constructor's checks,
    then A(1) and the z-values of the instance's own, with no lock, as
    they were before."""

    def __init__(self, query):
        if query_type(query) != ("I", "I") or not is_final(query):
            raise ValueError("needs a final type I-I query")
        self.query = query
        self.base_matrix = z_matrix_direct(query, 1)
        self._z = {}

    def z_values(self, p):
        if p not in self._z:
            a_p = z_matrix_power(self.query, p, self.base_matrix)
            self._z[p] = {"00": a_p[0, 0], "10": a_p[1, 0],
                          "11": a_p[1, 1]}
        return self._z[p]


def uncached_run(query, phi) -> int:
    """#Phi by the uncached path: select the rows, ask the product
    oracle per kept parameter, solve through the selecting basis, and
    check the counts as ``run`` does."""
    reduction = UncachedReduction(query)
    signatures = valid_signatures(phi.m)
    kept, basis = select_rows(
        lambda params: reduction.coefficient_row(phi.m, params),
        len(signatures), 2, 64)
    solution = basis.solve([reduction.product_oracle_value(phi, params)
                            for params in kept])
    if any(value.denominator != 1 or value < 0 for value in solution) \
            or sum(solution) != 2 ** phi.n:
        raise AssertionError(f"bad signature counts {solution}")
    return sum(int(count) for (k00, _, _), count
               in zip(signatures, solution) if k00 == 0)


def cached_run(query, phi):
    """The reduction as it runs: a new ``Type1Reduction`` per instance."""
    return Type1Reduction(query).run(phi)


def _timed(run, query, phi):
    start = time.perf_counter()
    result = run(query, phi)
    return time.perf_counter() - start, result


def check_cold_warm(m, count) -> tuple[bool, dict]:
    """Each instance cold (both reduction caches emptied), warm (right
    after its cold run) and uncached; the cold and uncached runs take
    turns going first."""
    query = catalog.path_query(1)
    phis = random_p2cnfs(m, m, count)
    uncached_run(query, phis[0])  # compiles A(1)'s lineage once
    cold_times, warm_times, uncached_times, ratios = [], [], [], []
    equal = brute = True
    for i, phi in enumerate(phis):
        if i % 2:
            t_uncached, uncached = _timed(uncached_run, query, phi)
        type1._SYSTEMS.clear()
        type1._QUERIES.clear()
        t_cold, cold = _timed(cached_run, query, phi)
        t_warm, warm = _timed(cached_run, query, phi)
        if not i % 2:
            t_uncached, uncached = _timed(uncached_run, query, phi)
        cold_times.append(t_cold)
        warm_times.append(t_warm)
        uncached_times.append(t_uncached)
        ratios.append(t_cold / t_uncached)
        equal &= cold == warm
        brute &= cold.model_count == uncached \
            == phi.count_satisfying_brute()
    cold_s = statistics.median(cold_times)
    warm_s = statistics.median(warm_times)
    uncached_s = statistics.median(uncached_times)
    speedup = cold_s / warm_s
    cold_ratio = statistics.median(ratios)
    checks = {"cold_equals_warm": equal, "count_matches_brute": brute}
    if m == GATED_CLAUSES:
        checks["clears_warm_gate"] = speedup >= WARM_GATE
        checks["clears_cold_gate"] = cold_ratio <= COLD_GATE
    record = {
        "m": m, "instances": count,
        "cold_ms": round(cold_s * 1e3, 3),
        "warm_ms": round(warm_s * 1e3, 3),
        "uncached_ms": round(uncached_s * 1e3, 3),
        "warm_speedup": round(speedup, 2),
        "cold_over_uncached": round(cold_ratio, 3),
        **checks,
    }
    failed = [name for name, passed in checks.items() if not passed]
    verdict = f"  <-- FAILED: {', '.join(failed)}" if failed else ""
    print(f"m={m} ({count} instances, n={VARIABLES}): uncached "
          f"{uncached_s * 1e3:7.2f}ms  cold {cold_s * 1e3:7.2f}ms "
          f"({cold_ratio:4.2f}x)  warm {warm_s * 1e3:6.2f}ms "
          f"({speedup:4.1f}x faster){verdict}")
    return not failed, record


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    repeats = 3 if quick else 7
    ok = True
    records = []
    for m in (5, 6):
        system_ok, record = check_system(m, repeats)
        ok &= system_ok
        records.append(record)
    runs = []
    for m in (3, 5, 7):
        run_ok, record = check_cold_warm(m, 10 if quick else 40)
        ok &= run_ok
        runs.append(record)
    gated = next(r for r in runs if r["m"] == GATED_CLAUSES)
    _bench_io.emit("algebra", {
        "quick": quick,
        "gate": SPEEDUP_GATE,
        "min_speedup": min(record["speedup"] for record in records),
        "systems": records,
        "warm_gate": WARM_GATE,
        "cold_gate": COLD_GATE,
        "cold_ms": gated["cold_ms"],
        "warm_ms": gated["warm_ms"],
        "uncached_ms": gated["uncached_ms"],
        "cold_warm": runs,
        "ok": bool(ok),
    })
    if not ok:
        print("algebra regression: Matrix.solve disagrees with the "
              "Fraction baseline, misses the system or the brute-force "
              f"count, or is under {SPEEDUP_GATE}x faster; or a warm "
              f"reduction differs from a cold one, or at "
              f"m={GATED_CLAUSES} is under {WARM_GATE}x faster, or a "
              f"cold one costs over {COLD_GATE}x the uncached path",
              file=sys.stderr)
        return 1
    print(f"ok: fraction-free solve equals the Fraction baseline, "
          f"recovers #Phi, and clears the {SPEEDUP_GATE}x gate; warm "
          f"reductions equal cold ones and clear the {WARM_GATE}x gate, "
          f"and cold ones stay within {COLD_GATE}x of the uncached path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
