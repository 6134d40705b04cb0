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

Run: ``python benchmarks/bench_algebra.py [--quick]`` (CI uses
``--quick``); it exits non-zero if a check or the speed gate fails and
writes ``BENCH_algebra.json`` through ``_bench_io.emit``.
"""

import sys
import time
from fractions import Fraction

import _bench_io

from repro.algebra.matrices import Matrix
from repro.core import catalog
from repro.counting.p2cnf import P2CNF
from repro.reduction.type1 import Type1Reduction, valid_signatures

#: ``Matrix.solve`` over the Fraction baseline, per system.
SPEEDUP_GATE = 5.0


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


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    repeats = 3 if quick else 7
    ok = True
    records = []
    for m in (5, 6):
        system_ok, record = check_system(m, repeats)
        ok &= system_ok
        records.append(record)
    _bench_io.emit("algebra", {
        "quick": quick,
        "gate": SPEEDUP_GATE,
        "min_speedup": min(record["speedup"] for record in records),
        "systems": records,
        "ok": bool(ok),
    })
    if not ok:
        print("algebra regression: Matrix.solve disagrees with the "
              "Fraction baseline, misses the system or the brute-force "
              f"count, or is under {SPEEDUP_GATE}x faster",
              file=sys.stderr)
        return 1
    print(f"ok: fraction-free solve equals the Fraction baseline, "
          f"recovers #Phi, and clears the {SPEEDUP_GATE}x gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
