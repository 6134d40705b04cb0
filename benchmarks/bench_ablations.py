"""Ablations of the design choices DESIGN.md calls out.

1. Row selection: the naive {1..m+1}^2 parameter grid vs the multiset
   rank-selected rows the reduction uses (the grid is singular).
2. Finality: running the reduction through a non-final query (the
   override) — Theorem 3.16's guarantee is what finality buys; on the
   intro example the matrix happens to stay non-singular, so the
   ablation documents that finality is sufficient, not necessary.
3. Oracle choice: block-product (Theorem 3.4) vs honest WMC.
4. Lemma 3.19 fast path vs direct WMC for z(p).
"""

from fractions import Fraction

import pytest

from repro.algebra.matrices import Matrix, select_rows
from repro.core import catalog
from repro.counting.p2cnf import P2CNF
from repro.reduction.block_matrix import z_matrix_direct, z_matrix_power
from repro.reduction.type1 import Type1Reduction, valid_signatures

F = Fraction


def test_ablation_naive_grid_is_singular(benchmark):
    """Using the full (p1, p2) grid verbatim yields duplicate rows."""
    reduction = Type1Reduction(catalog.rst_query())
    m = 2

    def build():
        rows = []
        for p1 in range(1, m + 2):
            for p2 in range(1, m + 2):
                y = reduction.y_values((p1, p2))
                rows.append([
                    y["00"] ** k00 * y["10"] ** k1 * y["11"] ** k2
                    for k00 in [0] for k1 in range(m + 1)
                    for k2 in range(m + 1)])
        # Square it up on the first (m+1)^2 columns x rows.
        size = min(len(rows), len(rows[0]))
        return Matrix([r[:size] for r in rows[:size]])

    matrix = benchmark(build)
    assert matrix.is_singular()


def test_ablation_multiset_rows_full_rank(benchmark):
    reduction = Type1Reduction(catalog.rst_query())
    m = 2

    def build():
        return select_rows(lambda params: reduction.coefficient_row(m, params),
                           len(valid_signatures(m)), 2, 16)

    kept, _ = benchmark(build)
    rows = [reduction.coefficient_row(m, params) for params in kept]
    assert not Matrix(rows).is_singular()


def test_ablation_nonfinal_query(benchmark):
    """check_final=False: the reduction may still work for non-final
    unsafe queries — finality is the *guarantee*, not a necessity."""
    reduction = Type1Reduction(catalog.intro_example(), check_final=False)
    phi = P2CNF.path(3)
    result = benchmark(reduction.run, phi)
    assert result.model_count == phi.count_satisfying()


@pytest.mark.parametrize("oracle", ["product", "wmc"])
def test_ablation_oracle_choice(benchmark, oracle):
    reduction = Type1Reduction(catalog.rst_query())
    phi = P2CNF(2, ((0, 1),))
    result = benchmark.pedantic(reduction.run, args=(phi,),
                                kwargs={"oracle": oracle},
                                iterations=1, rounds=1)
    assert result.model_count == 3
    benchmark.extra_info["oracle"] = oracle


@pytest.mark.parametrize("p,mode", [(4, "direct"), (4, "power"),
                                    (6, "direct"), (6, "power")])
def test_ablation_z_computation(benchmark, p, mode):
    query = catalog.rst_query()
    if mode == "direct":
        matrix = benchmark(z_matrix_direct, query, p)
    else:
        base = z_matrix_direct(query, 1)
        matrix = benchmark(z_matrix_power, query, p, base)
    assert matrix[0, 1] == matrix[1, 0]
    benchmark.extra_info["p"] = p
    benchmark.extra_info["mode"] = mode
