"""Vandermonde matrices and the Lemma 3.7 linear-independence argument.

Lemma 3.7 proves that the monomials g_k(y) = y1^k1 * ... * yh^kh with
k in {0..m}^h are linearly independent, by evaluating them on a grid
A1 x ... x Ah of distinct values: the evaluation matrix is the Kronecker
product of per-coordinate Vandermonde matrices, hence non-singular.  This
module builds those matrices so the lemma can be machine-checked.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from repro.algebra.matrices import Matrix, monomial_row


def vandermonde(points: Sequence[Fraction], degree: int | None = None) -> Matrix:
    """The Vandermonde matrix V[i][j] = points[i] ** j.

    With ``degree`` omitted the matrix is square (degree = len(points)-1).
    """
    if degree is None:
        degree = len(points) - 1
    return Matrix([[Fraction(p) ** j for j in range(degree + 1)]
                   for p in points])


def monomial_evaluation_matrix(grids: Sequence[Sequence[Fraction]],
                               max_degree: int) -> Matrix:
    """Rows: points u in grids[0] x ... x grids[h-1].
    Columns: exponent vectors k in {0..max_degree}^h.
    Entry: product_i u_i ** k_i.

    Lemma 3.7 asserts this equals the Kronecker product of the
    per-coordinate Vandermonde matrices, hence is non-singular whenever
    each grid consists of max_degree+1 distinct values.
    """
    exponents = list(product(range(max_degree + 1), repeat=len(grids)))
    return Matrix([monomial_row(point, exponents)
                   for point in product(*grids)])


def kronecker_of_vandermondes(grids: Sequence[Sequence[Fraction]],
                              max_degree: int) -> Matrix:
    """The Kronecker product A1 (x) ... (x) Ah from Lemma 3.7's proof."""
    result = None
    for grid in grids:
        vm = vandermonde(list(grid), max_degree)
        result = vm if result is None else result.kronecker(vm)
    if result is None:
        raise ValueError("need at least one grid")
    return result
