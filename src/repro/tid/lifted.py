"""Polynomial-time evaluation of *safe* bipartite queries.

This is the easy side of the dichotomy (Theorem 2.1):
``lifted_probability`` evaluates the query's safe plan
(``repro.tid.plans``, which describes the algorithm) in time
O(|U| * |V|) per component for a fixed query — genuinely PTIME in the
database.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.queries import Query
from repro.tid.database import TID
from repro.tid.plans import UnsafeQueryError, safe_plan

__all__ = ["UnsafeQueryError", "lifted_probability"]


def lifted_probability(query: Query, tid: TID) -> Fraction:
    """Pr(Q) for a safe bipartite query, in polynomial time.

    Raises :class:`UnsafeQueryError` when the query has no safe plan.
    """
    if query.is_false():
        return Fraction(0)
    if query.is_true():
        return Fraction(1)
    return safe_plan(query).evaluate(tid)
