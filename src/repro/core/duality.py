"""Duality between UCQs and forall-CNF sentences (Section 1.3).

The dual of a first-order sentence swaps exists/forall and and/or.  The
dual of one of our forall-CNF queries is a UCQ: each clause becomes a
conjunctive query over the same atoms, and the conjunction of clauses
becomes a union.  Probabilities complement:

    Pr_Delta(UCQ) = 1 - Pr_{Delta'}(forall-CNF),   p'(t) = 1 - p(t),

which is why GFOMC is closed under duals ({0,1/2,1} is closed under
p -> 1-p) while plain model counting is not ({0,1/2} complements to
{1/2,1} — Section 1.2/1.3's motivation for studying GFOMC).
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.queries import Query
from repro.core.symbols import LEFT_UNARY, RIGHT_UNARY
from repro.tid.database import TID
from repro.tid.wmc import probability


def complement_tid(tid: TID) -> TID:
    """The TID with every probability p replaced by 1 - p.

    All ground tuples over the domain are affected, including the ones
    at the default probability (the default complements too).
    """
    probs = {token: 1 - value for token, value in tid.probs.items()}
    return TID(tid.left_domain, tid.right_domain, probs,
               default=1 - tid.default)


class DualUCQ:
    """The UCQ dual of a bipartite forall-CNF query.

    The dual of  AND_c forall x,y (OR of atoms)  is
    OR_c exists x,y (AND of atoms); evaluation goes through the
    complement identity above, so the exact WMC engine is reused.
    """

    def __init__(self, forall_cnf: Query):
        self.forall_cnf = forall_cnf

    def probability(self, tid: TID) -> Fraction:
        """Pr(UCQ) on ``tid`` = 1 - Pr(forall-CNF) on the complement."""
        return 1 - probability(self.forall_cnf, complement_tid(tid))

    def __repr__(self) -> str:
        parts = []
        for clause in self.forall_cnf.clauses:
            atoms = []
            if LEFT_UNARY in clause.unaries:
                atoms.append("R(x)")
            for j in clause.subclauses:
                atoms.extend(sorted(j))
            if RIGHT_UNARY in clause.unaries:
                atoms.append("T(y)")
            parts.append("E x,y (" + " & ".join(atoms) + ")")
        return "UCQ[" + " v ".join(parts) + "]"


def dual_model_counting_values(values) -> frozenset[Fraction]:
    """The probability-value set the dual problem lives on: each p
    becomes 1 - p (Section 1.3)."""
    return frozenset(Fraction(1) - Fraction(v) for v in values)
