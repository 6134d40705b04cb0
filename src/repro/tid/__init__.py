"""Tuple-independent probabilistic databases and query evaluation.

Provides bipartite TIDs with exact rational probabilities, lineage
construction (grounding a forall-CNF query into a monotone CNF), an
exact weighted-model-counting engine, a brute-force possible-worlds
evaluator (for cross-validation), and the polynomial-time lifted
evaluator for safe queries, which evaluates the query's safe plan.
"""

from repro.tid.database import TID, Tuple, r_tuple, t_tuple, s_tuple
from repro.tid.lineage import lineage
from repro.tid.wmc import probability, cnf_probability
from repro.tid.brute import probability_brute, cnf_probability_brute
from repro.tid.lifted import lifted_probability
from repro.tid.plans import safe_plan

__all__ = [
    "TID",
    "Tuple",
    "r_tuple",
    "t_tuple",
    "s_tuple",
    "lineage",
    "probability",
    "cnf_probability",
    "probability_brute",
    "cnf_probability_brute",
    "lifted_probability",
    "safe_plan",
]
