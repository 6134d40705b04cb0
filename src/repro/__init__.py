"""repro — a reproduction of Kenig & Suciu (PODS 2021),
"A Dichotomy for the Generalized Model Counting Problem for Unions of
Conjunctive Queries".

The public API re-exports the main objects:

* queries and static analysis: :class:`Clause`, :class:`Query`,
  ``is_safe`` / ``is_unsafe`` / ``query_length`` / ``query_type``,
  ``is_final`` / ``find_final``;
* tuple-independent databases and evaluation: :class:`TID`,
  ``lineage``, ``probability`` (exact WMC), ``probability_brute``,
  ``lifted_probability`` (PTIME, safe queries only: evaluates the
  query's safe plan);
* counting problems: ``pqe``, ``gfomc``, ``fomc``,
  ``generalized_model_count``, ``model_count``, :class:`P2CNF`,
  :class:`PP2CNF`;
* the hardness machinery: ``repro.reduction`` (blocks, small/big
  matrices, the Type-I Cook reduction, the zig-zag rewriting, and the
  Type-II lattice/Moebius apparatus);
* the circuit runtime: :class:`Circuit` / ``compile_cnf`` (d-DNNF
  compilation, batched sweeps, world sampling, versioned
  serialization), :class:`CircuitStore` / ``cnf_fingerprint``
  (content-addressed persistence), and ``set_circuit_store``
  (process-wide two-tier caching);
* budgeted approximation: ``compile_cnf(..., budget_nodes=...)`` /
  :class:`CompilationBudgetExceeded`, ``estimate_probability`` /
  :class:`ProbabilityEstimate` (Monte-Carlo with Hoeffding bounds),
  and ``cnf_probability_auto`` (exact under budget, else estimate);
* adaptive estimation: ``adaptive_estimate_probability``
  (empirical-Bernstein early stopping),
  ``importance_estimate_probability`` (self-normalized tilted
  sampling with relative-error targets), and :class:`BudgetPlanner`
  (per-formula compilation budgets from the observed circuit-size
  trajectory).
"""

from repro.core import (
    Clause,
    Query,
    is_safe,
    is_unsafe,
    query_length,
    query_type,
    is_final,
    find_final,
)
from repro.tid import (
    TID,
    lineage,
    probability,
    probability_brute,
    lifted_probability,
)
from repro.counting import (
    pqe,
    gfomc,
    fomc,
    generalized_model_count,
    model_count,
    P2CNF,
    PP2CNF,
)
from repro.booleans.circuit import (
    Circuit,
    CompilationBudgetExceeded,
    compile_cnf,
)
from repro.booleans.adaptive import (
    BudgetPlanner,
    adaptive_estimate_probability,
    importance_estimate_probability,
)
from repro.booleans.approximate import (
    ProbabilityEstimate,
    estimate_probability,
)
from repro.booleans.store import CircuitStore, cnf_fingerprint
from repro.tid.wmc import cnf_probability_auto, set_circuit_store
from repro.evaluation import (
    EvaluationResult,
    evaluate,
    evaluate_batch,
    probability_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "Clause",
    "Query",
    "is_safe",
    "is_unsafe",
    "query_length",
    "query_type",
    "is_final",
    "find_final",
    "TID",
    "lineage",
    "probability",
    "probability_brute",
    "lifted_probability",
    "pqe",
    "gfomc",
    "fomc",
    "generalized_model_count",
    "model_count",
    "P2CNF",
    "PP2CNF",
    "evaluate",
    "evaluate_batch",
    "probability_sweep",
    "EvaluationResult",
    "BudgetPlanner",
    "Circuit",
    "CircuitStore",
    "CompilationBudgetExceeded",
    "ProbabilityEstimate",
    "adaptive_estimate_probability",
    "cnf_fingerprint",
    "cnf_probability_auto",
    "estimate_probability",
    "importance_estimate_probability",
    "set_circuit_store",
    "compile_cnf",
    "__version__",
]
