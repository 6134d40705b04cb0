"""A dichotomy-aware query evaluator.

``evaluate`` routes a (query, database) pair to the right engine:

* safe queries (Definition 2.4) go to the polynomial-time lifted
  evaluator, which runs the query's safe plan — the PTIME side of
  Theorem 2.1;
* unsafe queries (#P-hard, Theorem 2.2: no general shortcut exists)
  and the safe ones with no plan fall back to the weighted model
  counter, which compiles the lineage to a d-DNNF circuit and
  evaluates it, paying the compilation at most once per lineage.
  Under the default ``"auto"`` method the compilation runs under a
  node budget and degrades to Monte-Carlo estimation with a Hoeffding
  confidence interval when the circuit blows up — the result's
  ``method`` then reads ``"estimate"`` and its ``estimate`` field
  carries the bound;
* ``method`` can force a specific engine — ``"wmc"`` the compiled
  circuit oracle, ``"shannon"`` the legacy recursive search,
  ``"estimate"`` the Monte-Carlo estimator — or request
  ``"cross-check"``, which runs every applicable exact engine and
  asserts agreement (used throughout the test-suite and benchmarks).

Batch workloads should use ``evaluate_batch`` (many databases, one
query) or ``probability_sweep`` (one lineage, many weight vectors; the
plain-list face of ``repro.tid.wmc.probability_batch_auto``, through
which every batched evaluation runs): both ride the module-level
compilation cache, so the exponential lineage search runs once and
each extra evaluation is linear in the circuit size.

This is the front door a downstream user of the library is expected to
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.booleans.adaptive import ENGINE_LABELS, estimate_with
from repro.booleans.approximate import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    ProbabilityEstimate,
)
from repro.booleans.circuit import WeightOverlay
from repro.booleans.cnf import CNF
from repro.core.queries import Query
from repro.core.safety import is_safe
from repro.tid.brute import probability_brute
from repro.tid.database import TID
from repro.tid.lifted import UnsafeQueryError, lifted_probability
from repro.tid.lineage import lineage
from repro.tid.wmc import (
    DEFAULT_BUDGET_NODES,
    cnf_probability,
    cnf_probability_auto,
    probability_batch_auto,
    shannon_probability,
)

METHODS = ("auto", "lifted", "wmc", "shannon", "brute", "estimate",
           "adaptive", "importance", "cross-check")

#: Methods answered by a sampler rather than an exact engine; the
#: result's ``method`` records the sampler that actually ran
#: ("estimate" = fixed-n Hoeffding, "adaptive" = sequential
#: empirical-Bernstein, "importance" = self-normalized tilted).
ESTIMATE_METHODS = ("estimate", "adaptive", "importance")


@dataclass(frozen=True)
class EvaluationResult:
    """Pr(Q) together with provenance of how it was computed.

    ``estimate`` is populated only when the Monte-Carlo engine
    answered (``method == "estimate"``): ``value`` is then the point
    estimate and ``estimate`` carries its Hoeffding interval.
    """

    value: Fraction
    method: str
    safe: bool
    estimate: ProbabilityEstimate | None = None

    def __eq__(self, other):
        if isinstance(other, EvaluationResult):
            return (self.value, self.method, self.safe) == \
                (other.value, other.method, other.safe)
        # Delegate so numeric comparisons (Fraction, int, float) still
        # work but genuinely foreign types get NotImplemented back,
        # letting Python try the reflected __eq__ instead of forcing
        # an unconditional False.
        return self.value.__eq__(other)

    def __hash__(self):
        # A custom __eq__ suppresses the dataclass-generated __hash__,
        # so it must be restated explicitly.  Hash on the value alone:
        # results equal to each other or to a bare Fraction (see __eq__)
        # then always hash alike, keeping dict/set semantics consistent.
        return hash(self.value)

    @property
    def engine(self) -> str:
        """Which engine class answered, mirroring ``AutoProbability``:
        the sampler's label (``"estimate"``, ``"adaptive"``,
        ``"importance"``) for the Monte-Carlo paths, ``"exact"`` for
        every other method (they all compute the true rational)."""
        return self.method if self.method in ESTIMATE_METHODS \
            else "exact"

    def as_dict(self) -> dict:
        """A JSON-safe rendering (exact value as a ``"num/den"``
        string, float convenience field, engine/method provenance, and
        the Hoeffding interval when the estimator answered) — what the
        service protocol puts on the wire."""
        payload = {
            "value": str(self.value),
            "float": float(self.value),
            "method": self.method,
            "engine": self.engine,
            "safe": self.safe,
        }
        if self.estimate is not None:
            payload["estimate"] = self.estimate.as_dict()
        return payload


def _shannon_query_probability(query: Query, tid: TID) -> Fraction:
    """Pr(Q) via the legacy recursive engine (recomputes every call)."""
    if query.is_false():
        return Fraction(0)
    return shannon_probability(lineage(query, tid), tid.probability)


def _lifted_or_none(query: Query, tid: TID) -> Fraction | None:
    """The safe plan's Pr(Q), or None for a safe query with no plan (a
    full clause R(x) v T(y) sharing a symbol with another clause)."""
    try:
        return lifted_probability(query, tid)
    except UnsafeQueryError:
        return None


def evaluate(query: Query, tid: TID, method: str = "auto", *,
             budget_nodes: int | None = DEFAULT_BUDGET_NODES,
             epsilon=DEFAULT_EPSILON, delta=DEFAULT_DELTA,
             rng=None, estimator: str = "hoeffding",
             relative_error=None, planner=None,
             formula: CNF | None = None) -> EvaluationResult:
    """Pr(Q) over the TID, routed per the dichotomy.

    ``budget_nodes``/``epsilon``/``delta``/``rng`` govern the
    ``"auto"`` and sampled methods: ``auto`` answers exactly (method
    ``"lifted"`` or ``"wmc"``) whenever it can, and falls back to the
    estimator — recording the sampler's label and its confidence
    interval on the result — only when exact compilation of an unsafe
    query's lineage exceeds the node budget.  ``estimator`` picks the
    fallback sampler (``"hoeffding"``/``"adaptive"``/``"importance"``)
    and ``relative_error`` switches the sequential samplers to a
    relative-width target; methods ``"adaptive"``/``"importance"``
    force the named sampler directly, as ``"estimate"`` forces the
    ``estimator`` (default fixed-n Hoeffding).  ``planner`` is an
    optional ``repro.booleans.adaptive.BudgetPlanner`` choosing the
    compilation budget from the observed circuit-size trajectory.
    ``formula`` is ``lineage(query, tid)`` when the caller already
    grounded it (the service's resolver caches it); the engines that
    need the lineage then use it instead of grounding it again.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick from {METHODS}")
    safe = is_safe(query)

    def grounded() -> CNF:
        return lineage(query, tid) if formula is None else formula

    def exact() -> Fraction:
        if query.is_false():
            return Fraction(0)
        return cnf_probability(grounded(), tid.probability)

    if method == "auto":
        lifted = _lifted_or_none(query, tid) if safe else None
        if lifted is not None:
            return EvaluationResult(lifted, "lifted", True)
        if query.is_false():
            return EvaluationResult(Fraction(0), "wmc", False)
        answer = cnf_probability_auto(
            grounded(), tid.probability,
            budget_nodes=budget_nodes, epsilon=epsilon, delta=delta,
            rng=rng, estimator=estimator,
            relative_error=relative_error, planner=planner)
        if answer.engine != "exact":
            return EvaluationResult(answer.value, answer.engine, safe,
                                    answer.estimate)
        return EvaluationResult(answer.value, "wmc", safe)
    if method in ESTIMATE_METHODS:
        sampler = estimator if method == "estimate" else method
        label = ENGINE_LABELS[sampler]
        if query.is_false():
            # No sampling needed: Pr is exactly 0, reported as a
            # degenerate zero-width interval so the documented
            # invariant (a sampled method implies a populated
            # estimate) holds.
            zero = Fraction(0)
            return EvaluationResult(
                zero, label, safe,
                ProbabilityEstimate(zero, zero, zero, 0, 0,
                                    samples_used=0))
        estimate = estimate_with(
            sampler, grounded(), tid.probability, epsilon,
            delta, rng, relative_error=relative_error)
        return EvaluationResult(estimate.estimate, label, safe,
                                estimate)
    if method == "lifted":
        return EvaluationResult(lifted_probability(query, tid),
                                "lifted", safe)
    if method == "wmc":
        return EvaluationResult(exact(), "wmc", safe)
    if method == "shannon":
        return EvaluationResult(_shannon_query_probability(query, tid),
                                "shannon", safe)
    if method == "brute":
        return EvaluationResult(probability_brute(query, tid),
                                "brute", safe)
    # cross-check
    wmc_value = exact()
    shannon_value = _shannon_query_probability(query, tid)
    if wmc_value != shannon_value:  # pragma: no cover - engine bug guard
        raise AssertionError(
            f"engine disagreement: wmc={wmc_value} "
            f"shannon={shannon_value}")
    brute_value = probability_brute(query, tid)
    if wmc_value != brute_value:  # pragma: no cover - engine bug guard
        raise AssertionError(
            f"engine disagreement: wmc={wmc_value} brute={brute_value}")
    lifted_value = _lifted_or_none(query, tid) if safe else None
    if lifted_value is not None \
            and lifted_value != wmc_value:  # pragma: no cover
        raise AssertionError(
            f"lifted={lifted_value} disagrees with wmc={wmc_value}")
    return EvaluationResult(wmc_value, "cross-check", safe)


def evaluate_batch(query: Query, tids: Iterable[TID],
                   method: str = "auto", *,
                   budget_nodes: int | None = DEFAULT_BUDGET_NODES,
                   epsilon=DEFAULT_EPSILON, delta=DEFAULT_DELTA,
                   rng=None, estimator: str = "hoeffding",
                   relative_error=None,
                   planner=None) -> list[EvaluationResult]:
    """Pr(Q) over many databases, compiling each distinct lineage once.

    Databases that ground to the same lineage CNF (same domains and
    certain/absent tuples, arbitrary probabilities elsewhere) share a
    single compilation through the module-level circuit cache, so the
    marginal cost of each extra database is one linear circuit pass.
    The ``auto`` budget/estimator knobs apply per database; a lineage
    past budget degrades that database's result to an estimate without
    affecting the others.
    """
    return [evaluate(query, tid, method, budget_nodes=budget_nodes,
                     epsilon=epsilon, delta=delta, rng=rng,
                     estimator=estimator, relative_error=relative_error,
                     planner=planner)
            for tid in tids]


def endpoint_weight_grid(formula: CNF, tid: TID, k: int,
                         u="u", v="v") -> list[WeightOverlay]:
    """k weight vectors varying the R(u)/T(v) endpoint marginals over
    a fixed block lineage — the Eq. 20 / interpolation grid shape
    shared by the ``repro sweep`` CLI, the service ``sweep`` op,
    ``benchmarks/bench_sweep.py`` and the sweep tests.

    Vector i is a ``WeightOverlay`` pinning R(u) to (i+1)/(k+2) and
    T(v) to (k+1-i)/(k+2) (read them from its ``pinned`` map) on one
    base map shared by all k vectors, which holds the TID's marginals
    of the lineage's tuples; the tape's lanes then fill in
    O(tuples + k) and run the unpinned part of the circuit once.
    """
    from repro.tid.database import r_tuple, t_tuple

    base = {var: tid.probability(var) for var in formula.variables()}
    r_u, t_v = r_tuple(u), t_tuple(v)
    # One object per step value: the lanes convert each object once.
    steps = [Fraction(j, k + 2) for j in range(k + 2)]
    return [WeightOverlay(base, {r_u: steps[i + 1], t_v: steps[k + 1 - i]})
            for i in range(k)]


def probability_sweep(formula: CNF,
                      weight_maps: Sequence[Mapping | None],
                      default: Fraction | None = None,
                      numeric: str = "exact", *,
                      cross_check: int = 2,
                      budget_nodes: int | None = None,
                      epsilon=DEFAULT_EPSILON, delta=DEFAULT_DELTA,
                      rng=None, estimator: str = "hoeffding",
                      relative_error=None, planner=None) -> list:
    """Pr(F) under many weight vectors: compile once, sweep batched.

    This is the primitive behind the reduction pipelines' probability
    grids (block-matrix entries, Type-II theta-sweeps, interpolation
    points): one exponential compilation (riding the two-tier circuit
    cache), then one batched pass over all weight maps on the circuit's
    tape (``Circuit.probability_batch``).  Each entry of
    ``weight_maps`` may be a mapping, a callable, a ``WeightOverlay``
    or None (all variables at ``default``, by default 1/2).

    ``numeric="float"`` switches the pass to hardware floats; up to
    ``cross_check`` evenly-spaced vectors are then re-evaluated
    exactly, in one batch, and an ``ArithmeticError`` is raised if the
    float result drifts beyond 1e-9 relative tolerance.

    Passing ``budget_nodes`` (or a ``planner``, which picks the budget
    from the observed circuit-size trajectory) switches the sweep to
    the ``auto`` policy: if exact compilation exceeds the budget, each
    weight vector is answered by an (epsilon, delta) estimate from the
    chosen ``estimator`` instead (one sampling run per vector, a
    shared seeded ``rng``; ``"adaptive"``/``"importance"`` stop each
    vector as early as its variance allows, and ``relative_error``
    switches them to a relative-width target).  The return stays a
    plain value list either way; callers that need the engine/interval
    provenance call ``repro.tid.wmc.probability_batch_auto``, which
    this wraps.
    """
    return probability_batch_auto(
        formula, weight_maps, default, budget_nodes=budget_nodes,
        epsilon=epsilon, delta=delta, rng=rng, numeric=numeric,
        estimator=estimator, relative_error=relative_error,
        planner=planner, cross_check=cross_check).values
