"""A dichotomy-aware query evaluator.

``evaluate`` routes a (query, database) pair to the right engine:

* safe queries (Definition 2.4) go to the polynomial-time lifted
  evaluator — the PTIME side of Theorem 2.1;
* unsafe queries fall back to the weighted model counter, which
  compiles the lineage to a d-DNNF circuit and evaluates it (they are
  #P-hard, Theorem 2.2, so no general shortcut exists — but the
  compilation is paid at most once per lineage).  Under the default
  ``"auto"`` method the compilation runs under a node budget and
  degrades to Monte-Carlo estimation with a Hoeffding confidence
  interval when the circuit blows up — the result's ``method`` then
  reads ``"estimate"`` and its ``estimate`` field carries the bound;
* ``method`` can force a specific engine — ``"compiled"`` addresses the
  circuit backend explicitly, ``"wmc"`` the shared compile+evaluate
  oracle, ``"shannon"`` the legacy recursive search, ``"estimate"``
  the Monte-Carlo estimator — or request ``"cross-check"``, which runs
  every applicable exact engine and asserts agreement (used throughout
  the test-suite and benchmarks).

Batch workloads should use ``evaluate_batch`` (many databases, one
query) or ``probability_sweep`` (one lineage, many weight vectors):
both ride the module-level compilation cache, so the exponential
lineage search runs once and each extra evaluation is linear in the
circuit size.

This is the front door a downstream user of the library is expected to
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.booleans.adaptive import (
    ENGINE_LABELS,
    estimate_batch_with,
    estimate_with,
)
from repro.booleans.approximate import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    ProbabilityEstimate,
)
from repro.booleans.circuit import Circuit, CompilationBudgetExceeded
from repro.booleans.cnf import CNF
from repro.core.queries import Query
from repro.core.safety import is_safe
from repro.tid.brute import probability_brute
from repro.tid.database import TID
from repro.tid.lifted import lifted_probability
from repro.tid.lineage import lineage
from repro.tid.wmc import (
    DEFAULT_BUDGET_NODES,
    cnf_probability,
    cnf_probability_auto,
    compiled,
    ensure_tape,
    shannon_probability,
)

METHODS = ("auto", "lifted", "wmc", "compiled", "shannon", "brute",
           "estimate", "adaptive", "importance", "cross-check")

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
        if safe:
            return EvaluationResult(lifted_probability(query, tid),
                                    "lifted", True)
        if query.is_false():
            return EvaluationResult(Fraction(0), "wmc", False)
        answer = cnf_probability_auto(
            grounded(), tid.probability,
            budget_nodes=budget_nodes, epsilon=epsilon, delta=delta,
            rng=rng, estimator=estimator,
            relative_error=relative_error, planner=planner)
        if answer.engine != "exact":
            return EvaluationResult(answer.value, answer.engine, False,
                                    answer.estimate)
        return EvaluationResult(answer.value, "wmc", False)
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
    if method == "compiled":
        # Same engine as "wmc" (which is circuit-backed), addressed
        # explicitly; provenance records the caller's choice.
        return EvaluationResult(exact(), "compiled", safe)
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
            f"engine disagreement: compiled={wmc_value} "
            f"shannon={shannon_value}")
    brute_value = probability_brute(query, tid)
    if wmc_value != brute_value:  # pragma: no cover - engine bug guard
        raise AssertionError(
            f"engine disagreement: wmc={wmc_value} brute={brute_value}")
    if safe:
        lifted_value = lifted_probability(query, tid)
        if lifted_value != wmc_value:  # pragma: no cover
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
                         u="u", v="v") -> list[dict]:
    """k weight vectors varying the R(u)/T(v) endpoint marginals over
    a fixed block lineage — the Eq. 20 / interpolation grid shape
    shared by the ``repro sweep`` CLI, ``benchmarks/bench_sweep.py``,
    and the sweep tests.

    Vector i pins R(u) to (i+1)/(k+2) and T(v) to (k+1-i)/(k+2); all
    other tuple marginals stay at the TID's values.
    """
    from repro.tid.database import r_tuple, t_tuple

    base = {var: tid.probability(var) for var in formula.variables()}
    r_u, t_v = r_tuple(u), t_tuple(v)
    grid = []
    for i in range(k):
        weights = dict(base)
        weights[r_u] = Fraction(i + 1, k + 2)
        weights[t_v] = Fraction(k + 1 - i, k + 2)
        grid.append(weights)
    return grid


def _sweep_worker(payload):
    """Evaluate one chunk of a sweep in a worker process.

    The circuit travels as its serialized bytes (``Circuit.from_bytes``
    is cheap relative to compilation) so workers never recompile.
    """
    data, chunk, default, numeric = payload
    circuit = Circuit.from_bytes(data)
    return circuit.probability_batch(chunk, default, numeric)


def _chunked(items: list, chunks: int) -> list[list]:
    size, extra = divmod(len(items), chunks)
    out, start = [], 0
    for i in range(chunks):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            out.append(items[start:stop])
        start = stop
    return out


def probability_sweep(formula: CNF,
                      weight_maps: Sequence[Mapping | None],
                      default: Fraction | None = None,
                      numeric: str = "exact",
                      processes: int | None = None,
                      cross_check: int = 2, *,
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
    ``weight_maps`` may be a mapping, a callable, or None (all
    variables at ``default``, by default 1/2).

    ``numeric="float"`` switches the pass to hardware floats; up to
    ``cross_check`` evenly-spaced vectors are then re-evaluated
    exactly, in one batch, and an ``ArithmeticError`` is raised if the
    float result drifts beyond 1e-9 relative tolerance.  ``processes``
    > 1 splits large grids across worker processes (mapping/None
    weight maps only — callables do not pickle).

    Passing ``budget_nodes`` (or a ``planner``, which picks the budget
    from the observed circuit-size trajectory) switches the sweep to
    the ``auto`` policy: if exact compilation exceeds the budget, each
    weight vector is answered by an (epsilon, delta) estimate from the
    chosen ``estimator`` instead (one sampling run per vector, a
    shared seeded ``rng``; ``"adaptive"``/``"importance"`` stop each
    vector as early as its variance allows, and ``relative_error``
    switches them to a relative-width target).  The return stays a
    plain value list either way; callers that need the engine/interval
    provenance should use ``repro.tid.wmc.probability_batch_auto``
    directly.
    """
    if planner is not None:
        budget_nodes = planner.budget_for(formula, budget_nodes)
    if budget_nodes is not None:
        try:
            compiled(formula, budget_nodes)
        except CompilationBudgetExceeded:
            values = [estimate.estimate for estimate in
                      estimate_batch_with(
                          estimator, formula, weight_maps, epsilon,
                          delta, rng, default, relative_error)]
            # Keep the documented value type of the requested numeric
            # mode even on the degraded engine.
            return [float(v) for v in values] \
                if numeric == "float" else values
        # Under budget: the circuit is now cached, so the exact path
        # below — batched pass, float cross-check, worker processes —
        # proceeds without recompiling.
    circuit = compiled(formula)
    if planner is not None and len(formula):
        # Every exact compile feeds the planner's trajectory — also
        # with no fallback budget, where the planner is still warming
        # up and budget_for returned None.
        planner.observe(len(formula), circuit.size)
    # Resolving the tape here lets a store's sidecar satisfy the
    # flattening, so warm processes never re-flatten.
    ensure_tape(formula, circuit)
    weight_maps = list(weight_maps)
    if processes and processes > 1 and len(weight_maps) > 1:
        if any(callable(w) for w in weight_maps):
            raise ValueError(
                "processes > 1 requires mapping (or None) weight maps; "
                "callables cannot be sent to worker processes")
        import multiprocessing

        chunks = _chunked(weight_maps, min(processes, len(weight_maps)))
        data = circuit.to_bytes()
        payloads = [(data, chunk, default, numeric) for chunk in chunks]
        with multiprocessing.Pool(len(chunks)) as pool:
            parts = pool.map(_sweep_worker, payloads)
        values = [v for part in parts for v in part]
    else:
        values = circuit.probability_batch(weight_maps, default, numeric)
    if numeric == "float" and cross_check and weight_maps:
        step = max(1, len(weight_maps) // cross_check)
        picked = list(range(0, len(weight_maps), step))[:cross_check]
        exacts = circuit.probability_batch(
            [weight_maps[i] for i in picked], default)
        for i, exact in zip(picked, map(float, exacts)):
            if abs(values[i] - exact) > 1e-9 * max(1.0, abs(exact)):
                raise ArithmeticError(
                    f"float sweep drifted at vector {i}: "
                    f"float={values[i]!r} exact={exact!r}")
    return values
