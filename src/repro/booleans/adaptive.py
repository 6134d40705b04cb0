"""Adaptive estimation: variance-aware stopping, importance sampling,
and budget-aware sweep planning.

The fixed-n Hoeffding estimator (``repro.booleans.approximate``) pays
the full worst-case ``ln(2/delta) / (2 epsilon^2)`` sample count on
every past-budget query, even when the lineage's Bernoulli variance is
tiny — and its additive interval is uninformative for the
small-probability lineages the Type-II reductions produce.  This module
supplies the three standard upgrades, all exact-rational and
hash-seed-deterministic like the rest of the codebase:

* ``adaptive_estimate_probability`` — a sequential estimator drawing
  samples in geometric batches and stopping as soon as an
  empirical-Bernstein bound (variance-adaptive; Maurer & Pontil 2009)
  certifies the requested additive or relative error.  The failure
  budget is split across checkpoints (``delta/2`` over the Bernstein
  sequence, ``delta/2`` on a final Hoeffding fallback at the worst-case
  count), so the returned interval is strictly valid at the same
  ``(epsilon, delta)`` as the fixed-n estimator, and in the additive
  mode early stopping can only ever *narrow* it (a ``relative_error``
  target replaces the additive stopping rule, and the achieved
  half-width is then whatever the relative criterion — or the sample
  cap — left standing).  Every bound is computed as an exact
  ``Fraction`` upper bound: square roots via ``math.isqrt`` rounding
  up, logarithms via the float value inflated by one part in 2^32
  (double logs are correctly rounded to well under that).

* ``importance_estimate_probability`` — a self-normalized importance
  sampler for small Pr(F): literal weights are tilted *toward*
  satisfying assignments (monotone CNFs are monotone in every
  marginal, so raising marginals raises the hit rate), with the total
  tilt capped so every likelihood ratio stays in ``[0, weight_cap]``
  and the empirical-Bernstein machinery above still applies.  The
  interval is centered on the unbiased importance-weighted mean; the
  reported point estimate is the lower-variance self-normalized ratio,
  clamped into the interval.

* ``BudgetPlanner`` — budget-aware sweep planning: a log-linear fit of
  observed ``(clause count, circuit nodes)`` compilation outcomes (the
  exact trajectory ``benchmarks/bench_approx.py``'s growth probe
  measures) extrapolates how large a factor's circuit will be, and
  ``budget_for`` turns the prediction into a per-factor
  ``budget_nodes`` so Type-II sweeps abort hopeless factors early and
  never strangle easy ones.

Everything downstream reaches these through the ``estimator`` tier of
the ``auto`` policy (``repro.tid.wmc.cnf_probability_auto`` /
``probability_batch_auto`` with ``estimator="adaptive"`` or
``"importance"``), the ``"adaptive"`` evaluation method, the reduction
sweeps' ``method="adaptive"``, the CLI's ``--engine``, and the service
protocol's per-request ``estimator`` override.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass
from fractions import Fraction

from repro.booleans.approximate import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    ProbabilityEstimate,
    hoeffding_sample_count,
)
from repro.booleans.circuit import Weights, make_lookup
from repro.booleans.cnf import CNF

__all__ = [
    "ENGINE_LABELS",
    "ESTIMATORS",
    "BudgetPlanner",
    "adaptive_estimate_probability",
    "bernstein_radius",
    "estimate_batch_with",
    "estimate_with",
    "importance_estimate_probability",
    "tilted_proposal",
]

ZERO = Fraction(0)
ONE = Fraction(1)

#: The samplers the ``estimator`` policy tier can name.
ESTIMATORS = ("hoeffding", "adaptive", "importance")

#: The engine/method label a result records per sampler —
#: ``"estimate"`` keeps the PR 3 name for the fixed-n Hoeffding path.
ENGINE_LABELS = {"hoeffding": "estimate", "adaptive": "adaptive",
                 "importance": "importance"}


def resolve_sweep_method(method: str, estimator: str, budget_nodes,
                         planner) -> tuple:
    """The effective ``(budget_nodes, estimator, planner)`` of a
    reduction sweep's method for ``repro.tid.wmc.probability_batch_auto``:
    ``"exact"`` is no budget and no planner, ``"auto"`` keeps the
    caller's, and ``"adaptive"`` is ``auto`` with the sequential
    sampler as its degraded engine (an explicitly chosen non-default
    estimator wins).  Raises on any other method."""
    if method == "exact":
        return None, estimator, None
    if method not in ("auto", "adaptive"):
        raise ValueError(
            f"method must be one of exact, auto, or 'adaptive', got "
            f"{method!r}")
    if method == "adaptive" and estimator == "hoeffding":
        estimator = "adaptive"
    return budget_nodes, estimator, planner


def resolve_estimator(estimator: str, relative_error) -> str:
    """The sampler that answers under a ``relative_error`` target: a
    relative target implies the sequential sampler unless one was
    named explicitly (the fixed-n Hoeffding estimator has no relative
    mode).  Raises ``ValueError`` for a target that is not positive;
    each front end words that for its own users."""
    if relative_error is None:
        return estimator
    if relative_error <= 0:
        raise ValueError(
            f"relative_error must be positive, got {relative_error}")
    return "adaptive" if estimator == "hoeffding" else estimator

#: First empirical-Bernstein checkpoint and the batch growth factor:
#: checkpoint k sees INITIAL_BATCH * GROWTH^k samples, so the number of
#: delta-spending checkpoints is logarithmic in the worst-case count.
INITIAL_BATCH = 64
GROWTH = 2

#: Default likelihood-ratio bound of the importance sampler: the total
#: tilt is capped so no world's weight exceeds this, keeping the
#: Bernstein range — and with it the worst-case sample count, which
#: scales with the cap *squared* — small.
DEFAULT_WEIGHT_CAP = Fraction(4)

#: ln upper bounds inflate the (correctly rounded, <= 1 ulp off) float
#: logarithm by one part in 2^32 — far more than a double's relative
#: error, far less than anything that could move a stopping decision.
_LOG_SLACK = Fraction(2 ** 32 + 1, 2 ** 32)


# ----------------------------------------------------------------------
# Exact-rational upper bounds on the irrational pieces
# ----------------------------------------------------------------------
def sqrt_upper(value: Fraction) -> Fraction:
    """A rational upper bound on sqrt(value): ``sqrt(n/d) = sqrt(nd)/d``
    with the integer square root rounded up."""
    value = Fraction(value)
    if value < 0:
        raise ValueError(f"sqrt of negative value {value}")
    product = value.numerator * value.denominator
    root = math.isqrt(product)
    if root * root < product:
        root += 1
    return Fraction(root, value.denominator)


def log_upper(value: Fraction) -> Fraction:
    """A rational upper bound on ln(value) for value >= 1."""
    value = Fraction(value)
    if value < 1:
        raise ValueError(f"log_upper needs value >= 1, got {value}")
    return Fraction(math.log(value)) * _LOG_SLACK


def bernstein_radius(samples: int, mean: Fraction, variance: Fraction,
                     delta: Fraction,
                     range_high: Fraction = ONE) -> Fraction:
    """The two-sided empirical-Bernstein half-width (Maurer & Pontil,
    Theorem 4, both tails) for ``samples`` i.i.d. draws in
    ``[0, range_high]`` with sample mean ``mean`` and *unbiased* sample
    variance ``variance``:

        sqrt(2 V ln(4/delta) / n)  +  7 R ln(4/delta) / (3 (n - 1)),

    as an exact rational upper bound.  The first term adapts to the
    observed variance — the whole point of the sequential estimator —
    and the second pays for not knowing the variance in advance.
    """
    if samples < 2:
        return range_high
    log_term = log_upper(Fraction(4) / delta)
    return (sqrt_upper(2 * variance * log_term / samples)
            + 7 * range_high * log_term / (3 * (samples - 1)))


def _checkpoint_delta(delta: Fraction, checkpoint: int) -> Fraction:
    """The failure budget of checkpoint k >= 1: delta/2 * 1/(k(k+1)),
    which sums to exactly delta/2 over all checkpoints."""
    return delta / (2 * checkpoint * (checkpoint + 1))


# ----------------------------------------------------------------------
# The sequential empirical-Bernstein estimator
# ----------------------------------------------------------------------
def _targets_met(radius: Fraction, mean: Fraction, epsilon: Fraction,
                 relative_error: Fraction | None) -> bool:
    """Whether the current interval certifies what was asked: the
    additive target, or — when a relative target is set — a radius
    small against the interval's *lower* end, which lower-bounds the
    truth and so makes the relative claim strictly valid."""
    if relative_error is not None:
        low = mean - radius
        return low > 0 and radius <= relative_error * low
    return radius <= epsilon


def _finish(mean, radius, epsilon, delta, samples, successes, method,
            cap, center=None) -> ProbabilityEstimate:
    """Assemble the returned estimate: the achieved half-width is the
    best certified bound (never wider than the additive guarantee the
    run's sample cap underwrites), and the achieved relative error is
    reported whenever the interval stays away from 0."""
    achieved = radius
    if samples >= cap:
        # The delta/2 Hoeffding fallback certifies epsilon at the cap
        # even when the Bernstein radius is still wider.
        achieved = min(achieved, epsilon)
    interval_center = mean if center is None else center
    low = interval_center - achieved
    relative = achieved / low if low > 0 else None
    estimate = mean if center is None else \
        min(max(center - achieved, mean), center + achieved)
    return ProbabilityEstimate(
        estimate=estimate, epsilon=achieved, delta=delta,
        samples=samples, successes=successes, method=method,
        relative_error=relative, samples_used=samples,
        center=None if center is None else interval_center)


def adaptive_estimate_probability(formula: CNF, weights: Weights = None,
                                  epsilon=DEFAULT_EPSILON,
                                  delta=DEFAULT_DELTA,
                                  rng: random.Random | int | None = None,
                                  default: Fraction | None = None,
                                  relative_error=None
                                  ) -> ProbabilityEstimate:
    """Sequential Monte-Carlo Pr(F), stopping as soon as an
    empirical-Bernstein bound certifies the target.

    Samples arrive in geometric batches; checkpoint ``k`` spends
    ``delta/2 * 1/(k(k+1))`` of the failure budget on a
    variance-adaptive Bernstein interval, and the remaining ``delta/2``
    underwrites a Hoeffding fallback at the worst-case count
    ``hoeffding_sample_count(epsilon, delta/2)`` — so the run always
    terminates with an interval no wider than ``epsilon``, and
    low-variance formulas terminate far earlier.  With
    ``relative_error`` set, sampling instead continues until the
    half-width is at most that fraction of the interval's lower end
    (a strictly valid relative guarantee), still capped at the
    worst-case count.

    Draws, iteration orders, and every bound are exact-rational and
    pinned, so a fixed ``rng`` seed reproduces the estimate across
    processes and ``PYTHONHASHSEED`` values.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if relative_error is not None:
        relative_error = Fraction(relative_error)
        if relative_error <= 0:
            raise ValueError(
                f"relative_error must be positive, got {relative_error}")
    cap = hoeffding_sample_count(epsilon, delta / 2)
    if not isinstance(rng, random.Random):
        rng = random.Random(0 if rng is None else rng)
    lookup = make_lookup(weights, default)
    variables = sorted(formula.variables(), key=repr)
    index = {var: i for i, var in enumerate(variables)}
    marginals = [Fraction(lookup(var)) for var in variables]
    clauses = sorted(
        (sorted(index[var] for var in clause)
         for clause in formula.clauses),
        key=lambda c: (len(c), c))
    samples = successes = 0
    checkpoint = 0
    mean = radius = ONE
    while samples < cap:
        checkpoint += 1
        target = min(cap, INITIAL_BATCH * GROWTH ** (checkpoint - 1))
        while samples < target:
            world = [rng.random() < p for p in marginals]
            samples += 1
            if all(any(world[i] for i in clause) for clause in clauses):
                successes += 1
        mean = Fraction(successes, samples)
        # Unbiased sample variance of 0/1 draws.
        variance = (Fraction(successes * (samples - successes),
                             samples * (samples - 1))
                    if samples > 1 else ONE)
        radius = bernstein_radius(samples, mean, variance,
                                  _checkpoint_delta(delta, checkpoint))
        if _targets_met(radius, mean, epsilon, relative_error):
            break
    return _finish(mean, radius, epsilon, delta, samples, successes,
                   "bernstein", cap)


# ----------------------------------------------------------------------
# Self-normalized importance sampling for small-probability lineages
# ----------------------------------------------------------------------
def tilted_proposal(marginals: list[Fraction],
                    weight_cap: Fraction = DEFAULT_WEIGHT_CAP,
                    tilt: Fraction = Fraction(2)) -> list[Fraction]:
    """Proposal marginals tilted toward satisfying assignments.

    Each variable's failure mass shrinks by up to ``tilt``
    (``q = 1 - (1 - p)/t``), lowest-marginal variables first — they
    are the likely falsifiers of a monotone clause — with the *total*
    tilt capped so the product of per-variable likelihood ratios never
    exceeds ``weight_cap``.  A draw of False at a tilted variable
    contributes ratio exactly ``t``; a draw of True contributes
    ``p/q <= 1``; so every world's weight lies in ``[0, weight_cap]``
    — the bounded range the Bernstein machinery needs.
    """
    weight_cap = Fraction(weight_cap)
    tilt = Fraction(tilt)
    if weight_cap < 1:
        raise ValueError(f"weight_cap must be >= 1, got {weight_cap}")
    if tilt <= 1:
        raise ValueError(f"tilt must exceed 1, got {tilt}")
    proposal = list(marginals)
    budget = weight_cap
    order = sorted(range(len(marginals)), key=lambda i: marginals[i])
    for i in order:
        if budget <= 1:
            break
        p = marginals[i]
        if not 0 < p < 1:
            continue  # pinned variables cannot be tilted
        step = min(tilt, budget)
        proposal[i] = 1 - (1 - p) / step
        budget /= step
    return proposal


def importance_estimate_probability(formula: CNF,
                                    weights: Weights = None,
                                    epsilon=DEFAULT_EPSILON,
                                    delta=DEFAULT_DELTA,
                                    rng: random.Random | int |
                                    None = None,
                                    default: Fraction | None = None,
                                    relative_error=None,
                                    weight_cap=DEFAULT_WEIGHT_CAP,
                                    max_samples: int | None = None
                                    ) -> ProbabilityEstimate:
    """Sequential self-normalized importance sampling of Pr(F).

    Worlds are drawn from the tilted proposal of ``tilted_proposal``;
    each satisfying draw contributes its exact likelihood ratio, whose
    mean is *unbiasedly* Pr(F) under the target weights.  The interval
    comes from the empirical-Bernstein bound on those bounded weighted
    draws (range ``weight_cap``), with the same checkpointed delta
    spending as ``adaptive_estimate_probability``; the run is capped at
    the Hoeffding count for range ``weight_cap`` (certifying the
    additive target through the reserved ``delta/2``) or at
    ``max_samples`` when given — an explicit cap trades the guarantee
    for bounded work, and the achieved half-width is reported either
    way.

    The reported point estimate is the self-normalized ratio
    ``sum(w * sat) / sum(w)`` — the mean weight estimates 1, and
    dividing by it cancels sampling noise shared by numerator and
    denominator — clamped into the (unbiased-centered) interval, so
    ``contains`` semantics are unaffected.  Small Pr(F) is exactly
    where the tilt pays: the hit rate under the proposal is orders of
    magnitude higher, so the variance of the weighted draws — and with
    it the stopping time for a *relative*-error target — collapses.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    weight_cap = Fraction(weight_cap)
    if relative_error is not None:
        relative_error = Fraction(relative_error)
        if relative_error <= 0:
            raise ValueError(
                f"relative_error must be positive, got {relative_error}")
    # Hoeffding for draws in [0, R] needs R^2 times the unit-range
    # count for the same additive target; an explicit max_samples may
    # stop before that, trading the epsilon certificate for bounded
    # work (the achieved half-width is reported either way).  The
    # ceiling is taken on the exact rational — rounding through floats
    # could land one sample short of what the delta/2 fallback needs.
    full_cap = math.ceil(hoeffding_sample_count(epsilon, delta / 2)
                         * weight_cap ** 2)
    cap = full_cap if max_samples is None \
        else min(full_cap, max(2, max_samples))
    if not isinstance(rng, random.Random):
        rng = random.Random(0 if rng is None else rng)
    lookup = make_lookup(weights, default)
    variables = sorted(formula.variables(), key=repr)
    index = {var: i for i, var in enumerate(variables)}
    marginals = [Fraction(lookup(var)) for var in variables]
    proposal = tilted_proposal(marginals, weight_cap)
    # Per-variable likelihood ratios for draws of True / False.
    ratio_true = [p / q if q else ONE
                  for p, q in zip(marginals, proposal)]
    ratio_false = [(1 - p) / (1 - q) if q != 1 else ONE
                   for p, q in zip(marginals, proposal)]
    clauses = sorted(
        (sorted(index[var] for var in clause)
         for clause in formula.clauses),
        key=lambda c: (len(c), c))
    samples = successes = 0
    weight_sum = ZERO          # sum of w (all draws)
    hit_sum = ZERO             # sum of w * 1[sat]
    hit_square_sum = ZERO      # sum of (w * 1[sat])^2
    checkpoint = 0
    mean = radius = weight_cap
    while samples < cap:
        checkpoint += 1
        target = min(cap, INITIAL_BATCH * GROWTH ** (checkpoint - 1))
        while samples < target:
            world = [rng.random() < q for q in proposal]
            samples += 1
            weight = ONE
            for i, bit in enumerate(world):
                weight *= ratio_true[i] if bit else ratio_false[i]
            weight_sum += weight
            if all(any(world[i] for i in clause) for clause in clauses):
                successes += 1
                hit_sum += weight
                hit_square_sum += weight * weight
        mean = hit_sum / samples
        variance = ((hit_square_sum - samples * mean * mean)
                    / (samples - 1) if samples > 1 else ONE)
        radius = bernstein_radius(samples, mean, variance,
                                  _checkpoint_delta(delta, checkpoint),
                                  range_high=weight_cap)
        if _targets_met(radius, mean, epsilon, relative_error):
            break
    self_normalized = (hit_sum / weight_sum if weight_sum > 0
                       else mean)
    return _finish(min(ONE, max(ZERO, self_normalized)), radius,
                   epsilon, delta, samples, successes, "importance",
                   full_cap, center=min(ONE, max(ZERO, mean)))


# ----------------------------------------------------------------------
# The estimator registry (the policy tier's dispatch table)
# ----------------------------------------------------------------------
def estimate_with(estimator: str, formula: CNF, weights: Weights = None,
                  epsilon=DEFAULT_EPSILON, delta=DEFAULT_DELTA,
                  rng: random.Random | int | None = None,
                  default: Fraction | None = None,
                  relative_error=None) -> ProbabilityEstimate:
    """One estimate via the named sampler — the single dispatch point
    behind the ``estimator`` knob of the ``auto`` policy, the
    evaluation methods, the CLI ``--engine`` flag, and the service's
    per-request override."""
    if estimator == "hoeffding":
        if relative_error is not None:
            raise ValueError(
                "the fixed-n Hoeffding estimator has no relative-error "
                "mode; use estimator='adaptive' or 'importance'")
        from repro.booleans.approximate import estimate_probability
        return estimate_probability(formula, weights, epsilon, delta,
                                    rng, default)
    if estimator == "adaptive":
        return adaptive_estimate_probability(
            formula, weights, epsilon, delta, rng, default,
            relative_error)
    if estimator == "importance":
        return importance_estimate_probability(
            formula, weights, epsilon, delta, rng, default,
            relative_error)
    raise ValueError(
        f"unknown estimator {estimator!r}; pick from {ESTIMATORS}")


def estimate_batch_with(estimator: str, formula: CNF, weight_specs,
                        epsilon=DEFAULT_EPSILON, delta=DEFAULT_DELTA,
                        rng: random.Random | int | None = None,
                        default: Fraction | None = None,
                        relative_error=None
                        ) -> list[ProbabilityEstimate]:
    """One estimate per weight specification via the named sampler,
    sharing a single seeded ``rng`` so the whole sweep reproduces."""
    if not isinstance(rng, random.Random):
        rng = random.Random(0 if rng is None else rng)
    return [estimate_with(estimator, formula, spec, epsilon, delta,
                          rng, default, relative_error)
            for spec in weight_specs]


# ----------------------------------------------------------------------
# Budget-aware sweep planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Observation:
    clauses: int
    nodes: int


class BudgetPlanner:
    """Per-formula compilation budgets from the observed circuit-size
    trajectory.

    Circuit size on the adversarial families grows super-linearly
    (empirically ~exponentially) in the clause count —
    ``benchmarks/bench_approx.py``'s growth probe measures exactly the
    ``(clauses, circuit_nodes)`` pairs this planner consumes.  A
    least-squares fit of ``ln(nodes)`` against ``clauses`` over the
    observations extrapolates the expected node count of an unseen
    formula, and ``budget_for`` converts that into a per-factor
    ``budget_nodes``: predicted size times a safety ``margin``, clamped
    to ``[floor, cap]``.  Factors predicted to blow past ``cap`` abort
    immediately instead of burning an exponential search before
    degrading; factors predicted tiny still get ``floor`` headroom, so
    an optimistic fit never strangles an easy compilation.

    The planner learns online: every sweep that compiles a factor
    exactly reports the outcome back through ``observe``.  With fewer
    than two distinct clause counts there is no trajectory to fit and
    ``budget_for`` returns the fallback.  Deterministic: observations
    are kept sorted and the fit is exact float arithmetic over them.
    """

    def __init__(self, margin: int = 4, floor: int = 2_048,
                 cap: int | None = None):
        if margin < 1:
            raise ValueError(f"margin must be >= 1, got {margin}")
        if floor < 2:
            raise ValueError(f"floor must be >= 2, got {floor}")
        if cap is None:
            from repro.tid.wmc import DEFAULT_BUDGET_NODES
            cap = DEFAULT_BUDGET_NODES
        if cap < floor:
            raise ValueError(f"cap {cap} must be >= floor {floor}")
        self.margin = margin
        self.floor = floor
        self.cap = cap
        self._observations: list[_Observation] = []
        self.planned = 0

    @classmethod
    def from_growth_records(cls, records, **kwargs) -> "BudgetPlanner":
        """Seed a planner from growth-probe records — dicts with
        ``clauses`` and ``circuit_nodes`` keys, the exact shape
        ``BENCH_approx.json``/``BENCH_adaptive.json`` carry."""
        planner = cls(**kwargs)
        for record in records:
            planner.observe(record["clauses"], record["circuit_nodes"])
        return planner

    def observe(self, clauses: int, nodes: int) -> None:
        """Record one completed compilation outcome."""
        if clauses < 1 or nodes < 1:
            raise ValueError(
                f"bad observation: {clauses} clauses, {nodes} nodes")
        entry = _Observation(clauses, nodes)
        if entry not in self._observations:
            self._observations.append(entry)
            self._observations.sort(
                key=lambda o: (o.clauses, o.nodes))

    @property
    def observations(self) -> int:
        return len(self._observations)

    def predict_nodes(self, clauses: int) -> int | None:
        """The fitted circuit size for a formula of ``clauses``
        clauses, or None without a trajectory (fewer than two distinct
        clause counts observed)."""
        points = self._observations
        if len({o.clauses for o in points}) < 2:
            return None
        n = len(points)
        xs = [float(o.clauses) for o in points]
        ys = [math.log(o.nodes) for o in points]
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        sxx = sum((x - mean_x) ** 2 for x in xs)
        sxy = sum((x - mean_x) * (y - mean_y)
                  for x, y in zip(xs, ys))
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        predicted = intercept + slope * clauses
        # exp overflows floats around 709; anything near that is
        # "astronomically past any budget" anyway.
        if predicted > 64:
            return 1 << 62
        return max(1, math.ceil(math.exp(predicted)))

    def budget_for(self, formula: CNF,
                   fallback: int | None = None) -> int | None:
        """The planned ``budget_nodes`` for ``formula``: margin times
        the predicted size, clamped to ``[floor, cap]`` — or
        ``fallback`` when no trajectory exists yet."""
        predicted = self.predict_nodes(len(formula))
        if predicted is None:
            return fallback
        self.planned += 1
        return max(self.floor, min(self.cap, self.margin * predicted))

    def growth_records(self) -> list[dict]:
        """The observed trajectory in the record shape
        ``from_growth_records`` consumes, so planners can be merged:
        the service dispatcher unions each worker's records into one
        service-wide planner (``observe`` dedupes on replay)."""
        return [{"clauses": o.clauses, "circuit_nodes": o.nodes}
                for o in self._observations]

    def stats(self) -> dict:
        return {"observations": len(self._observations),
                "planned_budgets": self.planned,
                "margin": self.margin, "floor": self.floor,
                "cap": self.cap}
