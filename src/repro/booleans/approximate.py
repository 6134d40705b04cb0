"""Budgeted approximate weighted model counting.

Exact d-DNNF compilation (``repro.booleans.circuit``) is worst-case
exponential: adversarial lineages — dense random bipartite 2-CNFs, the
very formulas behind the paper's hardness reductions — blow past any
node budget.  This module supplies the standard fallback: Monte-Carlo
estimation of Pr(F) with a Hoeffding confidence interval.  Drawing one
world costs one pass over the variables and testing it one pass over
the clauses, so the estimator's cost is ``samples * |F|`` regardless of
how large the exact circuit would have been.

The pieces compose into the ``auto`` evaluation policy (wired up in
``repro.tid.wmc.cnf_probability_auto``): try exact compilation under
``compile_cnf(formula, budget_nodes=...)``, and when that raises
``CompilationBudgetExceeded``, answer with ``estimate_probability``
instead — every result records which engine produced it.

All randomness flows through a seeded ``random.Random`` and every
iteration order is pinned (sorted-repr variables, list-ordered
clauses), so estimates are bit-reproducible across processes and
``PYTHONHASHSEED`` values, like the rest of the codebase.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass
from fractions import Fraction

from repro.booleans.circuit import (
    CompilationBudgetExceeded,
    Weights,
    make_lookup,
)
from repro.booleans.cnf import CNF

__all__ = [
    "CompilationBudgetExceeded",
    "ProbabilityEstimate",
    "AutoProbability",
    "AutoSweep",
    "estimate_probability",
    "hoeffding_sample_count",
]

ZERO = Fraction(0)
ONE = Fraction(1)

#: Default additive error bound and failure probability: Pr(F) is
#: reported within +/- EPSILON of the truth, except with probability
#: at most DELTA over the sampling randomness.
DEFAULT_EPSILON = Fraction(1, 20)
DEFAULT_DELTA = Fraction(1, 20)


def hoeffding_sample_count(epsilon, delta) -> int:
    """The sample count n = ceil(ln(2/delta) / (2 epsilon^2)).

    By Hoeffding's inequality, the mean of n i.i.d. {0,1} draws then
    deviates from its expectation by more than ``epsilon`` with
    probability at most ``delta``.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return max(1, math.ceil(
        math.log(2 / float(delta)) / (2 * float(epsilon) ** 2)))


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A Monte-Carlo point estimate of Pr(F) with its confidence bound.

    For the fixed-n Hoeffding estimator ``estimate`` is the exact
    rational ``successes / samples``; the guarantee is
    ``Pr(|estimate - Pr(F)| > epsilon) <= delta`` over the sampling
    randomness.  ``low``/``high`` clamp the interval to [0, 1].

    The sequential estimators (``repro.booleans.adaptive``) reuse this
    type with extra provenance: ``method`` names the bound that
    produced the interval (``"hoeffding"``, ``"bernstein"``,
    ``"importance"``), ``epsilon`` is then the *achieved* additive
    half-width (never wider than the requested one),
    ``relative_error`` the achieved relative half-width when the
    interval stays away from 0, and ``samples_used`` the draws
    actually taken (early stopping makes it smaller than the
    worst-case Hoeffding count).  The self-normalized importance
    sampler's point estimate is variance-reduced and so may differ
    from the interval's unbiased ``center``; ``low``/``high`` follow
    the center, and the point estimate is always inside them.
    """

    estimate: Fraction
    epsilon: Fraction
    delta: Fraction
    samples: int
    successes: int
    method: str = "hoeffding"
    relative_error: Fraction | None = None
    samples_used: int | None = None
    center: Fraction | None = None

    @property
    def low(self) -> Fraction:
        center = self.estimate if self.center is None else self.center
        return max(ZERO, center - self.epsilon)

    @property
    def high(self) -> Fraction:
        center = self.estimate if self.center is None else self.center
        return min(ONE, center + self.epsilon)

    def contains(self, value) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return self.low <= value <= self.high

    def __float__(self) -> float:
        return float(self.estimate)

    def as_dict(self) -> dict:
        """A JSON-safe rendering: exact rationals as ``"num/den"``
        strings plus a float convenience field — the shape the service
        protocol and any other machine consumer of an estimate use.
        ``repro.service.protocol.decode_estimate`` is the inverse."""
        payload = {
            "estimate": str(self.estimate),
            "float": float(self.estimate),
            "epsilon": str(self.epsilon),
            "delta": str(self.delta),
            "low": str(self.low),
            "high": str(self.high),
            "samples": self.samples,
            "successes": self.successes,
            "method": self.method,
            "relative_error": (None if self.relative_error is None
                               else str(self.relative_error)),
            "samples_used": self.samples_used,
        }
        if self.center is not None:
            payload["center"] = str(self.center)
        return payload

    def __str__(self) -> str:
        return (f"{self.estimate} in [{self.low}, {self.high}] "
                f"({self.samples} samples, "
                f"confidence {ONE - Fraction(self.delta)})")


@dataclass(frozen=True)
class AutoProbability:
    """Pr(F) from the ``auto`` policy, recording which engine answered.

    ``engine`` is ``"exact"`` (compiled under budget; ``value`` is the
    true probability) or ``"estimate"`` (compilation exceeded the
    budget; ``value`` is ``estimate.estimate`` and carries its
    Hoeffding interval).
    """

    value: Fraction
    engine: str
    estimate: ProbabilityEstimate | None = None


@dataclass(frozen=True)
class AutoSweep:
    """Many-weight-vector analogue of ``AutoProbability``: the values
    of a sweep plus the engine that produced them (``estimates`` is
    per-vector when the estimator answered, else None)."""

    values: list
    engine: str
    estimates: list | None = None


def estimate_probability(formula: CNF, weights: Weights = None,
                         epsilon=DEFAULT_EPSILON,
                         delta=DEFAULT_DELTA,
                         rng: random.Random | int | None = None,
                         default: Fraction | None = None
                         ) -> ProbabilityEstimate:
    """Monte-Carlo Pr(F) with an additive Hoeffding guarantee.

    Draws ``hoeffding_sample_count(epsilon, delta)`` independent worlds
    from the product distribution given by ``weights`` (missing
    variables fall back to ``default``, 1/2 when unspecified — the same
    convention as ``cnf_probability``) and reports the satisfaction
    frequency.  Each draw is compared against the exact rational
    marginal, so the sampled distribution is the weight vector itself,
    not a float rounding of it.

    ``rng`` is a ``random.Random``, an int seed, or None (seed 0);
    fixed seeds make the estimate fully reproducible.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    samples = hoeffding_sample_count(epsilon, delta)
    if not isinstance(rng, random.Random):
        rng = random.Random(0 if rng is None else rng)
    lookup = make_lookup(weights, default)
    variables = sorted(formula.variables(), key=repr)
    index = {var: i for i, var in enumerate(variables)}
    marginals = [Fraction(lookup(var)) for var in variables]
    clauses = sorted(
        (sorted((index[var] for var in clause))
         for clause in formula.clauses),
        key=lambda c: (len(c), c))
    successes = 0
    for _ in range(samples):
        world = [rng.random() < p for p in marginals]
        if all(any(world[i] for i in clause) for clause in clauses):
            successes += 1
    return ProbabilityEstimate(
        estimate=Fraction(successes, samples),
        epsilon=epsilon, delta=delta,
        samples=samples, successes=successes)
