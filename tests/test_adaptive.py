"""Property harness for the adaptive estimation engine.

Every confidence interval the system emits is machine-checked here:

* **Coverage** — on random small CNFs the empirical-Bernstein and
  importance-sampling intervals contain the *brute-force* exact
  probability at the stated rate, over seeded independent trials, with
  exact-``Fraction`` arithmetic asserted end to end.  The two coverage
  properties run 220 hypothesis examples between them (120 + 100),
  satisfying the 200+ gate.
* **Never wider than epsilon** — early stopping may only *narrow* the
  returned interval: the achieved half-width is asserted ``<= epsilon``
  on every run, for every sampler, at every parameter combination the
  strategies generate.
* The supporting machinery — rational sqrt/log upper bounds, the
  Bernstein radius, the tilted proposal, the budget planner, and the
  policy threading through ``evaluate``/sweeps — is covered alongside.
"""

import itertools
import math
import random

from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans.adaptive import (
    BudgetPlanner,
    adaptive_estimate_probability,
    bernstein_radius,
    estimate_batch_with,
    estimate_with,
    importance_estimate_probability,
    log_upper,
    resolve_sweep_method,
    sqrt_upper,
    tilted_proposal,
)
from repro.booleans.approximate import hoeffding_sample_count
from repro.booleans.cnf import CNF
from repro.core.catalog import rst_query
from repro.evaluation import evaluate, probability_sweep
from repro.reduction.block_matrix import z_matrix_direct
from repro.reduction.blocks import path_block
from repro.tid import wmc
from repro.tid.database import TID, r_tuple, s_tuple, t_tuple
from repro.tid.lineage import lineage

F = Fraction


def random_cnf(seed: int, max_vars: int = 5, max_clauses: int = 4) -> CNF:
    """A small random monotone CNF (never CNF.FALSE)."""
    rng = random.Random(seed)
    n = rng.randint(1, max_vars)
    variables = [f"v{i}" for i in range(n)]
    clauses = [rng.sample(variables, rng.randint(1, n))
               for _ in range(rng.randint(1, max_clauses))]
    return CNF(clauses)


def random_weights(formula: CNF, seed: int) -> dict:
    rng = random.Random(seed)
    values = [F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10)]
    return {v: rng.choice(values)
            for v in sorted(formula.variables(), key=repr)}


def brute_force_probability(formula: CNF, weights: dict) -> Fraction:
    """Exhaustive exact Pr(F) — independent of every engine under
    test, so a broken circuit cannot mask a broken interval."""
    scope = sorted(formula.variables(), key=repr)
    total = F(0)
    for bits in itertools.product([False, True], repeat=len(scope)):
        world = dict(zip(scope, bits))
        if all(any(world[v] for v in clause)
               for clause in formula.clauses):
            prob = F(1)
            for var, bit in world.items():
                prob *= weights[var] if bit else 1 - weights[var]
            total += prob
    return total


def assert_exact_fractions(estimate) -> None:
    """The exact-rational contract, end to end: every statistical
    field of the returned estimate is a true Fraction (or None), never
    a float smuggled through the bound arithmetic."""
    for name in ("estimate", "epsilon", "delta", "low", "high"):
        assert type(getattr(estimate, name)) is Fraction, name
    for name in ("relative_error", "center"):
        value = getattr(estimate, name)
        assert value is None or type(value) is Fraction, name
    assert isinstance(estimate.samples, int)
    assert isinstance(estimate.successes, int)
    assert estimate.samples_used == estimate.samples


class TestRationalBounds:
    @given(st.fractions(min_value=0, max_value=1000))
    @settings(max_examples=60)
    def test_sqrt_upper_is_an_upper_bound(self, value):
        upper = sqrt_upper(value)
        assert type(upper) is Fraction
        assert upper * upper >= value
        # ... and tight to within one integer step of the scaled root.
        if value > 0:
            step = F(1, value.denominator)
            assert (upper - step) ** 2 < value

    def test_sqrt_upper_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_upper(F(-1, 2))

    @given(st.fractions(min_value=1, max_value=10 ** 9))
    @settings(max_examples=60)
    def test_log_upper_is_an_upper_bound(self, value):
        upper = log_upper(value)
        assert type(upper) is Fraction
        # math.log is correctly rounded to < 1 ulp; stepping the float
        # value up once dominates that error, so the comparison is a
        # sound check of the rational bound.
        assert float(upper) >= math.log(float(value)) or \
            upper >= F(math.nextafter(math.log(float(value)),
                                      math.inf))

    def test_log_upper_rejects_below_one(self):
        with pytest.raises(ValueError):
            log_upper(F(1, 2))

    def test_bernstein_radius_shrinks_with_samples(self):
        delta = F(1, 20)
        radii = [bernstein_radius(n, F(1, 2), F(1, 4), delta)
                 for n in (10, 100, 1000, 10_000)]
        assert radii == sorted(radii, reverse=True)

    def test_bernstein_radius_scales_with_range(self):
        tiny = bernstein_radius(100, F(1, 2), F(1, 4), F(1, 20))
        wide = bernstein_radius(100, F(1, 2), F(1, 4), F(1, 20),
                                range_high=F(4))
        assert wide > tiny

    def test_bernstein_radius_degenerate_sample_counts(self):
        assert bernstein_radius(1, F(1), F(0), F(1, 20)) == 1
        assert bernstein_radius(0, F(0), F(0), F(1, 20),
                                range_high=F(4)) == 4


#: Coverage-property parameters: loose enough that each trial is a few
#: dozen draws, tight enough that a broken bound fails loudly.  The
#: per-trial failure probability is bounded by delta = 1/4; demanding
#: the promised rate exactly (6 of 8 trials) leaves real slack because
#: the Bernstein/Hoeffding bounds are conservative in practice.
COVERAGE_EPSILON = F(1, 4)
COVERAGE_DELTA = F(1, 4)
COVERAGE_TRIALS = 8


class TestIntervalCoverage:
    """The 200+-example coverage gate: 120 examples (empirical
    Bernstein) + 100 examples (importance sampling) = 220."""

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=120, deadline=None)
    def test_bernstein_interval_covers_brute_force_exact(self, seed):
        formula = random_cnf(seed)
        weights = random_weights(formula, seed + 1)
        exact = brute_force_probability(formula, weights)
        hits = 0
        for trial in range(COVERAGE_TRIALS):
            estimate = adaptive_estimate_probability(
                formula, weights, COVERAGE_EPSILON, COVERAGE_DELTA,
                rng=1_000_003 * seed + trial)
            assert_exact_fractions(estimate)
            assert estimate.method == "bernstein"
            # Early stopping never widens the interval beyond epsilon.
            assert estimate.epsilon <= COVERAGE_EPSILON
            assert estimate.samples <= hoeffding_sample_count(
                COVERAGE_EPSILON, COVERAGE_DELTA / 2)
            hits += estimate.contains(exact)
        assert hits >= (1 - COVERAGE_DELTA) * COVERAGE_TRIALS

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_importance_interval_covers_brute_force_exact(self, seed):
        formula = random_cnf(seed)
        weights = random_weights(formula, seed + 1)
        exact = brute_force_probability(formula, weights)
        hits = 0
        for trial in range(COVERAGE_TRIALS):
            estimate = importance_estimate_probability(
                formula, weights, COVERAGE_EPSILON, COVERAGE_DELTA,
                rng=1_000_003 * seed + trial)
            assert_exact_fractions(estimate)
            assert estimate.method == "importance"
            assert estimate.epsilon <= COVERAGE_EPSILON
            # The self-normalized point estimate always sits inside
            # its own interval.
            assert estimate.low <= estimate.estimate <= estimate.high
            hits += estimate.contains(exact)
        assert hits >= (1 - COVERAGE_DELTA) * COVERAGE_TRIALS


class TestEarlyStopping:
    def test_low_variance_stops_early(self):
        """A near-one probability has tiny variance; the sequential
        estimator must finish well under the Hoeffding worst case."""
        formula = CNF([["a", "b", "c"]])
        weights = {v: F(9, 10) for v in "abc"}
        epsilon, delta = F(1, 100), F(1, 20)
        estimate = adaptive_estimate_probability(
            formula, weights, epsilon, delta, rng=0)
        worst = hoeffding_sample_count(epsilon, delta)
        assert estimate.samples * 3 <= worst
        assert estimate.epsilon <= epsilon
        assert estimate.contains(F(999, 1000))

    @given(st.integers(0, 10 ** 6),
           st.sampled_from([F(1, 4), F(1, 10), F(3, 20)]))
    @settings(max_examples=40, deadline=None)
    def test_achieved_width_never_exceeds_epsilon(self, seed, epsilon):
        formula = random_cnf(seed)
        weights = random_weights(formula, seed + 1)
        estimate = adaptive_estimate_probability(
            formula, weights, epsilon, F(1, 5), rng=seed)
        assert estimate.epsilon <= epsilon
        assert estimate.high - estimate.low <= 2 * epsilon

    def test_deterministic_given_seed_and_seed_sensitivity(self):
        formula = random_cnf(11)
        weights = random_weights(formula, 12)
        a = adaptive_estimate_probability(formula, weights, rng=3)
        b = adaptive_estimate_probability(formula, weights, rng=3)
        assert a == b
        draws = {adaptive_estimate_probability(formula, weights,
                                               rng=s).estimate
                 for s in range(6)}
        assert len(draws) > 1

    def test_relative_error_claim_is_consistent(self):
        """When a relative target is met, the reported relative error
        is radius/low — i.e. the claim |est - p| <= rel * p follows
        from p >= low."""
        formula = CNF([["a", "b"], ["b", "c"]])
        weights = {v: F(3, 4) for v in "abc"}
        estimate = adaptive_estimate_probability(
            formula, weights, F(1, 20), F(1, 10), rng=0,
            relative_error=F(1, 2))
        assert estimate.relative_error is not None
        assert estimate.relative_error <= F(1, 2)
        low = estimate.estimate - estimate.epsilon
        assert estimate.relative_error == estimate.epsilon / low

    def test_relative_error_requires_positive_target(self):
        with pytest.raises(ValueError, match="relative_error"):
            adaptive_estimate_probability(
                CNF([["x"]]), None, relative_error=F(0))
        with pytest.raises(ValueError, match="relative_error"):
            importance_estimate_probability(
                CNF([["x"]]), None, relative_error=F(-1, 2))


class TestTiltedProposal:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_tilts_up_within_cap(self, seed):
        rng = random.Random(seed)
        marginals = [F(rng.randint(0, 8), 8) for _ in range(6)]
        cap = F(rng.choice([2, 4, 8]))
        proposal = tilted_proposal(marginals, cap)
        ratio_product = F(1)
        for p, q in zip(marginals, proposal):
            assert q >= p  # tilted toward satisfying assignments
            if p in (F(0), F(1)):
                assert q == p  # pinned marginals stay pinned
            else:
                assert q < 1
                ratio_product *= (1 - p) / (1 - q)
        # The product of worst-case per-variable likelihood ratios is
        # exactly the bound the Bernstein range uses.
        assert ratio_product <= cap

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="weight_cap"):
            tilted_proposal([F(1, 2)], weight_cap=F(1, 2))
        with pytest.raises(ValueError, match="tilt"):
            tilted_proposal([F(1, 2)], tilt=F(1))

    def test_importance_weighted_mean_is_unbiased_in_expectation(self):
        """Exhaustively over all worlds: the proposal-weighted
        likelihood ratio of the satisfying indicator sums to the exact
        Pr(F) — the identity the estimator's validity rests on."""
        formula = CNF([["a", "b"], ["c"]])
        weights = {"a": F(1, 4), "b": F(1, 8), "c": F(1, 3)}
        scope = sorted(formula.variables())
        marginals = [weights[v] for v in scope]
        proposal = tilted_proposal(marginals)
        total = F(0)
        for bits in itertools.product([False, True], repeat=3):
            world = dict(zip(scope, bits))
            if not all(any(world[v] for v in clause)
                       for clause in formula.clauses):
                continue
            q_prob = F(1)
            ratio = F(1)
            for _var, bit, p, q in zip(scope, bits, marginals, proposal):
                q_prob *= q if bit else 1 - q
                ratio *= (p / q) if bit else (1 - p) / (1 - q)
            total += q_prob * ratio
        assert total == brute_force_probability(formula, weights)

    def test_max_samples_caps_the_run(self):
        formula = random_cnf(5)
        weights = random_weights(formula, 6)
        estimate = importance_estimate_probability(
            formula, weights, F(1, 100), F(1, 20), rng=0,
            max_samples=256)
        assert estimate.samples <= 256

    def test_pinned_marginals_sample_correctly(self):
        """Variables at 0/1 cannot be tilted; the sampler must still
        cover the exact probability of the residual formula."""
        formula = CNF([["a", "b"], ["b", "c"], ["d"]])
        weights = {"a": F(0), "b": F(1, 3), "c": F(1, 2), "d": F(1)}
        exact = brute_force_probability(formula, weights)
        estimate = importance_estimate_probability(
            formula, weights, F(1, 10), F(1, 10), rng=4)
        assert_exact_fractions(estimate)
        assert estimate.contains(exact)


class TestEstimatorRegistry:
    def test_dispatch(self):
        formula = random_cnf(3)
        weights = random_weights(formula, 4)
        assert estimate_with("hoeffding", formula, weights,
                             rng=1).method == "hoeffding"
        assert estimate_with("adaptive", formula, weights,
                             rng=1).method == "bernstein"
        assert estimate_with("importance", formula, weights,
                             rng=1).method == "importance"

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            estimate_with("magic", CNF([["x"]]))

    def test_hoeffding_has_no_relative_mode(self):
        with pytest.raises(ValueError, match="relative-error"):
            estimate_with("hoeffding", CNF([["x"]]),
                          relative_error=F(1, 2))

    def test_batch_shares_one_rng(self):
        formula = random_cnf(7)
        specs = [random_weights(formula, s) for s in (1, 2)]
        batch = estimate_batch_with("adaptive", formula, specs, rng=5)
        assert len(batch) == 2
        # Reproducible as a whole, not per entry: the second entry
        # continues the first's stream.
        again = estimate_batch_with("adaptive", formula, specs, rng=5)
        assert batch == again

    def test_resolve_sweep_method(self):
        planner = BudgetPlanner()
        assert resolve_sweep_method("exact", "hoeffding", 64,
                                    planner) == (None, "hoeffding", None)
        assert resolve_sweep_method("auto", "hoeffding", 64,
                                    planner) == (64, "hoeffding", planner)
        assert resolve_sweep_method("adaptive", "hoeffding", 64,
                                    None) == (64, "adaptive", None)
        assert resolve_sweep_method("adaptive", "importance", 64,
                                    None) == (64, "importance", None)
        with pytest.raises(ValueError, match="method"):
            resolve_sweep_method("magic", "hoeffding", 64, None)


class TestBudgetPlanner:
    def test_fit_extrapolates_exponential_growth(self):
        planner = BudgetPlanner(margin=1, floor=2, cap=10 ** 12)
        for clauses, nodes in ((10, 100), (20, 1000), (30, 10_000)):
            planner.observe(clauses, nodes)
        predicted = planner.predict_nodes(40)
        assert 50_000 <= predicted <= 200_000  # ~100k on the true line

    def test_no_trajectory_returns_fallback(self):
        planner = BudgetPlanner()
        formula = CNF([["x", "y"]])
        assert planner.budget_for(formula) is None
        assert planner.budget_for(formula, fallback=777) == 777
        planner.observe(5, 50)
        planner.observe(5, 60)  # same clause count: still no slope
        assert planner.budget_for(formula, fallback=777) == 777

    def test_budget_clamped_to_floor_and_cap(self):
        planner = BudgetPlanner(margin=2, floor=500, cap=2_000)
        planner.observe(10, 100)
        planner.observe(20, 1000)
        tiny = CNF([["x"]])
        assert planner.budget_for(tiny) == 500  # floor
        big = CNF([[f"a{i}", f"b{i}"] for i in range(40)])
        assert planner.budget_for(big) == 2_000  # cap

    def test_overflow_guard(self):
        planner = BudgetPlanner(margin=1, floor=2, cap=10 ** 9)
        planner.observe(10, 10)
        planner.observe(20, 10_000)
        huge = planner.predict_nodes(10_000)
        assert huge == 1 << 62

    def test_from_growth_records_and_stats(self):
        records = [{"n": 16, "clauses": 64, "circuit_nodes": 900},
                   {"n": 24, "clauses": 96, "circuit_nodes": 9000}]
        planner = BudgetPlanner.from_growth_records(
            records, margin=4, floor=256, cap=100_000)
        assert planner.observations == 2
        formula = CNF([[f"x{i}", f"y{i}"] for i in range(64)])
        assert planner.budget_for(formula) >= 900
        stats = planner.stats()
        assert stats["observations"] == 2
        assert stats["planned_budgets"] == 1

    def test_parameter_and_observation_validation(self):
        with pytest.raises(ValueError, match="margin"):
            BudgetPlanner(margin=0)
        with pytest.raises(ValueError, match="floor"):
            BudgetPlanner(floor=1)
        with pytest.raises(ValueError, match="cap"):
            BudgetPlanner(floor=100, cap=50)
        with pytest.raises(ValueError, match="observation"):
            BudgetPlanner().observe(0, 10)

    def test_duplicate_observations_collapse(self):
        planner = BudgetPlanner()
        planner.observe(10, 100)
        planner.observe(10, 100)
        assert planner.observations == 1


def small_tid(query):
    probs = {r_tuple("u"): F(1, 2), t_tuple("v"): F(1, 2)}
    for s in sorted(query.binary_symbols):
        probs[s_tuple(s, "u", "v")] = F(1, 2)
    return TID(["u"], ["v"], probs)


class TestPolicyThreading:
    def test_evaluate_adaptive_method(self):
        query = rst_query()
        tid = small_tid(query)
        exact = evaluate(query, tid, method="wmc").value
        result = evaluate(query, tid, method="adaptive", rng=5)
        assert result.method == "adaptive"
        assert result.engine == "adaptive"
        assert result.estimate is not None
        assert result.estimate.method == "bernstein"
        assert result.estimate.contains(exact)

    def test_evaluate_importance_method(self):
        query = rst_query()
        tid = small_tid(query)
        exact = evaluate(query, tid, method="wmc").value
        result = evaluate(query, tid, method="importance", rng=5)
        assert result.method == "importance"
        assert result.engine == "importance"
        assert result.estimate.method == "importance"
        assert result.estimate.contains(exact)

    def test_evaluate_auto_degrades_to_chosen_estimator(self):
        query = rst_query()
        tid = small_tid(query)
        wmc.clear_circuit_cache()
        result = evaluate(query, tid, budget_nodes=2, rng=0,
                          estimator="adaptive")
        assert result.method == "adaptive"
        assert result.estimate.samples_used == result.estimate.samples

    def test_false_query_estimate_methods_degenerate(self):
        from repro.core.queries import Query

        result = evaluate(Query.FALSE, small_tid(rst_query()),
                          method="adaptive")
        assert result.method == "adaptive"
        assert result.value == 0
        assert result.estimate.samples_used == 0

    def test_probability_sweep_adaptive_estimator(self):
        formula = lineage(rst_query(), path_block(rst_query(), 3))
        weight_maps = [None, {v: F(1, 4) for v in formula.variables()}]
        exact = probability_sweep(formula, weight_maps)
        wmc.clear_circuit_cache()
        approx = probability_sweep(formula, weight_maps,
                                   budget_nodes=2, rng=0,
                                   estimator="adaptive")
        for a, e in zip(approx, exact):
            assert abs(a - e) <= F(1, 20)

    def test_probability_batch_auto_records_estimator_engine(self):
        formula = lineage(rst_query(), path_block(rst_query(), 3))
        wmc.clear_circuit_cache()
        sweep = wmc.probability_batch_auto(
            formula, [None], budget_nodes=2, rng=0,
            estimator="adaptive")
        assert sweep.engine == "adaptive"
        assert sweep.estimates[0].method == "bernstein"

    def test_z_matrix_adaptive_matches_exact_within_epsilon(self):
        query = rst_query()
        exact = z_matrix_direct(query, 3)
        wmc.clear_circuit_cache()
        approx = z_matrix_direct(query, 3, method="adaptive",
                                 budget_nodes=2, rng=0)
        for i in range(2):
            for j in range(2):
                assert abs(approx[i, j] - exact[i, j]) <= F(1, 20)

    def test_planner_learns_through_the_auto_tier(self):
        """A planned sweep that compiles exactly feeds the planner's
        trajectory; the planner's budget then governs the next call."""
        planner = BudgetPlanner(margin=2, floor=4, cap=10)
        formula = lineage(rst_query(), path_block(rst_query(), 3))
        wmc.clear_circuit_cache()
        answer = wmc.cnf_probability_auto(
            formula, None, budget_nodes=None, planner=planner)
        assert answer.engine == "exact"
        assert planner.observations == 1
        other = lineage(rst_query(), path_block(rst_query(), 4))
        wmc.clear_circuit_cache()
        answer = wmc.cnf_probability_auto(
            other, None, budget_nodes=None, planner=planner)
        assert answer.engine == "exact"
        assert planner.observations == 2
        # Two distinct clause counts -> a trajectory; the tiny cap now
        # aborts a third, larger formula straight to the estimator.
        third = lineage(rst_query(), path_block(rst_query(), 5))
        wmc.clear_circuit_cache()
        answer = wmc.cnf_probability_auto(
            third, None, budget_nodes=None, planner=planner,
            estimator="adaptive", rng=0)
        assert answer.engine == "adaptive"
        assert wmc.cache_info()["budget_aborts"] == 1

    def test_probability_sweep_feeds_planner_without_budget(self):
        """A planner passed to probability_sweep learns from the exact
        compile even while it has no trajectory (and hence no budget)
        to plan with yet."""
        planner = BudgetPlanner()
        formula = lineage(rst_query(), path_block(rst_query(), 3))
        wmc.clear_circuit_cache()
        probability_sweep(formula, [None], planner=planner)
        assert planner.observations == 1

    def test_y_sweep_adaptive_method_accepted(self):
        from repro.core.catalog import example_c15
        from repro.reduction.type2_blocks import type2_block
        from repro.reduction.type2_lattice import TypeIIStructure

        query = example_c15()
        structure = TypeIIStructure(query)
        block = type2_block(query, p=1)
        alpha = beta = frozenset([0])
        overlays = [{}]
        exact = structure.y_probability_sweep(
            block, "r0", "t1", alpha, beta, overlays)
        adaptive = structure.y_probability_sweep(
            block, "r0", "t1", alpha, beta, overlays,
            method="adaptive")
        assert adaptive == exact  # under budget: still exact