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
    GROWTH,
    INITIAL_BATCH,
    ONE,
    WEIGHT_CAPS,
    ZERO,
    BudgetPlanner,
    _checkpoint_delta,
    _sequential_estimate,
    _targets_met,
    adaptive_estimate_probability,
    bernstein_radius,
    estimate_batch_with,
    estimate_with,
    importance_estimate_probability,
    log_upper,
    max_draws,
    resolve_sweep_method,
    sqrt_upper,
    tilted_proposal,
)
from repro.booleans.approximate import (
    ProbabilityEstimate,
    draw_worlds,
    hoeffding_sample_count,
    sampling_frame,
)
from repro.booleans.circuit import as_rng, draw_threshold
from repro.booleans.cnf import CNF
from repro.core.catalog import path_query, rst_query
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


class TestMaxDraws:
    """``max_draws``: what one estimate of each sampler may draw at
    most, the figure the service caps."""

    @pytest.mark.parametrize("epsilon,delta", [
        (F(1, 20), F(1, 20)), (F(1, 100), F(1, 20)),
        (F(1, 753), F(1, 20)), (F(1, 754), F(1, 20))])
    def test_each_sampler_at_the_boundary(self, epsilon, delta):
        fixed = hoeffding_sample_count(epsilon, delta)
        half = hoeffding_sample_count(epsilon, delta / 2)
        assert max_draws(epsilon, delta) == fixed
        assert max_draws(epsilon, delta, WEIGHT_CAPS["adaptive"]) == half
        assert max_draws(epsilon, delta,
                         WEIGHT_CAPS["importance"]) == 16 * half
        assert max_draws(epsilon, delta, F(3, 2)) == \
            -(-9 * half // 4)  # the ceiling on the exact rational

    def test_the_service_cap_sits_between_753_and_754(self):
        """1/753 is the smallest epsilon of the form 1/m whose
        Hoeffding count at delta 1/20 fits under 2^20."""
        assert max_draws(F(1, 753), F(1, 20)) == 1_045_814
        assert max_draws(F(1, 754), F(1, 20)) == 1_048_594
        assert max_draws(F(1, 100), F(1, 20),
                         WEIGHT_CAPS["adaptive"]) == 21_911

    def test_sequential_runs_stop_at_max_draws(self):
        """A target the Bernstein bound never meets runs to the cap."""
        formula = CNF([["a", "b"]])
        weights = {"a": F(1, 2), "b": F(1, 2)}
        for name in ("adaptive", "importance"):
            estimate = estimate_with(name, formula, weights, F(1, 10),
                                     F(1, 10), rng=0,
                                     relative_error=F(1, 10 ** 6))
            assert estimate.samples == max_draws(F(1, 10), F(1, 10),
                                                 WEIGHT_CAPS[name])


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


def per_draw_sequential_estimate(formula, weights, epsilon, delta, rng,
                                 relative_error, weight_cap):
    """The sequential sampler with each draw's weight formed as a
    ``Fraction`` product and summed one draw at a time — the reference
    for ``_sequential_estimate``'s integer weight classes."""
    cap = math.ceil(hoeffding_sample_count(epsilon, delta / 2)
                    * weight_cap ** 2)
    rng = as_rng(rng)
    marginals, masks = sampling_frame(formula, weights)
    proposal = tilted_proposal(marginals, weight_cap)
    thresholds = [draw_threshold(q) for q in proposal]
    tilts = [(i, p / q, (1 - p) / (1 - q))
             for i, (p, q) in enumerate(zip(marginals, proposal))
             if p != q]
    samples = successes = checkpoint = 0
    weight_sum = hit_sum = hit_square_sum = 0
    while samples < cap:
        checkpoint += 1
        target = min(cap, INITIAL_BATCH * GROWTH ** (checkpoint - 1))
        for world, satisfied in draw_worlds(thresholds, masks, rng,
                                            target - samples):
            weight = 1
            for i, ratio_true, ratio_false in tilts:
                weight *= ratio_true if world[i] else ratio_false
            weight_sum += weight
            if satisfied:
                successes += 1
                hit_sum += weight
                hit_square_sum += weight * weight
        samples = target
        mean = Fraction(hit_sum, samples)
        variance = ((hit_square_sum - samples * mean * mean)
                    / (samples - 1) if samples > 1 else ONE)
        radius = bernstein_radius(samples, mean, variance,
                                  _checkpoint_delta(delta, checkpoint),
                                  range_high=weight_cap)
        if _targets_met(radius, mean, epsilon, relative_error):
            break
    achieved = radius if samples < cap else min(radius, epsilon)
    center = min(ONE, max(ZERO, mean))
    low = center - achieved
    estimate = center
    if weight_cap > 1:
        normalized = min(ONE, max(ZERO, Fraction(hit_sum, weight_sum)))
        estimate = min(max(low, normalized), center + achieved)
    return ProbabilityEstimate(
        estimate=estimate, epsilon=achieved, delta=delta,
        samples=samples, successes=successes,
        method="importance" if weight_cap > 1 else "bernstein",
        relative_error=achieved / low if low > 0 else None,
        samples_used=samples,
        center=center if weight_cap > 1 else None)


class TestWeightClasses:
    """The importance sampler counts draws and hits per weight class
    in ints; its sums must equal the per-draw ``Fraction`` sums."""

    @pytest.mark.parametrize("cap", [F(1), F(4), F(8), F(16), F(6)])
    def test_class_counts_equal_per_draw_fraction_sums(self, cap):
        # Seeds whose CNFs have 6-8 variables, so caps 4/8/16/6 tilt
        # 2/3/4/3 of them (cap 6 tilts by 2, 2 and 3/2).
        for seed in (103, 105, 110, 112):
            formula = random_cnf(seed, max_vars=8, max_clauses=5)
            weights = random_weights(formula, seed)
            for relative in (None, F(1, 2)):
                args = (formula, weights, F(1, 5), F(1, 10), seed, None,
                        relative, cap)
                expected = per_draw_sequential_estimate(
                    *args[:5], relative, cap)
                assert _sequential_estimate(*args) == expected


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

    @pytest.mark.parametrize("method", ["estimate", "adaptive",
                                        "importance"])
    def test_false_query_estimate_is_labelled_like_a_run(self, method):
        """The zero answer of a false query names the bound a real run
        of the sampler reports, at the requested delta."""
        from repro.core.queries import Query

        tid = small_tid(rst_query())
        zero = evaluate(Query.FALSE, tid, method=method, delta="1/7")
        run = evaluate(rst_query(), tid, method=method, delta="1/7",
                       rng=0)
        assert zero.method == run.method == method
        assert zero.estimate.method == run.estimate.method
        assert zero.estimate.delta == run.estimate.delta == F(1, 7)

    @pytest.mark.parametrize("knob", [{"epsilon": 0}, {"epsilon": 1},
                                      {"epsilon": "-1/2"},
                                      {"delta": 0}, {"delta": "3/2"}])
    def test_out_of_range_accuracy_refused_before_work(self, knob):
        """An epsilon or delta outside (0, 1) is refused on entry at
        every library front door, even where exact compilation would
        answer without sampling, and by the samplers themselves."""
        name = next(iter(knob))
        query = path_query(1)
        tid = path_block(query, 4)
        formula = lineage(query, tid)
        wmc.clear_circuit_cache()
        message = f"{name} must be in \\(0, 1\\)"
        calls = [
            lambda: evaluate(query, tid, **knob),
            lambda: evaluate(query, tid, method="adaptive", **knob),
            lambda: wmc.cnf_probability_auto(formula, **knob),
            lambda: wmc.probability_batch_auto(formula, [None], **knob),
            lambda: probability_sweep(formula, [None], **knob),
            lambda: adaptive_estimate_probability(formula, **knob),
            lambda: importance_estimate_probability(formula, **knob),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
        assert wmc.cache_info()["compiles"] == 0

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

    def test_relative_target_picks_sequential_sampler_past_budget(self):
        """A relative target implies the sequential sampler at every
        library front door, as it does in the CLI and the service: the
        default Hoeffding estimator has no relative mode, so a
        past-budget call must not fall through to it."""
        query = path_query(1)
        tid = path_block(query, 4)
        formula = lineage(query, tid)
        specs = [None, {v: F(1, 4) for v in formula.variables()}]
        wmc.clear_circuit_cache()
        result = evaluate(query, tid, budget_nodes=2, rng=0,
                          relative_error=F(1, 2))
        assert result.method == "adaptive"
        assert result.estimate.method == "bernstein"
        wmc.clear_circuit_cache()
        values = probability_sweep(formula, specs, budget_nodes=2,
                                   rng=0, relative_error=F(1, 2))
        expected = estimate_batch_with("adaptive", formula, specs,
                                       rng=0, relative_error=F(1, 2))
        assert values == [e.estimate for e in expected]

    def test_non_positive_relative_target_refused_before_work(self):
        """A relative target that is not positive is refused on entry,
        even where exact compilation would answer without sampling."""
        query = path_query(1)
        tid = path_block(query, 4)
        formula = lineage(query, tid)
        wmc.clear_circuit_cache()
        for target in (F(-1, 2), F(0), "-1/2"):
            with pytest.raises(ValueError, match="must be positive"):
                evaluate(query, tid, relative_error=target)
            with pytest.raises(ValueError, match="must be positive"):
                probability_sweep(formula, [None],
                                  relative_error=target)
        assert wmc.cache_info()["compiles"] == 0

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