"""Budgeted approximate WMC — repro.booleans.approximate, the budgeted
compiler, circuit sampling/top-k, and the ``auto`` threading."""

import itertools
import math
import random

from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans.approximate import (
    ProbabilityEstimate,
    draw_worlds,
    estimate_probability,
    hoeffding_sample_count,
    sampling_frame,
)
from repro.booleans.circuit import (
    CompilationBudgetExceeded,
    compile_cnf,
    draw_threshold,
)
from repro.booleans.cnf import CNF
from repro.core.catalog import rst_query
from repro.evaluation import evaluate, probability_sweep
from repro.reduction.block_matrix import z_matrix_direct
from repro.reduction.blocks import path_block
from repro.reduction.type2_lattice import TypeIIStructure
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


def random_weights(formula: CNF, seed: int,
                   interior_only: bool = False) -> dict:
    rng = random.Random(seed)
    values = ([F(1, 4), F(1, 2), F(3, 4)] if interior_only
              else [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
    return {v: rng.choice(values)
            for v in sorted(formula.variables(), key=repr)}


def world_probability(world: dict, weights: dict) -> Fraction:
    prob = F(1)
    for var, value in world.items():
        prob *= weights[var] if value else 1 - weights[var]
    return prob


def satisfies(world: dict, formula: CNF) -> bool:
    return all(any(world.get(v, False) for v in clause)
               for clause in formula.clauses)


class TestBudgetedCompilation:
    def test_tiny_budget_raises(self):
        formula = random_cnf(1, max_vars=5, max_clauses=4)
        with pytest.raises(CompilationBudgetExceeded) as excinfo:
            compile_cnf(formula, budget_nodes=2)
        assert excinfo.value.budget_nodes == 2

    def test_generous_budget_is_identical(self):
        formula = random_cnf(2)
        exact = compile_cnf(formula)
        budgeted = compile_cnf(formula, budget_nodes=10 ** 6)
        assert exact.to_bytes() == budgeted.to_bytes()

    def test_budget_below_constants_rejected(self):
        with pytest.raises(ValueError):
            compile_cnf(CNF([["x"]]), budget_nodes=1)

    def test_cached_circuit_ignores_budget(self):
        """A circuit already paid for is returned even over-budget."""
        formula = CNF([["a", "b"], ["b", "c"], ["a", "c"]])
        wmc.clear_circuit_cache()
        circuit = wmc.compiled(formula)
        assert circuit.size > 2
        again = wmc.compiled(formula, budget_nodes=2)
        assert again is circuit

    def test_budget_aborts_counted(self):
        formula = CNF([["a", "b"], ["b", "c"], ["a", "c"]])
        wmc.clear_circuit_cache()
        with pytest.raises(CompilationBudgetExceeded):
            wmc.compiled(formula, budget_nodes=2)
        info = wmc.cache_info()
        assert info["budget_aborts"] == 1
        assert info["compiles"] == 0

    def test_budget_failures_negatively_cached(self):
        """A blown budget is memoized: repeats at or below it abort
        without redoing the search, while a larger budget retries."""
        formula = CNF([["a", "b"], ["b", "c"], ["a", "c"]])
        wmc.clear_circuit_cache()
        with pytest.raises(CompilationBudgetExceeded):
            wmc.compiled(formula, budget_nodes=3)
        with pytest.raises(CompilationBudgetExceeded):
            wmc.compiled(formula, budget_nodes=2)  # memoized abort
        assert wmc.cache_info()["budget_aborts"] == 2
        circuit = wmc.compiled(formula, budget_nodes=10 ** 6)  # retry
        assert wmc.cache_info()["compiles"] == 1
        # Success clears the negative entry: the circuit is cached, so
        # even a tiny budget now returns it.
        assert wmc.compiled(formula, budget_nodes=2) is circuit


class TestHoeffding:
    def test_sample_count_formula(self):
        # ln(2/0.05) / (2 * 0.05^2) = 737.8 -> 738
        assert hoeffding_sample_count(F(1, 20), F(1, 20)) == 738
        assert hoeffding_sample_count(F(1, 10), F(1, 2)) == 70

    def test_bounds_beyond_the_float_range(self):
        """An epsilon or delta that underflows a float still gets its
        count (ln(2/delta) from the integers), not a ZeroDivisionError
        or OverflowError."""
        # ln(2 * 10^400) / (2 * (1/2)^2) = 1843.5 -> 1844
        assert hoeffding_sample_count(F(1, 2), F(1, 10 ** 400)) == 1844
        assert hoeffding_sample_count(F(1, 2), F(1, 10 ** 320)) == 1476
        huge = hoeffding_sample_count(F(1, 10 ** 200), F(1, 20))
        assert 10 ** 400 < huge < 10 ** 401

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hoeffding_sample_count(0, F(1, 2))
        with pytest.raises(ValueError):
            hoeffding_sample_count(F(1, 2), 1)

    def test_interval_clamps_to_unit(self):
        estimate = ProbabilityEstimate(F(1, 100), F(1, 10), F(1, 20),
                                       100, 1)
        assert estimate.low == 0
        assert estimate.high == F(1, 100) + F(1, 10)
        top = ProbabilityEstimate(F(99, 100), F(1, 10), F(1, 20),
                                  100, 99)
        assert top.high == 1


class TestEstimateProbability:
    def test_deterministic_given_seed(self):
        formula = random_cnf(3)
        weights = random_weights(formula, 3)
        a = estimate_probability(formula, weights, rng=7)
        b = estimate_probability(formula, weights, rng=7)
        assert a == b

    def test_seed_changes_samples(self):
        formula = random_cnf(4)
        draws = {estimate_probability(formula, None, rng=s).estimate
                 for s in range(8)}
        assert len(draws) > 1

    def test_constants_are_exact(self):
        true_est = estimate_probability(CNF.TRUE, None, rng=0)
        assert true_est.estimate == 1
        false_est = estimate_probability(CNF.FALSE, None, rng=0)
        assert false_est.estimate == 0

    def test_estimate_is_success_ratio(self):
        formula = random_cnf(5)
        estimate = estimate_probability(formula, None, rng=1)
        assert estimate.estimate == \
            F(estimate.successes, estimate.samples)
        assert estimate.samples == hoeffding_sample_count(
            estimate.epsilon, estimate.delta)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_interval_contains_exact_with_promised_frequency(self, seed):
        """Across independent sampling runs, the (epsilon, delta)
        interval must cover the exact probability at least (1 - delta)
        of the time.  delta = 1/5 promises 80%; Hoeffding is
        conservative, so demanding the promised rate exactly (20 of 25
        runs) leaves real slack while still catching a broken bound."""
        formula = random_cnf(seed)
        weights = random_weights(formula, seed + 1)
        exact = compile_cnf(formula).probability(weights)
        epsilon, delta, runs = F(3, 20), F(1, 5), 25
        hits = sum(
            estimate_probability(formula, weights, epsilon, delta,
                                 rng=1000 * seed + run).contains(exact)
            for run in range(runs))
        assert hits >= (1 - delta) * runs

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_estimate_matches_exhaustive_sampling_support(self, seed):
        """Estimates of 0/1-weighted formulas collapse correctly: with
        every variable pinned, sampling is deterministic and the
        estimate equals the exact 0/1 probability."""
        formula = random_cnf(seed)
        rng = random.Random(seed + 2)
        weights = {v: F(rng.randint(0, 1))
                   for v in sorted(formula.variables(), key=repr)}
        exact = compile_cnf(formula).probability(weights)
        estimate = estimate_probability(formula, weights, rng=seed)
        assert estimate.estimate == exact


SCALE = 2 ** 53

#: A marginal a fifth of a draw step above k/2^53 in [1/2, 1), where
#: floats are spaced 2^-53: ``float(P_FIFTH)`` rounds down onto the draw
#: k/2^53, which ``u < float(p)`` then wrongly refuses.
K_FIFTH = 3 * 2 ** 51
P_FIFTH = (K_FIFTH + F(1, 5)) / SCALE


class FixedDraws(random.Random):
    """A generator whose ``random()`` returns the given values in
    order."""

    def __init__(self, values):
        super().__init__(0)
        self._values = iter(values)

    def random(self):
        return next(self._values)


def boundary_marginals() -> list:
    """Dyadic and non-dyadic marginals, ~1000-bit denominators, the
    ends of [0, 1] and a little past them."""
    rng = random.Random(2024)
    wide = []
    for _ in range(6):
        denominator = rng.getrandbits(1000) | (1 << 999) | 1
        wide.append(F(rng.randrange(denominator), denominator))
    return [F(0), F(1), F(1, 2), F(3, 8), F(1, 2 ** 60),
            F(SCALE - 1, SCALE), F(1, SCALE), F(1, 3), F(2, 3), F(5, 7),
            F(1, 10), F(9, 10), P_FIFTH, (K_FIFTH + F(4, 5)) / SCALE,
            F(1, 3 * SCALE), F(-1, 3), F(4, 3)] + wide


class TestDrawThreshold:
    """``u < draw_threshold(p)`` must decide every draw u = k/2^53 as
    the exact ``Fraction(k, 2^53) < p`` does."""

    @pytest.mark.parametrize("p", boundary_marginals())
    def test_draws_around_the_boundary_compare_exactly(self, p):
        threshold = draw_threshold(p)
        assert 0 <= threshold <= 1
        center = math.floor(p * SCALE)
        for k in range(center - 3, center + 4):
            if 0 <= k < SCALE:
                u = k / SCALE
                assert F(u) == F(k, SCALE)
                assert (u < threshold) == (F(k, SCALE) < p), k

    def test_naive_float_threshold_is_wrong_where_this_one_is_not(self):
        u = K_FIFTH / SCALE
        assert F(u) < P_FIFTH
        assert float(P_FIFTH) == u and not u < float(P_FIFTH)
        assert u < draw_threshold(P_FIFTH)
        assert not (K_FIFTH + 1) / SCALE < draw_threshold(P_FIFTH)

    def test_ends_and_weights_outside_the_unit_interval(self):
        assert draw_threshold(F(0)) == 0.0
        assert draw_threshold(F(1)) == 1.0
        assert draw_threshold(F(-5)) == 0.0
        assert draw_threshold(F(10 ** 400, 3)) == 1.0

    def test_generators_draw_multiples_of_2_to_the_minus_53(self):
        """The assumption the thresholds rest on."""
        rng = random.Random(12345)
        assert all((rng.random() * SCALE).is_integer()
                   for _ in range(100_000))
        system = random.SystemRandom()
        assert all((system.random() * SCALE).is_integer()
                   for _ in range(10_000))

    def test_draw_worlds_across_the_boundary(self):
        formula = CNF([["x", "y"]])
        marginals, masks = sampling_frame(
            formula, {"x": P_FIFTH, "y": F(1, 3)})
        thresholds = [draw_threshold(p) for p in marginals]
        draws = [k / SCALE for k in range(K_FIFTH - 2, K_FIFTH + 3)]
        values = []
        for u in draws:
            values += [u, 0.5]
        worlds = list(draw_worlds(thresholds, masks, FixedDraws(values),
                                  len(draws)))
        expected = [F(u) < P_FIFTH for u in draws]
        assert [world for world, _ in worlds] == \
            [[bit, False] for bit in expected]
        assert [satisfied for _, satisfied in worlds] == expected
        assert expected == [True, True, True, False, False]

    def test_circuit_sample_across_the_boundary(self):
        """``(x | y)`` compiles to ite(y, true, x): the walk draws y
        against its posterior, and x from its prior when y is true."""
        weights = {"x": P_FIFTH, "y": F(1, 3)}
        circuit = compile_cnf(CNF([["x", "y"]]))
        assert circuit.nodes[circuit.root][:2] == ("ite", "y")
        posterior = weights["y"] / (
            weights["y"] + (1 - weights["y"]) * weights["x"])
        assert (posterior * SCALE).denominator != 1
        below = math.floor(posterior * SCALE) / SCALE
        above = below + 1 / SCALE
        values = [below, K_FIFTH / SCALE,
                  below, (K_FIFTH + 1) / SCALE,
                  above]
        worlds = circuit.sample(weights, k=3, rng=FixedDraws(values))
        assert F(below) < posterior < F(above)
        assert worlds == [{"y": True, "x": True},
                          {"y": True, "x": False},
                          {"y": False, "x": True}]


class TestCircuitSample:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_samples_satisfy_and_cover_scope(self, seed):
        formula = random_cnf(seed)
        weights = random_weights(formula, seed + 1, interior_only=True)
        circuit = compile_cnf(formula)
        for world in circuit.sample(weights, k=10, rng=seed):
            assert set(world) == set(circuit.variables())
            assert satisfies(world, formula)

    def test_deterministic_given_seed(self):
        formula = random_cnf(9)
        weights = random_weights(formula, 9, interior_only=True)
        circuit = compile_cnf(formula)
        assert circuit.sample(weights, 5, rng=3) == \
            circuit.sample(weights, 5, rng=3)

    def test_zero_probability_rejected(self):
        circuit = compile_cnf(CNF([["x"]]))
        with pytest.raises(ValueError, match="probability 0"):
            circuit.sample({"x": F(0)}, k=1)

    def test_frequencies_converge_to_marginals(self):
        """Empirical P(v = 1) over many samples approaches the exact
        conditional marginal p_v * Pr(F[v:=1]) / Pr(F)."""
        formula = CNF([["a", "b"], ["b", "c"], ["a", "c"]])
        weights = {"a": F(1, 3), "b": F(1, 2), "c": F(3, 4)}
        circuit = compile_cnf(formula)
        total = circuit.probability(weights)
        n = 3000
        samples = circuit.sample(weights, n, rng=42)
        for var in weights:
            pinned = dict(weights)
            pinned[var] = F(1)
            conditional = \
                weights[var] * circuit.probability(pinned) / total
            freq = sum(world[var] for world in samples) / n
            assert abs(freq - float(conditional)) < 0.04


class TestTopKWorlds:
    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed, k):
        formula = random_cnf(seed)
        weights = random_weights(formula, seed + 1)
        circuit = compile_cnf(formula)
        scope = sorted(circuit.variables(), key=repr)
        brute = []
        for bits in itertools.product([False, True], repeat=len(scope)):
            world = dict(zip(scope, bits))
            if satisfies(world, formula):
                prob = world_probability(world, weights)
                if prob:
                    brute.append((prob, world))
        brute.sort(key=lambda t: (-t[0], sorted(
            (repr(v), b) for v, b in t[1].items())))
        got = circuit.top_k_worlds(weights, k)
        assert [p for p, _ in got] == [p for p, _ in brute[:k]]
        for prob, world in got:
            assert satisfies(world, formula)
            assert world_probability(world, weights) == prob

    def test_worlds_are_distinct(self):
        formula = random_cnf(11)
        circuit = compile_cnf(formula)
        worlds = circuit.top_k_worlds(None, 32)
        keys = [tuple(sorted(w.items(), key=repr)) for _, w in worlds]
        assert len(keys) == len(set(keys))

    def test_k_zero_empty(self):
        assert compile_cnf(CNF([["x"]])).top_k_worlds(None, 0) == []


def small_tid(query):
    probs = {r_tuple("u"): F(1, 2), t_tuple("v"): F(1, 2)}
    for s in sorted(query.binary_symbols):
        probs[s_tuple(s, "u", "v")] = F(1, 2)
    return TID(["u"], ["v"], probs)


class TestAutoThreading:
    def test_evaluate_auto_stays_exact_under_budget(self):
        query = rst_query()
        result = evaluate(query, small_tid(query))
        assert result.method == "wmc"
        assert result.estimate is None

    def test_evaluate_auto_degrades_past_budget(self):
        query = rst_query()
        tid = small_tid(query)
        exact = evaluate(query, tid, method="wmc").value
        wmc.clear_circuit_cache()
        result = evaluate(query, tid, budget_nodes=2, rng=0)
        assert result.method == "estimate"
        assert result.estimate is not None
        assert result.estimate.contains(exact)
        assert result.value == result.estimate.estimate
        assert wmc.cache_info()["budget_aborts"] == 1

    def test_evaluate_estimate_method_forced(self):
        query = rst_query()
        tid = small_tid(query)
        exact = evaluate(query, tid, method="wmc").value
        result = evaluate(query, tid, method="estimate", rng=5)
        assert result.method == "estimate"
        assert result.estimate.contains(exact)

    def test_probability_sweep_budget_degrades(self):
        formula = lineage(rst_query(), path_block(rst_query(), 3))
        weight_maps = [None, {v: F(1, 4) for v in formula.variables()}]
        exact = probability_sweep(formula, weight_maps)
        wmc.clear_circuit_cache()
        approx = probability_sweep(formula, weight_maps,
                                   budget_nodes=2, rng=0)
        assert wmc.cache_info()["budget_aborts"] == 1
        epsilon = F(1, 20)
        for a, e in zip(approx, exact):
            assert abs(a - e) <= epsilon

    def test_probability_sweep_budget_exact_when_under(self):
        formula = lineage(rst_query(), path_block(rst_query(), 3))
        weight_maps = [None, {v: F(1, 4) for v in formula.variables()}]
        exact = probability_sweep(formula, weight_maps)
        assert probability_sweep(formula, weight_maps,
                                 budget_nodes=10 ** 6) == exact

    def test_probability_sweep_float_mode_survives_degrade(self):
        """numeric="float" keeps its documented value type on both
        engines."""
        formula = lineage(rst_query(), path_block(rst_query(), 3))
        weight_maps = [None, None]
        wmc.clear_circuit_cache()
        degraded = probability_sweep(formula, weight_maps,
                                     numeric="float",
                                     budget_nodes=2, rng=0)
        assert all(isinstance(v, float) for v in degraded)

    def test_evaluate_estimate_false_query_has_estimate(self):
        from repro.core.queries import Query

        false_query = Query.FALSE
        assert false_query.is_false()
        result = evaluate(false_query, small_tid(rst_query()),
                          method="estimate")
        assert result.method == "estimate"
        assert result.value == 0
        assert result.estimate is not None
        assert result.estimate.contains(0)
        assert result.estimate.samples == 0

    def test_z_matrix_auto_matches_exact_under_budget(self):
        query = rst_query()
        assert z_matrix_direct(query, 3, method="auto") == \
            z_matrix_direct(query, 3)

    def test_z_matrix_auto_estimates_past_budget(self):
        query = rst_query()
        exact = z_matrix_direct(query, 3)
        wmc.clear_circuit_cache()
        approx = z_matrix_direct(query, 3, method="auto",
                                 budget_nodes=2, rng=0)
        epsilon = F(1, 20)
        for i in range(2):
            for j in range(2):
                assert abs(approx[i, j] - exact[i, j]) <= epsilon

    def test_z_matrix_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            z_matrix_direct(rst_query(), 2, method="magic")

    def test_y_sweep_auto_matches_exact_under_budget(self):
        from repro.core.catalog import example_c15

        query = example_c15()
        structure = TypeIIStructure(query)
        from repro.reduction.type2_blocks import type2_block

        block = type2_block(query, p=1)
        alpha = frozenset([0])
        beta = frozenset([0])
        overlays = [{}, {s_tuple(sorted(query.binary_symbols)[0],
                                 "r0", "t0"): F(1, 4)}]
        exact = structure.y_probability_sweep(
            block, "r0", "t1", alpha, beta, overlays)
        assert structure.y_probability_sweep(
            block, "r0", "t1", alpha, beta, overlays,
            method="auto") == exact


class TestCacheObservability:
    def test_cache_info_reports_store_tier(self, tmp_path):
        formula = CNF([["a", "b"], ["b", "c"]])
        wmc.clear_circuit_cache()
        wmc.set_circuit_store(str(tmp_path))
        try:
            assert wmc.cache_info()["store_attached"]
            wmc.compiled(formula)  # miss both tiers, compile
            info = wmc.cache_info()
            assert info["store_misses"] == 1
            assert info["store_hits"] == 0
            wmc.clear_circuit_cache()  # cold memory, warm disk
            wmc.compiled(formula)
            info = wmc.cache_info()
            assert info["store_hits"] == 1
            assert info["store_misses"] == 0
            assert info["compiles"] == 0
        finally:
            wmc.set_circuit_store(None)
            wmc.clear_circuit_cache()

    def test_no_store_counts_no_misses(self):
        wmc.clear_circuit_cache()
        wmc.set_circuit_store(None)
        wmc.compiled(CNF([["x", "y"]]))
        info = wmc.cache_info()
        assert not info["store_attached"]
        assert info["store_misses"] == 0
