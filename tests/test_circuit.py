"""The knowledge-compilation subsystem — repro.booleans.circuit.

The core validation idiom: on random monotone CNFs and random rational
weight maps, the compiled d-DNNF circuit must agree *exactly* (as
Fractions) with both the recursive Shannon engine and brute-force
world enumeration, and its unweighted counts must match brute-force
model counting.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans.circuit import AND, ITE, Circuit, compile_cnf
from repro.booleans.cnf import CNF
from repro.counting.p2cnf import P2CNF
from repro.counting.pp2cnf import PP2CNF
from repro.evaluation import (
    EvaluationResult,
    evaluate,
    evaluate_batch,
    probability_sweep,
)
from repro.tid.brute import cnf_probability_brute, count_models
from repro.tid.wmc import cnf_probability, compiled, shannon_probability

F = Fraction
HALF = F(1, 2)

WEIGHT_VALUES = (F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1))


def random_cnf(seed: int, n_vars: int = 6, max_clauses: int = 6) -> CNF:
    rng = random.Random(seed)
    variables = [f"v{i}" for i in range(rng.randint(1, n_vars))]
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        size = rng.randint(1, len(variables))
        clauses.append(rng.sample(variables, size))
    return CNF(clauses)


def random_weights(formula: CNF, seed: int) -> dict:
    rng = random.Random(seed)
    return {v: rng.choice(WEIGHT_VALUES)
            for v in sorted(formula.variables(), key=repr)}


class TestCircuitAgreement:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_probability_matches_both_engines(self, cnf_seed, w_seed):
        formula = random_cnf(cnf_seed)
        weights = random_weights(formula, w_seed)
        circuit = compile_cnf(formula)
        value = circuit.probability(weights)
        assert value == shannon_probability(formula, weights)
        assert value == cnf_probability_brute(formula, weights)
        assert value == cnf_probability(formula, weights)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_model_count_matches_brute(self, cnf_seed):
        formula = random_cnf(cnf_seed)
        circuit = compile_cnf(formula)
        variables = formula.variables()
        assert circuit.model_count() == count_models(formula)
        # Free variables in a larger scope double the count.
        scope = set(variables) | {"extra0", "extra1"}
        assert circuit.model_count(scope) == count_models(formula, scope)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_marginals_are_cofactor_differences(self, cnf_seed, w_seed):
        """d Pr / d p(v) == Pr(F[v:=1]) - Pr(F[v:=0]) at the remaining
        weights (multilinearity)."""
        formula = random_cnf(cnf_seed)
        weights = random_weights(formula, w_seed)
        circuit = compile_cnf(formula)
        grads = circuit.marginals(weights)
        assert set(grads) == set(circuit.variables())
        for var in grads:
            hi = dict(weights, **{var: F(1)})
            lo = dict(weights, **{var: F(0)})
            assert grads[var] == \
                circuit.probability(hi) - circuit.probability(lo)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_compilation_is_deterministic(self, cnf_seed):
        formula = random_cnf(cnf_seed)
        first = compile_cnf(formula)
        second = compile_cnf(formula)
        assert first.size == second.size
        assert first.edge_count == second.edge_count
        assert first.stats() == second.stats()

    def test_model_count_rejects_partial_scope(self):
        circuit = compile_cnf(CNF([["a", "b"], ["b", "c"]]))
        with pytest.raises(ValueError):
            circuit.model_count(["a"])


class TestCircuitStructure:
    def test_constants(self):
        assert compile_cnf(CNF.TRUE).probability() == 1
        assert compile_cnf(CNF.FALSE).probability() == 0
        assert compile_cnf(CNF.TRUE).model_count(["x"]) == 2
        assert compile_cnf(CNF.FALSE).model_count(["x"]) == 0

    def test_decomposability_and_determinism_invariants(self):
        """AND children have disjoint variables; ITE branches do not
        mention the decision variable (d-DNNF well-formedness)."""
        for seed in range(200):
            circuit = compile_cnf(random_cnf(seed))
            var_sets = [frozenset()] * len(circuit.nodes)
            for i, node in enumerate(circuit.nodes):
                if node[0] == "leaf":
                    var_sets[i] = frozenset([node[1]])
                elif node[0] == AND:
                    union = set()
                    for child in node[1]:
                        assert not (union & var_sets[child]), \
                            "non-decomposable AND"
                        union |= var_sets[child]
                    var_sets[i] = frozenset(union)
                elif node[0] == ITE:
                    branches = var_sets[node[2]] | var_sets[node[3]]
                    assert node[1] not in branches, \
                        "decision variable reappears in a branch"
                    var_sets[i] = frozenset(branches | {node[1]})

    def test_hash_consing_shares_identical_blocks(self):
        """n disjoint copies of one component compile to a circuit
        whose size grows by a constant per copy (shared sub-DAG)."""
        def copies(n):
            clauses = []
            for i in range(n):
                clauses += [[f"a{i}", f"b{i}"], [f"b{i}", f"c{i}"]]
            return compile_cnf(CNF(clauses))

        sizes = [copies(n).size for n in (1, 2, 3, 4, 8)]
        # Identical components up to renaming still need their own leaf
        # and decision nodes (variables differ) but the per-copy cost
        # must stay flat — no multiplicative blowup.
        per_copy = sizes[2] - sizes[1]
        assert sizes[3] - sizes[2] == per_copy
        assert sizes[4] - sizes[3] == 4 * per_copy


class TestCNFFastPaths:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_condition_true_stays_minimal(self, cnf_seed):
        formula = random_cnf(cnf_seed)
        for var in sorted(formula.variables(), key=repr):
            fast = formula.condition(var, True)
            # Re-minimizing from scratch must be a no-op.
            assert CNF(fast.clauses) == fast

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_conjunction_disjoint_matches_conjunction(self, s1, s2):
        left = random_cnf(s1)
        right = random_cnf(s2).rename(
            {v: f"w{v}" for v in random_cnf(s2).variables()})
        fast = CNF.conjunction_disjoint([left, right])
        assert fast == CNF.conjunction([left, right])
        assert CNF(fast.clauses) == fast

    def test_conjunction_disjoint_false_short_circuit(self):
        assert CNF.conjunction_disjoint(
            [CNF([["a"]]), CNF.FALSE]).is_false()
        assert CNF.conjunction_disjoint([]).is_true()


class TestEvaluationLayer:
    def _query_and_tids(self):
        from repro.core.catalog import rst_query
        from repro.tid.database import TID, r_tuple, s_tuple, t_tuple
        query = rst_query()
        tids = []
        for p_u in (F(1, 4), F(1, 2), F(3, 4)):
            probs = {r_tuple("u"): p_u, t_tuple("v"): HALF}
            for s in sorted(query.binary_symbols):
                probs[s_tuple(s, "u", "v")] = HALF
            tids.append(TID(["u"], ["v"], probs))
        return query, tids

    def test_compiled_method_agrees(self):
        query, tids = self._query_and_tids()
        for tid in tids:
            by_circuit = evaluate(query, tid, method="wmc")
            assert by_circuit.method == "wmc"
            assert by_circuit.value == \
                evaluate(query, tid, method="shannon").value
            assert by_circuit.value == \
                evaluate(query, tid, method="brute").value
        # The circuit engine has one name.
        with pytest.raises(ValueError, match="unknown method"):
            evaluate(query, tids[0], method="compiled")

    def test_evaluate_batch(self):
        query, tids = self._query_and_tids()
        results = evaluate_batch(query, tids)
        assert [r.value for r in results] == \
            [evaluate(query, tid).value for tid in tids]
        assert all(r.method == "wmc" for r in results)

    def test_probability_sweep(self):
        formula = CNF([["a", "b"], ["b", "c"]])
        maps = [{"a": F(1, 3), "b": F(1, 2), "c": F(1, 5)},
                {"a": F(1), "b": F(0), "c": HALF},
                None]
        assert probability_sweep(formula, maps) == \
            [shannon_probability(formula, w) for w in maps]

    def test_evaluation_result_is_hashable(self):
        a = EvaluationResult(HALF, "wmc", False)
        b = EvaluationResult(HALF, "wmc", False)
        assert a == b and hash(a) == hash(b)
        # Equality with a bare Fraction stays hash-consistent.
        assert a == HALF and hash(a) == hash(HALF)
        assert len({a, b}) == 1


class TestCountingViaCircuit:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_p2cnf_count_matches_brute(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = tuple(rng.sample(pairs, rng.randint(0, len(pairs))))
        phi = P2CNF(n, edges)
        assert phi.count_satisfying() == phi.count_satisfying_brute()

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_pp2cnf_count_matches_brute(self, seed):
        rng = random.Random(seed)
        nl, nr = rng.randint(1, 4), rng.randint(1, 4)
        pairs = [(i, j) for i in range(nl) for j in range(nr)]
        edges = tuple(rng.sample(pairs, rng.randint(0, len(pairs))))
        phi = PP2CNF(nl, nr, edges)
        assert phi.count_satisfying() == phi.count_satisfying_brute()

    def test_known_counts_still_hold(self):
        assert P2CNF.path(5).count_satisfying() == 13
        assert PP2CNF.matching(2).count_satisfying() == 9


class TestCompilationCache:
    def test_cache_returns_same_circuit_object(self):
        formula = CNF([["x", "y"], ["y", "z"]])
        assert compiled(formula) is compiled(CNF([["y", "z"], ["x", "y"]]))

    def test_cached_circuit_serves_any_weights(self):
        formula = CNF([["x", "y"]])
        assert cnf_probability(formula, {"x": F(1), "y": F(0)}) == 1
        assert cnf_probability(formula, {"x": F(0), "y": F(0)}) == 0
        assert cnf_probability(formula) == F(3, 4)
