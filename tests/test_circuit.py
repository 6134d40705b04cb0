"""The knowledge-compilation subsystem — repro.booleans.circuit.

The core validation idiom: on random monotone CNFs and random rational
weight maps, the compiled d-DNNF circuit must agree *exactly* (as
Fractions) with both the recursive Shannon engine and brute-force
world enumeration, and its unweighted counts must match brute-force
model counting.  ``sample`` and ``marginals`` walk the registers of
the tape's exact pass; the ``Fraction`` walk of the node table they
replaced is kept here (``node_values``, ``node_sample``,
``node_marginals``) as their reference.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans.circuit import (
    AND, FALSE, ITE, LEAF, TRUE, Circuit, as_rng, compile_cnf,
    draw_threshold, make_lookup,
)
from repro.booleans.cnf import CNF
from repro.core.catalog import path_query
from repro.counting.p2cnf import P2CNF
from repro.counting.pp2cnf import PP2CNF
from repro.evaluation import (
    EvaluationResult,
    evaluate,
    evaluate_batch,
    probability_sweep,
)
from repro.reduction.blocks import path_block
from repro.tid.brute import (
    cnf_probability_brute,
    count_models,
    shannon_probability,
)
from repro.tid.lineage import lineage
from repro.tid.wmc import cnf_probability, compiled

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


def node_values(circuit: Circuit, lookup) -> list:
    """Every node's probability, by one ``Fraction`` walk of the node
    table: the evaluator behind ``sample`` and ``marginals`` before
    they ran on the tape."""
    values = [F(0)] * len(circuit.nodes)
    for i, node in enumerate(circuit.nodes):
        if node[0] == ITE:
            p = F(lookup(node[1]))
            values[i] = p * values[node[2]] + (1 - p) * values[node[3]]
        elif node[0] == AND:
            values[i] = math.prod((values[c] for c in node[1]), start=F(1))
        elif node[0] == LEAF:
            values[i] = F(lookup(node[1]))
        elif node[0] == TRUE:
            values[i] = F(1)
    return values


def node_sample(circuit: Circuit, weights, k, rng, default=None) -> list:
    """The node-table ``sample``: a decision draws its true branch
    against ``draw_threshold`` of the branch's exact posterior, a
    product descends into every child, and unset variables are drawn
    from their priors in sorted-repr order."""
    lookup = make_lookup(weights, default)
    values = node_values(circuit, lookup)
    if not values[circuit.root]:
        raise ValueError("probability 0")
    rng = as_rng(rng)
    thresholds = {}
    for i, node in enumerate(circuit.nodes):
        if node[0] == ITE:
            p = F(lookup(node[1]))
            hi = p * values[node[2]]
            mass = hi + (1 - p) * values[node[3]]
            if mass:
                thresholds[i] = draw_threshold(hi / mass)
    priors = [(var, draw_threshold(F(lookup(var))))
              for var in sorted(circuit.variables(), key=repr)]
    worlds = []
    for _ in range(k):
        world = {}
        stack = [circuit.root]
        while stack:
            i = stack.pop()
            node = circuit.nodes[i]
            if node[0] == ITE:
                bit = rng.random() < thresholds[i]
                world[node[1]] = bit
                stack.append(node[2] if bit else node[3])
            elif node[0] == AND:
                stack.extend(node[1])
            elif node[0] == LEAF:
                world[node[1]] = True
        for var, prior in priors:
            if var not in world:
                world[var] = rng.random() < prior
        worlds.append(world)
    return worlds


def node_marginals(circuit: Circuit, weights, default=None) -> dict:
    """The node-table ``marginals``: one backward pass of ``Fraction``
    derivatives over ``node_values``."""
    lookup = make_lookup(weights, default)
    values = node_values(circuit, lookup)
    derivs = [F(0)] * len(circuit.nodes)
    derivs[circuit.root] = F(1)
    grads = {var: F(0) for var in circuit.variables()}
    for i in range(len(circuit.nodes) - 1, -1, -1):
        d, node = derivs[i], circuit.nodes[i]
        if not d:
            continue
        if node[0] == ITE:
            p = F(lookup(node[1]))
            derivs[node[2]] += p * d
            derivs[node[3]] += (1 - p) * d
            grads[node[1]] += (values[node[2]] - values[node[3]]) * d
        elif node[0] == AND:
            for child in node[1]:
                derivs[child] += d * math.prod(
                    (values[c] for c in node[1] if c != child),
                    start=F(1))
        elif node[0] == LEAF:
            grads[node[1]] += d
    return grads


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
            assert grads[var] == cnf_probability_brute(formula, hi) \
                - cnf_probability_brute(formula, lo)

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


#: Seven variables, so that dense wide weights outgrow the integer lanes.
VARS = [f"x{i}" for i in range(7)]
#: Pairwise nearly coprime denominators of ~1500 bits.
WIDE = 2 ** 1500


def cnfs():
    clause = st.lists(st.sampled_from(VARS), min_size=1, max_size=3,
                      unique=True)
    return (st.just(CNF.TRUE) | st.just(CNF.FALSE)
            | st.lists(clause, min_size=1, max_size=8).map(CNF))


def walk_weights():
    """0, 1, 1/2, 1/3, or about j/64 over a distinct wide denominator."""
    return (st.sampled_from([F(0), F(1), HALF, F(1, 3)])
            | st.integers(1, 63).map(
                lambda j: F(j * WIDE // 64 + 1, WIDE + j)))


def weight_maps():
    """Sparse maps (the rest take the default) or dense ones; dense wide
    maps send the exact pass to the Fraction lanes."""
    return st.booleans().flatmap(lambda dense: st.dictionaries(
        st.sampled_from(VARS), walk_weights(),
        min_size=len(VARS) if dense else 0))


class TestTapeWalks:
    """``Circuit.sample`` and ``Circuit.marginals`` on the tape equal
    the node walk, world for world and ``Fraction`` for ``Fraction``,
    on both the integer and the ``Fraction`` lanes."""

    def test_sample_and_marginals_equal_the_node_walk(self):
        from test_tape import kernel_tags

        arith = set()

        @given(cnfs(), weight_maps(), st.none() | walk_weights(),
               st.integers(0, 2 ** 32), st.integers(0, 8))
        @settings(derandomize=True, max_examples=200, deadline=None)
        def check(formula, weights, default, seed, k):
            circuit = compile_cnf(formula)
            tags = kernel_tags(
                lambda: circuit.marginals(weights, default))
            arith.add(tags["arith"])
            assert circuit.marginals(weights, default) == \
                node_marginals(circuit, weights, default)
            try:
                want = node_sample(circuit, weights, k, seed, default)
            except ValueError:
                with pytest.raises(ValueError, match="probability 0"):
                    circuit.sample(weights, k, seed, default)
                return
            assert circuit.sample(weights, k, seed, default) == want

        check()
        assert arith == {"int", "fraction"}

    def test_sample_equals_the_node_walk_on_seeded_cases(self):
        """Larger cases than the examples above: random CNFs over up to
        nine variables and the path lineages at p=4."""
        cases = []
        for seed in range(300):
            formula = random_cnf(seed, n_vars=9, max_clauses=9)
            cases.append((formula, random_weights(formula, seed)))
        for length in (1, 2, 3):
            query = path_query(length)
            tid = path_block(query, 4)
            cases.append((lineage(query, tid), tid.probability))
        for seed, (formula, weights) in enumerate(cases):
            circuit = compile_cnf(formula)
            try:
                want = node_sample(circuit, weights, 6, seed)
            except ValueError:
                continue
            assert circuit.sample(weights, 6, seed) == want
            assert circuit.marginals(weights) == \
                node_marginals(circuit, weights)

    def test_rejects_negative_k(self):
        circuit = compile_cnf(CNF([["a", "b"]]))
        with pytest.raises(ValueError, match="non-negative"):
            circuit.sample(k=-1)
        assert circuit.sample(k=0) == []

    def test_no_decision_has_a_false_branch(self):
        """Unit clauses are conditioned away before any branch, so
        neither cofactor of a decision is false: each decision lowers
        to one two-operand OR, and the tape's world walk draws where
        the node walk drew."""
        circuits = [compile_cnf(random_cnf(seed)) for seed in range(500)]
        for length in (1, 2, 3):
            query = path_query(length)
            for p in (4, 8, 12):
                circuits.append(compile_cnf(
                    lineage(query, path_block(query, p))))
        decisions = 0
        for circuit in circuits:
            for node in circuit.nodes:
                if node[0] == ITE:
                    decisions += 1
                    assert circuit.nodes[node[2]][0] != FALSE
                    assert circuit.nodes[node[3]][0] != FALSE
        assert decisions > 1000


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
