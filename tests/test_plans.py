"""Safe plans — repro.tid.plans."""

import random
from fractions import Fraction

import pytest

from repro import obs
from repro.core import catalog
from repro.core.clauses import Clause
from repro.core.generate import GeneratorConfig, random_query
from repro.core.queries import Query, parse_query, query
from repro.core.safety import is_safe
from repro.reduction.blocks import path_block
from repro.tid.database import TID, r_tuple, s_tuple, t_tuple
from repro.tid.lifted import UnsafeQueryError, lifted_probability
from repro.tid.plans import safe_plan
from repro.tid.wmc import probability

F = Fraction


def build_tid(q, seed, n_left=2, n_right=2):
    rng = random.Random(seed)
    U = [f"u{i}" for i in range(n_left)]
    V = [f"v{j}" for j in range(n_right)]
    values = [F(0), F(1, 3), F(1, 2), F(1)]
    probs = {}
    for u in U:
        probs[r_tuple(u)] = rng.choice(values)
    for v in V:
        probs[t_tuple(v)] = rng.choice(values)
    for s in sorted(q.binary_symbols):
        for u in U:
            for v in V:
                probs[s_tuple(s, u, v)] = rng.choice(values)
    return TID(U, V, probs)


SAFE_QUERIES = [
    ("left-only", catalog.safe_left_only()),
    ("disconnected", catalog.safe_disconnected()),
    ("middle-only", query(Clause.middle("S1", "S2"))),
    ("right type2", query(Clause.right_type2(["S1"], ["S2"]),
                          Clause.middle("S1", "S2"))),
    ("unary-only", query(Clause.unary_only("R"))),
    ("two type2 left", query(Clause.left_type2(["S1"], ["S2"]),
                             Clause.left_type2(["S1"], ["S3"]),
                             Clause.middle("S1", "S2", "S3"))),
]


class TestCompilation:
    @pytest.mark.parametrize("name,q", SAFE_QUERIES)
    def test_plan_matches_lifted(self, name, q):
        """``lifted_probability`` evaluates this plan, so both are held
        to the exact WMC engine, an independent oracle."""
        plan = safe_plan(q)
        for seed in range(4):
            tid = build_tid(q, seed)
            expected = probability(q, tid)
            assert plan.evaluate(tid) == expected, (name, seed)
            assert lifted_probability(q, tid) == expected, (name, seed)

    @pytest.mark.parametrize("name,q", SAFE_QUERIES[:3])
    def test_plan_matches_wmc(self, name, q):
        plan = safe_plan(q)
        tid = build_tid(q, 9)
        assert plan.evaluate(tid) == probability(q, tid)

    def test_unsafe_rejected(self):
        with pytest.raises(UnsafeQueryError):
            safe_plan(catalog.rst_query())

    def test_h0_rejected(self):
        with pytest.raises(UnsafeQueryError):
            safe_plan(catalog.h0())

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            safe_plan(Query.TRUE)

    def test_full_clause_r_or_t(self):
        full = Clause("full", {"R", "T"}, [])
        q = Query([full])
        plan = safe_plan(q)
        assert "independent-or[ prod_{u in U} R | prod_{v in V} T ]" \
            in plan.describe()
        for seed in range(4):
            tid = build_tid(q, seed, n_left=3, n_right=2)
            assert plan.evaluate(tid) == probability(q, tid), seed
        # Sharing R with another clause leaves the query safe but
        # outside the bipartite fragment the plan algebra covers.
        shared = Query([full, Clause.left_type1("S1")])
        assert is_safe(shared)
        with pytest.raises(UnsafeQueryError, match="full clauses"):
            safe_plan(shared)


class TestPlanShape:
    def test_components_count(self):
        plan = safe_plan(catalog.safe_disconnected())
        assert len(plan.components) == 2

    def test_describe_mentions_structure(self):
        plan = safe_plan(catalog.safe_left_only())
        text = plan.describe()
        assert "independent-join" in text
        assert "prod_{u in U}" in text
        assert "shannon(R)" in text

    def test_type2_plan_uses_inclusion_exclusion(self):
        q = query(Clause.left_type2(["S1"], ["S2"]),
                  Clause.middle("S1", "S3"))
        text = safe_plan(q).describe()
        assert "incl-excl" in text

    def test_right_component_iterates_v(self):
        q = query(Clause.right_type1("S1"))
        text = safe_plan(q).describe()
        assert "prod_{v in V}" in text

    def test_middle_only_component_is_one_pair_product(self):
        text = safe_plan(query(Clause.middle("S1", "S2"))).describe()
        assert text == ("independent-join\n"
                        "  prod_{u in U, v in V} local (S1|S2)")


def kernel_spans(plan, tid) -> int:
    """How many ``kernel`` spans a traced evaluation of ``plan`` opens:
    one per exact batch the tape runs."""
    tracer = obs.Tracer()
    with tracer.root("plan"):
        plan.evaluate(tid)
    spans = tracer.recent(1)[0]["spans"]
    return sum(1 for s in spans if s["name"] == "kernel")


class TestBatching:
    """Each local formula runs as one batch per outer constant (one in
    all for a middle-only component), not one kernel call per (u, v)."""

    def test_serve_safe_query_batches_per_outer_constant(self):
        q = parse_query("(R|S1|S2)(S2|S3)")
        tid = path_block(q, 12)
        assert kernel_spans(safe_plan(q), tid) == 26

    def test_middle_only_query_is_one_batch(self):
        q = parse_query("(S1|S2)")
        tid = path_block(q, 12)
        assert kernel_spans(safe_plan(q), tid) == 1


class TestRandomSafeQueries:
    @pytest.mark.parametrize("seed", range(30))
    def test_plan_agrees_on_random_queries(self, seed):
        q = random_query(seed, GeneratorConfig(n_symbols=3,
                                               max_clauses=3))
        if not is_safe(q):
            return
        plan = safe_plan(q)
        tid = build_tid(q, seed, n_left=2, n_right=1)
        assert plan.evaluate(tid) == probability(q, tid)

    def test_plan_is_reusable_across_databases(self):
        q = catalog.safe_left_only()
        plan = safe_plan(q)
        values = {plan.evaluate(build_tid(q, seed)) for seed in range(6)}
        assert len(values) > 1  # genuinely depends on the data
