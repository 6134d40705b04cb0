"""Safe plans — repro.tid.plans.

A plan walks its outer domain in doubling chunks, one batch per local
formula and chunk (``Tape.run_products``).  The per-constant
evaluation it replaced, one closure-probed batch per outer constant
and local formula, is kept here (``reference_evaluate``) as its
reference: the two agree ``Fraction`` for ``Fraction``.
"""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.booleans.cnf import CNF
from repro.core import catalog
from repro.core.clauses import Clause
from repro.core.generate import GeneratorConfig, random_query
from repro.core.queries import Query, parse_query, query
from repro.core.safety import is_safe
from repro.core.symbols import LEFT_UNARY
from repro.reduction.blocks import path_block
from repro.tid.database import TID, r_tuple, s_tuple, t_tuple
from repro.tid.lifted import UnsafeQueryError, lifted_probability
from repro.tid.plans import (
    DomainProduct, InclusionExclusion, PairProduct, Shannon, safe_plan,
)
from repro.tid.wmc import compiled, probability

F = Fraction
ONE = F(1)
ZERO = F(0)


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


def kernel_tags(plan, tid) -> list[dict]:
    """The tags of the ``kernel`` spans a traced evaluation of ``plan``
    opens: one per exact batch the tape runs."""
    tracer = obs.Tracer()
    with tracer.root("plan"):
        plan.evaluate(tid)
    spans = tracer.recent(1)[0]["spans"]
    return [s["tags"] for s in spans if s["name"] == "kernel"]


def kernel_spans(plan, tid) -> int:
    return len(kernel_tags(plan, tid))


class TestBatching:
    """Each local formula runs as one batch per doubling chunk of the
    outer domain (one in all for a middle-only component), not one
    kernel call per outer constant or per (u, v)."""

    def test_serve_safe_query_batches_per_doubling_chunk(self):
        """|U| = 13 at p=12 walks in chunks of 1, 2, 4 and 6
        constants: 4 chunks x 2 local formulas."""
        q = parse_query("(R|S1|S2)(S2|S3)")
        tid = path_block(q, 12)
        assert len(tid.left_domain) == 13
        assert kernel_spans(safe_plan(q), tid) == 8

    def test_a_zero_first_factor_stops_after_the_first_chunk(self):
        """R(u) = 0 leaves only the false branch, whose local formula
        (S1|S2) & (S2|S3) is 0 at (u, t1): the walk stops after the
        first chunk's one batch."""
        q = parse_query("(R|S1|S2)(S2|S3)")
        tid = path_block(q, 12)
        for token in (r_tuple("u"), s_tuple("S1", "u", "t1"),
                      s_tuple("S2", "u", "t1")):
            tid = tid.with_probability(token, 0)
        plan = safe_plan(q)
        assert plan.evaluate(tid) == 0 == probability(q, tid)
        assert kernel_spans(plan, tid) == 1

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


# ----------------------------------------------------------------------
# The per-constant evaluation the chunked walk replaced, kept as its
# reference: one batch per outer constant and local formula, each lane
# a closure probe through ``Circuit.probability_batch``.
# ----------------------------------------------------------------------
def reference_local(formula, tid, pairs) -> Fraction:
    cnf = CNF(frozenset(j) for j in formula.subclauses)
    return prod(compiled(cnf).probability_batch([
        (lambda symbol, u=u, v=v: tid.probability(
            s_tuple(symbol, u, v)))
        for u, v in pairs]), start=ONE)


def reference_factor(factor, tid, w) -> Fraction:
    if isinstance(factor, Shannon):
        token = r_tuple(w) if factor.unary == LEFT_UNARY else t_tuple(w)
        return sum((weight * reference_factor(branch, tid, w)
                    for weight, branch
                    in factor.branches(tid.probability(token))), ZERO)
    if isinstance(factor, InclusionExclusion):
        return sum((sign * reference_factor(term, tid, w)
                    for sign, term in factor.terms), ZERO)
    if factor.left_side:
        pairs = [(w, v) for v in tid.right_domain]
    else:
        pairs = [(u, w) for u in tid.left_domain]
    return reference_local(factor.formula, tid, pairs)


def reference_evaluate(plan, tid) -> Fraction:
    total = ONE
    for component in plan.components:
        if isinstance(component, DomainProduct):
            outer = tid.left_domain if component.left_side \
                else tid.right_domain
            value = ONE
            for w in outer:
                value *= reference_factor(component.factor, tid, w)
                if value == 0:
                    break
        elif isinstance(component, PairProduct):
            value = reference_local(component.formula, tid, [
                (u, v) for u in tid.left_domain
                for v in tid.right_domain])
        else:
            value = component.evaluate(tid)
        total *= value
        if total == 0:
            return ZERO
    return total


def seeded_safe_queries(count=12):
    """The first ``count`` random queries that have a safe plan."""
    found = []
    for seed in range(1000):
        q = random_query(seed, GeneratorConfig(n_symbols=3,
                                               max_clauses=3))
        if is_safe(q) and not q.full_clauses:
            found.append((f"random seed {seed}", q))
            if len(found) == count:
                return found
    raise AssertionError("too few safe random queries")


PLAN_QUERIES = SAFE_QUERIES + [
    ("serve", parse_query("(R|S1|S2)(S2|S3)")),
    ("unary-only beside type2", query(Clause.unary_only("R"),
                                      Clause.left_type2(["S1"], ["S2"]),
                                      Clause.middle("S1", "S3"))),
    ("right type1", query(Clause.right_type1("S1", "S2"),
                          Clause.middle("S2", "S3"))),
] + seeded_safe_queries()


def wide_value(rng) -> Fraction:
    """A value over its own ~200-bit denominator."""
    denominator = rng.getrandbits(200) | (1 << 199)
    return F(rng.randrange(denominator + 1), denominator)


VALUE_SETS = {
    "half": lambda rng: rng.choice((ZERO, F(1, 2), ONE)),
    "thirds": lambda rng: rng.choice((ZERO, F(1, 3), F(1, 2), ONE)),
    "wide": wide_value,
}


def valued_tid(q, values, n_left, n_right, seed) -> TID:
    """A TID over ``q``'s symbols drawing every tuple from ``values``,
    with R(u)/T(v) exactly 0 and 1 on some constants, so the plan's
    Shannon steps skip each branch."""
    rng = random.Random(seed)
    U = [f"u{i}" for i in range(n_left)]
    V = [f"v{j}" for j in range(n_right)]
    probs = {}
    for domain, token in ((U, r_tuple), (V, t_tuple)):
        unaries = [ZERO, ONE] + [values(rng) for _ in domain]
        rng.shuffle(unaries)
        for w, value in zip(domain, unaries):
            probs[token(w)] = value
    for s in sorted(q.binary_symbols):
        for u in U:
            for v in V:
                probs[s_tuple(s, u, v)] = values(rng)
    return TID(U, V, probs)


class TestReference:
    """The chunked walk equals the per-constant evaluation it replaced,
    ``Fraction`` for ``Fraction``, on both exact lanes."""

    def test_plan_equals_the_per_constant_evaluation(self):
        arith = set()

        @given(st.sampled_from(PLAN_QUERIES),
               st.sampled_from(sorted(VALUE_SETS)),
               st.integers(0, 5), st.integers(0, 5),
               st.integers(0, 2 ** 32))
        @settings(derandomize=True, max_examples=300, deadline=None)
        def check(named, value_set, n_left, n_right, seed):
            name, q = named
            tid = valued_tid(q, VALUE_SETS[value_set], n_left, n_right,
                             seed)
            plan = safe_plan(q)
            want = reference_evaluate(plan, tid)
            assert plan.evaluate(tid) == want, (name, value_set, seed)
            assert lifted_probability(q, tid) == want
            arith.update(tags["arith"] for tags in kernel_tags(plan, tid))

        check()
        assert arith == {"int", "fraction"}

    def test_wide_shared_denominators_divide_per_lane(self):
        """Every weight over 2**300 keeps the integer lanes (D is the
        widest denominator), but the false branch's run of 20 roots
        over D**3 each is wider than ``INT_LANE_FLOOR_BITS``, so there
        each lane divides; the true branch's roots over D**2 divide
        once per run."""
        rng = random.Random(7)
        q = parse_query("(R|S1|S2)(S2|S3)")
        U = [f"u{i}" for i in range(3)]
        V = [f"v{j}" for j in range(20)]
        probs = {r_tuple(u): F(1, 2) for u in U}
        for s in ("S1", "S2", "S3"):
            for u in U:
                for v in V:
                    probs[s_tuple(s, u, v)] = F(
                        2 * rng.getrandbits(298) + 1, 2 ** 300)
        tid = TID(U, V, probs)
        plan = safe_plan(q)
        assert {tags["arith"] for tags in kernel_tags(plan, tid)} \
            == {"int"}
        assert plan.evaluate(tid) == reference_evaluate(plan, tid)

    def test_distinct_wide_denominators_take_the_fraction_lanes(self):
        """With a 200-bit denominator per tuple, a batch's D has the
        bits of all its lanes' denominators together (1,500 to 4,700
        here): past ``INT_LANE_RATIO`` times the widest one, every
        batch takes the ``Fraction`` lanes, though the plain lane rule
        (``_lane_denominator``) would allow integers over D."""
        q = parse_query("(R|S1|S2)(S2|S3)")
        tid = valued_tid(q, VALUE_SETS["wide"], 4, 4, 11)
        plan = safe_plan(q)
        assert {tags["arith"] for tags in kernel_tags(plan, tid)} \
            == {"fraction"}
        assert plan.evaluate(tid) == reference_evaluate(plan, tid)

    @pytest.mark.parametrize("name,q", PLAN_QUERIES)
    @pytest.mark.parametrize("n_left,n_right", [(0, 3), (3, 0), (0, 0)])
    def test_empty_domains_match_wmc(self, name, q, n_left, n_right):
        tid = valued_tid(q, VALUE_SETS["thirds"], n_left, n_right, 5)
        want = probability(q, tid)
        assert lifted_probability(q, tid) == want, name
        assert safe_plan(q).evaluate(tid) == want
        if name == "serve":
            assert want == 1
