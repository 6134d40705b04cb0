"""Symmetric databases (Section 1.1's tractable restriction)."""

from fractions import Fraction

import pytest

from repro.core import catalog
from repro.core.clauses import Clause
from repro.core.queries import query
from repro.tid.symmetric import SymmetricTID, symmetric_probability
from repro.tid.wmc import probability

F = Fraction


def stid(n, m, p_r=F(1, 2), p_t=F(1, 2), **binary):
    return SymmetricTID(n, m, p_r, p_t,
                        {k: F(v) for k, v in binary.items()})


class TestPointwiseQueries:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2)])
    def test_h0_matches_wmc(self, n, m):
        """H0 — #P-hard in general — is PTIME on symmetric TIDs."""
        s = stid(n, m, S=F(1, 2))
        assert symmetric_probability(catalog.h0(), s) == \
            probability(catalog.h0(), s.materialize())

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 1)])
    def test_rst_matches_wmc(self, n, m):
        s = stid(n, m, S1=F(1, 3), S2=F(2, 3))
        q = catalog.rst_query()
        assert symmetric_probability(q, s) == \
            probability(q, s.materialize())

    def test_path2_matches_wmc(self):
        s = stid(2, 2, S1=F(1, 2), S2=F(1, 2))
        q = catalog.path_query(2)
        assert symmetric_probability(q, s) == \
            probability(q, s.materialize())

    def test_extreme_probabilities(self):
        s = stid(2, 2, p_r=F(0), p_t=F(1), S1=F(1, 2), S2=F(0))
        q = catalog.rst_query()
        assert symmetric_probability(q, s) == \
            probability(q, s.materialize())

    def test_safe_query(self):
        s = stid(2, 2, S1=F(1, 2), S2=F(1, 4), S3=F(3, 4))
        q = catalog.safe_left_only()
        assert symmetric_probability(q, s) == \
            probability(q, s.materialize())


class TestTypeIIQueries:
    def test_left_type2(self):
        q = query(Clause.left_type2(["S1"], ["S2"]),
                  Clause.middle("S1", "S3"),
                  Clause.right_type1("S3"))
        s = stid(2, 2, S1=F(1, 2), S2=F(1, 3), S3=F(2, 3))
        assert symmetric_probability(q, s) == \
            probability(q, s.materialize())

    def test_right_type2_via_mirror(self):
        q = catalog.unsafe_type1_type2()
        s = stid(2, 2, S1=F(1, 2), S2=F(1, 2), S3=F(1, 2))
        assert symmetric_probability(q, s) == \
            probability(q, s.materialize())

    def test_both_type2_rejected(self):
        with pytest.raises(ValueError):
            symmetric_probability(catalog.example_c9(), stid(2, 2))

    def test_left_type2_with_unary_clause(self):
        q = query(Clause.left_type1("S1"),
                  Clause.left_type2(["S1"], ["S2"]),
                  Clause.middle("S1", "S2"),
                  Clause.right_type1("S2"))
        s = stid(2, 1, S1=F(1, 2), S2=F(1, 2))
        assert symmetric_probability(q, s) == \
            probability(q, s.materialize())


    @pytest.mark.parametrize("mirrored", [False, True])
    def test_unary_clause_with_several_subclauses(self, mirrored):
        """R(x) v forall y S1 v forall y S2 is a side clause that does
        not ground per pair; it takes the one-sided path."""
        from repro.core.queries import Query
        from repro.tid.symmetric import _mirror, _mirror_tid

        q = Query([Clause("left", {"R"},
                          [frozenset({"S1"}), frozenset({"S2"})])])
        s = SymmetricTID(2, 3, F(1, 2), F(1, 3),
                         {"S1": F(1, 2), "S2": F(1, 4)})
        if mirrored:
            q, s = _mirror(q), _mirror_tid(s)
        assert symmetric_probability(q, s) == F(339889, 1048576) == \
            probability(q, s.materialize())

    @pytest.mark.parametrize("p_t", [F(0), F(1, 2), F(1)])
    def test_unary_only_clause_opposite_type2(self, p_t):
        """forall y T(y) beside a left Type-II clause: every v must
        have T(v), whatever the per-u factor."""
        from repro.core.queries import Query

        q = Query([Clause.left_type2(["S1"], ["S2", "S3"]),
                   Clause.unary_only("T")])
        s = SymmetricTID(2, 2, F(1, 2), p_t,
                         {"S1": F(1, 2), "S2": F(1, 3), "S3": F(1, 4)})
        assert symmetric_probability(q, s) == \
            probability(q, s.materialize())


class TestScaling:
    def test_h0_scales_to_large_domains(self):
        """n = m = 25: far beyond what exact WMC could touch."""
        s = stid(25, 25, S=F(1, 2))
        value = symmetric_probability(catalog.h0(), s)
        assert 0 < value < 1

    def test_constant_queries(self):
        from repro.core.queries import Query
        s = stid(2, 2)
        assert symmetric_probability(Query.TRUE, s) == 1
        assert symmetric_probability(Query.FALSE, s) == 0

    def test_monotone_in_binary_probability(self):
        q = catalog.rst_query()
        low = symmetric_probability(q, stid(3, 3, S1=F(1, 4), S2=F(1, 4)))
        high = symmetric_probability(q, stid(3, 3, S1=F(3, 4), S2=F(3, 4)))
        assert low <= high


class TestMaterialize:
    def test_materialized_shape(self):
        s = stid(2, 3, S1=F(1, 2))
        tid = s.materialize()
        assert len(tid.left_domain) == 2
        assert len(tid.right_domain) == 3
        assert tid.probability(("S1", "u0", "v2")) == F(1, 2)


class TestRandomizedAgainstWMC:
    """Randomized sweep: symmetric fast path == exact WMC on random
    pointwise queries and random symmetric parameters."""

    def test_random_pointwise_queries(self):
        import random
        from repro.core.generate import GeneratorConfig, random_query
        rng = random.Random(7)
        values = [F(0), F(1, 3), F(1, 2), F(1)]
        config = GeneratorConfig(n_symbols=3, max_clauses=3,
                                 allow_type2=False)
        checked = 0
        for seed in range(40):
            q = random_query(seed, config)
            s = SymmetricTID(
                2, 2, rng.choice(values), rng.choice(values),
                {sym: rng.choice(values)
                 for sym in sorted(q.binary_symbols)})
            assert symmetric_probability(q, s) == \
                probability(q, s.materialize()), seed
            checked += 1
        assert checked == 40

    def test_random_left_type2_queries(self):
        import random
        from repro.core.clauses import Clause
        from repro.core.queries import Query
        rng = random.Random(3)
        values = [F(1, 4), F(1, 2), F(3, 4)]
        for seed in range(10):
            rng2 = random.Random(seed)
            q = Query([
                Clause.left_type2(
                    [rng2.choice(["S1", "S2"])],
                    ["S2", rng2.choice(["S3", "S1"])]),
                Clause.middle("S1", "S3"),
                Clause.right_type1(rng2.choice(["S1", "S3"])),
            ])
            s = SymmetricTID(2, 2, rng.choice(values),
                             rng.choice(values),
                             {sym: rng.choice(values)
                              for sym in ("S1", "S2", "S3")})
            assert symmetric_probability(q, s) == \
                probability(q, s.materialize()), seed
