"""P2CNF / PP2CNF instances, counts and signatures (Section 3, C.1)."""

import pytest

from repro.counting.p2cnf import P2CNF
from repro.counting.pp2cnf import PP2CNF


class TestP2CNF:
    def test_single_clause(self):
        phi = P2CNF(2, ((0, 1),))
        assert phi.count_satisfying() == 3

    def test_path_counts_are_fibonacci_like(self):
        # Independent-set complement counts on paths: 3, 5, 8, 13 ...
        assert P2CNF.path(2).count_satisfying() == 3
        assert P2CNF.path(3).count_satisfying() == 5
        assert P2CNF.path(4).count_satisfying() == 8
        assert P2CNF.path(5).count_satisfying() == 13

    def test_star(self):
        # Center true: 2^(n-1); center false: all leaves true: 1.
        phi = P2CNF.star(4)
        assert phi.count_satisfying() == 2 ** 3 + 1

    def test_cycle(self):
        # Lucas numbers: cycle_4 -> 7.
        assert P2CNF.cycle(4).count_satisfying() == 7

    def test_complete(self):
        # At most one variable false: n + 1.
        assert P2CNF.complete(4).count_satisfying() == 5

    def test_duplicate_edge_raises(self):
        with pytest.raises(ValueError):
            P2CNF(2, ((0, 1), (1, 0)))

    def test_self_loop_raises(self):
        with pytest.raises(ValueError):
            P2CNF(2, ((0, 0),))

    def test_off_range_raises(self):
        with pytest.raises(ValueError):
            P2CNF(2, ((0, 2),))

    def test_negative_variable_count_raises(self):
        with pytest.raises(ValueError, match="negative variable count"):
            P2CNF(-2, ())
        assert P2CNF(0, ()).count_satisfying_brute() == 1


class TestSignatures:
    def test_signature_of_assignment(self):
        phi = P2CNF.path(3)
        assert phi.signature((0, 0, 0)) == (2, 0, 0)
        assert phi.signature((1, 1, 1)) == (0, 0, 2)
        assert phi.signature((1, 0, 1)) == (0, 2, 0)
        assert phi.signature((0, 1, 0)) == (0, 2, 0)

    def test_counts_sum_to_2n(self):
        phi = P2CNF.path(4)
        assert sum(phi.signature_counts().values()) == 16

    def test_satisfying_equals_k00_zero(self):
        phi = P2CNF.cycle(4)
        counts = phi.signature_counts()
        assert phi.count_satisfying() == sum(
            c for (k00, _, _), c in counts.items() if k00 == 0)

    def test_signature_components_sum_to_m(self):
        phi = P2CNF.star(4)
        for (k00, k01, k11) in phi.signature_counts():
            assert k00 + k01 + k11 == phi.m

    def test_satisfied(self):
        phi = P2CNF.path(3)
        assert phi.satisfied((1, 0, 1))
        assert not phi.satisfied((0, 0, 1))


class TestPP2CNF:
    def test_single_clause(self):
        phi = PP2CNF(1, 1, ((0, 0),))
        assert phi.count_satisfying() == 3

    def test_matching(self):
        assert PP2CNF.matching(2).count_satisfying() == 9

    def test_complete(self):
        # (all X true) * 2^m + (some X false -> all Y true): 2^n + 2^m - 1
        phi = PP2CNF.complete(2, 3)
        assert phi.count_satisfying() == 2 ** 3 + 2 ** 2 - 1

    def test_duplicate_edge_raises(self):
        with pytest.raises(ValueError):
            PP2CNF(1, 1, ((0, 0), (0, 0)))

    def test_off_range_raises(self):
        with pytest.raises(ValueError):
            PP2CNF(1, 1, ((0, 1),))

    @pytest.mark.parametrize("left,right", [(-1, 0), (0, -1), (-2, -2)])
    def test_negative_side_raises(self, left, right):
        with pytest.raises(ValueError, match="negative side size"):
            PP2CNF(left, right, ())

    def test_satisfied(self):
        phi = PP2CNF.matching(2)
        assert phi.satisfied((1, 0), (0, 1))
        assert not phi.satisfied((0, 0), (1, 0))
