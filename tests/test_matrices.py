"""Exact linear algebra tests for repro.algebra.matrices."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.matrices import (
    IncrementalBasis,
    Matrix,
    monomial_row,
    select_rows,
)
from repro.algebra.quadratic import QuadraticNumber

F = Fraction


def mat(rows):
    return Matrix([[F(e) for e in row] for row in rows])


class TestBasics:
    def test_identity(self):
        assert Matrix.identity(2) == mat([[1, 0], [0, 1]])

    def test_ragged_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_transpose(self):
        assert mat([[1, 2], [3, 4]]).transpose() == mat([[1, 3], [2, 4]])

    def test_mul(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert a * b == mat([[2, 1], [4, 3]])

    def test_add_sub(self):
        a = mat([[1, 2], [3, 4]])
        assert a + a - a == a

    def test_power(self):
        a = mat([[1, 1], [0, 1]])
        assert (a ** 5)[0, 1] == 5
        assert a ** 0 == Matrix.identity(2)

    def test_apply(self):
        assert mat([[1, 2], [3, 4]]).apply([F(1), F(1)]) == [F(3), F(7)]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat([[1, 2]]) * mat([[1, 2]])


class TestDeterminantSolve:
    def test_det_2x2(self):
        assert mat([[1, 2], [3, 4]]).determinant() == -2

    def test_det_singular(self):
        assert mat([[1, 2], [2, 4]]).determinant() == 0
        assert mat([[1, 2], [2, 4]]).is_singular()

    def test_det_permutation_sign(self):
        assert mat([[0, 1], [1, 0]]).determinant() == -1

    def test_det_3x3(self):
        m = mat([[2, 0, 1], [1, 1, 0], [0, 3, 1]])
        assert m.determinant() == 5

    def test_solve(self):
        m = mat([[2, 1], [1, 3]])
        rhs = [F(5), F(10)]
        x = m.solve(rhs)
        assert m.apply(x) == rhs

    def test_solve_singular_raises(self):
        with pytest.raises(ValueError):
            mat([[1, 1], [1, 1]]).solve([F(1), F(2)])

    def test_inverse(self):
        m = mat([[2, 1], [1, 1]])
        assert m * m.inverse() == Matrix.identity(2)

    def test_rank(self):
        assert mat([[1, 2], [2, 4]]).rank() == 1
        assert mat([[1, 2], [3, 4]]).rank() == 2
        assert mat([[0, 0], [0, 0]]).rank() == 0
        assert mat([[1, 2, 3], [4, 5, 6]]).rank() == 2


class TestKronecker:
    def test_kronecker_shape(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        k = a.kronecker(b)
        assert (k.nrows, k.ncols) == (4, 4)

    def test_kronecker_det(self):
        """det(A (x) B) = det(A)^n det(B)^m."""
        a = mat([[1, 2], [3, 4]])
        b = mat([[2, 1], [1, 1]])
        k = a.kronecker(b)
        assert k.determinant() == a.determinant() ** 2 * b.determinant() ** 2


@st.composite
def square_matrices(draw, n=3):
    rows = [[F(draw(st.integers(-4, 4))) for _ in range(n)]
            for _ in range(n)]
    return Matrix(rows)


class TestProperties:
    @given(square_matrices(), square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_det_multiplicative(self, a, b):
        assert (a * b).determinant() == a.determinant() * b.determinant()

    @given(square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_solve_roundtrip(self, m):
        rhs = [F(1), F(2), F(3)]
        if m.determinant() == 0:
            return
        assert m.apply(m.solve(rhs)) == rhs

    @given(square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_rank_full_iff_nonsingular(self, m):
        assert (m.rank() == 3) == (m.determinant() != 0)


# ----------------------------------------------------------------------
# The Fraction Gauss-Jordan elimination this module used before its
# fraction-free one, kept as the reference the new one must agree with.
# Entries go through Fraction first, so integer input divides exactly.
# ----------------------------------------------------------------------
def reference_determinant(rows):
    n = len(rows)
    work = [[F(e) for e in row] for row in rows]
    det = F(1)
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = work[r][col] / pivot
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[col])]
    return det


def reference_rank(rows):
    work = [[F(e) for e in row] for row in rows]
    nrows, ncols = len(work), len(work[0]) if work else 0
    rank = 0
    for col in range(ncols):
        pivot_row = next(
            (r for r in range(rank, nrows) if work[r][col] != 0), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(nrows):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / pivot
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def reference_solve(rows, rhs):
    n = len(rows)
    work = [[F(e) for e in row] + [F(rhs[i])]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [entry / pivot for entry in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[col])]
    return [work[i][n] for i in range(n)]


#: Entry kinds: plain ints, non-dyadic Fractions, and ~200-bit dyadic
#: Fractions (the shape of the reductions' coefficients).
ENTRIES = {
    "int": st.integers(-6, 6),
    "fraction": st.builds(F, st.integers(-9, 9),
                          st.sampled_from([1, 3, 5, 7, 9, 11])),
    "dyadic": st.builds(lambda a, e: F(a, 2 ** e),
                        st.integers(-2 ** 200, 2 ** 200),
                        st.integers(0, 200)),
}


@st.composite
def rational_rows(draw, square=False):
    """Random rational rows, then damage that exercises the awkward
    paths: a zero row, a zero column, a dependent row (singular), and
    zero leading entries (the pivot search must look past them)."""
    entries = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and ncols:
        if draw(st.booleans()):
            rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
        if draw(st.booleans()):
            col = draw(st.integers(0, ncols - 1))
            for row in rows:
                row[col] = 0
        if nrows >= 3 and draw(st.booleans()):
            k = draw(st.integers(-3, 3))
            rows[-1] = [a + k * b for a, b in zip(rows[0], rows[1])]
        leading = draw(st.integers(0, nrows - 1))
        for r in range(leading):
            rows[r][0] = 0
    return rows


class TestAgreesWithReference:
    @given(rational_rows(square=True))
    @settings(max_examples=150, deadline=None)
    def test_determinant(self, rows):
        det = Matrix(rows).determinant()
        assert type(det) is F
        assert det == reference_determinant(rows)

    @given(rational_rows())
    @settings(max_examples=150, deadline=None)
    def test_rank(self, rows):
        assert Matrix(rows).rank() == reference_rank(rows)

    @given(rational_rows(square=True), st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve(self, rows, data):
        rhs = [data.draw(ENTRIES["fraction"]) for _ in rows]
        try:
            expected = reference_solve(rows, rhs)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                Matrix(rows).solve(rhs)
            return
        solution = Matrix(rows).solve(rhs)
        assert all(type(x) is F for x in solution)
        assert solution == expected

    @given(rational_rows(square=True))
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, rows):
        n = len(rows)
        if reference_determinant(rows) == 0:
            with pytest.raises(ValueError, match="singular"):
                Matrix(rows).inverse()
            return
        inverse = Matrix(rows).inverse()
        for j in range(n):
            unit = [int(i == j) for i in range(n)]
            assert [inverse[i, j] for i in range(n)] == \
                reference_solve(rows, unit)

    @given(rational_rows())
    @settings(max_examples=150, deadline=None)
    def test_basis_keeps_exactly_the_rank_increasing_rows(self, rows):
        basis = IncrementalBasis(len(rows[0]) if rows else 0)
        for k, row in enumerate(rows):
            grows = reference_rank(rows[:k + 1]) > reference_rank(rows[:k])
            assert basis.add(row) is grows
        assert basis.rank == reference_rank(rows)


class TestFractionFreeFixedCases:
    def test_huge_integer_determinant_is_exact(self):
        m = Matrix([[10 ** 20 + 1, 10 ** 20], [10 ** 20, 10 ** 20 - 1]])
        assert m.determinant() == -1

    def test_integer_solve_and_inverse_return_fractions(self):
        m = Matrix([[2, 1], [1, 3]])
        assert m.solve([1, 2]) == [F(1, 5), F(3, 5)]
        assert all(type(x) is F for x in m.solve([1, 2]))
        assert m.inverse() == mat([[F(3, 5), F(-1, 5)],
                                   [F(-1, 5), F(2, 5)]])

    def test_empty_solve(self):
        assert Matrix([]).solve([]) == []

    @pytest.mark.parametrize("bad", [0.5, QuadraticNumber(1, 1, 2)],
                             ids=["float", "quadratic"])
    def test_non_rational_entries_raise_type_error(self, bad):
        m = Matrix([[bad, 1], [1, 2]])
        for operation in (m.determinant, m.rank, m.inverse,
                          lambda: m.solve([1, 1])):
            with pytest.raises(TypeError):
                operation()
        with pytest.raises(TypeError):
            mat([[1, 2], [3, 4]]).solve([bad, 1])
        with pytest.raises(TypeError):
            IncrementalBasis(2).add([1, bad])


#: Right-hand-side entries whose denominators share nothing with the
#: rows' (powers of 2 and small odd primes up to 11).
UNRELATED = st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                      st.sampled_from([1, 13, 17, 19 * 23, 29 ** 3]))


class TestBasisSolve:
    """``IncrementalBasis.solve`` replays the kept rows' Bareiss steps on
    a right-hand side; it must agree with a fresh Gauss-Jordan solve."""

    @given(rational_rows(square=True), st.data())
    @settings(max_examples=150, deadline=None)
    def test_vector_agrees_with_reference(self, rows, data):
        rhs = [data.draw(UNRELATED) for _ in rows]
        basis = IncrementalBasis(len(rows))
        for row in rows:
            basis.add(row)
        try:
            expected = reference_solve(rows, rhs)
        except ValueError:
            with pytest.raises(ValueError, match="rank"):
                basis.solve(rhs)
            return
        solution = basis.solve(rhs)
        assert all(type(x) is F for x in solution)
        assert solution == expected

    @given(rational_rows(square=True), st.integers(1, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_block_agrees_with_reference_per_column(self, rows, width,
                                                    data):
        block = [[data.draw(UNRELATED) for _ in range(width)]
                 for _ in rows]
        basis = IncrementalBasis(len(rows))
        for row in rows:
            basis.add(row)
        if reference_rank(rows) < len(rows):
            with pytest.raises(ValueError, match="rank"):
                basis.solve(block)
            return
        solution = basis.solve(block)
        assert len(solution) == len(rows)
        for j in range(width):
            column = [row[j] for row in block]
            assert [row[j] for row in solution] == \
                reference_solve(rows, column)

    def test_short_of_full_rank_raises(self):
        basis = IncrementalBasis(3)
        assert basis.add([1, 2, 3])
        assert basis.add([0, 1, F(1, 7)])
        assert not basis.add([2, 5, F(43, 7)])
        with pytest.raises(ValueError, match="rank 2 of 3"):
            basis.solve([1, 2])

    def test_shape_and_type_errors(self):
        basis = IncrementalBasis(2)
        basis.add([1, 2])
        basis.add([3, 4])
        with pytest.raises(ValueError, match="length"):
            basis.solve([1, 2, 3])
        with pytest.raises(ValueError, match="ragged"):
            basis.solve([[1, 2], [3]])
        with pytest.raises(TypeError):
            basis.solve([0.5, 1])

    def test_solves_in_kept_order_past_rejected_rows(self):
        """The rows a basis rejects get no right-hand side: ``solve``
        takes one entry per kept row, in the order kept."""
        basis = IncrementalBasis(2)
        kept = [row for row in ([0, 3], [0, 6], [F(1, 2), 1])
                if basis.add(row)]
        assert kept == [[0, 3], [F(1, 2), 1]]
        assert basis.solve([3, F(5, 3)]) == reference_solve(kept,
                                                            [3, F(5, 3)])


class TestRowSelection:
    @staticmethod
    def walk(size, cap):
        """Every tuple ``select_rows`` visits, through a row that never
        raises the rank."""
        visited = []
        kept, basis = select_rows(
            lambda params: visited.append(params) or [0], 1, size, cap)
        assert (kept, basis.rank) == ([], 0)
        return visited

    def test_walks_multisets_by_max_then_sum_then_tuple(self):
        assert self.walk(2, 3) == [
            (1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
        for size, cap in ((1, 4), (3, 4), (4, 3)):
            expected = sorted(
                combinations_with_replacement(range(1, cap + 1), size),
                key=lambda t: (max(t), sum(t), t))
            assert self.walk(size, cap) == expected

    @given(st.lists(ENTRIES["fraction"], min_size=1, max_size=4),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_monomial_row_is_the_product_of_powers(self, values, data):
        exponents = data.draw(st.lists(
            st.tuples(*[st.integers(0, 4) for _ in values]), max_size=6))
        expected = []
        for k in exponents:
            entry = F(1)
            for value, e in zip(values, k):
                entry *= F(value) ** e
            expected.append(entry)
        row = monomial_row(values, exponents)
        assert row == expected
        assert all(type(x) is F for x in row)

    def test_select_rows_keeps_the_rank_raising_multisets(self):
        """Rows that depend only on max(params) repeat; the walk keeps
        the first tuple of each new max and stops at full rank."""
        calls = []

        def row(params):
            calls.append(params)
            top = max(params)
            return [F(top) ** k for k in range(3)]

        kept, basis = select_rows(row, 3, 2, 10)
        assert kept == [(1, 1), (1, 2), (1, 3)]
        assert basis.rank == 3
        assert calls == [(1, 1), (1, 2), (2, 2), (1, 3)]
        rows = [row(p) for p in kept]
        rhs = [F(1), F(2, 3), F(-5)]
        assert basis.solve(rhs) == reference_solve(rows, rhs)

    def test_select_rows_reports_a_short_walk(self):
        kept, basis = select_rows(lambda params: [1, sum(params)], 2, 1, 1)
        assert kept == [(1,)]
        assert basis.rank == 1

    def test_select_rows_matches_a_walk_over_all_tuples(self):
        """For a row symmetric in its parameters (here, as in Eq. (66),
        monomials in y_i = prod_j f_i(p_j)), walking every tuple in
        (max, sum, tuple) order keeps the ascending forms of the
        multisets the stream keeps."""
        exponents = [(a, b, 3 - a - b) for a in range(4)
                     for b in range(4 - a)]

        def row(params):
            ys = []
            for a, b in ((1, 1), (2, 1), (1, 3)):
                y = F(1)
                for p in params:
                    y *= a + F(b, p + 1)
                ys.append(y)
            return monomial_row(ys, exponents)

        kept, basis = select_rows(row, len(exponents), 3, 4)
        assert basis.rank == len(exponents)
        reference_basis, reference = IncrementalBasis(len(exponents)), []
        for params in sorted(product(range(1, 5), repeat=3),
                             key=lambda t: (max(t), sum(t), t)):
            if reference_basis.add(row(params)):
                reference.append(params)
        assert reference == kept
