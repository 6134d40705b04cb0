"""Exact linear algebra tests for repro.algebra.matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.matrices import IncrementalBasis, Matrix
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
