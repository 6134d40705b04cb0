"""Exact dense linear algebra over the rationals.

The Type-I reduction (Section 3.2) solves a linear system whose matrix is
the "big matrix" M; Theorem 3.6 shows M is non-singular, so exact
elimination recovers the signature counts *exactly*.  This module
provides the small amount of linear algebra that the reductions need:
determinant, rank, solving, inversion, and matrix powers.

Every elimination is fraction-free elimination over the integers
(Bareiss, 1968), in one routine, :class:`IncrementalBasis`: a row of
``int``/``Fraction`` entries is scaled once by the lcm of its
denominators, after which every entry is an integer minor of the
scaled input and every step divides exactly, with no gcd until the one
division per result entry.  ``Matrix.determinant``, ``rank``, ``solve``
and ``inverse`` (one elimination of ``[A | I]``) read their answers
off a basis of the matrix's rows, and the reductions' greedy row
selection keeps a basis of the rows it accepts.  Elimination takes
rational entries only (``int`` and ``Fraction``) and raises
``TypeError`` on anything else.

The ring operations (``+``, ``*``, ``**``, ``apply``, ``kronecker``)
stay generic: their entries may be any exact field elements supporting
+, -, *, / and equality with 0, e.g. the
:class:`repro.algebra.quadratic.QuadraticNumber` matrices whose powers
``repro.algebra.eigen2x2`` takes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Sequence


class Matrix:
    """A small immutable exact matrix with fraction-friendly operations."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(entry for entry in row) for row in rows)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        self.rows = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity(n: int, one=Fraction(1), zero=Fraction(0)) -> "Matrix":
        return Matrix([[one if i == j else zero for j in range(n)]
                       for i in range(n)])

    @staticmethod
    def from_function(nrows: int, ncols: int,
                      fn: Callable[[int, int], object]) -> "Matrix":
        return Matrix([[fn(i, j) for j in range(ncols)]
                       for i in range(nrows)])

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __getitem__(self, pos: tuple[int, int]):
        i, j = pos
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]!r})"

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)])

    def scale(self, factor) -> "Matrix":
        return Matrix([[entry * factor for entry in row]
                       for row in self.rows])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose().rows
        return Matrix([[_dot(row, col) for col in cols]
                       for row in self.rows])

    def __pow__(self, n: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("matrix power needs a square matrix")
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        result = Matrix.identity(self.nrows,
                                 one=_one_like(self), zero=_zero_like(self))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def apply(self, vector: Sequence) -> list:
        """Matrix-vector product."""
        if len(vector) != self.ncols:
            raise ValueError("shape mismatch")
        return [_dot(row, vector) for row in self.rows]

    # ------------------------------------------------------------------
    # Elimination-based operations (rational entries only)
    # ------------------------------------------------------------------
    def determinant(self) -> Fraction:
        """Exact determinant: the sign of the pivot columns'
        permutation times the last Bareiss pivot, over the product of
        the row scales (0 if any row is dependent)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant needs a square matrix")
        basis = _eliminate(self.rows, self.ncols)
        if basis.rank < self.nrows:
            return Fraction(0)
        return Fraction(_permutation_sign(basis.pivots) * basis.last_pivot,
                        basis.scale)

    def rank(self) -> int:
        return _eliminate(self.rows, self.ncols).rank

    def is_singular(self) -> bool:
        return self.determinant() == 0

    def solve(self, rhs: Sequence) -> list:
        """Solve ``self @ x = rhs`` exactly (square, non-singular)."""
        if self.nrows != self.ncols:
            raise ValueError("solve needs a square matrix")
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        return [x for (x,) in self._solve_block([[b] for b in rhs], 1)]

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse needs a square matrix")
        n = self.nrows
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        return Matrix(self._solve_block(identity, n))

    def _solve_block(self, right: list[list], width: int
                     ) -> list[list[Fraction]]:
        """X with ``self @ X = right`` for an n x ``width`` block: one
        elimination of ``[self | right]``, then back substitution on
        the integers scaled by the last pivot p (p * X is integral,
        because p = +-det of the scaled system), and one division per
        entry."""
        n = self.nrows
        basis = _eliminate([(*row, *extra)
                            for row, extra in zip(self.rows, right)],
                           n + width)
        if basis.rank < n or any(col >= n for col in basis.pivots):
            raise ValueError("matrix is singular")
        det = basis.last_pivot
        scaled: list = [None] * n  # column -> det * that row of X
        for k in range(n - 1, -1, -1):
            row, col = basis.rows[k], basis.pivots[k]
            acc = [det * value for value in row[n:]]
            for later in basis.pivots[k + 1:]:
                coeff = row[later]
                if coeff:
                    acc = [a - coeff * x for a, x in zip(acc, scaled[later])]
            pivot = row[col]
            scaled[col] = [a // pivot for a in acc]
        return [[Fraction(x, det) for x in values] for values in scaled]

    def kronecker(self, other: "Matrix") -> "Matrix":
        """Kronecker product (used by Lemma 3.7's Vandermonde argument)."""
        rows = []
        for r1 in self.rows:
            for r2 in other.rows:
                rows.append([a * b for a in r1 for b in r2])
        return Matrix(rows)


def _dot(xs, ys):
    total = None
    for x, y in zip(xs, ys):
        term = x * y
        total = term if total is None else total + term
    if total is None:
        raise ValueError("empty dot product")
    return total


def _zero_like(matrix: Matrix):
    sample = matrix.rows[0][0]
    return sample - sample


def _one_like(matrix: Matrix):
    sample = matrix.rows[0][0]
    zero = sample - sample
    if sample != zero:
        return sample / sample
    return Fraction(1)


class IncrementalBasis:
    """Linearly independent rows kept in fraction-free echelon form.

    ``add(row)`` multiplies a row of ``int``/``Fraction`` entries by
    the lcm of its denominators, then reduces it against the kept rows
    b_1..b_k in the order they were kept with the Bareiss (1968) step

        r <- (p_j * r - r[c_j] * b_j) // p_(j-1),    p_0 = 1,

    where c_j is b_j's pivot column (its first nonzero entry) and
    p_j = b_j[c_j].  The row is kept, in its reduced form, if and only
    if a nonzero entry remains, i.e. it is independent of the kept
    rows.  Each reduced entry is a minor of the scaled input (the kept
    rows plus the new one, on the kept pivot columns plus the entry's
    own), so every division is exact, entry sizes grow only linearly
    with the number of kept rows, and p_k is the determinant of the k
    kept rows on their pivot columns.  This one routine backs
    ``Matrix.determinant``/``rank``/``solve``/``inverse`` and the
    reductions' greedy row selection.
    """

    __slots__ = ("width", "rows", "pivots", "scale")

    def __init__(self, width: int):
        self.width = width
        #: The kept rows, reduced, in the order they were kept.
        self.rows: list[list[int]] = []
        #: The pivot column of each kept row.
        self.pivots: list[int] = []
        #: The product of the kept rows' denominator-clearing scales.
        self.scale = 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def last_pivot(self) -> int:
        """p_k for the k kept rows (1 while none is kept)."""
        return self.rows[-1][self.pivots[-1]] if self.rows else 1

    def add(self, row: Sequence) -> bool:
        """Keep ``row`` if it is independent of the kept rows."""
        if len(row) != self.width:
            raise ValueError("row length mismatch")
        for entry in row:
            if not isinstance(entry, (int, Fraction)):
                raise TypeError(
                    f"elimination takes int or Fraction entries, got "
                    f"{type(entry).__name__}")
        scale = lcm(*[entry.denominator for entry in row])
        reduced = [entry.numerator * (scale // entry.denominator)
                   for entry in row]
        previous = 1
        for kept, col in zip(self.rows, self.pivots):
            pivot, factor = kept[col], reduced[col]
            if factor:
                reduced = [(pivot * a - factor * b) // previous
                           for a, b in zip(reduced, kept)]
            elif pivot != previous:
                reduced = [pivot * a // previous for a in reduced]
            previous = pivot
        col = next((i for i, a in enumerate(reduced) if a), None)
        if col is None:
            return False
        self.rows.append(reduced)
        self.pivots.append(col)
        self.scale *= scale
        return True


def _eliminate(rows, width: int) -> IncrementalBasis:
    basis = IncrementalBasis(width)
    for row in rows:
        basis.add(row)
    return basis


def _permutation_sign(permutation: Sequence[int]) -> int:
    inversions = sum(a > b for i, a in enumerate(permutation)
                     for b in permutation[i + 1:])
    return -1 if inversions % 2 else 1
