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
division per result entry.  ``Matrix.determinant``, ``rank``,
``solve`` and ``inverse`` read their answers off a basis of the
matrix's rows, and both reductions' :func:`select_rows` keeps a basis
of the rows it accepts, whose ``solve`` replays the recorded steps on
the oracle answers: each system is eliminated once.  Elimination takes
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
from itertools import combinations_with_replacement
from math import lcm, prod
from operator import getitem
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
                        prod(basis.scales))

    def rank(self) -> int:
        return _eliminate(self.rows, self.ncols).rank

    def is_singular(self) -> bool:
        return self.determinant() == 0

    def solve(self, rhs: Sequence) -> list:
        """Solve ``self @ x = rhs`` exactly (square, non-singular)."""
        if self.nrows != self.ncols:
            raise ValueError("solve needs a square matrix")
        return _eliminate(self.rows, self.ncols).solve(rhs)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse needs a square matrix")
        identity = Matrix.identity(self.nrows, 1, 0).rows
        return Matrix(_eliminate(self.rows, self.ncols).solve(identity))

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


def common_denominator(values: Sequence) -> tuple[list[int], int]:
    """``(numerators, d)`` with ``values[i] == numerators[i] / d`` for
    the lcm d of the denominators of ``int``/``Fraction`` values;
    ``TypeError`` on any other value."""
    for value in values:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(
                f"elimination takes int or Fraction entries, got "
                f"{type(value).__name__}")
    d = lcm(*[value.denominator for value in values])
    return [value.numerator * (d // value.denominator)
            for value in values], d


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
    kept rows on their pivot columns.  Each kept row's scale and
    multipliers r[c_j] are recorded for :meth:`solve`.  This one routine
    backs ``Matrix.determinant``/``rank``/``solve``/``inverse`` and
    :func:`select_rows`.
    """

    __slots__ = ("width", "rows", "pivots", "scales", "steps")

    def __init__(self, width: int):
        self.width = width
        #: The kept rows, reduced, in the order they were kept.
        self.rows: list[list[int]] = []
        #: The pivot column of each kept row.
        self.pivots: list[int] = []
        #: The denominator-clearing scale of each kept row.
        self.scales: list[int] = []
        #: Per kept row, the multiplier r[c_j] of each step j before it.
        self.steps: list[list[int]] = []

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
        reduced, scale = common_denominator(row)
        factors = []
        previous = 1
        for kept, col in zip(self.rows, self.pivots):
            pivot, factor = kept[col], reduced[col]
            reduced = _step(reduced, kept, pivot, factor, previous)
            factors.append(factor)
            previous = pivot
        col = next((i for i, a in enumerate(reduced) if a), None)
        if col is None:
            return False
        self.rows.append(reduced)
        self.pivots.append(col)
        self.scales.append(scale)
        self.steps.append(factors)
        return True

    def solve(self, right: Sequence) -> list:
        """X with ``A @ X == right`` for the kept rows A (in the order
        kept) of a full-rank basis; ``right`` is a vector or a block
        (one list per row), and X has its shape.  ``right`` goes over its
        common denominator D (a column scale, so the replayed steps of
        ``[A | D * right]`` divide exactly), back substitution runs on
        the integers p * D * X (p = +-det of the scaled A, the last
        pivot), and each entry of X is one division."""
        if self.rank < self.width:
            raise ValueError(f"matrix is singular: the basis has rank "
                             f"{self.rank} of {self.width}")
        if len(right) != self.rank:
            raise ValueError("rhs length mismatch")
        vector = not (right and isinstance(right[0], (list, tuple)))
        block = [[entry] for entry in right] if vector else right
        columns = len(block[0]) if block else 0
        if any(len(row) != columns for row in block):
            raise ValueError("ragged rhs")
        flat, common = common_denominator(
            [entry for row in block for entry in row])
        pivots = [row[col] for row, col in zip(self.rows, self.pivots)]
        replayed: list[list[int]] = []
        for i, (scale, factors) in enumerate(zip(self.scales, self.steps)):
            reduced = [scale * a
                       for a in flat[i * columns:(i + 1) * columns]]
            previous = 1
            for factor, pivot, kept in zip(factors, pivots, replayed):
                reduced = _step(reduced, kept, pivot, factor, previous)
                previous = pivot
            replayed.append(reduced)
        det = self.last_pivot
        scaled: list = [None] * self.width  # column -> p * D * its row of X
        for k in range(self.rank - 1, -1, -1):
            row, col = self.rows[k], self.pivots[k]
            acc = [det * a for a in replayed[k]]
            for later in self.pivots[k + 1:]:
                coeff = row[later]
                if coeff:
                    acc = [a - coeff * x for a, x in zip(acc, scaled[later])]
            scaled[col] = [a // pivots[k] for a in acc]
        denominator = det * common
        solution = [[Fraction(x, denominator) for x in values]
                    for values in scaled]
        return [x for (x,) in solution] if vector else solution


def _step(reduced, kept, pivot, factor, previous):
    """The Bareiss step r <- (p_j * r - factor * b_j) // p_(j-1)."""
    if factor:
        return [(pivot * a - factor * b) // previous
                for a, b in zip(reduced, kept)]
    if pivot != previous:
        return [pivot * a // previous for a in reduced]
    return reduced


def _eliminate(rows, width: int) -> IncrementalBasis:
    basis = IncrementalBasis(width)
    for row in rows:
        basis.add(row)
    return basis


def _permutation_sign(permutation: Sequence[int]) -> int:
    inversions = sum(a > b for i, a in enumerate(permutation)
                     for b in permutation[i + 1:])
    return -1 if inversions % 2 else 1


def select_rows(row: Callable[[tuple[int, ...]], Sequence], width: int,
                size: int, cap: int
                ) -> tuple[list[tuple[int, ...]], IncrementalBasis]:
    """Greedy full-rank row selection: walk the multisets of ``size``
    >= 1 parameters from 1..``cap`` once, as ascending tuples in (max,
    sum, tuple) order, and keep each tuple whose ``row(params)`` raises
    the rank of a ``width``-column basis, up to full rank.  Returns the
    kept tuples and the basis (short of full rank if the walk ran out),
    whose ``solve`` takes one entry per kept tuple.  For rows symmetric
    in their parameters, walking all tuples would keep the same ones: a
    permutation repeats a row, and a rejected row stays dependent."""
    basis = IncrementalBasis(width)
    kept: list[tuple[int, ...]] = []
    for top in range(1, cap + 1):
        heads = combinations_with_replacement(range(1, top + 1), size - 1)
        for params in sorted(((*head, top) for head in heads),
                             key=lambda t: (sum(t), t)):
            if basis.rank == width:
                return kept, basis
            if basis.add(row(params)):
                kept.append(params)
    return kept, basis


def monomial_row(values: Sequence, exponents: Sequence[Sequence[int]]
                 ) -> list[Fraction]:
    """``[prod_i values[i] ** k[i] for k in exponents]``, exactly: the
    values go over their common denominator d, so each entry is one
    integer product of powers over d ** sum(k)."""
    numerators, d = common_denominator(values)
    top = max(map(sum, exponents), default=0)
    powers = [[n ** e for e in range(top + 1)] for n in numerators]
    scales = [d ** e for e in range(top + 1)]
    return [Fraction(prod(map(getitem, powers, k)), scales[sum(k)])
            for k in exponents]
