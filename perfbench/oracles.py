"""Expected outputs, computed outside every timed region and outside
``setup_s`` by code that shares nothing with the path under test
beyond grounding the lineage.

* Exact probabilities come from ``shannon_probability``, the recursive
  weighted model counter that predates the circuit compiler.
* An endpoint sweep varies only the marginals r of R(u) and t of T(v).
  Pr is multilinear in independent tuple marginals, so

      Pr(r, t) = (1-r)(1-t) P00 + r(1-t) P10 + (1-r)t P01 + rt P11,

  with Pab the probability when R(u) is pinned to a and T(v) to b.
  Four Shannon runs per lineage therefore give the exact value at
  every grid point.
"""

from __future__ import annotations

import importlib

from fractions import Fraction

#: Float lane results must match the exact value to this relative error.
FLOAT_REL_TOL = 1e-9


def shannon_probability():
    """The Shannon-expansion oracle.  It lives in ``repro.tid.wmc``;
    the roadmap moves it next to the brute-force oracle in
    ``repro.tid.brute``, so both homes are tried."""
    for name in ("repro.tid.wmc", "repro.tid.brute"):
        module = importlib.import_module(name)
        oracle = getattr(module, "shannon_probability", None)
        if oracle is not None:
            return oracle
    raise ImportError("shannon_probability not found in repro.tid")


def exact_probability(formula, tid) -> Fraction:
    """Pr(formula) with every tuple at its marginal in ``tid``."""
    weights = {var: tid.probability(var) for var in formula.variables()}
    return shannon_probability()(formula, weights)


class EndpointOracle:
    """Exact Pr(F) for any endpoint marginals (r, t) of one lineage."""

    def __init__(self, formula, tid):
        from repro.tid.database import r_tuple, t_tuple

        self.r_u, self.t_v = r_tuple("u"), t_tuple("v")
        base = {var: tid.probability(var) for var in formula.variables()}
        shannon = shannon_probability()
        self.corners = {}
        for a in (0, 1):
            for b in (0, 1):
                weights = dict(base)
                weights[self.r_u] = Fraction(a)
                weights[self.t_v] = Fraction(b)
                self.corners[a, b] = shannon(formula, weights)

    def at(self, r: Fraction, t: Fraction) -> Fraction:
        c = self.corners
        return ((1 - r) * (1 - t) * c[0, 0] + r * (1 - t) * c[1, 0]
                + (1 - r) * t * c[0, 1] + r * t * c[1, 1])

    def grid(self, k: int) -> list[Fraction]:
        """Exact values on the k-point endpoint grid: point i pins R(u)
        to (i+1)/(k+2) and T(v) to (k+1-i)/(k+2)."""
        return [self.at(Fraction(i + 1, k + 2), Fraction(k + 1 - i, k + 2))
                for i in range(k)]


def floats_match(values, exact) -> bool:
    """Float lanes within ``FLOAT_REL_TOL`` relative of the exact values."""
    return len(values) == len(exact) and all(
        abs(value - float(truth)) <= FLOAT_REL_TOL * abs(float(truth))
        for value, truth in zip(values, exact))
