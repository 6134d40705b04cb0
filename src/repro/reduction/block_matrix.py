"""The block matrix A(p) and its spectral form (Section 3.3).

z_ab(p) is the probability of the conditioned link lineage Y^(p)_ab when
every random tuple has probability 1/2 (Eq. 20).  Lemma 3.19 proves

    A(p) = [[z00(p), z01(p)], [z10(p), z11(p)]] = A(1)^p / 2^{p-1},

which lets the reduction evaluate z_ab(p) by exact matrix powers instead
of exponential WMC; ``z_matrix_direct`` (WMC) and ``z_matrix_power``
must agree — that equality is experiment E5.

Theorem 3.14 then gives z_i(p) = a_i lambda1^p + b_i lambda2^p with the
three conditions (22)-(24), verified exactly in Q(sqrt(disc)) by
``block_spectral_data`` and the checkers from ``repro.algebra.eigen2x2``.
"""

from __future__ import annotations

from fractions import Fraction

from repro.algebra.eigen2x2 import (
    SpectralDecomposition,
    check_condition_22,
    check_condition_23,
    check_condition_24,
    spectral_decomposition_2x2,
)
from repro.algebra.matrices import Matrix
from repro.booleans.adaptive import resolve_sweep_method
from repro.booleans.approximate import DEFAULT_DELTA, DEFAULT_EPSILON
from repro.core.queries import Query
from repro.reduction.blocks import path_block
from repro.tid.database import r_tuple
from repro.tid.lineage import lineage
from repro.tid.wmc import DEFAULT_BUDGET_NODES, probability_batch_auto

HALF = Fraction(1, 2)


def z_matrix_direct(query: Query, p: int, *,
                    method: str = "exact",
                    numeric: str = "exact",
                    budget_nodes: int | None = DEFAULT_BUDGET_NODES,
                    epsilon=DEFAULT_EPSILON, delta=DEFAULT_DELTA,
                    rng=None, estimator: str = "hoeffding",
                    relative_error=None, planner=None) -> Matrix:
    """A(p) computed honestly: ground B_p(u, v), compile the lineage
    once, and sweep the endpoint conditioning grid over the circuit.

    Conditioning a monotone lineage on an endpoint tuple equals pinning
    that tuple's marginal to 0/1, so all four entries are linear passes
    over one compiled circuit with the endpoint weights overridden —
    the probabilities are bit-identical to conditioning structurally
    and re-running WMC per entry.

    ``method="auto"`` runs the sweep under the compilation budget and
    degrades each entry to an (epsilon, delta) estimate when the
    lineage blows up (``budget_nodes``/``epsilon``/``delta``/``rng``/
    ``estimator``/``relative_error``/``planner`` as in
    ``repro.tid.wmc.probability_batch_auto``); ``method="adaptive"``
    is ``auto`` with the sequential empirical-Bernstein sampler as the
    degraded engine.  The default is the unconditionally exact path.

    ``numeric="float"`` answers the grid in hardware floats on the
    flat instruction tape (``repro.booleans.tape``) — the fast engine
    for screening large p; downstream algebra (spectral checks, matrix
    powers) requires the exact rationals, so keep the default there.
    """
    tid = path_block(query, p)
    formula = lineage(query, tid)
    r_u, r_v = r_tuple("u"), r_tuple("v")
    base = tid.probability
    grid = [
        (lambda t, pinned={r_u: Fraction(a), r_v: Fraction(b)}:
            pinned.get(t, base(t)))
        for a in (0, 1) for b in (0, 1)]
    budget_nodes, estimator, planner = resolve_sweep_method(
        method, estimator, budget_nodes, planner)
    z00, z01, z10, z11 = probability_batch_auto(
        formula, grid, budget_nodes=budget_nodes, epsilon=epsilon,
        delta=delta, rng=rng, estimator=estimator,
        relative_error=relative_error, numeric=numeric,
        planner=planner).values
    return Matrix([[z00, z01], [z10, z11]])


def z_matrix_power(query: Query, p: int,
                   base: Matrix | None = None) -> Matrix:
    """A(p) = A(1)^p / 2^{p-1} (Lemma 3.19)."""
    if base is None:
        base = z_matrix_direct(query, 1)
    return (base ** p).scale(Fraction(1, 2 ** (p - 1)))


def z_value(query: Query, p: int, a: int, b: int,
            base: Matrix | None = None) -> Fraction:
    """z_ab(p) via the matrix-power fast path."""
    return z_matrix_power(query, p, base)[a, b]


def block_spectral_data(query: Query) -> SpectralDecomposition:
    """Exact eigen-data of A(1); z_i(p) = (a_i lambda1^p + b_i lambda2^p)
    up to the 2^{p-1} normalization (Theorem 3.14)."""
    return spectral_decomposition_2x2(z_matrix_direct(query, 1))


def theorem_314_conditions(query: Query) -> dict[str, bool]:
    """The three conditions of Theorem 3.14 for a final Type-I query.

    Note the coefficients of z_i(p) = a_i lambda1^p + b_i lambda2^p use
    the *normalized* link matrix A(1)/2 whose powers give z(p)/2^... —
    conditions (22)-(24) are invariant under that scaling, so we verify
    them on A(1) directly.
    """
    dec = block_spectral_data(query)
    return {
        "eq22_eigenvalues": check_condition_22(dec),
        "eq23_b_nonzero": check_condition_23(dec),
        "eq24_cross_products": check_condition_24(dec),
    }
