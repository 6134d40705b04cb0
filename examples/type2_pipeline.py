"""The Type-II machinery of Appendix C, assembled:

1. decompose a Type II-II query into its G/H CNF families and build the
   Moebius lattices (Section C.2);
2. verify Theorem C.19 — the Moebius block-product expansion of Pr(Q) —
   against direct exact evaluation on a zig-zag block database;
3. run the counting half of the reduction (Theorem C.4): recover all
   coloring counts of a CCP instance, hence #PP2CNF, from oracle values
   of the Corollary C.20 form.

Run:  python examples/type2_pipeline.py
"""

from fractions import Fraction

from repro.core.catalog import example_c15, example_c9
from repro.counting.ccp import TOP_COLOR
from repro.counting.pp2cnf import PP2CNF
from repro.reduction.type2 import (
    Type2Reduction,
    conditions_68_70,
    exponential_y_provider,
)
from repro.reduction.type2_blocks import type2_block
from repro.reduction.type2_lattice import TypeIIStructure
from repro.reduction.type2_mobius import (
    mobius_block_probability,
    union_of_blocks,
)
from repro.tid.wmc import probability

F = Fraction


def lattice_section() -> None:
    for name, q in (("Example C.9", example_c9()),
                    ("Example C.15 (forbidden)", example_c15())):
        st = TypeIIStructure(q)
        print(f"{name}: {q}")
        print(f"   G formulas: {st.G}")
        print(f"   H formulas: {st.H}")
        print(f"   |L0(G)| = {st.m_bar}, |L0(H)| = {st.n_bar}")
        print(f"   left Moebius: "
              f"{ {tuple(sorted(k)): v for k, v in st.left_lattice.mobius.items()} }")
        print()


def mobius_section() -> None:
    q = example_c9()
    st = TypeIIStructure(q)
    blocks = {("u", "v"): type2_block(q, p=2)}
    lhs = probability(q, union_of_blocks(blocks))
    rhs = mobius_block_probability(st, blocks)
    print("Theorem C.19 on the p=2 zig-zag block:")
    print(f"   direct Pr(Q)          = {lhs}")
    print(f"   Moebius block product = {rhs}")
    assert lhs == rhs
    print("   exact match.\n")


def reduction_section() -> None:
    left, right = ["a1", "a2"], ["b1", "b2"]
    mu_l = {"a1": -1, "a2": 1}
    mu_r = {"b1": -1, "b2": 2}
    pairs = ([(a, b) for a in left for b in right]
             + [(a, TOP_COLOR) for a in left]
             + [(TOP_COLOR, b) for b in right])
    coeffs = {pair: (F(i + 1), F(1, i + 2))
              for i, pair in enumerate(pairs)}
    l1, l2 = F(1, 2), F(1, 3)
    assert conditions_68_70(coeffs, l1, l2)
    reduction = Type2Reduction(
        left, right, mu_l, mu_r, exponential_y_provider(coeffs, l1, l2))

    phi = PP2CNF(1, 1, ((0, 0),))
    print("Counting half of Theorem C.4 on Phi = (X0 v Y0):")
    counts = reduction.run(phi)
    print(f"   recovered {len(counts)} coloring signatures")
    got = reduction.count_from_colorings(counts, "a1", "a2", "b1", "b2")
    print(f"   #PP2CNF from the reduction: {got}")
    print(f"   #PP2CNF by brute force:     {phi.count_satisfying()}")
    assert got == phi.count_satisfying()


def main() -> None:
    lattice_section()
    mobius_section()
    reduction_section()


if __name__ == "__main__":
    main()
