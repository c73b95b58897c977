"""The homotopy chiral algebroid torsor over a supersymmetric base.

Over Q[x, xi] with D(xi) = x^2 the standard structure has a unary
operation (the zero mode of the canonical odd current — NOT the naive
jet prolongation of D: normal ordering adds an exact quantum
correction), a binary Lie* bracket, and nothing higher.  Twists are
families {alpha_n} of cochains closed for the combined
Chevalley-plus-commutator differential; the generalized Jacobi defect of
a twisted structure equals, exactly, the evaluated differential of the
family — so closed families and consistent structures are literally the
same thing, and the set of structures is a torsor over closed families.

Morphisms are families one degree lower: id + beta is an isomorphism
from the structure twisted by the differential of beta back to the
original, and its residual against the untwisted structure is again
exactly the evaluated differential.
"""

from fractions import Fraction

from chiralis import ring
from chiralis.algebra import SuperPolyAlgebra
from chiralis.algebroid import (
    chiral_infty_morphism,
    chiral_infty_twist,
    fs_closed_family,
    jet_differential,
    lc_d,
    standard_chiral_infty_algebroid,
)
from chiralis.chevalley import ChevalleyCochain


def main() -> None:
    base = SuperPolyAlgebra(
        [("x", 0, 0), ("xi", 1, -1)],
        D={"xi": {(("x", 2),): Fraction(1)}},
    )
    P = standard_chiral_infty_algebroid(base)
    world = P.world

    print("-- the unary operation carries a quantum correction")
    l1 = jet_differential(world)
    v = world.jets.mul(world.coord("xi"), world.tau("x"))
    got = l1(v).get((), {})
    naive = world.jets.D(v)
    diff = ring.psub(got, naive)
    print(f"   zero mode minus jet prolongation on xi*tau_x: "
          f"{world.jets.str(diff)}")

    print("-- a closed family twists the structure consistently")
    a2, a3 = fs_closed_family(world)
    print(f"   family closed: {not lc_d(world, {2: a2, 3: a3})}")
    _, rep = chiral_infty_twist(P, {2: a2, 3: a3}, check=True)
    print(f"   twisted Jacobi: {rep['ok']}  (verdicts match: {rep['match']})")

    print("-- dropping the ternary component breaks both, coherently")
    _, bad = chiral_infty_twist(P, {2: a2}, check=True)
    print(f"   Jacobi: {bad['ok']}, closed: {bad['closed']}, "
          f"match: {bad['match']}, witnesses: {len(bad['failures'])}")

    print("-- a morphism family and its residual identity")
    b1 = ChevalleyCochain(
        world, 1,
        {("x",): {(): world.jets.mul(world.coord("x"),
                                     world.coord("x"))}},
        0,
    )
    mrep = chiral_infty_morphism(P, {1: b1})
    print(f"   morphism equation holds against the d(beta)-twist: "
          f"{mrep['ok']}")
    print(f"   residual against the untwisted structure equals d(beta): "
          f"{mrep['residual_matches_differential']}")


if __name__ == "__main__":
    main()
