"""Twisting the standard chiral algebroid by differential forms.

Over Q[x1, x2, x3], with no differential, the standard homotopy chiral
algebroid is an ordinary chiral algebroid: its unary operation is zero
and its bracket is the jet tangent Lie* bracket.  A closed 3-form yields
a cocycle and a new (twisted) algebroid whose bracket still satisfies the
Lie* Jacobi identity; a non-closed form yields a bracket that fails
Jacobi, with an explicit witness.  The chiral module action of jets of
functions is part of the structure and is bitwise unchanged by any twist.
"""

from chiralis.algebra import FormAlgebra, SuperPolyAlgebra
from chiralis.algebroid import (
    chiral_infty_twist,
    form_cochain,
    standard_chiral_infty_algebroid,
)


def main() -> None:
    base = SuperPolyAlgebra([(f"x{i}", 0, 0) for i in range(1, 4)])
    forms = FormAlgebra(base)
    P = standard_chiral_infty_algebroid(base)
    world = P.world

    print("-- twist by the closed volume form dx1^dx2^dx3")
    om = forms.mul(
        forms.d_gen("x1"), forms.d_gen("x2"), forms.d_gen("x3")
    )
    Q, chk = chiral_infty_twist(P, {2: form_cochain(world, om, 2)},
                                check=True)
    print(f"   Jacobi holds: {chk['ok']}, cocycle closed: {chk['closed']}")

    print("-- module action survives the twist unchanged")
    f = world.jets.mul(world.coord("x1"), world.coord("x2", 1))
    v = world.jets.mul(world.coord("x3"), world.tau("x2"))
    same = all(
        P.module_action(f, n, v) == Q.module_action(f, n, v)
        for n in (-2, -1, 0, 1)
    )
    print(f"   identical on all tested modes: {same}")

    print("-- a non-closed form over Q[x1..x4] is not a cocycle, and fails")
    base4 = SuperPolyAlgebra([(f"x{i}", 0, 0) for i in range(1, 5)])
    forms4 = FormAlgebra(base4)
    P4 = standard_chiral_infty_algebroid(base4)
    bad = forms4.mul(
        forms4.inject(base4.gen("x4")),
        forms4.d_gen("x1"), forms4.d_gen("x2"), forms4.d_gen("x3"),
    )
    closed = not forms4.derham_d(bad)
    print(f"   closed: {closed} (the De Rham differential is the witness)")
    _, chk4 = chiral_infty_twist(P4, {2: form_cochain(P4.world, bad, 2)},
                                 check=True)
    w = chk4["failures"][0]
    print(f"   twisted anyway: Jacobi holds: {chk4['ok']}; "
          f"first witness on {len(w['args'])} fields recorded")


if __name__ == "__main__":
    main()
