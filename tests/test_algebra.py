"""Tests for super DG algebras, jets, and the De Rham/total complexes."""

import random
from fractions import Fraction

import pytest

from chiralis.algebra import FormAlgebra, JetAlgebra, SuperPolyAlgebra
from chiralis.ring import padd, poly_one, pscale


def kx_xi(m=2):
    """Q[x, xi] with x even of degree 0, xi odd of degree -1, D(xi) = x^m."""
    return SuperPolyAlgebra(
        [("x", 0, 0), ("xi", 1, -1)],
        D={"xi": {(("x", m),): Fraction(1)}},
    )


def poly_ring(n):
    return SuperPolyAlgebra([(f"x{i}", 0, 0) for i in range(1, n + 1)])


def random_form(F, gens, rng, max_terms=4):
    keys = [("g", g) for g in gens] + [("d", g) for g in gens]
    p = {}
    for _ in range(rng.randint(1, max_terms)):
        term = poly_one()
        for _ in range(rng.randint(0, 4)):
            kind, g = rng.choice(keys)
            term = F.mul(
                term, F.gen(g) if kind == "g" else F.d_gen(g)
            )
        p = padd(p, pscale(term, rng.randint(-3, 3)))
    return p


def test_construction_rejects_bad_differential():
    with pytest.raises(ValueError):
        # D(x) = x has degree 0, not +1
        SuperPolyAlgebra([("x", 0, 0)], D={"x": {(("x", 1),): Fraction(1)}})
    with pytest.raises(ValueError):
        # D^2(a) = D(b) = a != 0
        SuperPolyAlgebra(
            [("a", 0, 0), ("b", 1, -1), ("c", 0, -2)],
            D={
                "b": {(("a", 1),): Fraction(1)},
                "c": {(("b", 1),): Fraction(1)},
            },
        )


def test_D_is_odd_derivation_squaring_to_zero():
    A = kx_xi(2)
    x, xi = A.gen("x"), A.gen("xi")
    assert A.D(xi) == {(("x", 2),): Fraction(1)}
    assert A.D(A.mul(x, xi)) == {(("x", 3),): Fraction(1)}
    assert A.D(A.D(A.mul(x, x, xi))) == {}


def test_jet_translate_defining_rule_and_leibniz():
    J = JetAlgebra(poly_ring(1))
    x0 = J.gen(("x1", 0))
    assert J.translate(x0) == J.gen(("x1", 1))
    # translate(x^(0) * x^(0)) = 2 x^(0) x^(1)
    assert J.translate(J.mul(x0, x0)) == pscale(
        J.mul(x0, J.gen(("x1", 1))), 2
    )


def test_jet_weight_grading():
    J = JetAlgebra(poly_ring(2))
    p = J.mul(J.gen(("x1", 1)), J.gen(("x2", 2)))
    assert J.poly_weight(p) == 3
    assert J.poly_weight(J.translate(p)) == 4


def test_jet_D_commutes_with_translate():
    # D(xi^(1)) = translate of x^m: m * x^(m-1) x^(1)
    J = JetAlgebra(kx_xi(3))
    xi1 = J.gen(("xi", 1))
    x0, x1 = J.gen(("x", 0)), J.gen(("x", 1))
    assert J.D(xi1) == pscale(J.mul(x0, x0, x1), 3)
    rng = random.Random(5)
    for _ in range(20):
        p = J.mul(
            J.gen(("x", rng.randint(0, 2))),
            J.gen(("xi", rng.randint(0, 2))),
        )
        assert J.D(J.translate(p)) == J.translate(J.D(p))
        assert J.D(J.D(p)) == {}


def test_derham_d_examples():
    A = poly_ring(2)
    F = FormAlgebra(A)
    x1, x2 = F.gen("x1"), F.gen("x2")
    dx1, dx2 = F.d_gen("x1"), F.d_gen("x2")
    assert F.derham_d(F.mul(x1, dx2)) == F.mul(dx1, dx2)
    assert F.derham_d(F.mul(x1, x2)) == padd(
        F.mul(x2, dx1), F.mul(x1, dx2)
    )
    # dx odd: dx1 ^ dx1 = 0
    assert F.mul(dx1, dx1) == {}


def test_d_xi_differential_is_even():
    # xi odd => d(xi) even => (d xi)^2 != 0
    F = FormAlgebra(kx_xi(2))
    dxi = F.d_gen("xi")
    assert F.mul(dxi, dxi) != {}


def test_lie_D_on_exact_generator():
    # Lie_D(d xi) = d(x^2) = 2x dx
    F = FormAlgebra(kx_xi(2))
    assert F.lie_D(F.d_gen("xi")) == pscale(
        F.mul(F.gen("x"), F.d_gen("x")), 2
    )
    # the companion rule on 0-forms carries the forced opposite sign
    assert F.lie_D(F.gen("xi")) == pscale(F.mul(F.gen("x"), F.gen("x")), -1)
    # constant-coefficient forms over a D = 0 algebra are annihilated
    F0 = FormAlgebra(poly_ring(2))
    assert F0.lie_D(F0.mul(F0.d_gen("x1"), F0.d_gen("x2"))) == {}


def test_differential_identities_random_suite():
    F = FormAlgebra(kx_xi(2))
    rng = random.Random(29)
    for _ in range(100):
        w = random_form(F, ["x", "xi"], rng)
        assert F.derham_d(F.derham_d(w)) == {}
        assert F.lie_D(F.lie_D(w)) == {}
        assert padd(
            F.derham_d(F.lie_D(w)), F.lie_D(F.derham_d(w))
        ) == {}
        assert F.total_d(F.total_d(w)) == {}


def test_total_d_reduces_to_derham_when_D_zero():
    F = FormAlgebra(poly_ring(3))
    rng = random.Random(31)
    for _ in range(30):
        w = random_form(F, ["x1", "x2", "x3"], rng)
        assert F.total_d(w) == F.derham_d(w)


def test_is_closed_examples():
    F = FormAlgebra(poly_ring(3))
    top = F.mul(F.d_gen("x1"), F.d_gen("x2"), F.d_gen("x3"))
    assert F.is_closed(top)

    F4 = FormAlgebra(poly_ring(4))
    w = F4.mul(
        F4.gen("x4"), F4.d_gen("x1"), F4.d_gen("x2"), F4.d_gen("x3")
    )
    assert not F4.is_closed(w)  # d picks up the dx4 wedge block
    assert not F4.is_closed(F4.gen("x1"))  # 0-form with df != 0


def test_split_by_form_degree():
    F = FormAlgebra(poly_ring(2))
    w = padd(F.gen("x1"), F.mul(F.d_gen("x1"), F.d_gen("x2")))
    parts = F.split(w)
    assert set(parts) == {0, 2}
    assert parts[0] == F.gen("x1")


def test_jet_forms():
    # forms over a jet algebra: d and translate-compatible Lie_D still work
    J = JetAlgebra(kx_xi(2))
    F = FormAlgebra(J)
    w = F.mul(F.gen(("x", 1)), F.d_gen(("xi", 0)))
    assert F.derham_d(F.derham_d(w)) == {}
    assert F.total_d(F.total_d(w)) == {}
