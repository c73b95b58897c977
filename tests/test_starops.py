"""Tests for the star-operation calculus.

Key fixtures: the vector-field bracket on one generator l with
mu(l, l) = -(Tl) x 1 + 2 l x z_1 (a Lie* algebra), and the Lie* bracket of
the free-field vertex engine.
"""

import itertools
import random
from fractions import Fraction

from chiralis.algebra import SuperPolyAlgebra
from chiralis.exact import compose
from chiralis.fock import BGSystem
from chiralis.starops import (
    lp_mul_var,
    StarModule,
    StarOp,
    jacobi_defect,
    lie_star_check,
    lp_add,
    lp_eliminate,
    lp_is_zero,
    lp_normal,
    lp_scale,
    op_equal_on,
    op_on_free_basis,
    sigma_act,
    va_bracket,
)


def free_module(parities):
    """Module of dicts keyed (name, k) = k-th translate of basis vectors."""

    def parity(e):
        ps = {parities[name] for (name, _k) in e}
        return ps.pop() if len(ps) == 1 else None

    def translate(e):
        return {(name, k + 1): c for (name, k), c in e.items()}

    return StarModule(parity, translate)


def vec_bracket():
    mod = free_module({"l": 0})
    values = {
        ("l", "l"): {
            (): {("l", 1): Fraction(-1)},
            ((1, 1),): {("l", 0): Fraction(2)},
        }
    }
    return mod, op_on_free_basis(2, mod, values)


def test_vec_antisymmetry():
    mod, mu = vec_bracket()
    flip = sigma_act((2, 1), mu)
    l = {("l", 0): Fraction(1)}
    dl = {("l", 1): Fraction(1)}
    for a, b in itertools.product([l, dl], repeat=2):
        assert lp_is_zero(lp_add(mu(a, b), flip(a, b)))


def test_vec_jacobi():
    mod, mu = vec_bracket()
    basis = [{("l", k): Fraction(1)} for k in range(2)]
    rep = lie_star_check(mu, basis)
    assert rep["ok"], rep["failures"][:1]


def test_translation_covariance_of_free_op():
    mod, mu = vec_bracket()
    l = {("l", 0): Fraction(1)}
    # slot 1: mu(Tl, b) = z_1 mu(l, b)
    got = mu(mod.translate(l), l)
    expect = {
        ((1, 1),): {("l", 1): Fraction(-1)},
        ((1, 2),): {("l", 0): Fraction(2)},
    }
    assert lp_normal(got) == expect


def test_sigma_act_identity_and_composition_law():
    rng = random.Random(41)
    mod = free_module({"a": 0, "b": 1, "c": 0})
    names = ["a", "b", "c"]

    def rand_val():
        out = {}
        for _ in range(3):
            mono = tuple(
                sorted(
                    (s, rng.randint(1, 2))
                    for s in rng.sample([1, 2], rng.randint(0, 2))
                )
            )
            c = Fraction(rng.randint(-3, 3))
            if c:
                out[mono] = {(rng.choice(names), rng.randint(0, 1)): c}
        return out

    values = {
        trip: rand_val() for trip in itertools.product(names, repeat=3)
    }
    phi = op_on_free_basis(3, mod, values)
    args_pool = [{(n, k): Fraction(1)} for n in names for k in range(2)]
    tuples = [
        tuple(rng.choice(args_pool) for _ in range(3)) for _ in range(6)
    ]

    ident = sigma_act((1, 2, 3), phi)
    assert op_equal_on(phi, ident, tuples)

    perms = list(itertools.permutations((1, 2, 3)))
    for _ in range(8):
        s, t = rng.choice(perms), rng.choice(perms)
        lhs = sigma_act(s, sigma_act(t, phi))
        rhs = sigma_act(compose(s, t), phi)
        assert op_equal_on(lhs, rhs, tuples), (s, t)


def test_va_bracket_antisymmetry_and_jacobi():
    base = SuperPolyAlgebra([("x", 0, 0), ("xi", 1, -1)])
    sys = BGSystem(base)
    mu = va_bracket(sys)
    basis = [
        sys.coord("x", 0),
        sys.coord("x", -1),
        sys.coord("xi", 0),
        sys.mom("x", -1),
        sys.mom("xi", -1),
        sys.mul(sys.coord("x", 0), sys.mom("x", -1)),
        sys.mul(sys.coord("x", 0), sys.mom("xi", -1)),
    ]
    rep = lie_star_check(mu, basis)
    assert rep["ok"], rep["failures"][:1]


def test_va_bracket_translation_compatibility():
    base = SuperPolyAlgebra([("x", 0, 0)])
    sys = BGSystem(base)
    mu = va_bracket(sys)
    a = sys.mul(sys.coord("x", 0), sys.mom("x", -1))
    b = sys.mom("x", -1)
    pa = mu.module.translate(a)
    lhs = mu(pa, b)
    rhs = lp_mul_var(mu(a, b), 1)
    assert lp_normal(lhs) == lp_normal(rhs)


def test_abelian_bracket_passes():
    mod = free_module({"l": 0})
    mu = op_on_free_basis(2, mod, {})
    basis = [{("l", k): Fraction(1)} for k in range(2)]
    assert lie_star_check(mu, basis)["ok"]


def test_jacobi_defect_catches_bad_bracket():
    # mu(l,l) = l x 1 is translation-covariant-extended but fails
    # antisymmetry/jacobi as a Lie* structure
    mod = free_module({"l": 0})
    values = {("l", "l"): {(): {("l", 0): Fraction(1)}}}
    mu = op_on_free_basis(2, mod, values)
    basis = [{("l", 0): Fraction(1)}]
    rep = lie_star_check(mu, basis)
    assert not rep["ok"]
