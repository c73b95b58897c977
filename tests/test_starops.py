"""Tests for the star-operation calculus.

Key fixtures: the vector-field bracket on one generator l with
mu(l, l) = -(Tl) x 1 + 2 l x z_1 (a Lie* algebra), and the Lie* bracket of
the free-field vertex engine.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chiralis.algebra import SuperPolyAlgebra
from chiralis.fock import BGSystem
from chiralis.starops import (
    LieStarDefects,
    lp_mul_var,
    StarModule,
    StarOp,
    identity_plus,
    jacobi_defect,
    lie_star_check,
    lp_acc,
    lp_add,
    lp_eliminate,
    lp_mul_mono,
    lp_scale,
    plus_op,
    sigma_act,
    unshuffle_sum,
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


def op_on_free_basis(arity, module, values):
    """A star operation on ``free_module`` elements, given by its values on
    tuples of basis names and extended by linearity and translation
    covariance: a translate in slot i < n multiplies by z_i, a translate in
    the last slot applies (T - z_1 - ... - z_{n-1})."""

    def fn(*args):
        out = {}
        for items in itertools.product(*(a.items() for a in args)):
            val = values.get(tuple(name for (name, _k), _c in items))
            if val:
                mono = tuple((i, k) for i, ((_n, k), _c)
                             in enumerate(items[:-1], 1) if k)
                term = lp_eliminate(
                    lp_mul_var(val, arity, items[-1][0][1]), arity, module,
                    range(1, arity))
                lp_acc(out, lp_mul_mono(term, mono),
                       math.prod(c for _key, c in items))
        return out

    return StarOp(arity, module, fn, 0)


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
        assert not lp_add(mu(a, b), flip(a, b))


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
    assert got == expect


def test_plus_op_is_the_sum_with_the_parity_of_its_base():
    mod, mu = vec_bracket()
    # an odd extra operation, with values that cancel part of mu
    extra = StarOp(2, mod, op_on_free_basis(2, mod, {("l", "l"): {
        ((1, 1),): {("l", 0): Fraction(-2)},
        ((1, 2),): {("l", 1): Fraction(3)},
    }}).fn, 1)
    assert plus_op(None, extra) is extra
    total = plus_op(mu, extra)
    assert total.parity == mu.parity == 0
    assert (total.arity, total.module) == (2, mod)
    pool = [{("l", k): Fraction(1)} for k in range(3)]
    for a, b in itertools.product(pool, repeat=2):
        want = lp_add(mu(a, b), extra(a, b))
        assert total(a, b) == want
    l = pool[0]
    # the z_1 terms cancel: 2 l z_1 - 2 l z_1
    assert total(l, l) == {(): {("l", 1): Fraction(-1)},
                           ((1, 2),): {("l", 1): Fraction(3)}}


def test_identity_plus_adds_the_identity_at_arity_one():
    mod, mu = vec_bracket()
    shift = StarOp(1, mod, lambda e: {(): mod.translate(e)}, 0)
    l = {("l", 0): Fraction(1)}
    fs = identity_plus(mod, {1: shift, 2: mu})
    assert fs[2] is mu
    assert fs[1](l) == {(): {("l", 0): Fraction(1), ("l", 1): Fraction(1)}}
    bare = identity_plus(mod, {2: mu})
    assert sorted(bare) == [1, 2] and bare[1](l) == {(): l}


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

    def equal_on_tuples(f, g):
        return all(f(*args) == g(*args) for args in tuples)

    assert equal_on_tuples(phi, sigma_act((1, 2, 3), phi))

    perms = list(itertools.permutations((1, 2, 3)))
    for _ in range(8):
        s, t = rng.choice(perms), rng.choice(perms)
        lhs = sigma_act(s, sigma_act(t, phi))
        # the composite permutation (s . t)(k) = s(t(k))
        rhs = sigma_act(tuple(s[k - 1] for k in t), phi)
        assert equal_on_tuples(lhs, rhs), (s, t)


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
    assert lhs == rhs


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


def test_unshuffle_sum_reads_parities_only_for_present_terms():
    # an argument of mixed parity is an error whenever a term is
    # evaluated, and no error where the family has no (i, j) pair
    mod = free_module({"l": 0, "m": 1})
    values = {("l", "l"): {(): {("l", 0): Fraction(1)}}}
    mu = op_on_free_basis(2, mod, values)
    l0 = {("l", 0): Fraction(1)}
    mixed = {("l", 0): Fraction(1), ("m", 0): Fraction(1)}
    for args in ([mixed, l0, l0], [l0, l0, mixed]):
        with pytest.raises(ValueError):
            jacobi_defect({2: mu}, 3, args, mod)
    # on homogeneous arguments the (2, 2) term is evaluated (this bracket
    # fails Jacobi)
    assert jacobi_defect({2: mu}, 3, [l0, l0, l0], mod)
    # arity 2 needs an arity-1 member, so {2: mu} has no pair there
    assert jacobi_defect({2: mu}, 2, [mixed, l0], mod) == {}
    assert unshuffle_sum({}, {}, 3, [mixed, mixed, l0], mod) == {}


def test_shared_defects_evaluate_each_identity_once():
    # overlapping windows of a failing bracket give the reports of
    # unshared runs, while each distinct pair and triple is evaluated once
    mod = free_module({"l": 0})
    values = {("l", "l"): {(): {("l", 0): Fraction(1)}}}
    mu = op_on_free_basis(2, mod, values)
    l0, l1 = ({("l", k): Fraction(1)} for k in range(2))
    defects = LieStarDefects(mu)
    for window in ([l0, l1], [l1, l0], [l0]):
        rep = lie_star_check(mu, window, defects)
        assert rep == lie_star_check(mu, window) and not rep["ok"]
    assert len(defects._seen) == 2 ** 2 + 2 ** 3


def _random_lp(rng, scalar):
    """A lambda polynomial on a few monomials and letters, so that sums
    of two of them overlap, cancel and drop elements."""
    monos = [(), ((1, 1),), ((1, 2),), ((1, 1), (2, 1))]
    out = {}
    for m in rng.sample(monos, rng.randrange(1, len(monos) + 1)):
        e = {}
        for g in rng.sample("abc", rng.randrange(1, 4)):
            c = rng.choice((-2, -1, 1, 2))
            e[((g, 1),)] = scalar(c) if rng.randrange(2) else c
        out[m] = e
    return out


def _typed(p):
    return [(m, [(k, v, type(v)) for k, v in e.items()])
            for m, e in p.items()]


def test_lp_acc_matches_lp_add_of_scaled():
    rng = random.Random(31)
    scales = (1, -1, 2, 0, Fraction(1), Fraction(-1), Fraction(1, 2),
              Fraction(-3, 2))
    for trial in range(300):
        scalar = (int, Fraction)[trial % 2]
        out, p = _random_lp(rng, scalar), _random_lp(rng, scalar)
        if trial % 3 == 0:
            p = lp_scale(out, -1)  # everything cancels
        c = rng.choice(scales)
        want = lp_add(out, lp_scale(p, c))
        p_before = _typed(p)
        lp_acc(out, p, c)
        assert _typed(out) == _typed(want), (out, p, c)
        # out owns its elements: changing them leaves p alone
        for e in out.values():
            for k in list(e):
                e[k] = 7
            e[(("new", 1),)] = 1
        assert _typed(p) == p_before
