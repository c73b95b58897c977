"""Oracle tests for the free-field vertex algebra engine."""

import itertools
import random
from fractions import Fraction

import pytest

from chiralis.algebra import JetAlgebra, SuperPolyAlgebra
from chiralis.fock import (
    BGSystem,
    CommutativeVA,
    borcherds_full_check,
)
from chiralis.ring import padd, pscale, psub


def one_var_system():
    """1-variable beta-gamma--bc system: base Q[x] tensor Lambda[xi]."""
    base = SuperPolyAlgebra([("x", 0, 0), ("xi", 1, -1)])
    return BGSystem(base, odd_charge=2)


def letters(sys, max_weight):
    out = []
    for name in ("x", "xi"):
        for w in range(0, max_weight + 1):
            out.append(sys.coord(name, -w))
            if w >= 1:
                out.append(sys.mom(name, -w))
    return out


def random_state(sys, rng, max_weight=2, max_len=2):
    lets = letters(sys, max_weight)
    while True:
        p = sys.vac()
        for _ in range(rng.randint(1, max_len)):
            p = sys.mul(p, rng.choice(lets))
        if p:
            return p


def test_delta_pairing_on_generators():
    sys = one_var_system()
    # (mom_x at -1)_(0) coord_x at 0 = vacuum; cross pairs vanish
    assert sys.nth(sys.mom("x", -1), 0, sys.coord("x", 0)) == sys.vac()
    assert sys.nth(sys.mom("x", -1), 0, sys.coord("xi", 0)) == {}
    assert sys.nth(sys.mom("xi", -1), 0, sys.coord("xi", 0)) == sys.vac()
    # all other nonnegative generator products vanish
    for n in range(0, 3):
        assert sys.nth(sys.coord("x", 0), n, sys.coord("x", 0)) == {}
        assert sys.nth(sys.coord("x", 0), n, sys.mom("xi", -1)) == {}
        if n >= 1:
            assert sys.nth(sys.mom("x", -1), n, sys.coord("x", 0)) == {}


def test_normal_ordering_correction_display():
    # ((x_0)^2)_(-1) mom_(-1) = x_0^2 mom_(-1) - 2 x_(-1)
    sys = one_var_system()
    x0 = sys.coord("x", 0)
    a = sys.mul(x0, x0)
    b = sys.mom("x", -1)
    expected = psub(sys.mul(a, b), pscale(sys.coord("x", -1), 2))
    assert sys.nth(a, -1, b) == expected


def test_zero_mode_acts_as_derivation():
    sys = one_var_system()
    x0 = sys.coord("x", 0)
    got = sys.nth(sys.mom("x", -1), 0, sys.mul(x0, x0))
    assert got == pscale(x0, 2)


def test_unit_axioms():
    sys = one_var_system()
    rng = random.Random(3)
    for _ in range(15):
        a = random_state(sys, rng)
        for n in range(0, 3):
            assert sys.nth(a, n, sys.vac()) == {}
        assert sys.nth(a, -1, sys.vac()) == a
        assert sys.nth(a, -2, sys.vac()) == sys.T(a)
        assert sys.nth(sys.vac(), -1, a) == a
        assert sys.nth(sys.vac(), 0, a) == {}


def test_translation_covariance():
    sys = one_var_system()
    rng = random.Random(5)
    for _ in range(10):
        a = random_state(sys, rng)
        b = random_state(sys, rng)
        for n in range(-2, 3):
            lhs = sys.nth(sys.T(a), n, b)
            rhs = pscale(sys.nth(a, n - 1, b), -n)
            assert lhs == rhs
    # and T is a derivation of all products: T(a_(n)b) = (Ta)_(n)b + a_(n)Tb
    for _ in range(10):
        a = random_state(sys, rng)
        b = random_state(sys, rng)
        for n in range(-2, 2):
            lhs = sys.T(sys.nth(a, n, b))
            rhs = padd(
                sys.nth(sys.T(a), n, b), sys.nth(a, n, sys.T(b))
            )
            assert lhs == rhs


def test_weight_homogeneity():
    sys = one_var_system()
    rng = random.Random(7)
    for _ in range(20):
        a = random_state(sys, rng)
        b = random_state(sys, rng)
        ma, mb = next(iter(a)), next(iter(b))
        a1, b1 = {ma: Fraction(1)}, {mb: Fraction(1)}
        wa, wb = sys.mono_weight(ma), sys.mono_weight(mb)
        for n in range(-2, 3):
            got = sys.nth(a1, n, b1)
            for mono in got:
                assert sys.mono_weight(mono) == wa + wb - n - 1


def test_borcherds_commutator_small_exhaustive():
    sys = one_var_system()
    lets = letters(sys, 1)
    for a, b, c in itertools.product(lets, repeat=3):
        for s, t in [(0, 0), (1, 0), (0, -1), (-1, 1)]:
            rep = borcherds_full_check(sys, a, b, c, 0, s, t)
            assert rep["ok"], sys.str(rep["difference"])


def test_borcherds_normal_order_form():
    sys = one_var_system()
    lets = letters(sys, 1)
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rng.choice(lets) for _ in range(3))
        t = rng.randint(-2, 2)
        rep = borcherds_full_check(sys, a, b, c, -1, 0, t)
        assert rep["ok"], sys.str(rep["difference"])


def test_borcherds_random_rst_composite_states():
    sys = one_var_system()
    rng = random.Random(13)
    for _ in range(25):
        a = random_state(sys, rng, max_weight=1)
        b = random_state(sys, rng, max_weight=1)
        c = random_state(sys, rng, max_weight=1)
        if sys.state_parity(a) is None or sys.state_parity(b) is None:
            continue
        r, s, t = (rng.randint(-1, 1) for _ in range(3))
        rep = borcherds_full_check(sys, a, b, c, r, s, t)
        assert rep["ok"], (r, s, t, sys.str(rep["difference"]))


def test_skew_symmetry_consequence():
    # for a, b with a_(j) b = 0 for all j >= 0: a_(-1) b = +/- b_(-1) a
    sys = one_var_system()
    pairs = [
        (sys.coord("x", 0), sys.coord("x", -1)),
        (sys.coord("x", 0), sys.coord("xi", 0)),
        (sys.coord("xi", 0), sys.coord("xi", -1)),
    ]
    for a, b in pairs:
        for j in range(0, 3):
            assert sys.nth(a, j, b) == {}
        sgn = -1 if sys.state_parity(a) and sys.state_parity(b) else 1
        assert sys.nth(a, -1, b) == pscale(sys.nth(b, -1, a), sgn)


def test_commutative_va_products():
    J = JetAlgebra(SuperPolyAlgebra([("x", 0, 0)]))
    va = CommutativeVA(J)
    x = J.gen(("x", 0))
    assert va.nth(x, -1, x) == J.mul(x, x)
    assert va.nth(x, -2, va.vac()) == J.gen(("x", 1))
    assert va.nth(x, 0, x) == {}


def test_commutative_va_borcherds():
    J = JetAlgebra(SuperPolyAlgebra([("x", 0, 0), ("y", 0, 0)]))
    va = CommutativeVA(J)
    rng = random.Random(17)
    gens = [("x", 0), ("x", 1), ("y", 0), ("y", 2)]
    for _ in range(20):
        a, b, c = (J.gen(rng.choice(gens)) for _ in range(3))
        r, s, t = (rng.randint(-2, 2) for _ in range(3))
        rep = borcherds_full_check(va, a, b, c, r, s, t)
        assert rep["ok"]
    # nonnegative (r,s,t) vanish identically
    rep = borcherds_full_check(
        va, J.gen(("x", 0)), J.gen(("y", 0)), J.gen(("x", 1)), 1, 2, 0
    )
    assert rep["ok"] and rep["lhs"] == {} and rep["rhs"] == {}


def test_mode_range_validation():
    sys = one_var_system()
    with pytest.raises(ValueError):
        sys.coord("x", 1)
    with pytest.raises(ValueError):
        sys.mom("x", 0)
    with pytest.raises(ValueError):
        sys.mode("c", "nope", 0)


def test_charge_and_filtration_gradings():
    sys = one_var_system()  # odd_charge = 2
    mono = next(iter(sys.mul(sys.coord("x", 0), sys.mom("xi", -1))))
    assert sys.mono_charge(mono) == 1 - 2
    assert sys.momentum_count(mono) == 1
    assert sys.mono_degree(mono) == 0 + 1  # deg xi = -1 so deg mom_xi = +1
