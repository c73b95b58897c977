"""Oracle tests for the super-commutative polynomial engine.

The independent oracle multiplies monomials by flattening them to letter
sequences, concatenating, and bubble-sorting while counting odd-odd swaps.
"""

import random
from fractions import Fraction

import pytest

from chiralis.ring import (
    acc,
    derive,
    div,
    mono_mul,
    padd,
    pdiv,
    pmul,
    poly_gen,
    poly_one,
    pscale,
    psub,
    substitute,
)
from chiralis.starops import lp_scale

PARITY = {"x": 0, "y": 0, "xi": 1, "eta": 1, "zeta": 1}


def par(g):
    return PARITY[g]


def oracle_mono_mul(a, b):
    letters = [g for g, e in a for _ in range(e)] + [
        g for g, e in b for _ in range(e)
    ]
    sign = 1
    n = len(letters)
    for i in range(n):
        for j in range(n - 1 - i):
            if letters[j] > letters[j + 1]:
                if par(letters[j]) and par(letters[j + 1]):
                    sign = -sign
                letters[j], letters[j + 1] = letters[j + 1], letters[j]
    for k in range(n - 1):
        if letters[k] == letters[k + 1] and par(letters[k]):
            return None, 0
    out = []
    for g in letters:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return tuple(out), sign


def random_mono(rng):
    gens = rng.sample(sorted(PARITY), rng.randint(0, 4))
    return tuple(
        sorted((g, 1 if par(g) else rng.randint(1, 3)) for g in gens)
    )


def random_poly(rng, nterms=3):
    p = {}
    for _ in range(nterms):
        acc(p, random_mono(rng), Fraction(rng.randint(-5, 5)))
    return p


def test_mono_mul_against_bubble_sort_oracle():
    rng = random.Random(7)
    for _ in range(400):
        a, b = random_mono(rng), random_mono(rng)
        assert mono_mul(a, b, par) == oracle_mono_mul(a, b)


def test_odd_generators_anticommute_and_square_to_zero():
    xi, eta = poly_gen("xi"), poly_gen("eta")
    assert pmul(xi, eta, par) == psub({}, pmul(eta, xi, par))
    assert pmul(xi, xi, par) == {}


def test_even_generators_commute():
    x, xi = poly_gen("x"), poly_gen("xi")
    assert pmul(x, xi, par) == pmul(xi, x, par)


def test_mul_associative_and_unital():
    rng = random.Random(11)
    for _ in range(60):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert pmul(pmul(p, q, par), r, par) == pmul(p, pmul(q, r, par), par)
        assert pmul(p, poly_one(), par) == p


def test_mul_distributes():
    rng = random.Random(13)
    for _ in range(40):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert pmul(p, padd(q, r), par) == padd(
            pmul(p, q, par), pmul(p, r, par)
        )


def test_derive_partial_x():
    # d/dx on x^3*y: 3x^2*y
    p = {((("x"), 3), ("y", 1)): Fraction(1)}
    d = derive(p, {"x": poly_one()}, 0, par)
    assert d == {(("x", 2), ("y", 1)): Fraction(3)}


def test_derive_graded_leibniz():
    rng = random.Random(17)
    images = {"xi": pmul(poly_gen("x"), poly_gen("x"), par), "x": poly_gen("eta")}
    dpar = 1
    for _ in range(60):
        # homogeneous-parity factors so the Leibniz sign is well defined
        m1, m2 = random_mono(rng), random_mono(rng)
        p = {m1: Fraction(rng.randint(1, 4))}
        q = {m2: Fraction(rng.randint(1, 4))}
        pq = pmul(p, q, par)
        lhs = derive(pq, images, dpar, par)
        sgn = -1 if sum(par(g) * e for g, e in m1) % 2 else 1
        rhs = padd(
            pmul(derive(p, images, dpar, par), q, par),
            pscale(pmul(p, derive(q, images, dpar, par), par), sgn),
        )
        assert lhs == rhs


def test_koszul_differential_squares_to_zero():
    # D(xi) = x^2, D(x) = 0: odd derivation with D^2 = 0 on random inputs.
    images = {"xi": {(("x", 2),): Fraction(1)}}
    rng = random.Random(23)
    for _ in range(40):
        p = random_poly(rng)
        dp = derive(p, images, 1, par)
        assert derive(dp, images, 1, par) == {}


# -- int-first scalars ---------------------------------------------------------


def as_fractions(p):
    return {m: Fraction(c) for m, c in p.items()}


def random_int_poly(rng):
    return {m: int(c) for m, c in random_poly(rng).items()}


def test_int_path_matches_fraction_path():
    # the same products, sums and derivations on int coefficients and on
    # their Fraction copies give equal dicts; the int side stays int
    rng = random.Random(29)
    images = {"xi": pmul(poly_gen("x"), poly_gen("x"), par), "x": poly_gen("eta")}
    for _ in range(60):
        p, q = random_int_poly(rng), random_int_poly(rng)
        pf, qf = as_fractions(p), as_fractions(q)
        for got, want in [
            (pmul(p, q, par), pmul(pf, qf, par)),
            (padd(p, q), padd(pf, qf)),
            (psub(p, q), psub(pf, qf)),
            (pscale(p, -3), pscale(pf, Fraction(-3))),
            (derive(p, images, 1, par), derive(pf, images, 1, par)),
        ]:
            assert got == want
            assert all(type(c) is int for c in got.values())


def test_poly_constants_are_ints():
    assert poly_one() == {(): 1} and type(poly_one()[()]) is int
    assert type(poly_gen("x")[(("x", 1),)]) is int


def test_scaling_rejects_inexact_scalars():
    p = poly_gen("x")
    for bad in (0.5, 2.0, True, "2"):
        with pytest.raises(TypeError):
            pscale(p, bad)
        with pytest.raises(TypeError):
            lp_scale({(): p}, bad)


def test_division_is_exact():
    assert div(6, 3) == 2 and type(div(6, 3)) is int
    assert div(-6, -3) == 2 and type(div(-6, -3)) is int
    assert div(1, 2) == Fraction(1, 2) and type(div(1, 2)) is Fraction
    assert div(-3, 2) == Fraction(-3, 2)
    assert div(Fraction(1, 2), 2) == Fraction(1, 4)
    assert div(3, Fraction(1, 2)) == 6
    with pytest.raises(ZeroDivisionError):
        div(1, 0)
    x, y = (("x", 1),), (("y", 1),)
    got = pdiv({x: 4, y: 3}, 2)
    assert got == {x: 2, y: Fraction(3, 2)}
    assert type(got[x]) is int and type(got[y]) is Fraction


# -- the algebra map -------------------------------------------------------------

# reorders letters (x and y swap, zeta moves to the front), sends the two
# odd letters xi and eta to one odd letter, with int and Fraction factors
LETTER_MAP = {"x": ("y", 2), "y": ("x", Fraction(1, 3)), "xi": ("zeta", -1),
              "eta": ("zeta", Fraction(-1, 2)), "zeta": ("xi", 3)}


def test_substitute_is_an_algebra_map():
    rng = random.Random(31)
    image = LETTER_MAP.get
    killed = 0
    for _ in range(80):
        p, q = random_int_poly(rng), random_int_poly(rng)
        lhs = substitute(pmul(p, q, par), image, par)
        assert lhs == pmul(substitute(p, image, par),
                           substitute(q, image, par), par)
        killed += len(substitute(p, image, par)) < len(p)
        got = substitute(p, image, par)
        # one division per coefficient: the integral ones stay int
        assert got == substitute(as_fractions(p), image, par)
        assert all(type(c) is int for c in got.values() if c.denominator == 1)
    assert killed
    assert substitute({(("y", 1),): 3}, image, par) == {(("x", 1),): 1}
    assert type(substitute({(("y", 2),): 9}, image, par)[(("x", 2),)]) is int
    assert substitute({(("x", 1), ("zeta", 1)): 1}, image, par) == {
        (("xi", 1), ("y", 1)): 6}
    assert substitute({(("xi", 1), ("zeta", 1)): 1}, image, par) == {
        (("xi", 1), ("zeta", 1)): 3}
    assert substitute({(("eta", 1), ("xi", 1)): 1}, image, par) == {}
    assert substitute(poly_one(), image, par) == poly_one()
