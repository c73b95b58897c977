"""Oracle tests for the free-field vertex algebra engine.

Oracles: the vertex algebra axioms and the Borcherds identity, the Fraction
path for the int path, and ``ReferenceBG`` -- the product kernel before
its term-2 sum was restricted to the conjugate letters present, its sums
were accumulated in place and its recursion stopped at one letter -- for
``nth`` and ``borcherds_checks`` (one identity at a time), and with
``reference_borcherds`` for ``borcherds_checks`` checking the identities
of one pair with a list of third states together.  ``CommutativeVA`` is a second
vertex algebra for the Borcherds checker.  The oracles of the ranges that
end at the state pole bound are the loops that ran to the weight bound
wt x + wt y (``max_weight``).
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chiralis.algebra import JetAlgebra, SuperPolyAlgebra
from chiralis.fock import _CONJ, BGSystem, borcherds_checks
from chiralis.exact import binomial
from chiralis.koszul import ChiralKoszul
from chiralis.ring import (acc, acc_poly, mono_degree, mono_parity, padd,
                           pdiv, poly_one, pscale, psub)


def one_var_system():
    """1-variable beta-gamma--bc system: base Q[x] tensor Lambda[xi]."""
    base = SuperPolyAlgebra([("x", 0, 0), ("xi", 1, -1)])
    return BGSystem(base)


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
        wa, wb = mono_degree(ma, sys.weight), mono_degree(mb, sys.weight)
        for n in range(-2, 3):
            got = sys.nth(a1, n, b1)
            for mono in got:
                assert mono_degree(mono, sys.weight) == wa + wb - n - 1


def test_borcherds_commutator_small_exhaustive():
    sys = one_var_system()
    lets = letters(sys, 1)
    for a, b, c in itertools.product(lets, repeat=3):
        for s, t in [(0, 0), (1, 0), (0, -1), (-1, 1)]:
            _lhs, _rhs, diff = borcherds_checks(
                sys, a, b, [c], [(0, s, t)])[0][0]
            assert not diff, sys.str(diff)


def test_borcherds_normal_order_form():
    sys = one_var_system()
    lets = letters(sys, 1)
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rng.choice(lets) for _ in range(3))
        t = rng.randint(-2, 2)
        _lhs, _rhs, diff = borcherds_checks(
            sys, a, b, [c], [(-1, 0, t)])[0][0]
        assert not diff, sys.str(diff)


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
        _lhs, _rhs, diff = borcherds_checks(
            sys, a, b, [c], [(r, s, t)])[0][0]
        assert not diff, (r, s, t, sys.str(diff))


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


class CommutativeVA:
    """The commutative vertex algebra of a jet algebra: a_(-1-k) b =
    (T^k a / k!) b for k >= 0 and a_(n) b = 0 for n >= 0, where T is the
    jet translation."""

    def __init__(self, jets):
        self.jets = jets

    def vac(self):
        return poly_one()

    def weight(self, key):
        return self.jets.weight(key)

    def state_pole_bound(self, x, y):
        return 0  # every product with n >= 0 is zero

    def state_parity(self, p):
        return self.jets.poly_parity(p)

    def nth(self, a, n, b):
        if n >= 0 or not a or not b:
            return {}
        k = -n - 1
        for _ in range(k):
            a = self.jets.translate(a)
        return pdiv(self.jets.mul(a, b), math.factorial(k))

    def products(self, x, y, lo):
        return [(k, p) for k in range(lo, 0) for p in [self.nth(x, k, y)] if p]


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
        _lhs, _rhs, diff = borcherds_checks(
            va, a, b, [c], [(r, s, t)])[0][0]
        assert not diff
    # nonnegative (r,s,t) vanish identically
    lhs, rhs, diff = borcherds_checks(
        va, J.gen(("x", 0)), J.gen(("y", 0)), [J.gen(("x", 1))],
        [(1, 2, 0)])[0][0]
    assert not diff and lhs == {} and rhs == {}


def test_mode_range_validation():
    sys = one_var_system()
    with pytest.raises(ValueError):
        sys.coord("x", 1)
    with pytest.raises(ValueError):
        sys.mom("x", 0)
    with pytest.raises(ValueError):
        sys.mode("c", "nope", 0)


def test_charge_and_filtration_gradings():
    sys = one_var_system()
    charge = ChiralKoszul(2).charge  # xi carries charge m = 2
    mono = next(iter(sys.mul(sys.coord("x", 0), sys.mom("xi", -1))))
    assert mono_degree(mono, charge) == 1 - 2
    assert sum(e for (kind, _n, _k), e in mono if kind == "m") == 1
    assert sys.mono_degree(mono) == 0 + 1  # deg xi = -1 so deg mom_xi = +1


# -- int-first scalars: the Fraction path as oracle -------------------------------


class FractionBG(BGSystem):
    """The Fraction-valued path: every Wick pairing is a Fraction."""

    def _pair_coeff(self, annih_kind, odd):
        return Fraction(super()._pair_coeff(annih_kind, odd))


def test_int_path_matches_fraction_path_on_letter_pairs():
    fast = one_var_system()
    slow = FractionBG(fast.base)
    lets = letters(fast, 2)
    for a, b in itertools.product(lets, repeat=2):
        af = {m: Fraction(c) for m, c in a.items()}
        bf = {m: Fraction(c) for m, c in b.items()}
        for n in range(-3, 3):
            got = fast.nth(a, n, b)
            want = slow.nth(af, n, bf)
            assert got == want, (a, n, b)
            # integer structure constants stay int; the oracle really ran
            # on Fractions; neither side holds a float or a bool
            assert all(type(c) is int for c in got.values())
            assert all(type(c) is Fraction for c in want.values())


def test_commutative_va_divides_exactly():
    J = JetAlgebra(SuperPolyAlgebra([("x", 0, 0)]))
    va = CommutativeVA(J)
    x = J.gen(("x", 0))
    # x_(-3) x = (T^2 x / 2) x = x x''/2
    got = va.nth(x, -3, x)
    assert got == {((("x", 0), 1), (("x", 2), 1)): Fraction(1, 2)}
    # x_(-2) x = (T x) x stays integral
    got = va.nth(x, -2, x)
    assert all(type(c) is int for c in got.values())


# -- the product kernel against its unrestricted reference ------------------------


class ReferenceBG(BGSystem):
    """The product kernel with term 2 summed over every j up to the weight
    of b, every sum built by ``padd``/``pscale``, and the gradings computed
    anew on every call."""

    def mono_weight(self, mono):
        return mono_degree(mono, self.weight)

    def state_parity(self, p):
        pars = {mono_parity(m, self.parity) for m in p}
        return pars.pop() if len(pars) == 1 else None

    def nth(self, a, n, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                for mono, c in self._nth_mono(ma, n, mb).items():
                    acc(out, mono, ca * cb * c)
        return out

    def _nth_mono(self, ma, n, mb):
        key = (ma, n, mb)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not ma:
            res = {mb: 1} if n == -1 else {}
            self._memo[key] = res
            return res
        g, e = ma[0]
        kind, name, _k = g
        m = self._voa_index(g)
        ma_rest = ((g, e - 1),) + ma[1:] if e > 1 else ma[1:]
        a_rest = {ma_rest: 1}
        b_state = {mb: 1}
        ga = self.base.parity(name)
        pa_rest = mono_parity(ma_rest, self.parity)
        w_rest = self.mono_weight(ma_rest)
        w_b = self.mono_weight(mb)
        out = {}
        for j in range(0, max(w_rest + w_b - n - 1, -1) + 1):
            coeff = binomial(m, j)
            if not coeff:
                continue
            inner = self.nth(a_rest, n + j, b_state)
            if not inner:
                continue
            term = self.apply_mode(kind, name, m - j, inner)
            if term:
                sgn = -1 if j & 1 else 1
                out = padd(out, pscale(term, sgn * coeff))
        sign2 = -1 if (m + ga * pa_rest) & 1 else 1
        for j in range(0, w_b + 1):
            coeff = binomial(m, j)
            if not coeff:
                continue
            gb = self.apply_mode(kind, name, j, b_state)
            if not gb:
                continue
            inner = self.nth(a_rest, m + n - j, gb)
            if inner:
                sgn = -1 if j & 1 else 1
                out = padd(out, pscale(inner, -sign2 * sgn * coeff))
        self._memo[key] = out
        return out


def max_weight(va, p):
    """The largest weight of a monomial of p, 0 for p = 0: every product
    x_(k) y with k >= max_weight(x) + max_weight(y) is zero."""
    return max((mono_degree(m, va.weight) for m in p), default=0)


def reference_borcherds(va, a, b, c, r, s, t):
    """lhs, rhs and difference of the Borcherds identity, by padd/pscale,
    with every sum cut at the weight bound."""
    pa, pb = va.state_parity(a), va.state_parity(b)
    wa, wb, wc = max_weight(va, a), max_weight(va, b), max_weight(va, c)
    lhs = {}
    for j in range(0, max(wa + wb - r - 1, -1) + 1):
        coeff = binomial(s, j)
        ab = va.nth(a, r + j, b) if coeff else {}
        if ab:
            lhs = padd(lhs, pscale(va.nth(ab, s + t - j, c), coeff))
    rhs = {}
    sign_r = -1 if (r + pa * pb) & 1 else 1
    for j in range(0, max(wb + wc - t - 1, -1) + 1):
        coeff = binomial(r, j) * (-1 if j & 1 else 1)
        bc = va.nth(b, t + j, c) if coeff else {}
        if bc:
            rhs = padd(rhs, pscale(va.nth(a, r + s - j, bc), coeff))
    for j in range(0, max(wa + wc - s - 1, -1) + 1):
        coeff = binomial(r, j) * (-1 if j & 1 else 1)
        ac = va.nth(a, s + j, c) if coeff else {}
        if ac:
            rhs = padd(rhs, pscale(va.nth(b, r + t - j, ac), -sign_r * coeff))
    return lhs, rhs, psub(lhs, rhs)


def exact_items(p):
    """A state as an ordered list: insertion order and scalar types count."""
    return [(mono, type(c), c) for mono, c in p.items()]


def random_sum(sys, rng, scalar, terms=3):
    """A seeded multi-monomial state of products of up to three letters."""
    out = {}
    while not out:
        for _ in range(terms):
            acc_poly(out, random_state(sys, rng, max_len=3), scalar(rng))
    return out


def int_scalar(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def fraction_scalar(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def annihilation_by_letters(sys, kind, name, j, p):
    """g_(j) p for j >= 0 by its own loop over the letters of each
    monomial: contract the conjugate letter of index -1-j, with the
    Koszul sign of the letters passed over when g is odd."""
    target = sys._letter_from_voa(_CONJ[kind], name, -1 - j)
    odd = bool(sys.base.parity(name))
    coeff0 = sys._pair_coeff(kind, odd)
    out = {}
    for mono, c in p.items():
        pref = 0
        for idx, (g, e) in enumerate(mono):
            if g == target:
                s = coeff0 * c * e
                if odd and pref:
                    s = -s
                rest = (mono[:idx] + (((g, e - 1),) if e > 1 else ())
                        + mono[idx + 1:])
                acc(out, rest, s)
            pref = (pref + sys.parity(g) * e) & 1
    return out


@pytest.mark.parametrize("scalar", [int_scalar, fraction_scalar],
                         ids=["int", "fraction"])
def test_annihilation_modes_match_their_letter_loop(scalar):
    """apply_mode's annihilation branch is ring.derive with a constant
    image; on random states with odd letters and repeated letters it gives
    the letter loop's state, item order and scalar types included, on the
    int and on the Fraction pairing."""
    fast = one_var_system()
    rng = random.Random(37)
    signed = 0  # odd contractions past an odd letter: the sign is owed
    for sys in (fast, FractionBG(fast.base)):
        for _ in range(40):
            p = random_sum(sys, rng, scalar)
            for kind, name, j in itertools.product("cm", ("x", "xi"),
                                                   range(4)):
                got = sys.apply_mode(kind, name, j, p)
                want = annihilation_by_letters(sys, kind, name, j, p)
                assert exact_items(got) == exact_items(want), (kind, j, p)
                target = sys._letter_from_voa(_CONJ[kind], name, -1 - j)
                for m in p:
                    lets = [g for g, _e in m]
                    if name == "xi" and target in lets:
                        signed += mono_parity(m[:lets.index(target)],
                                              sys.parity)
    assert signed


def test_kernel_matches_reference_on_letter_pairs():
    fast = one_var_system()
    ref = ReferenceBG(fast.base)
    lets = letters(fast, 2)
    for a, b in itertools.product(lets, repeat=2):
        for n in range(-3, 4):
            assert exact_items(fast.nth(a, n, b)) == exact_items(
                ref.nth(a, n, b)), (a, n, b)


@pytest.mark.parametrize("scalar", [int_scalar, fraction_scalar],
                         ids=["int", "fraction"])
def test_kernel_matches_reference_on_multi_monomial_states(scalar):
    fast = one_var_system()
    ref = ReferenceBG(fast.base)
    rng = random.Random(19)
    for _ in range(30):
        a = random_sum(fast, rng, scalar)
        b = random_sum(fast, rng, scalar)
        for n in range(-3, 4):
            got = fast.nth(a, n, b)
            assert exact_items(got) == exact_items(ref.nth(a, n, b)), (a, n, b)
        # the one-monomial product scales by the coefficient, keeping type
        ma, ca = next(iter(a.items()))
        mb, cb = next(iter(b.items()))
        got = fast.nth({ma: ca}, -1, {mb: cb})
        assert exact_items(got) == exact_items(ref.nth({ma: ca}, -1, {mb: cb}))


def test_products_belong_to_the_caller():
    """A product nth returns is the caller's: changing it changes neither
    a second call nor the memo, on one-monomial and on longer states."""
    sys = one_var_system()
    rng = random.Random(23)
    changed = 0
    for trial in range(40):
        if trial % 2:
            a, b = random_sum(sys, rng, int_scalar), random_sum(
                sys, rng, int_scalar)
        else:
            a, b = random_state(sys, rng), random_state(sys, rng)
        for n in range(-2, 3):
            got = sys.nth(a, n, b)
            want = exact_items(got)
            memo = {k: exact_items(v) for k, v in sys._memo.items()}
            for mono in got:
                got[mono] = 1000
            got[()] = 1000
            changed += len(got) > 1
            assert exact_items(sys.nth(a, n, b)) == want, (a, n, b)
            assert {k: exact_items(v) for k, v in sys._memo.items()} == memo
    assert changed


def two_var_letters():
    """The letters of the benchmark's Borcherds window: two variables up to
    weight 3, on the CLI's system."""
    gens = [("x1", 0, 0), ("xi1", 1, -1), ("x2", 0, 0), ("xi2", 1, -1)]
    fast = BGSystem(SuperPolyAlgebra(gens))
    lets = []
    for name, _par, _deg in gens:
        for w in range(0, 4):
            lets.append(fast.coord(name, -w))
            if w >= 1:
                lets.append(fast.mom(name, -w))
    return fast, lets


def wick_bound(sys, ma, mb):
    """P(a, b) from the letters: the weight, with multiplicity, of the
    letters of each monomial whose conjugate family occurs in the other."""
    def conj(g):
        return ("m" if g[0] == "c" else "c", g[1])

    fa, fb = {g[:2] for g, _e in ma}, {g[:2] for g, _e in mb}
    return (sum(sys.weight(g) * e for g, e in ma if conj(g) in fb)
            + sum(sys.weight(g) * e for g, e in mb if conj(g) in fa))


def test_pole_bound_matches_reference_on_two_letter_monomials():
    # every pair of monomials of up to two letters of the benchmark's
    # window, at every n from -2 to wt a + wt b: the kernel, which returns
    # the products with n >= P(a, b) as zero at once, equals the reference,
    # which knows nothing of the bound, and each of those is zero there
    fk, lets = two_var_letters()
    monos = [m for p in lets + [fk.mul(x, y) for x, y in
                                itertools.combinations_with_replacement(
                                    lets, 2)] for m in p]
    assert len(monos) == 420
    # both kernels peel the first letter of a, so the first monomials with
    # one rest share one pair of systems; each first monomial's own
    # products are dropped after it, which keeps the memos small
    by_rest = {}
    for ma in monos:
        (g, e), tail = ma[0], ma[1:]
        by_rest.setdefault(((g, e - 1),) + tail if e > 1 else tail,
                           []).append(ma)
    bounded = 0
    for group in by_rest.values():
        fast, ref = BGSystem(fk.base), ReferenceBG(fk.base)
        for ma in group:
            a, wa = {ma: 1}, ref.mono_weight(ma)
            for mb in monos:
                b, bound = {mb: 1}, wick_bound(fast, ma, mb)
                assert fast.pole_bound(ma, mb) == bound, (ma, mb)
                for n in range(-2, wa + ref.mono_weight(mb) + 1):
                    want = ref.nth(a, n, b)
                    assert exact_items(fast.nth(a, n, b)) == exact_items(
                        want), (ma, n, mb)
                    if n >= bound:
                        bounded += 1
                        assert want == {}, (ma, n, mb)
            for memo in (fast._memo, ref._memo):
                for key in [key for key in memo if key[0] == ma]:
                    del memo[key]
    assert bounded == 1080336


def test_one_letter_products_match_reference():
    # a one-letter first argument is the kernel's base case; the reference
    # still peels the letter down to the vacuum
    fast, lets = two_var_letters()
    ref = ReferenceBG(fast.base)
    assert len(lets) == 28
    bs = lets + [p for p in (fast.mul(x, y) for x, y in
                             itertools.combinations_with_replacement(lets, 2))
                 if p]
    for a in lets:
        for b in bs:
            for n in range(-5, 6):
                assert exact_items(fast.nth(a, n, b)) == exact_items(
                    ref.nth(a, n, b)), (a, n, b)


def test_borcherds_check_matches_reference():
    fast = one_var_system()
    ref = ReferenceBG(fast.base)
    lets = letters(fast, 1)
    rng = random.Random(23)
    cases = [(a, b, c, 0, 0, -1) for a, b, c in
             itertools.product(lets, repeat=3)]
    for _ in range(30):
        abc = [random_state(fast, rng, max_weight=1) for _ in range(3)]
        if None not in (fast.state_parity(abc[0]), fast.state_parity(abc[1])):
            cases.append((*abc, *(rng.randint(-2, 2) for _ in range(3))))
    for a, b, c, r, s, t in cases:
        got = borcherds_checks(fast, a, b, [c], [(r, s, t)])[0][0]
        want = reference_borcherds(ref, a, b, c, r, s, t)
        assert [exact_items(p) for p in got] == [
            exact_items(p) for p in want], (a, b, c, r, s, t)


# the five (r, s, t) of the exhaustive CLI window
EXHAUSTIVE_RSTS = [(0, 0, 0), (0, 1, 0), (1, 0, 1), (-1, 0, 0), (-1, 1, -1)]
# negative and non-negative r and s in one list, so each sum meets both
# binomials that end (C(n, j) = 0 for j > n >= 0) and binomials that do not
MIXED_RSTS = [(-2, 1, 0), (1, -1, 2), (0, 2, -1), (2, 0, -2), (-1, -2, 1)]


def assert_checks_match_reference(fast, ref, cases):
    """``borcherds_checks`` against ``reference_borcherds`` one (r, s, t) at
    a time, on a fresh system per call and on one shared system used
    twice."""
    for fresh in (True, False, False):
        for a, b, c, rsts in cases:
            va = BGSystem(fast.base) if fresh else fast
            (got,) = borcherds_checks(va, a, b, [c], rsts)
            assert len(got) == len(rsts)
            for res, (r, s, t) in zip(got, rsts):
                want = reference_borcherds(ref, a, b, c, r, s, t)
                assert [exact_items(p) for p in res] == [
                    exact_items(p) for p in want], (a, b, c, r, s, t)
    assert fast._products


def homogeneous_sum(sys, rng, scalar):
    """A seeded parity-homogeneous sum of products of up to two letters of
    weight at most 1."""
    while True:
        out = {}
        for _ in range(2):
            acc_poly(out, random_state(sys, rng, max_weight=1), scalar(rng))
        if sys.state_parity(out) is not None:
            return out


def test_borcherds_checks_match_reference_on_letter_triples():
    fast = one_var_system()
    ref = ReferenceBG(fast.base)
    cases = [(a, b, c, rsts)
             for a, b, c in itertools.product(letters(fast, 1), repeat=3)
             for rsts in (EXHAUSTIVE_RSTS, MIXED_RSTS)]
    assert_checks_match_reference(fast, ref, cases)


@pytest.mark.parametrize("scalar", [int_scalar, fraction_scalar],
                         ids=["int", "fraction"])
def test_borcherds_checks_match_reference_on_multi_monomial_states(scalar):
    fast = one_var_system()
    ref = ReferenceBG(fast.base)
    rng = random.Random(31)
    cases = []
    for _ in range(6):
        a, b, c = (homogeneous_sum(fast, rng, scalar) for _ in range(3))
        cases += [(a, b, c, EXHAUSTIVE_RSTS), (a, b, c, MIXED_RSTS)]
    assert_checks_match_reference(fast, ref, cases)


def test_borcherds_checks_over_several_third_states():
    """One call per pair (a, b) with a list of third states gives, per
    third state, the reports of the triple checked one identity at a time;
    an empty list gives none."""
    fast = one_var_system()
    ref = ReferenceBG(fast.base)
    lets = letters(fast, 1)
    rng = random.Random(37)
    cs = lets + [lets[2], homogeneous_sum(fast, rng, int_scalar),
                 homogeneous_sum(fast, rng, fraction_scalar)]
    cs.append(cs[-1])  # a repeated third state
    abs_ = list(itertools.product(lets, repeat=2))
    abs_ += [(homogeneous_sum(fast, rng, fraction_scalar), lets[4])]
    want = {}
    for fresh in (True, False, False):
        for (ai, (a, b)), rsts in itertools.product(
                enumerate(abs_), (EXHAUSTIVE_RSTS, MIXED_RSTS)):
            va = BGSystem(fast.base) if fresh else fast
            assert borcherds_checks(va, a, b, [], rsts) == []
            got = borcherds_checks(va, a, b, cs, rsts)
            assert len(got) == len(cs)
            for ci, (c, results) in enumerate(zip(cs, got)):
                assert len(results) == len(rsts)
                for res, rst in zip(results, rsts):
                    key = (ai, ci, rst)
                    if key not in want:
                        want[key] = [exact_items(p) for p in
                                     reference_borcherds(ref, a, b, c, *rst)]
                    assert [exact_items(p) for p in res] == want[key], (
                        a, b, c, rst)
    assert fast._products


def test_grades_match_a_direct_computation():
    fk = one_var_system()
    ref = ReferenceBG(fk.base)
    rng = random.Random(29)
    x0, xi0 = fk.coord("x", 0), fk.coord("xi", 0)
    states = [
        {},  # the empty state: bound 0 with every state, no parity
        padd(x0, xi0),  # parity-inhomogeneous
        padd(fk.mom("x", -2), pscale(fk.mul(x0, fk.coord("x", -1)), 3)),
    ]
    states += [random_sum(fk, rng, int_scalar) for _ in range(20)]
    assert fk.state_parity({}) is None
    assert fk.state_parity(states[1]) is None
    for p in states:
        for _ in range(2):  # the second call reads the kept grades
            assert fk.state_parity(p) == ref.state_parity(p)
            for q in states:
                assert fk.state_pole_bound(p, q) == max(
                    (wick_bound(ref, ma, mb) for ma in p for mb in q),
                    default=0), (p, q)
        for mono in p:
            fams = {fam: mono_degree(tuple((g, e) for g, e in mono
                                           if g[:2] == fam), fk.weight)
                    for fam in {g[:2] for g, _e in mono}}
            parity, got_fams = fk.grade(mono)
            assert parity == mono_parity(mono, fk.parity)
            assert got_fams == fams
            # the family weights add up to the monomial's weight
            assert sum(got_fams.values()) == ref.mono_weight(mono)


# -- every product range ends at the state pole bound ------------------------------


def homogeneous_two_var_pairs(count, seed):
    """Seeded pairs of parity-homogeneous states over the two-variable
    carrier: 1-3 monomials of 1-3 letters of weight at most 3, with int
    and with Fraction coefficients."""
    fast, lets = two_var_letters()
    rng = random.Random(seed)

    def draw(scalar):
        while True:
            out = {}
            for _ in range(rng.randint(1, 3)):
                mono = fast.vac()
                for _ in range(rng.randint(1, 3)):
                    mono = fast.mul(mono, rng.choice(lets))
                acc_poly(out, mono, scalar(rng))
            if out and fast.state_parity(out) is not None:
                return out

    pairs = []
    for i in range(count):
        scalar = (int_scalar, fraction_scalar)[i % 2]
        pairs.append((draw(scalar), draw(scalar)))
    return fast, pairs


def weight_capped_products(va, x, y, lo):
    """The inner-product list of the weight bound: k runs from ``lo`` up
    to wt x + wt y - 1, past the pole bound."""
    w = max_weight(va, x) + max_weight(va, y)
    return [(k, p) for k in range(lo, w) for p in [va.nth(x, k, y)] if p]


def test_state_pole_bound_ends_every_nonzero_product():
    """On random states, every product from the state pole bound up to
    wt x + wt y is zero on the reference kernel, and the bound is the
    maximum of P over the monomial pairs.  Some pairs have a nonzero
    product just below it, so a range that ends one product early loses
    a term."""
    fast, pairs = homogeneous_two_var_pairs(24, 41)
    ref = ReferenceBG(fast.base)
    cut = 0  # products the weight bound asked for and the pole bound skips
    sharp = 0  # pairs whose last product below the bound is nonzero
    for x, y in pairs:
        bound = fast.state_pole_bound(x, y)
        assert bound == max(wick_bound(ref, ma, mb) for ma in x for mb in y)
        top = max_weight(ref, x) + max_weight(ref, y)
        for k in range(bound, top + 1):
            assert ref.nth(x, k, y) == {}, (x, k, y)
            cut += 1
        sharp += bound > 0 and bool(ref.nth(x, bound - 1, y))
    assert cut and sharp


def test_inner_products_match_the_weight_capped_loop():
    """``products`` ends at the state pole bound; from the starts of the
    exhaustive and the seeded Borcherds windows its lists equal the
    weight-capped loop's, item order and scalar types included, from a
    fresh system and from a kept one, which computes each list once."""
    fast, xys = homogeneous_two_var_pairs(24, 43)
    starts = range(-2, 3)  # every seeded start; the exhaustive ones are 0, -1
    kept = BGSystem(fast.base)
    for x, y in xys:
        for lo in starts:
            want = [(k, exact_items(p)) for k, p in
                    weight_capped_products(fast, x, y, lo)]
            for va in (BGSystem(fast.base), kept, kept):
                got = va.products(x, y, lo)
                assert [(k, exact_items(p)) for k, p in got] == want, (
                    x, y, lo)
            assert kept.products(x, y, lo) is got
    assert kept._products
