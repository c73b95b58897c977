"""Tests for the jet tangent carrier, cochains, and the mode algebra.

Oracles used here:
  * the free-field dictionary is checked to be a ring isomorphism that
    intertwines the jet translation with the negated vertex translation,
    so the carrier bracket inherits antisymmetry and Jacobi from the
    independently tested vertex engine (re-verified on a window anyway);
  * the action of frame fields on functions is compared against the
    explicit prolongation formula written with jet partial derivatives;
  * the Chevalley differential is validated by d(d(phi)) = 0 on random
    cochains over both an even base and a super base, and against a hand
    computation for a linear 1-cochain;
  * mode brackets reproduce the Heisenberg and Witt relations.

``test_algebroid`` and ``test_morphism`` import ``symmetrized_seed``.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chiralis import ring
from chiralis.algebra import split_tangent, tau_base
from chiralis.chevalley import (
    ChevalleyCochain,
    _leibniz,
    chevalley_d,
    tau_name,
)
from chiralis.exact import antisym_sign, binomial, inverse
from chiralis.starops import (
    StarOp,
    lp_acc,
    lp_add,
    lp_from_elem,
    lp_map_coeffs,
    lp_mul_var,
    lp_scale,
    lie_star_check,
    permute_slots,
    sigma_act,
)

from test_starops import (even_world, lp_deriv_var, rand_jet, super_world,
                          translate_minus_vars, vec_bracket)


def symmetrized_seed(world, names, val):
    """Project a would-be seed onto the antisymmetry constraint.

    Seeds on tuples with repeated (odd) frame letters must be invariant
    under the stabilizer of the tuple acting through relabel/eliminate and
    Koszul signs; this averages over that stabilizer.
    """
    n = len(names)
    pars = [world.frame_parity(nm) for nm in names]
    total = {}
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        if tuple(names[p - 1] for p in perm) != tuple(names):
            continue
        lp_acc(total, permute_slots(
            val, inverse(perm), world.module, antisym_sign(perm, pars)))
        count += 1
    return lp_scale(total, ring.div(1, count))


def multilinearity_defect(phi, slot, f, args, world):
    """phi(..., f * a_slot, ...) minus its function-multilinearity
    prediction; zero for a cochain."""
    scaled = list(args)
    scaled[slot - 1] = world.jets.mul(f, args[slot - 1])
    prefix = phi.parity
    for a in args[: slot - 1]:
        prefix = (prefix + world.jets.poly_parity(a)) & 1
    sign = -1 if (world.jets.poly_parity(f) and prefix) else 1
    want = _leibniz(world, phi(*args), slot, f)
    return lp_add(phi(*scaled), lp_scale(want, -sign))


def lie_modes_bracket(mu, a, n, b, m, decompose):
    """[a_[n], b_[m]] = sum_j C(n,j) (a_(j) b)_[n+m-j] in the mode Lie
    algebra; ``decompose`` gives {(basis_name, k): c} for c * T^k(basis
    vector), and (T v)_[p] = p * v_[p-1]."""
    out = {}
    for mono, elem in mu(a, b).items():
        j = mono[0][1] if mono else 0
        coeff = binomial(n, j) * math.factorial(j)
        if not coeff:
            continue
        for (name, k), c in decompose(elem).items():
            p = n + m - j
            fall = 1
            for step in range(k):
                fall *= p - step
            ring.acc(out, (name, p - k), coeff * c * fall)
    return out


def test_fock_dictionary_round_trip_and_translate():
    rng = random.Random(11)
    w = super_world()
    for _ in range(20):
        p = rand_jet(rng, w)
        # also mix in a tangent letter
        if rng.randrange(2):
            p = w.jets.mul(p, w.tau("x", rng.randrange(2)))
        q = w.from_fock(w.to_fock(p))
        assert ring.psub(q, p) == {}
        # the dictionary sends the jet translation to minus the vertex one
        lhs = w.to_fock(w.jets.translate(p))
        rhs = ring.pscale(w.fock.T(w.to_fock(p)), -1)
        assert ring.psub(lhs, rhs) == {}


def test_carrier_bracket_is_lie_star():
    w = even_world(1)
    mu = w.bracket()
    x, tau = w.coord("x1"), w.tau("x1")
    basis = [
        x,
        tau,
        w.jets.mul(x, tau),
        w.jets.mul(w.jets.mul(x, x), tau),
        w.coord("x1", 1),
    ]
    report = lie_star_check(mu, basis)
    assert report["ok"], report["failures"][:2]


def test_carrier_bracket_super_window():
    w = super_world()
    mu = w.bracket()
    basis = [
        w.coord("x"),
        w.coord("xi"),
        w.tau("x"),
        w.tau("xi"),
        w.jets.mul(w.coord("xi"), w.tau("x")),
        w.jets.mul(w.coord("x"), w.tau("xi")),
    ]
    report = lie_star_check(mu, basis)
    assert report["ok"], report["failures"][:2]


def test_action_prolongation_formula():
    rng = random.Random(5)
    w = even_world(2)
    mu = w.bracket()
    for _ in range(15):
        g = rand_jet(rng, w)
        for name in ("x1", "x2"):
            got = mu(w.tau(name), g)
            want = {}
            for k in range(0, 4):
                dg = ring.derive(
                    g,
                    {(name, k): ring.poly_one()},
                    w.base.parity(name),
                    w.jets.parity,
                )
                if dg:
                    mono = ((1, k),) if k else ()
                    want = lp_add(
                        want,
                        {mono: ring.pscale(dg, Fraction((-1) ** k))},
                    )
            assert got == want


def test_cochain_antisymmetry_and_multilinearity():
    rng = random.Random(7)
    w = even_world(2)
    seeds = {
        ("x1", "x2"): {
            (): {((("x1", 0), 1),): Fraction(2)},
            ((1, 1),): {((("x2", 1), 1),): Fraction(1)},
        }
    }
    phi = ChevalleyCochain(w, 2, seeds)
    flip = sigma_act((2, 1), phi)
    for _ in range(8):
        a = w.jets.mul(rand_jet(rng, w), w.tau(rng.choice(["x1", "x2"])))
        b = w.jets.mul(rand_jet(rng, w), w.tau(rng.choice(["x1", "x2"])))
        if not a or not b:
            continue
        assert lp_add(flip(a, b), phi(a, b)) == {}
        f = rand_jet(rng, w)
        for slot in (1, 2):
            res = multilinearity_defect(phi, slot, f, (a, b), w)
            assert not res, res


def test_cochain_is_zero_on_function_arguments():
    """A cochain evaluates a carrier element through its vector-field
    part: function terms contribute nothing, so a function argument gives
    zero and adding one to a field changes nothing."""
    rng = random.Random(5)
    w = even_world(2)
    phi = ChevalleyCochain(w, 2, {("x1", "x2"): {
        (): {((("x1", 0), 1),): Fraction(2)},
        ((1, 1),): {((("x2", 1), 1),): Fraction(1)},
    }})
    t1, t2 = w.tau("x1"), w.tau("x2")
    assert phi(t1, t2)
    for _ in range(6):
        f = rand_jet(rng, w)
        if not f:
            continue
        assert phi(f, t2) == {} and phi(t1, f) == {}
        assert phi(ring.padd(t1, f), t2) == phi(t1, t2)
        assert phi(t1, ring.padd(f, t2)) == phi(t1, t2)


# -- the one slot rule against the two-rule evaluation ----------------------------


def two_rule_leibniz(world, val, slot, n, f):
    """The value on f * a_slot from the value on a_slot (unsigned), with
    the last slot apart: there f multiplies the value; in slot i < n it
    enters through the series sum_m (-1)^m / m! T^m(f) d^m/dz_i^m."""
    def times_f(e):
        return ring.pmul(f, e, world.jets.parity)

    if slot == n:
        return lp_map_coeffs(val, times_f)
    out = {}
    m = 0
    while val:
        lp_acc(out, lp_map_coeffs(val, times_f),
               ring.div((-1) ** m, math.factorial(m)))
        val = lp_deriv_var(val, slot)
        f = world.jets.translate(f)
        m += 1
    return out


def two_rule_term_value(phi, parts):
    """A cochain's value on one tuple of terms (f_mono, tau_key) per slot,
    with the last slot apart: a jet of order k there applies
    (T - z_1 - ... - z_{n-1})^k at once, and its function factor
    multiplies the value."""
    n = phi.arity
    world = phi.world
    val = phi.table.get(tuple(tau_base(g[0]) for _f, g in parts))
    if not val:
        return {}
    for i, (_f, (_gname, k)) in enumerate(parts, start=1):
        if not k:
            continue
        if i < n:
            val = lp_mul_var(val, i, k)
        else:
            val = translate_minus_vars(val, world.module, range(1, n), k)
    sign = 1
    prefix = 0
    for i, (fmono, g) in enumerate(parts, start=1):
        fpar = ring.mono_parity(fmono, world.jets.parity)
        if fpar and ((phi.parity + prefix) & 1):
            sign = -sign
        if fmono:
            val = two_rule_leibniz(world, val, i, n, {fmono: 1})
        prefix = (prefix + fpar + world.jets.parity(g)) & 1
    return lp_scale(val, sign)


def two_rule_value(phi, args):
    """phi(*args), each term by :func:`two_rule_term_value`."""
    parity = phi.world.jets.parity
    terms = []
    for a in args:
        terms.append([])
        for mono, c in a.items():
            split = split_tangent(mono, parity)
            if split is not None:
                fmono, tkey, s = split
                terms[-1].append(((fmono, tkey), c * s))
    out = {}
    for combo in itertools.product(*terms):
        lp_acc(out, two_rule_term_value(phi, [p for p, _c in combo]),
               math.prod(c for _p, c in combo))
    return out


def random_cochain(rng, world, arity, parity):
    """A cochain with a random seed on every sorted frame tuple: jet
    coefficients at z^0 and at each z_i, i < arity."""
    seeds = {}
    for tup in itertools.combinations_with_replacement(
            sorted(world.frame_names()), arity):
        val = {}
        for mono in [()] + [((i, 1),) for i in range(1, arity)]:
            g = rand_jet(rng, world, maxjet=1, maxdeg=2, terms=2)
            if g:
                val[mono] = g
        val = symmetrized_seed(world, tup, val)
        if val:
            seeds[tup] = val
    return ChevalleyCochain(world, arity, seeds, parity)


@pytest.mark.parametrize("make_world", [even_world, super_world],
                         ids=["even", "super"])
def test_one_slot_rule_matches_the_two_rule_evaluation(make_world):
    """Frame jets of order 1 and 2 in every slot, the last one included,
    times function factors: the one slot rule (z_n kept as a symbol, one
    elimination at the end) gives the value of the rule that treats the
    last slot apart, exactly."""
    rng = random.Random(29)
    w = make_world()
    names = sorted(w.frame_names())
    nonzero = 0
    for arity in (1, 2, 3):
        for parity in (0, 1):
            phi = random_cochain(rng, w, arity, parity)
            for _ in range(6):
                args = []
                for _slot in range(arity):
                    f = rand_jet(rng, w, maxjet=2, maxdeg=1, terms=2)
                    field = w.jets.mul(f or ring.poly_one(),
                                       w.tau(rng.choice(names),
                                             rng.choice((1, 2))))
                    args.append(ring.padd(field, w.tau(rng.choice(names),
                                                       rng.randrange(3))))
                got = phi(*args)
                assert got == two_rule_value(phi, args), (arity, args)
                nonzero += bool(got)
    assert nonzero >= 24


def test_even_repeat_seed_rejected():
    w = even_world(2)
    try:
        ChevalleyCochain(
            w, 2, {("x1", "x1"): {(): {(): Fraction(1)}}}
        )
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_chevalley_d_hand_example():
    w = even_world(2)
    # phi(tau_1) = x2, phi(tau_2) = 0
    phi = ChevalleyCochain(
        w, 1, {("x1",): {(): {((("x2", 0), 1),): Fraction(1)}}}
    )
    d = chevalley_d(phi)
    val = d(w.tau("x1"), w.tau("x2"))
    # d phi(t1, t2) = action(t1, phi(t2)) - action(t2, phi(t1)) = -1
    assert val == {(): {(): Fraction(-1)}}


def test_chevalley_d_squared_even_base():
    rng = random.Random(23)
    w = even_world(2)
    names = sorted(w.frame_names())
    for _ in range(6):
        arity = rng.choice([1, 2])
        seeds = {}
        for tup in itertools.combinations(names, arity):
            val = {}
            for zpow in range(2):
                g = rand_jet(rng, w, maxjet=1, maxdeg=2, terms=2)
                if g:
                    val[((1, zpow),) if zpow else ()] = g
            if arity == 1:
                val = {k: v for k, v in val.items() if not k}
            if val:
                seeds[tup] = val
        phi = ChevalleyCochain(w, arity, seeds)
        dd = chevalley_d(chevalley_d(phi))
        assert not dd.table, dd.table


def test_chevalley_d_squared_super_base():
    rng = random.Random(41)
    w = super_world()
    names = sorted(w.frame_names())
    pars = {n: w.frame_parity(n) for n in names}
    for _ in range(6):
        arity = rng.choice([1, 2])
        seeds = {}
        tuples = [
            t
            for t in itertools.combinations_with_replacement(names, arity)
            if not any(
                t[i] == t[i + 1] and not pars[t[i]]
                for i in range(arity - 1)
            )
        ]
        for tup in tuples:
            val = {}
            for zpow in range(2):
                g = rand_jet(rng, w, maxjet=1, maxdeg=2, terms=2)
                # keep the seed parity-homogeneous so Koszul bookkeeping
                # stays well defined
                want_par = sum(pars[n] for n in tup) & 1
                g = {
                    m: c
                    for m, c in g.items()
                    if ring.mono_parity(m, w.jets.parity) == want_par
                }
                if g:
                    val[((1, zpow),) if zpow else ()] = g
            if arity == 1:
                val = {k: v for k, v in val.items() if not k}
            val = symmetrized_seed(w, tup, val)
            if val:
                seeds[tup] = val
        phi = ChevalleyCochain(
            w,
            arity,
            seeds,
            op_parity=0,
        )
        dd = chevalley_d(chevalley_d(phi))
        assert not dd.table, (arity, dd.table)


def test_multilinearity_counterexample():
    w = even_world(1)

    def bad(f, g):
        return lp_from_elem(w.jets.mul(w.jets.translate(f), g))

    op = StarOp(2, w.module, bad, 0)
    x = w.coord("x1")
    assert multilinearity_defect(op, 1, x, (x, x), w)
    # while the tangent action is multilinear in its frame slot
    mu = w.bracket()
    res2 = multilinearity_defect(
        mu, 1, x, (w.tau("x1"), w.jets.mul(x, x)), w
    )
    assert not res2, res2


def _heisenberg_decompose(w):
    tname = tau_name("x1")

    def decompose(elem):
        out = {}
        for mono, c in elem.items():
            if not mono:
                out[("1", 0)] = out.get(("1", 0), Fraction(0)) + c
                continue
            (g, e), = mono
            assert e == 1
            name, k = g
            label = "b" if name == tname else "g"
            out[(label, k)] = out.get((label, k), Fraction(0)) + c
        return {k: v for k, v in out.items() if v}

    return decompose


def test_modes_heisenberg():
    w = even_world(1)
    mu = w.bracket()
    dec = _heisenberg_decompose(w)
    for n in range(0, 3):
        for m in range(0, 3):
            out = lie_modes_bracket(mu, w.tau("x1"), n, w.coord("x1"), m, dec)
            assert out == {("1", n + m): Fraction(1)}
            out2 = lie_modes_bracket(
                mu, w.coord("x1"), m, w.coord("x1"), n, dec
            )
            assert out2 == {}


def test_modes_heisenberg_current_level():
    # the weight-one current J = x*tau has [J_[n], J_[m]] = -n 1_[n+m-1]
    w = even_world(1)
    mu = w.bracket()
    ell = w.jets.mul(w.coord("x1"), w.tau("x1"))

    def decompose(elem):
        out = {}
        for mono, c in elem.items():
            assert mono == ()
            out[("1", 0)] = c
        return out

    for n in range(0, 4):
        for m in range(0, 4):
            out = lie_modes_bracket(mu, ell, n, ell, m, decompose)
            want = {("1", n + m - 1): Fraction(-n)} if n else {}
            assert out == want, (n, m, out)


def test_modes_witt():
    # the rank-one free translation module with mu(l, l) = -(Tl) + 2l z
    _, mu = vec_bracket()
    ell = {("l", 0): Fraction(1)}
    for n in range(0, 4):
        for m in range(0, 4):
            out = lie_modes_bracket(mu, ell, n, ell, m, lambda e: dict(e))
            want = {}
            if n != m:
                want[("l", n + m - 1)] = Fraction(n - m)
            assert out == want, (n, m, out)
