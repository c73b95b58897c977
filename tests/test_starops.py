"""Tests for the star-operation calculus.

Key fixtures: the vector-field bracket on one generator l with
mu(l, l) = -(Tl) x 1 + 2 l x z_1 (a Lie* algebra), the Lie* bracket of
the free-field vertex engine, and lambda polynomials with jet
coefficients over an even and a super base.  The slot rewrites that
``lp_substitute`` replaced (relabel, sum substitution, elimination and
the Leibniz derivative series) are kept here as its oracles, and the
weight-capped sum of ``va_bracket`` is the oracle of its pole-bound
range.

``test_chevalley`` imports the jet worlds, ``rand_jet`` and the oracles.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chiralis import ring
from chiralis.algebra import SuperPolyAlgebra
from chiralis.algebroid import default_field_samples
from chiralis.chevalley import JetWorld, _leibniz
from chiralis.cli import even_base
from chiralis.fock import BGSystem
from chiralis.starops import (
    LieStarDefects,
    lp_mul_var,
    StarModule,
    StarOp,
    T,
    _translates,
    compose_front,
    identity_plus,
    jacobi_defect,
    lie_star_check,
    lp_acc,
    lp_add,
    lp_eliminate,
    lp_map_coeffs,
    lp_mul_mono,
    lp_scale,
    lp_substitute,
    permute_slots,
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


def weight_capped_va_bracket(system, a, b):
    """mu(a, b) by the loop of the weight bound: n runs up to
    wt a + wt b, past the pole bound."""
    wmax = sum(max((ring.mono_degree(m, system.weight) for m in p),
                   default=0) for p in (a, b))
    out = {}
    fact = 1
    for nn in range(0, wmax + 1):
        if nn:
            fact *= nn
        v = system.nth(a, nn, b)
        if v:
            out[((1, nn),) if nn else ()] = ring.pdiv(v, fact)
    return out


def test_va_bracket_matches_the_weight_capped_loop():
    """``va_bracket`` ends its sum at the state pole bound; on the Fock
    images of liestar-check's window (two variables, jet order 2, degree
    2), of the coefficients of their brackets, which the Jacobi check
    brackets again, and of states with odd letters, it equals the
    weight-capped loop, item order and scalar types included (equal
    ``repr``)."""
    world = JetWorld(even_base(2))
    fields = []
    for trip in default_field_samples(world, jet_order=2, degree=2):
        fields += [f for f in trip if f not in fields]
    states = [world.to_fock(f) for f in fields]
    for a, b in itertools.product(fields, repeat=2):
        for coeff in world.bracket()(a, b).values():
            fc = world.to_fock(coeff)
            if fc not in states:
                states.append(fc)
    systems = [(world.fock, states)]
    odd = BGSystem(SuperPolyAlgebra([("x", 0, 0), ("xi", 1, -1)]))
    x0 = odd.coord("x", 0)
    systems.append((odd, [
        x0, odd.coord("xi", -1), odd.mom("x", -2), odd.mom("xi", -1),
        odd.mul(x0, odd.mom("x", -1)), odd.mul(x0, odd.mom("xi", -2)),
        ring.padd(odd.mul(x0, x0), ring.pscale(odd.coord("x", -2),
                                               Fraction(1, 3)))]))
    sharp = 0  # pairs with a nonzero product just below the bound
    for system, basis in systems:
        mu = va_bracket(system)
        for a, b in itertools.product(basis, repeat=2):
            assert repr(mu(a, b)) == repr(
                weight_capped_va_bracket(system, a, b)), (a, b)
            bound = system.state_pole_bound(a, b)
            sharp += bound > 0 and bool(system.nth(a, bound - 1, b))
    assert len(states) > len(fields) and sharp


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


# -- the one slot rewrite against the loops it replaced ---------------------------


def even_world(n=2):
    return JetWorld(
        SuperPolyAlgebra([(f"x{i}", 0, 0) for i in range(1, n + 1)])
    )


def super_world():
    base = SuperPolyAlgebra(
        [("x", 0, 0), ("xi", 1, -1)],
        D={"xi": {(("x", 2),): Fraction(1)}},
    )
    return JetWorld(base)


def rand_jet(rng, world, maxjet=2, maxdeg=2, terms=3):
    keys = [
        (name, k)
        for name in world.base.gen_names
        for k in range(maxjet + 1)
    ]
    p = {}
    for _ in range(terms):
        deg = rng.randrange(maxdeg + 1)
        mono = ring.poly_one()
        for _ in range(deg):
            mono = world.jets.mul(mono, world.jets.gen(rng.choice(keys)))
        c = Fraction(rng.randrange(-3, 4))
        if c and mono:
            p = ring.padd(p, ring.pscale(mono, c))
    return p


def lp_relabel(p, mapping):
    out = {}
    for m, e in p.items():
        lp_acc(out, {tuple(sorted((mapping.get(s, s), x) for s, x in m)): e})
    return out


def lp_subst_sum(p, slot, new_slots):
    """Substitute the slot variable by a sum of other slot variables."""
    out = {}
    for m, e in p.items():
        base = tuple((s, x) for s, x in m if s != slot)
        terms = {base: e}
        for _ in range(dict(m).get(slot, 0)):
            nxt = {}
            for mm, ee in terms.items():
                for ns in new_slots:
                    lp_acc(nxt, lp_mul_var({mm: ee}, ns))
            terms = nxt
        lp_acc(out, terms)
    return out


def translate_minus_vars(p, module, slots, times):
    """Apply the operator (T - sum of the slot variables) ``times`` times."""
    for _ in range(times):
        out = {}
        lp_acc(out, lp_map_coeffs(p, module.translate))
        for s in slots:
            lp_acc(out, lp_mul_var(p, s), -1)
        p = out
    return p


def eliminate_by_steps(p, slot, module, kept):
    """z_slot = T - sum of the kept variables, one factor at a time."""
    out = {}
    for m, e in p.items():
        base = tuple((s, x) for s, x in m if s != slot)
        lp_acc(out, translate_minus_vars({base: e}, module, kept,
                                         dict(m).get(slot, 0)))
    return out


def lp_deriv_var(p, slot):
    """Formal d/dz_slot."""
    out = {}
    for m, e in p.items():
        d = dict(m)
        power = d.pop(slot, 0)
        if power:
            if power > 1:
                d[slot] = power - 1
            lp_acc(out, {tuple(sorted(d.items())): e}, power)
    return out


def deriv_series(world, val, slot, f):
    """sum_m (-1)^m / m! T^m(f) d^m/dz_slot^m applied to ``val``."""
    out = {}
    m = 0
    while val:
        lp_acc(out, lp_map_coeffs(
            val, lambda e: ring.pmul(f, e, world.jets.parity)),
            ring.div((-1) ** m, math.factorial(m)))
        val = lp_deriv_var(val, slot)
        f = world.jets.translate(f)
        m += 1
    return out


def random_value(rng, world, slots):
    """A lambda polynomial in ``slots`` with slot powers up to 3 and jet
    coefficients."""
    out = {}
    for _ in range(4):
        mono = tuple(sorted((s, rng.randint(1, 3)) for s in rng.sample(
            slots, rng.randint(0, len(slots)))))
        lp_acc(out, {mono: rand_jet(rng, world, maxjet=1, terms=2)})
    return out


WORLDS = pytest.mark.parametrize("make_world", [even_world, super_world],
                                 ids=["even", "super"])


@WORLDS
def test_lp_substitute_matches_the_slot_loops(make_world):
    """Relabel, sum substitution, elimination and ``permute_slots`` give
    the loops' values with their item order and scalar types; the
    Leibniz rule gives the derivative series' value."""
    rng = random.Random(43)
    world = make_world()
    module = world.module
    nonzero = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_value(rng, world, list(range(1, n + 1)))
        nonzero += bool(p)
        slot = rng.randint(1, n)
        sigma = tuple(rng.sample(range(1, n + 1), n))
        relabel = dict(zip(range(1, n + 1), sigma))
        assert repr(lp_substitute(p, {s: {t: 1} for s, t in relabel.items()})
                    ) == repr(lp_relabel(p, relabel))
        new_slots = rng.sample(range(1, 5), rng.randint(1, 3))
        assert repr(lp_substitute(p, {slot: dict.fromkeys(new_slots, 1)})
                    ) == repr(lp_subst_sum(p, slot, new_slots))
        kept = range(1, n)
        assert repr(lp_eliminate(p, n, module, kept)) == repr(
            eliminate_by_steps(p, n, module, kept))
        sign = rng.choice((1, -1))
        assert repr(permute_slots(p, sigma, module, sign)) == repr(lp_scale(
            eliminate_by_steps(lp_relabel(p, relabel), n, module, kept),
            sign))
        f = rand_jet(rng, world, maxjet=1, maxdeg=2, terms=2)
        assert _leibniz(world, p, slot, f) == deriv_series(world, p, slot, f)
    assert nonzero >= 30


@WORLDS
def test_lp_substitute_composition_law(make_world):
    """Substituting A and then B is substituting B o A, T included."""
    rng = random.Random(47)
    world = make_world()
    power = _translates(world.module)

    def random_images():
        images = {}
        for s in rng.sample(range(1, 4), rng.randint(1, 3)):
            form = {t: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                    for t in rng.sample([T, 1, 2, 3], rng.randint(1, 3))}
            images[s] = {t: c for t, c in form.items() if c}
        return images

    for _ in range(30):
        p = random_value(rng, world, [1, 2, 3])
        a, b = random_images(), random_images()
        ba = dict(b)
        for s, form in a.items():
            comp = {}
            for t, c in form.items():
                for u, d in (b.get(t, {t: 1}) if t != T else {T: 1}).items():
                    ring.acc(comp, u, c * d)
            ba[s] = comp
        twice = lp_substitute(lp_substitute(p, a, power), b, power)
        assert twice == lp_substitute(p, ba, power)


def test_compose_front_values_never_hold_the_last_slot():
    """The composite is canonical without an elimination: no value of
    compose_front holds z_n, for inner and outer arities up to 3."""
    rng = random.Random(53)
    mod = free_module({"a": 0, "b": 1})
    names = ["a", "b"]

    def random_op(arity):
        values = {}
        for tup in itertools.product(names, repeat=arity):
            val = {}
            for _ in range(3):
                mono = tuple(sorted((s, rng.randint(1, 3)) for s in rng.sample(
                    range(1, arity), rng.randint(0, arity - 1))))
                lp_acc(val, {mono: {(rng.choice(names), rng.randint(0, 1)):
                                    Fraction(rng.choice((-2, -1, 1, 2)))}})
            values[tup] = val
        return op_on_free_basis(arity, mod, values)

    pool = [{(nm, k): Fraction(1)} for nm in names for k in range(3)]
    held = 0
    for i, j in itertools.product((1, 2, 3), repeat=2):
        n = i + j - 1
        for _ in range(4):
            comp = compose_front(random_op(j), random_op(i))
            val = comp(*(rng.choice(pool) for _ in range(n)))
            held += bool(val)
            assert all(s < n for mono in val for s, _x in mono), (i, j, val)
    assert held >= 20
