"""Tests for chiral algebroids, their twists, and the homotopy layer.

Oracles used here:
  * the standard bracket over an even base restricted to frames is
    abelian, and the classical Jacobi report is exact on the sample
    window, so twist soundness/completeness is a genuine two-sided test:
    closed forms must pass, non-closed ones must fail with a witness, and
    the "closed" and "ok" verdicts must agree in both directions;
  * the chiral module action is compared bit for bit before and after a
    twist — the module structure is not part of the torsor data;
  * the commutator formula for extended (negative) modes is evaluated in
    the free-field realization, where it holds identically;
  * the homotopy differential is validated by squaring to zero and by the
    exact defect law: the arity-k generalized Jacobi defect of a twisted
    structure equals the evaluated k-th component of the differential of
    the twist, for non-closed twists too;
  * morphism residuals are compared against the evaluated differential of
    the defining cochain family;
  * golden digests of the cochain tables of seeded forms and of lc_d
    families, recorded before every cochain was built by one constructor;
  * the one zero: on the default windows no lambda polynomial the layers
    make holds an empty element and no cochain family holds a member
    without seeds, so ``==`` decides every identity the tests compare.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from chiralis import ring
from chiralis.algebra import FormAlgebra, SuperPolyAlgebra
from chiralis.algebroid import (
    ChiralInftyAlgebroid,
    chiral_infty_morphism,
    chiral_infty_twist,
    default_field_samples,
    form_cochain,
    form_twist,
    fs_closed_family,
    hat_d,
    jet_differential,
    lc_d,
    morphism_residual,
    standard_chiral_infty_algebroid,
    sub_samples,
    validate_lc_component,
)
from chiralis.chevalley import ChevalleyCochain, JetWorld, chevalley_d
from chiralis.cli import enc_any
from chiralis.exact import binomial
from chiralis.fock import BGSystem
from chiralis.starops import (
    StarOp,
    compose_front,
    identity_plus,
    jacobi_report,
    lp_add,
    lp_from_elem,
    lp_scale,
    morphism_defect,
    permute_slots,
    plus_op,
    unshuffle_sum,
)

from test_chevalley import symmetrized_seed


# sha256 of repr(lc_d families) of the strict cases, recorded while hat_d
# still evaluated the empty differential current
LC_D_EVEN = "7f7cf9ec2a92fb1b67e4e3606aaea80b5525d25da20f17c9765d38759cf12cbd"
# sha256 of the encoded cochain tables of seeded forms and of lc_d
# families, recorded while each form kind had its own embedding
# (``graded_form_functor`` and ``two_form_cochain``) and each cochain
# differential its own loop over frame tuples
FORM_COCHAINS = (
    "68279c55abd579f72fa91b78dda369911d404d1e4748dbe715c4bbbf9250b513")
LC_D_FAMILIES = (
    "cc5ae5ee9d2167f82307ada3e2369d02767db0c0ea64413f0b530100a9d7df94")


def even_world(n=3):
    return JetWorld(
        SuperPolyAlgebra([(f"x{i}", 0, 0) for i in range(1, n + 1)])
    )


def fs_world(m=2):
    return JetWorld(
        SuperPolyAlgebra(
            [("x", 0, 0), ("xi", 1, -1)],
            D={"xi": {(("x", m),): Fraction(1)}},
        )
    )


def four_gen_world():
    return JetWorld(
        SuperPolyAlgebra(
            [("x", 0, 0), ("y", 0, 0), ("xi", 1, -1), ("et", 1, -1)],
            D={
                "xi": {(("x", 1), ("y", 1)): Fraction(1)},
                "et": {(("x", 2),): Fraction(1)},
            },
        )
    )


def dform(forms, *names):
    out = forms.inject(ring.poly_one())
    for nm in names:
        out = forms.mul(out, forms.d_gen(nm))
    return out


# -- the standard algebroid and classical twists -------------------------------------


def test_standard_bracket_frames_abelian():
    world = even_world()
    P = standard_chiral_infty_algebroid(world.base)
    for a, b in itertools.combinations(world.frame_names(), 2):
        assert P.bracket(world.tau(a), world.tau(b)) == {}


def test_twist_by_closed_three_form_passes():
    world = even_world()
    forms = FormAlgebra(world.base)
    omega = dform(forms, "x1", "x2", "x3")
    assert forms.derham_d(omega) == {}
    P = standard_chiral_infty_algebroid(world.base)
    _, report = chiral_infty_twist(P, {2: form_cochain(world, omega, 2)},
                                   check=True)
    assert report["ok"] and report["closed"] and report["match"]


def test_twist_by_non_closed_three_form_fails_with_witness():
    world = even_world(4)
    forms = FormAlgebra(world.base)
    omega = forms.mul(
        forms.inject(world.base.gen("x4")),
        dform(forms, "x1", "x2", "x3"),
    )
    assert forms.derham_d(omega)
    P = standard_chiral_infty_algebroid(world.base)
    _, report = chiral_infty_twist(P, {2: form_cochain(world, omega, 2)},
                                   check=True)
    assert not report["ok"] and report["failures"]
    assert not report["closed"] and report["match"]


def test_module_action_invariant_under_twist():
    world = even_world()
    forms = FormAlgebra(world.base)
    P = standard_chiral_infty_algebroid(world.base)
    alpha = form_cochain(world, dform(forms, "x1", "x2", "x3"), 2)
    Q, _ = chiral_infty_twist(P, {2: alpha})
    f = world.jets.mul(world.coord("x1"), world.coord("x2", 1))
    states = [
        world.tau("x1"),
        world.jets.mul(world.coord("x3"), world.tau("x2")),
        world.coord("x1", 2),
    ]
    for v in states:
        for n in (-2, -1, 0, 1):
            assert P.module_action(f, n, v) == Q.module_action(f, n, v)


def test_form_twist_additivity_and_match():
    world = even_world()
    forms = FormAlgebra(world.base)
    P = standard_chiral_infty_algebroid(world.base)
    omega = dform(forms, "x1", "x2", "x3")
    beta = forms.mul(
        forms.inject(world.base.gen("x1")), dform(forms, "x2", "x3")
    )
    # beta is not De Rham closed: the combined twist is not Chevalley
    # closed either, and must fail Jacobi and say so
    total, derham_closed = form_twist(P.world, omega, beta)
    _, rep = chiral_infty_twist(P, {2: total}, check=True)
    assert not derham_closed
    assert not rep["ok"] and not rep["closed"] and rep["match"]
    closed_beta = dform(forms, "x1", "x2")
    total2, derham_closed2 = form_twist(P.world, omega, closed_beta)
    _, rep2 = chiral_infty_twist(P, {2: total2}, check=True)
    assert derham_closed2
    assert rep2["ok"] and rep2["closed"] and rep2["match"]
    # the twists add
    alone, _ = form_twist(P.world, three_form=omega)
    other, _ = form_twist(P.world, two_form=closed_beta)
    for a, b in itertools.product(world.frame_names(), repeat=2):
        args = (world.tau(a), world.tau(b))
        assert total2(*args) == lp_add(alone(*args), other(*args))
    assert form_twist(P.world) == (None, True)


def strict_cases(world, forms):
    """Closed and open 3-form + 2-form twists over Q[x1..x4]."""
    omega = dform(forms, "x1", "x2", "x3")
    x = {nm: forms.inject(world.base.gen(nm)) for nm in ("x1", "x4")}
    cases = [
        (omega, None),
        (forms.mul(x["x4"], omega), None),
        (omega, dform(forms, "x3", "x4")),
        (omega, forms.mul(x["x1"], dform(forms, "x2", "x4"))),
    ]
    return [form_twist(world, three, two)[0] for three, two in cases]


def test_even_base_twist_is_the_strict_case():
    """Over an even base with D = 0 a 2-cochain twist is an ordinary
    chiral algebroid: the unary operation vanishes, the report is the Lie*
    Jacobi report of the twisted bracket alone, and ``closed`` is
    Chevalley closedness, which ``lc_d`` gives with the opposite sign on
    these parity-even cochains."""
    world = even_world(4)
    forms = FormAlgebra(world.base)
    P = standard_chiral_infty_algebroid(world.base)
    samples = default_field_samples(world)
    # the check's window: the singletons and pairs, then the triples
    window = sub_samples(samples, 1) + sub_samples(samples, 2) + samples
    verdicts = []
    for total in strict_cases(world, forms):
        Q, rep = chiral_infty_twist(P, {2: total}, check=True)
        l1 = Q.ops()[1]
        assert all(l1(v) == {} for s in samples for v in s)
        bracket_only = jacobi_report({2: Q.ops()[2]}, window, 3)
        assert {k: rep[k] for k in bracket_only} == bracket_only
        ch = chevalley_d(total)
        assert rep["closed"] == (not ch.seeds) == rep["ok"]
        d = lc_d(world, {2: total})
        assert sorted(d) == ([] if rep["closed"] else [3])
        for s in samples:
            got = d[3](*s) if d else {}
            assert got == lp_scale(ch(*s), -1)
        verdicts.append(rep["closed"])
    assert verdicts == [True, False, True, False]


def test_lc_d_on_an_even_base_skips_the_empty_current(monkeypatch):
    """An even base has no differential, so ``lc_d`` asks for no product
    of the empty differential current; its families keep the digest they
    had while ``hat_d`` still evaluated that current."""
    world = even_world(4)
    twists = strict_cases(world, FormAlgebra(world.base))
    nth, firsts = BGSystem.nth, []
    monkeypatch.setattr(BGSystem, "nth", lambda self, a, n, b: (
        firsts.append(a) or nth(self, a, n, b)))
    got = [{k: v.seeds for k, v in lc_d(world, {2: t}).items()}
           for t in twists]
    assert firsts and all(firsts)
    assert hashlib.sha256(repr(got).encode()).hexdigest() == LC_D_EVEN


def test_two_form_cochain_shape():
    world = even_world()
    forms = FormAlgebra(world.base)
    beta = dform(forms, "x1", "x2")
    phi = form_cochain(world, beta, 2)
    v = phi(world.tau("x1"), world.tau("x2"))
    # the contraction convention feeds frames from the right
    assert v == {(): {(): Fraction(-1)}}
    assert phi(world.tau("x1"), world.tau("x3")) == {}


def seeded_form(forms, rng, degree, count=3):
    """A random form over Q[x1..x4] with polynomial coefficients."""
    names = ("x1", "x2", "x3", "x4")
    out = {}
    for _ in range(count):
        term = forms.inject(ring.poly_one())
        for _ in range(rng.randint(0, 2)):
            term = forms.mul(term, forms.gen(rng.choice(names)))
        for nm in rng.sample(names, degree):
            term = forms.mul(term, forms.d_gen(nm))
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        ring.acc_poly(out, term, c)
    return out


def encoded_digest(entries):
    text = json.dumps(enc_any(entries), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def table(phi):
    return [[list(t), v] for t, v in sorted(phi.table.items())]


def test_form_cochains_golden():
    """Seeded 3-forms at arity 2 and 2-forms at arity 1 (negated, the
    change of splitting) and 2 keep their cochain tables; so do the
    lc_d families of the fs family members and of form cochains."""
    world = even_world(4)
    forms = FormAlgebra(world.base)
    entries, open_pair = [], None
    for seed in (1, 2, 3, 4):
        rng = random.Random(f"form:{seed}")
        three, two = seeded_form(forms, rng, 3), seeded_form(forms, rng, 2)
        alpha = form_cochain(world, three, 2)
        beta1 = form_cochain(world, ring.pscale(two, -1), 1)
        entries += [["three", seed, table(alpha)],
                    ["two-1", seed, table(beta1)],
                    ["two-2", seed, table(form_cochain(world, two, 2))]]
        if open_pair is None and forms.derham_d(three) and forms.derham_d(two):
            open_pair = alpha, beta1
    assert encoded_digest(entries) == FORM_COCHAINS
    fsw = fs_world()
    a2, a3 = fs_closed_family(fsw)
    alpha, beta1 = open_pair
    families = [lc_d(fsw, {2: a2}), lc_d(fsw, {3: a3}),
                lc_d(fsw, {2: a2, 3: a3}), lc_d(world, {2: alpha}),
                lc_d(world, {1: beta1})]
    assert [sorted(f) for f in families] == [[3], [3], [], [3], [2]]
    encoded = [[[k, table(c)] for k, c in sorted(f.items())]
               for f in families]
    assert encoded_digest(encoded) == LC_D_FAMILIES


def test_form_cochain_rejects_bad_input():
    odd = JetWorld(SuperPolyAlgebra([("x", 0, 0), ("xi", 1, -1)]))
    with pytest.raises(ValueError, match="even base"):
        form_cochain(odd, FormAlgebra(odd.base).d_gen("x"), 1)
    world = even_world()
    forms = FormAlgebra(world.base)
    mixed = ring.padd(dform(forms, "x1", "x2", "x3"),
                      dform(forms, "x1", "x2"))
    with pytest.raises(ValueError, match="all functions or all one-forms"):
        form_cochain(world, mixed, 2)
    # each part alone is fine
    assert form_cochain(world, dform(forms, "x1", "x2"), 2).seeds


# -- free-field witnesses -------------------------------------------------------------


def test_non_centrality_witness():
    # naive normal ordering on the standard carrier: the (-1)-st product
    # of the squared zero-mode coordinate with the first momentum mode
    # differs from the naive Fock monomial by a first-order coordinate mode
    world = fs_world()
    fk = world.fock
    nm = world.frame_names()[0]
    assert nm == "x"
    x0 = ring.poly_gen(("c", nm, 0))
    mom = ring.poly_gen(("m", nm, -1))
    diff = ring.psub(fk.nth(fk.mul(x0, x0), -1, mom), fk.mul(x0, x0, mom))
    assert diff == {((("c", "x", -1), 1),): Fraction(-2)}
    assert world.from_fock(diff) == {((("x", 1), 1),): Fraction(2)}


def extended_commutator_defect(world, a, n, b, m, v):
    """[a_[n], b_[m]] v - sum_j C(n,j) (a_(j) b)_[n+m-j] v in the
    free-field realization, for any integer m."""
    fk = world.fock
    fa, fb, fv = world.to_fock(a), world.to_fock(b), world.to_fock(v)
    pa, pb = fk.state_parity(fa), fk.state_parity(fb)
    assert pa is not None and pb is not None
    out = fk.nth(fa, n, fk.nth(fb, m, fv))
    swap = fk.nth(fb, m, fk.nth(fa, n, fv))
    out = ring.padd(out, swap) if pa * pb else ring.psub(out, swap)
    wa, wb = (max((ring.mono_degree(mono, fk.weight) for mono in p),
                  default=0) for p in (fa, fb))
    for j in range(0, wa + wb + 1):
        c = binomial(n, j)
        ab = fk.nth(fa, j, fb) if c else {}
        if ab:
            out = ring.psub(out, ring.pscale(fk.nth(ab, n + m - j, fv), c))
    return out


def test_extended_commutator_formula_negative_modes():
    world = fs_world()
    f = world.jets.mul(world.coord("x"), world.coord("x"))
    g = world.coord("x", 1)
    states = [world.tau("x"), world.coord("xi"),
              world.jets.mul(world.coord("x"), world.tau("xi"))]
    for v in states:
        for n in (0, 1, -1):
            for m in (-1, -2):
                assert (
                    extended_commutator_defect(world, f, n, g, m, v)
                    == {}
                )


# -- the homotopy differential --------------------------------------------------------


def test_untwisted_generalized_jacobi():
    world = fs_world()
    P = standard_chiral_infty_algebroid(world.base)
    samples = default_field_samples(world)
    rep = jacobi_report(P.ops(), samples, 3)
    assert rep["ok"], rep["failures"][:1]
    assert rep["checked"] == len(samples)


def test_unary_operation_is_zero_mode_not_prolongation():
    world = fs_world()
    l1 = jet_differential(world)
    v = world.jets.mul(world.coord("xi"), world.tau("x"))
    got = l1(v).get((), {})
    naive = world.jets.D(v)
    diff = ring.psub(got, naive)
    # the normal-ordering contraction adds a pure first-jet term
    assert diff == {((("x", 1), 1),): Fraction(2)}
    # and the corrected operation still squares to zero
    assert l1(got) == {}


def test_lc_d_squares_to_zero():
    world = four_gen_world()
    jets = world.jets
    X = world.coord("x")
    XI = world.coord("xi")
    ET = world.coord("et")
    s2 = symmetrized_seed(
        world, ("x", "y"), {((1, 1),): jets.mul(X, X), (): world.coord("x", 1)}
    )
    a2 = ChevalleyCochain(world, 2, {("x", "y"): s2}, 0)
    s3 = symmetrized_seed(world, ("x", "x", "xi"), {((1, 2),): XI})
    a3 = ChevalleyCochain(world, 3, {("x", "x", "xi"): s3}, 1)
    for fam in ({2: a2}, {3: a3}, {2: a2, 3: a3}):
        once = lc_d(world, fam)
        twice = lc_d(world, {k: v for k, v in once.items()})
        assert not twice, sorted(twice)


def test_lc_d_keeps_the_arity_one_component():
    """Component 1 of ``lc_d`` is the hat_d of the arity-1 member: over
    Q[x, xi] with D(xi) = x^2, the member tau_x -> xi has D(xi) = x^2 != 0,
    so a loop that starts at component 2 loses it."""
    world = fs_world()
    b1 = ChevalleyCochain(world, 1, {("x",): {(): world.coord("xi")}}, 1)
    want = hat_d(b1).seeds
    assert want == {("x",): {(): {((("x", 0), 2),): 1}}}
    d = lc_d(world, {1: b1})
    assert sorted(d) == [1, 2] and d[1].seeds == want


def test_defect_equals_differential_for_open_twist():
    """The Jacobi defect of any twist equals the differential, evaluated."""
    world = fs_world()
    a2, _ = fs_closed_family(world)  # open once its partner is dropped
    P = standard_chiral_infty_algebroid(world.base)
    Q, _ = chiral_infty_twist(P, {2: a2})
    d = lc_d(world, {2: a2})
    module = world.module
    samples = default_field_samples(world)
    from chiralis.starops import jacobi_defect

    checked = 0
    for args in samples:
        k = len(args)
        defect = jacobi_defect(Q.ops(), k, list(args), module)
        want = d[k](*args) if k in d else {}
        assert defect == want
        if want:
            checked += 1
    assert checked > 0


def test_fs_closed_family_twist_passes():
    world = fs_world()
    P = standard_chiral_infty_algebroid(world.base)
    a2, a3 = fs_closed_family(world)
    assert not lc_d(world, {2: a2, 3: a3})
    Q, rep = chiral_infty_twist(P, {2: a2, 3: a3}, check=True)
    assert rep["ok"] and rep["closed"] and rep["match"]


def test_arity_one_and_two_identities_on_default_samples():
    """l1^2 = 0 and the Leibniz rule of l1 over l2 hold on the singletons
    and pairs of the default window (whose samples are all triples), for
    the untwisted structure, for a2 alone and for the closed family."""
    world = fs_world()
    P = standard_chiral_infty_algebroid(world.base)
    a2, a3 = fs_closed_family(world)
    samples = default_field_samples(world)
    for fam in ({}, {2: a2}, {2: a2, 3: a3}):
        Q, _ = chiral_infty_twist(P, fam)
        for k in (1, 2):
            rep = jacobi_report(Q.ops(), sub_samples(samples, k), 3)
            assert rep["ok"], (sorted(fam), k, rep["failures"][:1])
            assert rep["checked"] > 0
    # fault injection: l1 + id squares to 2 l1 + id, which is not zero
    ops = dict(P.ops())
    l1 = ops[1]
    ops[1] = StarOp(1, l1.module,
                    lambda e: lp_add(l1(e), lp_from_elem(e)), l1.parity)
    for k in (1, 2):
        rep = jacobi_report(ops, sub_samples(samples, k), 3)
        assert not rep["ok"] and rep["failures"][0]["arity"] == k


def test_fs_family_truncation_fails():
    world = fs_world()
    P = standard_chiral_infty_algebroid(world.base)
    a2, _ = fs_closed_family(world)
    _, rep = chiral_infty_twist(P, {2: a2}, check=True)
    assert not rep["ok"] and not rep["closed"] and rep["match"]
    assert any(f["arity"] == 3 for f in rep["failures"])


def test_sequential_twists_add():
    world = fs_world()
    P = standard_chiral_infty_algebroid(world.base)
    a2, a3 = fs_closed_family(world)
    Q1, _ = chiral_infty_twist(P, {2: a2})
    Q2, rep = chiral_infty_twist(Q1, {3: a3}, check=True)
    direct, _ = chiral_infty_twist(P, {2: a2, 3: a3})
    assert rep["ok"] and rep["closed"] and rep["match"]
    for k in (2, 3):
        assert Q2.alphas[k].seeds == direct.alphas[k].seeds


def test_component_grading_validation():
    world = fs_world()
    jets = world.jets
    # wrong parity for an arity-2 twist component
    s = symmetrized_seed(world, ("x", "x"), {((1, 1),): world.coord("xi")})
    bad = ChevalleyCochain(world, 2, {("x", "x"): s}, 1)
    try:
        validate_lc_component(world, bad, total_degree=2)
        assert False, "expected a grading rejection"
    except ValueError:
        pass
    # wrong value degree
    s2 = symmetrized_seed(
        world, ("x", "x"), {((1, 1),): jets.mul(world.coord("x"), world.coord("x"))}
    )
    bad2 = ChevalleyCochain(world, 2, {("x", "x"): s2}, 0)
    try:
        validate_lc_component(world, bad2, total_degree=1)
        assert False, "expected a degree rejection"
    except ValueError:
        pass


# -- morphisms ------------------------------------------------------------------------


def test_morphism_residuals_mixed_family():
    world = four_gen_world()
    jets = world.jets
    X, Y = world.coord("x"), world.coord("y")
    XI, ET = world.coord("xi"), world.coord("et")
    P = ChiralInftyAlgebroid(world)
    b1 = ChevalleyCochain(world, 1, {("x",): {(): jets.mul(X, Y)}}, 0)
    s2 = symmetrized_seed(
        world, ("x", "xi"), {(): jets.mul(X, X)}
    )
    b2 = ChevalleyCochain(world, 2, {("x", "xi"): s2}, 1)
    s3 = symmetrized_seed(world, ("x", "x", "x"), {((1, 1),): jets.mul(XI, ET)})
    b3 = ChevalleyCochain(world, 3, {("x", "x", "x"): s3}, 0)
    rep = chiral_infty_morphism(P, {1: b1, 2: b2, 3: b3})
    assert rep["ok"], rep["failures"][:1]
    assert rep["residual_matches_differential"]
    assert rep["exact_target"]  # the family is not closed


def test_morphism_beta1_only_trivial_differential_reduces():
    """Over a differential-free base the morphism is a plain relabeling."""
    world = even_world(2)
    jets = world.jets
    b1 = ChevalleyCochain(
        world,
        1,
        {("x1",): {(): jets.mul(world.coord("x1"), world.coord("x2"))}},
        0,
    )
    P = ChiralInftyAlgebroid(world)
    rep = chiral_infty_morphism(P, {1: b1})
    assert rep["ok"] and rep["residual_matches_differential"]
    # by hand: the residual of the equation against P itself at arity 2
    # is the commutator correction of xi -> xi + beta(xi)
    d = lc_d(world, {1: b1})
    args = [world.tau("x1"), world.tau("x2")]
    res = morphism_residual(P, P, {1: b1}, args)
    want = d[2](*args) if 2 in d else {}
    assert res == want


def test_form_functor_morphism_identity():
    """An exact 3-form twist is conjugate to the standard algebroid."""
    world = even_world()
    forms = FormAlgebra(world.base)
    beta = forms.mul(
        forms.inject(world.base.gen("x1")), dform(forms, "x2", "x3")
    )
    omega = forms.derham_d(beta)
    assert forms.derham_d(omega) == {}
    alpha = form_cochain(world, omega, 2)
    # the sign makes the form cochains commute with the differentials and
    # id + beta an isomorphism from the exact twist to the standard
    # algebroid
    beta1 = form_cochain(world, ring.pscale(beta, -1), 1)
    P = ChiralInftyAlgebroid(world)
    mrep = chiral_infty_morphism(P, {1: beta1})
    assert mrep["ok"] and mrep["residual_matches_differential"]
    # the form cochains match the differentials: the Chevalley
    # differential of beta is the alpha of d(beta); lc_d takes it with the
    # LC sign
    # (-1)^(1 + p_i |phi|), which is -1 on every term for the
    # parity-even beta, so there it is minus that alpha
    d = lc_d(world, {1: beta1})
    assert sorted(d) == [2]
    ch = chevalley_d(beta1)
    nonzero = 0
    for s in default_field_samples(world):
        args = s[:2]
        want = alpha(*args)
        assert ch(*args) == want
        assert d[2](*args) == lp_scale(want, -1)
        nonzero += bool(want)
    assert nonzero > 0


# -- one zero: values and families are canonical where they are made ----------------


def assert_canonical(val):
    """A lambda polynomial without an empty element or a zero scalar."""
    assert all(e and all(e.values()) for e in val.values()), val


def assert_canonical_family(fam):
    """Every member has its arity and seeds, and each seed and each table
    value is a nonzero canonical lambda polynomial."""
    for n, c in fam.items():
        assert c.arity == n and c.seeds, n
        for val in [*c.seeds.values(), *c.table.values()]:
            assert val, n
            assert_canonical(val)


def negated(c):
    return ChevalleyCochain(c.world, c.arity, {
        t: lp_scale(v, -1) for t, v in c.seeds.items()}, c.parity)


def one_zero_case(name):
    """A world, a twist family and a morphism family: forms over Q[x1..x3],
    or over Q[x, xi] with D(xi) = x^2 the open twist a2 and a function
    cochain."""
    if name == "even":
        world = even_world()
        forms = FormAlgebra(world.base)
        beta = forms.mul(forms.inject(world.base.gen("x1")),
                         dform(forms, "x2", "x3"))
        return (world,
                {2: form_cochain(world, dform(forms, "x1", "x2", "x3"), 2)},
                {1: form_cochain(world, ring.pscale(beta, -1), 1)})
    world = fs_world()
    a2, _ = fs_closed_family(world)
    b1 = ChevalleyCochain(world, 1, {("x",): {(): world.coord("x")}}, 0)
    return world, {2: a2}, {1: b1}


@pytest.mark.parametrize("name", ["even", "fs"])
def test_values_and_families_are_canonical_where_made(name):
    """Zero has one form: no value holds an empty element, so the
    normalization passes are gone and identities are decided by ``==``;
    no family holds a member without seeds, so none holds a None.  On
    the default window this covers the bracket, the unary operation, the
    cochains of forms and of ``lc_d``, the twisted operations
    (``plus_op``), ``compose_front``, ``permute_slots``,
    ``unshuffle_sum`` and ``morphism_defect``."""
    world, alphas, betas = one_zero_case(name)
    P = ChiralInftyAlgebroid(world)
    Q, _ = chiral_infty_twist(P, alphas)
    families = [alphas, betas, lc_d(world, alphas), lc_d(world, betas),
                Q.alphas]
    for fam in families:
        assert_canonical_family(fam)
    # a twist that cancels leaves no member behind
    undone, _ = chiral_infty_twist(Q, {n: negated(c) for n, c in
                                       alphas.items()})
    assert undone.alphas == {}
    module = world.module
    mu, l1, ops = world.bracket(), jet_differential(world), Q.ops()
    fs = identity_plus(module, betas)
    cochains = [c for fam in families for c in fam.values()]
    nonzero = 0
    for s in default_field_samples(world):
        values = [l1(v) for v in s]
        for a, b in itertools.combinations(s, 2):
            values += [mu(a, b), ops[2](a, b),
                       plus_op(mu, alphas[2])(a, b),
                       permute_slots(ops[2](a, b), (2, 1), module, -1)]
        values += [c(*s[:c.arity]) for c in cochains]
        values += [compose_front(ops[2], ops[2])(*s),
                   unshuffle_sum(ops, ops, 3, s, module)]
        values += [morphism_defect(P.ops(), ops, fs, s[:k], module)
                   for k in (1, 2, 3)]
        for val in values:
            assert_canonical(val)
        nonzero += sum(map(bool, values))
    assert nonzero
