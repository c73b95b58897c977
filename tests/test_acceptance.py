"""Acceptance suite: the eleven headline checks, all in exact arithmetic.

Every assertion is an exact equality of canonical forms (tolerance 0).
Each numbered test states its claim in the docstring; wall-clock limits
follow the published budgets.
"""

import itertools
import random
import time
from fractions import Fraction

from chiralis import ring
from chiralis.algebra import FormAlgebra, SuperPolyAlgebra
from chiralis.algebroid import (
    chiral_infty_twist,
    form_cochain,
    fs_closed_family,
    standard_chiral_infty_algebroid,
)
from chiralis.chevalley import ChevalleyCochain, JetWorld, chevalley_d
from chiralis.fock import BGSystem, borcherds_checks
from chiralis.koszul import ChiralKoszul
from chiralis.linfty import (
    BasisMultiMap,
    GradedSpace,
    basis_words,
    coderivation_square_report,
    direct_jacobi_report,
)
from chiralis.starops import jacobi_defect, lie_star_check

from finite_algebroid import conjugation_report, twist_jacobi_report
from test_linfty import (  # noqa: F401  (shared fixtures)
    _closed_families,
    _form,
    _samples,
    _super_algebroid,
)


def test_01_fs_weight_zero_cohomology():
    """Weight-0 cohomology of the chiralized Koszul complex has total
    dimension m, concentrated in degree 0, with representatives the
    powers x_0^a for 0 <= a < m."""
    for m in (1, 2, 3):
        t0 = time.monotonic()
        K = ChiralKoszul(m)
        rep = K.cohomology(0, 2 * m + 1)
        total = 0
        exponents = set()
        for cell in rep["cells"]:
            total += cell["dim"]
            if cell["dim"]:
                assert cell["degree"] == 0
                for r in cell["representatives"]:
                    ((mono, c),) = r.items()
                    assert c == 1
                    if mono == ():
                        exponents.add(0)
                    else:
                        ((key, e),) = mono
                        assert key == ("c", "x", 0)
                        exponents.add(e)
        assert total == m
        assert exponents == set(range(m))
        assert time.monotonic() - t0 < 60


def test_02_differential_squares_to_zero():
    """D^2 = 0 on every basis state of weight <= 4 for m <= 3."""
    t0 = time.monotonic()
    for m in (1, 2, 3):
        K = ChiralKoszul(m)
        for w in range(0, 5):
            for q in range(-4, 2 * m + 3):
                for mono in K.cell_basis(w, q):
                    assert K.d(K.d({mono: Fraction(1)})) == {}
    assert time.monotonic() - t0 < 300


def test_03_euler_characteristic_consistency():
    """Per (weight, charge) line with weight <= 2 the alternating sum of
    cohomology dimensions equals the cochain alternating sum."""
    for m in (1, 2, 3):
        K = ChiralKoszul(m)
        table = K.character_table(2, 2 * m + 2, min_charge=-2)
        assert table["lines"]
        for line in table["lines"]:
            assert line["euler"] == line["cochain_euler"]


def test_04_borcherds_identities():
    """Commutator- and normal-ordering-form Borcherds identities on the
    one-variable beta-gamma/bc system: exhaustive on single letters of
    weight <= 2, plus 200 seeded random triples of weight <= 3."""
    t0 = time.monotonic()
    base = SuperPolyAlgebra([("x", 0, 0), ("xi", 1, -1)])
    fk = BGSystem(base)
    letters = []
    for name in ("x", "xi"):
        for w in range(0, 3):
            letters.append(fk.coord(name, -w))
            if w >= 1:
                letters.append(fk.mom(name, -w))
    # commutator form (r = 0) and normal-ordering form (r = -1, s = 0)
    for a, b, c in itertools.product(letters, repeat=3):
        for r, s, t in ((0, 0, 0), (0, 1, 0), (-1, 0, 0), (-1, 0, 1)):
            _lhs, _rhs, diff = borcherds_checks(
                fk, a, b, [c], [(r, s, t)], {})[0][0]
            assert not diff
    rng = random.Random(2026)
    lets3 = letters + [fk.coord("x", -3), fk.mom("xi", -3)]

    def rand_state():
        p = fk.vac()
        for _ in range(rng.randint(1, 2)):
            p = fk.mul(p, rng.choice(lets3))
        return p

    done = 0
    while done < 200:
        a, b, c = rand_state(), rand_state(), rand_state()
        if not (a and b and c):
            continue
        r, s, t = (rng.randint(-2, 2) for _ in range(3))
        _lhs, _rhs, diff = borcherds_checks(
            fk, a, b, [c], [(r, s, t)], {})[0][0]
        assert not diff
        done += 1
    assert time.monotonic() - t0 < 120


def test_05_liestar_axioms_jet_tangent():
    """Antisymmetry and Jacobi of the jet tangent bracket over
    Q[x1, x2] at jet order <= 2 and polynomial degree <= 2."""
    world = JetWorld(
        SuperPolyAlgebra([("x1", 0, 0), ("x2", 0, 0)])
    )
    mu = world.bracket()
    fields = [world.tau(nm) for nm in ("x1", "x2")]
    for nm in ("x1", "x2"):
        for other in ("x1", "x2"):
            for k in (0, 1, 2):
                f = world.coord(other, k)
                fields.append(world.jets.mul(f, world.tau(nm)))
                f2 = world.jets.mul(f, world.coord(other, 0))
                fields.append(world.jets.mul(f2, world.tau(nm)))
    rng = random.Random(5)
    picked = rng.sample(fields, 8)
    for a, b in itertools.combinations(picked, 2):
        assert lie_star_check(mu, [a, b])["ok"]
    for trip in itertools.combinations(picked, 3):
        assert jacobi_defect({2: mu}, 3, list(trip), world.module) == {}


def test_06_chevalley_d_squared():
    """d^2 = 0 on at least 50 random 1- and 2-cochains in the window."""
    world = JetWorld(
        SuperPolyAlgebra([("x1", 0, 0), ("x2", 0, 0)])
    )
    jets = world.jets
    rng = random.Random(6)
    keys = [(nm, k) for nm in ("x1", "x2") for k in (0, 1, 2)]

    def rand_val():
        out = {}
        for _ in range(rng.randint(1, 2)):
            p = ring.poly_one()
            for _ in range(rng.randint(0, 2)):
                p = jets.mul(p, jets.gen(rng.choice(keys)))
            c = Fraction(rng.randint(-3, 3))
            if c:
                for mono, cc in p.items():
                    ring.acc(out, mono, c * cc)
        return out

    names = ("x1", "x2")
    done = 0
    while done < 50:
        arity = 1 + (done & 1)
        seeds = {}
        for tup in itertools.combinations(names, arity):
            v = rand_val()
            if v:
                seeds[tup] = {(): v}
        if not seeds:
            continue
        phi = ChevalleyCochain(world, arity, seeds, 0)
        dd = chevalley_d(chevalley_d(phi))
        assert not dd.seeds
        done += 1


def test_07_linfty_direct_vs_coderivation():
    """On a 4-dimensional graded space with arities <= 3, the direct
    generalized-Jacobi verdict agrees with the coderivation square on 50
    random candidate structures."""
    rng = random.Random(7)
    sp = GradedSpace([("u", 0), ("v", 1), ("w", 1), ("z", 2)])
    pars = {n: sp.parity(n) for n in sp.names}
    agreements = 0
    for _ in range(50):
        ls = {}
        for arity in (1, 2, 3):
            vals = {}
            for word in basis_words(sp.names, pars, arity):
                if len(set(word)) != len(word):
                    continue  # repeated letters carry zero when antisymmetric
                want = (sum(pars[n] for n in word) + arity) & 1
                img = {
                    n: Fraction(rng.randrange(-2, 3))
                    for n in sp.names
                    if pars[n] == want and rng.randrange(3) == 0
                }
                img = {n: c for n, c in img.items() if c}
                if img:
                    vals[word] = img
            if vals:
                ls[arity] = BasisMultiMap(sp, arity, vals)
        if not ls:
            continue
        direct = direct_jacobi_report(ls, sp, 3)
        coder = coderivation_square_report(ls, sp, 3)
        assert direct["ok"] == coder["ok"]
        agreements += 1
    assert agreements >= 40


def test_08_picard_lie_infty_torsor():
    """Over Q[x, xi] with D(xi) = x^2: a closed family passes the twisted
    Jacobi check, deleting a component breaks it, and the conjugation
    residual identity holds coefficientwise at arity <= 3."""
    alg = _super_algebroid()
    fam_a, fam_b = _closed_families(alg)
    rng = random.Random(13)
    samples = _samples(alg, rng)
    for fam in (fam_a, fam_b):
        rep = twist_jacobi_report(alg, fam, samples)
        assert rep["ok"] and rep["closed"] and rep["match"]
        for k in fam:
            sub = {j: v for j, v in fam.items() if j != k}
            bad = twist_jacobi_report(alg, sub, samples)
            assert not bad["ok"] and not bad["closed"] and bad["match"]
    betas = {
        1: _form(alg, ("d", "x"), ("g", "x"), ("g", "x")),
        2: _form(alg, ("d", "x"), ("d", "xi"), ("g", "x"), ("g", "x")),
    }
    for al in ({}, fam_a):
        rep = conjugation_report(alg, al, betas, samples)
        assert rep["ok"], rep["failures"][:1]


def test_09_graded_classification_by_forms():
    """The twist by dx1^dx2^dx3 satisfies Lie* Jacobi; the twist by the
    non-closed x4 dx1^dx2^dx3 over Q[x1..x4] fails with a witness."""
    world = JetWorld(
        SuperPolyAlgebra([(f"x{i}", 0, 0) for i in range(1, 4)])
    )
    forms = FormAlgebra(world.base)
    om = forms.mul(
        forms.d_gen("x1"), forms.d_gen("x2"), forms.d_gen("x3")
    )
    P = standard_chiral_infty_algebroid(world.base)
    _, chk = chiral_infty_twist(P, {2: form_cochain(world, om, 2)},
                                check=True)
    assert chk["ok"] and chk["closed"] and chk["match"]

    world4 = JetWorld(
        SuperPolyAlgebra([(f"x{i}", 0, 0) for i in range(1, 5)])
    )
    forms4 = FormAlgebra(world4.base)
    bad = forms4.mul(
        forms4.inject(world4.base.gen("x4")),
        forms4.d_gen("x1"), forms4.d_gen("x2"), forms4.d_gen("x3"),
    )
    assert forms4.derham_d(bad)
    P4 = standard_chiral_infty_algebroid(world4.base)
    _, chk4 = chiral_infty_twist(P4, {2: form_cochain(world4, bad, 2)},
                                 check=True)
    assert not chk4["ok"] and chk4["failures"]
    assert not chk4["closed"] and chk4["match"]


def test_10_homotopy_twist_over_fs_base():
    """Over the m = 2 supersymmetric base: twisting by the closed
    total-degree-2 family passes the homotopy Jacobi checks at arity <= 3;
    the truncated (non-closed) family fails; sequential twists add."""
    base = SuperPolyAlgebra(
        [("x", 0, 0), ("xi", 1, -1)],
        D={"xi": {(("x", 2),): Fraction(1)}},
    )
    P = standard_chiral_infty_algebroid(base)
    world = P.world
    a2, a3 = fs_closed_family(world)
    _, rep = chiral_infty_twist(P, {2: a2, 3: a3}, check=True)
    assert rep["ok"] and rep["closed"] and rep["match"]
    _, bad = chiral_infty_twist(P, {2: a2}, check=True)
    assert not bad["ok"] and not bad["closed"] and bad["match"]
    Q1, _ = chiral_infty_twist(P, {2: a2})
    Q2, seq = chiral_infty_twist(Q1, {3: a3}, check=True)
    assert seq["ok"] and seq["closed"] and seq["match"]


def test_11_module_structure_is_rigid():
    """After any accepted twist the chiral module action is structurally
    unchanged: the same states give bitwise-equal results."""
    world = JetWorld(
        SuperPolyAlgebra([(f"x{i}", 0, 0) for i in range(1, 4)])
    )
    forms = FormAlgebra(world.base)
    om = forms.mul(
        forms.d_gen("x1"), forms.d_gen("x2"), forms.d_gen("x3")
    )
    P = standard_chiral_infty_algebroid(world.base)
    Q, chk = chiral_infty_twist(P, {2: form_cochain(world, om, 2)},
                                check=True)
    assert chk["ok"]
    f = world.jets.mul(world.coord("x1"), world.coord("x2", 1))
    states = [
        world.tau("x1"),
        world.jets.mul(world.coord("x3"), world.tau("x2")),
        world.coord("x1", 2),
        ring.poly_one(),
    ]
    for v in states:
        for n in (-2, -1, 0, 1, 2):
            assert P.module_action(f, n, v) == Q.module_action(f, n, v)
