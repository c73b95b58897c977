"""Finite-dimensional homotopy Lie checks.

Oracles: the sl2 bracket and a small differential graded example satisfy
both verification paths; random structure maps on a 4-dimensional graded
space produce matching verdicts from the direct Jacobi sums and from the
square of the induced coderivation (the two paths share no code beyond
basis bookkeeping); the coderivation square, which computes each word's
image once from cached extraction splits, matches the word-by-word
reference below failure by failure; and the canonical sorts and
extraction splits, whose signs come from ``exact``, match the
letter-by-letter references on every word of up to four letters.
"""

import itertools
import random
from fractions import Fraction

from chiralis import ring
from chiralis.linfty import (
    BasisMultiMap,
    GradedSpace,
    _canon,
    _extractions,
    basis_words,
    coderivation_square_report,
    decalage,
    direct_jacobi_report,
)


# -- the word-by-word coderivation square, kept as the reference --------------


def reference_canon(names, parities, antisym):
    """Bubble-sort a basis tuple with its (anti)symmetry sign; None if zero."""
    arr = list(zip(names, parities))
    sign = 1
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j][0] > arr[j + 1][0]:
                if antisym:
                    sign = -sign
                if arr[j][1] and arr[j + 1][1]:
                    sign = -sign
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    for j in range(len(arr) - 1):
        if arr[j][0] == arr[j + 1][0]:
            if antisym != bool(arr[j][1]):
                return None, 0
    return tuple(n for n, _ in arr), sign


def reference_on_basis(hat, names):
    pars = [hat.space.parity(n) for n in names]
    key, s = reference_canon(names, pars, hat.antisym)
    if key is None:
        return {}
    return {n: s * c for n, c in hat.values.get(key, {}).items()}


def reference_extractions(word, parities, n):
    """Each way to pull n letters of a word to the front, as (chosen,
    rest, parities of rest, Koszul sign), the sign counted letter by
    letter over the unchosen letters each chosen one passes."""
    N = len(word)
    out = []
    for pos in itertools.combinations(range(N), n):
        rest = [p for p in range(N) if p not in pos]
        s = 1
        taken = set()
        for p in pos:
            skipped = sum(parities[q] for q in range(p) if q not in taken)
            if parities[p] and (skipped & 1):
                s = -s
            taken.add(p)
        out.append((tuple(word[p] for p in pos), tuple(word[p] for p in rest),
                    tuple(parities[p] for p in rest), s))
    return out


def reference_coderivation_apply(hat_ls, space, vec):
    shifted = {nm: space.parity(nm) ^ 1 for nm in space.names}
    out = {}
    for word, coeff in vec.items():
        pars = [shifted[x] for x in word]
        for n, hat in hat_ls.items():
            if n > len(word):
                continue
            for chosen, rest, _pars, s in reference_extractions(word, pars, n):
                for nm, c in reference_on_basis(hat, chosen).items():
                    key, s2 = reference_canon(
                        (nm,) + rest, [shifted[x] for x in (nm,) + rest],
                        False
                    )
                    if key is None:
                        continue
                    ring.acc(out, key, coeff * c * s * s2)
    return out


def reference_coderivation_square_report(ls, space, max_k):
    hat_ls = {n: decalage(l) for n, l in ls.items()}
    shifted = {nm: space.parity(nm) ^ 1 for nm in space.names}
    failures = []
    for k in range(1, max_k + 1):
        for word in basis_words(space.names, shifted, k):
            sq = reference_coderivation_apply(
                hat_ls, space,
                reference_coderivation_apply(hat_ls, space, {word: 1}),
            )
            if sq:
                failures.append({"word": word, "square": sq})
    return {"ok": not failures, "failures": failures}


def assert_square_matches_reference(ls, space, max_k=3):
    got = coderivation_square_report(ls, space, max_k)
    want = reference_coderivation_square_report(ls, space, max_k)
    assert got["ok"] == want["ok"]
    assert [f["word"] for f in got["failures"]] == [
        f["word"] for f in want["failures"]]
    for g, w in zip(got["failures"], want["failures"]):
        assert g["square"] == w["square"], (g["word"], g, w)
    return got


def _sl2(fh=2):
    """The sl2 bracket; any ``fh`` but 2 breaks the Jacobi identity."""
    sp = GradedSpace([("e", 0), ("f", 0), ("h", 0)])
    l2 = BasisMultiMap(
        sp,
        2,
        {
            ("e", "f"): {"h": Fraction(1)},
            ("e", "h"): {"e": Fraction(-2)},
            ("f", "h"): {"f": Fraction(fh)},
        },
    )
    return {2: l2}, sp


def _dg():
    sp = GradedSpace([("a", 1), ("b", 2)])
    l1 = BasisMultiMap(sp, 1, {("a",): {"b": Fraction(1)}})
    l2 = BasisMultiMap(sp, 2, {("a", "a"): {"b": Fraction(1)}})
    return {1: l1, 2: l2}, sp


# -- the sign bookkeeping against the letter-by-letter references ------------


FOUR = ("a", "b", "c", "d")


def all_words(max_len=4):
    return [w for k in range(max_len + 1)
            for w in itertools.product(FOUR, repeat=k)]


def test_canon_matches_reference():
    # every word of length <= 4 over four letters, both symmetries, with
    # the plain parities of the space and the shifted ones
    plain = {"a": 0, "b": 1, "c": 0, "d": 1}
    for parity in (plain, {x: p ^ 1 for x, p in plain.items()}):
        for word in all_words():
            pars = tuple(parity[x] for x in word)
            for antisym in (False, True):
                assert _canon(word, pars, antisym) == reference_canon(
                    word, pars, antisym), (word, pars, antisym)


def test_extractions_match_reference():
    plain = {"a": 0, "b": 1, "c": 0, "d": 1}
    for parity in (plain, {x: p ^ 1 for x, p in plain.items()}):
        for word in all_words():
            pars = tuple(parity[x] for x in word)
            for n in range(len(word) + 1):
                assert list(_extractions(word, pars, n)) == (
                    reference_extractions(word, pars, n)), (word, pars, n)


def test_sl2_is_lie():
    ls, sp = _sl2()
    assert direct_jacobi_report(ls, sp, 3)["ok"]
    assert coderivation_square_report(ls, sp, 3)["ok"]


def test_broken_sl2_fails_both_ways():
    ls, sp = _sl2(3)  # wrong coefficient
    assert not direct_jacobi_report(ls, sp, 3)["ok"]
    assert not coderivation_square_report(ls, sp, 3)["ok"]


def test_odd_generator_dg_example():
    ls, sp = _dg()
    assert direct_jacobi_report(ls, sp, 3)["ok"]
    assert coderivation_square_report(ls, sp, 3)["ok"]


def _shifted_random_structure(rng, sp, density, scalar):
    """Random l_1, l_2, l_3 on ``sp`` with value words drawn on the
    shifted parities, so that the arity-2 and arity-3 maps are populated;
    each allowed value letter is drawn with probability 1/density."""
    pars = {n: sp.parity(n) for n in sp.names}
    shifted = {n: p ^ 1 for n, p in pars.items()}
    ls = {}
    for arity in (1, 2, 3):
        vals = {}
        for word in basis_words(sp.names, shifted, arity):
            want = (sum(pars[n] for n in word) + arity) & 1
            img = {
                n: scalar(rng.randrange(-2, 3))
                for n in sp.names
                if pars[n] == want and rng.randrange(density) == 0
            }
            img = {n: c for n, c in img.items() if c}
            if img:
                vals[word] = img
        if vals:
            ls[arity] = BasisMultiMap(sp, arity, vals)
    return ls


def test_coderivation_square_matches_reference_on_examples():
    assert assert_square_matches_reference(*_sl2())["ok"]
    broken = assert_square_matches_reference(*_sl2(3))
    assert broken["failures"]
    assert assert_square_matches_reference(*_dg())["ok"]


def test_coderivation_square_matches_reference_on_random_structures():
    rng = random.Random(5)
    sp = GradedSpace([("u", 0), ("v", 1), ("w", 1), ("z", 2)])
    full = passing = failing = 0
    for trial in range(40):
        density = (2, 4, 16)[trial % 3]
        scalar = Fraction if trial % 4 == 3 else int
        ls = _shifted_random_structure(rng, sp, density, scalar)
        if not ls:
            continue
        full += 2 in ls and 3 in ls
        rep = assert_square_matches_reference(ls, sp)
        passing += rep["ok"]
        failing += bool(rep["failures"])
    # both verdicts and populated higher arities are exercised
    assert full >= 20 and passing and failing, (full, passing, failing)


def test_on_basis_value_cannot_be_corrupted():
    # a value returned on unit basis elements is the caller's to change
    ls, sp = _sl2()
    l2 = ls[2]
    for names in (("e", "f"), ("f", "e")):
        units = [{n: 1} for n in names]
        first = l2(*units)
        want = dict(first)
        assert want
        first["h"] = Fraction(99)
        first["e"] = Fraction(1)
        assert l2(*units) == want
        l2(*units).clear()
        assert l2(*units) == want


def test_even_repeat_value_rejected():
    sp = GradedSpace([("e", 0)])
    try:
        BasisMultiMap(sp, 2, {("e", "e"): {"e": Fraction(1)}})
        assert False
    except ValueError:
        pass


def test_decalage_preserves_content():
    sp = GradedSpace([("a", 1), ("b", 2)])
    l2 = BasisMultiMap(sp, 2, {("a", "a"): {"b": Fraction(1)}})
    hat = decalage(l2)
    assert hat({"a": 1}, {"a": 1})  # survives on the shifted side too


def test_random_structures_verdicts_agree():
    rng = random.Random(99)
    sp = GradedSpace([("u", 0), ("v", 1), ("w", 1), ("z", 2)])
    pars = {n: sp.parity(n) for n in sp.names}
    oks = 0
    for trial in range(25):
        ls = {}
        for arity in (1, 2, 3):
            vals = {}
            for word in basis_words(sp.names, pars, arity):
                # structure maps of arity n carry parity n
                want = (sum(pars[n] for n in word) + arity) & 1
                img = {
                    n: Fraction(rng.randrange(-2, 3))
                    for n in sp.names
                    if pars[n] == want and rng.randrange(3) == 0
                }
                img = {n: c for n, c in img.items() if c}
                if img:
                    try:
                        vals[word] = img
                    except ValueError:
                        pass
            if vals:
                try:
                    ls[arity] = BasisMultiMap(sp, arity, vals)
                except ValueError:
                    continue
        if not ls:
            continue
        direct = direct_jacobi_report(ls, sp, 3)
        coder = coderivation_square_report(ls, sp, 3)
        assert direct["ok"] == coder["ok"], (trial, direct, coder)
        oks += direct["ok"]
    # sanity: random structures are generically not homotopy Lie
    assert oks < 25


# -- algebroid torsors of a differential superalgebra ----------------------------


from chiralis.algebra import SuperPolyAlgebra
from chiralis.starops import jacobi_defect

from finite_algebroid import (DerAlgebroid, conjugation_report,
                              twist_jacobi_report)


def defect_sign(pars):
    """Sign exponent relating the generalized Jacobi defect of a twisted
    structure to the contraction of the differential of the twist."""
    n = len(pars)
    return sum((n - 1 - i) * p for i, p in enumerate(pars)) & 1


def _super_algebroid():
    base = SuperPolyAlgebra(
        [("x", 0, 0), ("xi", 1, -1)],
        D={"xi": {(("x", 2),): Fraction(1)}},
    )
    return DerAlgebroid(base)


def _form(alg, *letters):
    """Product of form generators, multiplied in the order given."""
    return alg.forms.mul(*map(ring.poly_gen, letters))


def _sample_fields(alg):
    x, xi = alg.base.gen("x"), alg.base.gen("xi")
    m = alg.carrier.mul
    return [
        alg.tau("x"),
        alg.tau("xi"),
        m(x, alg.tau("x")),
        m(xi, alg.tau("x")),
        m(x, alg.tau("xi")),
        m(xi, alg.tau("xi")),
    ]


def _closed_families(alg):
    """Two exactly closed twist families on the odd-coordinate base."""
    dx, dxi = ("d", "x"), ("d", "xi")
    gx, gxi = ("g", "x"), ("g", "xi")
    fam_a = {
        1: ring.padd(
            ring.pscale(_form(alg, dx, gx, gxi), 2),
            ring.pscale(_form(alg, dxi, gx, gx), -1),
        ),
        2: _form(alg, dxi, dxi),
    }
    fam_b = {
        2: ring.padd(
            ring.pscale(_form(alg, dx, dxi, gx, gxi), 4),
            ring.pscale(_form(alg, dxi, dxi, gx, gx), -1),
        ),
        3: _form(alg, dxi, dxi, dxi),
    }
    return fam_a, fam_b


def _samples(alg, rng, per_arity=8):
    fields = _sample_fields(alg)
    return [
        [fields[rng.randrange(len(fields))] for _ in range(k)]
        for k in (1, 2, 3)
        for _ in range(per_arity)
    ]


def _random_carrier_elements(alg, rng, count):
    """Parity-homogeneous carrier elements of tangent degree <= 1: a few
    terms f or f * tau_g, with f a random base monomial."""
    names = alg.base.gen_names
    out = []
    while len(out) < count:
        want = rng.randrange(2)
        e = {}
        for _ in range(rng.randint(1, 4)):
            term = {(): Fraction(rng.choice((-2, -1, 1, 3)))}
            for _ in range(rng.randrange(3)):
                term = alg.carrier.mul(term, alg.base.gen(rng.choice(names)))
            if rng.randrange(3):
                term = alg.carrier.mul(term, alg.tau(rng.choice(names)))
            if term and alg.carrier.poly_parity(term) == want:
                e = ring.padd(e, term)
        if e:
            out.append(e)
    return out


def test_tangent_algebra_differential_is_the_commutator():
    """On the carrier of ``algebra.tangent_algebra``, D is the base
    differential on functions and the commutator [D, X] on a vector field
    X: for every base generator h, (DX)(h) = D(X(h)) - (-1)^|X| X(D h)."""
    bases = [
        _super_algebroid().base,
        SuperPolyAlgebra([("x1", 0, 0), ("x2", 0, 0)], D={}),
        # D(y) involves an odd generator, so D(tau_xi) is not zero
        SuperPolyAlgebra(
            [("x", 0, 0), ("xi", 1, -1), ("y", 0, -2), ("et", 1, -1)],
            D={"y": {(("x", 1), ("xi", 1)): Fraction(1)},
               "et": {(("x", 2),): Fraction(1)}}),
    ]
    rng = random.Random(29)
    for base in bases:
        alg = DerAlgebroid(base)
        D = alg.carrier.D
        for X in _random_carrier_elements(alg, rng, 40):
            DX = D(X)
            assert alg.fun_part(DX) == base.D(alg.fun_part(X))
            sign = (-1) ** alg.carrier.poly_parity(X)
            for name in base.gen_names:
                h = base.gen(name)
                want = ring.psub(
                    base.D(alg.field_apply(X, h)),
                    ring.pscale(alg.field_apply(X, base.D(h)), sign))
                assert alg.field_apply(DX, h) == want, (X, name)


def test_signed_contraction_is_graded_antisymmetric():
    alg = _super_algebroid()
    fields = _sample_fields(alg)
    forms = [
        _form(alg, ("d", "x"), ("d", "xi")),
        _form(alg, ("d", "xi"), ("d", "xi")),
        _form(alg, ("d", "x"), ("d", "xi"), ("g", "xi")),
    ]
    for w in forms:
        for u, v in itertools.product(fields, repeat=2):
            pu = alg.carrier.poly_parity(u)
            pv = alg.carrier.poly_parity(v)
            a = alg.contract_signed(w, [u, v])
            b = alg.contract_signed(w, [v, u])
            if pu * pv:
                assert not ring.psub(a, b), (a, b)
            else:
                assert not ring.padd(a, b), (a, b)


def test_closed_families_are_closed_and_pass_jacobi():
    alg = _super_algebroid()
    fam_a, fam_b = _closed_families(alg)
    rng = random.Random(11)
    samples = _samples(alg, rng)
    for fam in (fam_a, fam_b):
        rep = twist_jacobi_report(alg, fam, samples)
        assert rep["closed"], rep
        assert rep["ok"], rep["failures"][:1]
        assert rep["match"]


def test_deleting_any_component_breaks_jacobi():
    alg = _super_algebroid()
    fam_a, fam_b = _closed_families(alg)
    rng = random.Random(13)
    samples = _samples(alg, rng)
    for fam in (fam_a, fam_b):
        for k in fam:
            sub = {j: v for j, v in fam.items() if j != k}
            rep = twist_jacobi_report(alg, sub, samples)
            assert not rep["closed"]
            assert not rep["ok"]
            assert rep["match"]


def test_jacobi_defect_equals_differential_of_twist():
    # for an arbitrary (not closed) twist the arity-k defect is the signed
    # contraction of the k-form component of its total differential
    alg = _super_algebroid()
    alphas = {
        1: _form(alg, ("d", "x"), ("g", "x"), ("g", "xi")),
        2: _form(alg, ("d", "x"), ("d", "xi"), ("g", "x"), ("g", "xi")),
    }
    total = ring.padd(alphas[1], alphas[2])
    parts = alg.forms.split(alg.forms.total_d(total))
    ops = alg.ops(alphas)
    rng = random.Random(17)
    for args in _samples(alg, rng, per_arity=6):
        k = len(args)
        d = jacobi_defect(ops, k, list(args), alg.module)
        d = d.get((), {}) if d else {}
        r = alg.contract(parts.get(k, {}), args) if parts.get(k) else {}
        if r and defect_sign([alg.carrier.poly_parity(e) for e in args]):
            r = ring.pscale(r, -1)
        assert not ring.psub(d, r), (args, d, r)


def test_conjugation_by_morphism_forms():
    alg = _super_algebroid()
    fam_a, fam_b = _closed_families(alg)
    betas = {
        1: _form(alg, ("d", "x"), ("g", "x"), ("g", "x")),
        2: _form(alg, ("d", "x"), ("d", "xi"), ("g", "x"), ("g", "x")),
        3: _form(alg, ("d", "xi"), ("d", "xi"), ("d", "xi"), ("g", "xi")),
    }
    rng = random.Random(19)
    samples = _samples(alg, rng, per_arity=6)
    for al in ({}, fam_a, fam_b):
        rep = conjugation_report(alg, al, betas, samples)
        assert rep["ok"], (len(rep["failures"]), rep["failures"][:1])
        if al:
            after = twist_jacobi_report(alg, rep["twist"], samples)
            assert after["ok"] and after["closed"] and after["match"]


def test_conjugation_on_even_base():
    base = SuperPolyAlgebra([("x1", 0, 0), ("x2", 0, 0)], D={})
    alg = DerAlgebroid(base)
    x1, x2 = base.gen("x1"), base.gen("x2")
    m = alg.carrier.mul
    fields = [
        alg.tau("x1"),
        alg.tau("x2"),
        m(x1, alg.tau("x2")),
        m(x2, alg.tau("x1")),
    ]
    rng = random.Random(23)
    samples = [
        [fields[rng.randrange(4)] for _ in range(k)]
        for k in (1, 2, 3)
        for _ in range(8)
    ]
    beta = {1: _form(alg, ("d", "x1"), ("g", "x2"))}
    rep = conjugation_report(alg, {}, beta, samples)
    assert rep["ok"], rep["failures"][:1]
