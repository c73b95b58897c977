"""The homotopy morphism equation on both carriers.

Oracles:
  * a golden digest of the nonzero residuals of ``starops.morphism_defect``
    on fixed samples of the finite carrier
    (``finite_algebroid.DerAlgebroid``) and of the chiral one
    (``algebroid.morphism_residual``), against the right
    target and against the source itself; it was recorded before the two
    carriers shared one implementation of the equation, so it pins the
    residuals of the two separate implementations;
  * fault injection: against the source itself as target the residual is
    not zero when the differential of the morphism family is not, so a
    residual that always came out zero fails here;
  * a component above ``starops.MAX_ARITY`` is refused, where it was
    stored and then left out of the operations, so that a check of the
    twist reported ok, closed and match on a structure it never saw.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from chiralis.algebra import SuperPolyAlgebra
from chiralis.algebroid import (
    ChiralInftyAlgebroid,
    chiral_infty_morphism,
    chiral_infty_twist,
    default_field_samples,
    lc_d,
    morphism_residual,
)
from chiralis.chevalley import ChevalleyCochain, JetWorld
from chiralis.cli import enc_any
from chiralis.starops import morphism_defect

from finite_algebroid import conjugation_report
from test_chevalley import symmetrized_seed
from test_linfty import (_closed_families, _form, _sample_fields,
                         _super_algebroid)

GOLDEN = "680888f1385eed4031334e60c72ce2eb6fdb85228c0921c1f2e53c852ffcb30b"


def finite_setup():
    """A twist family, a morphism family and its target over Q[x, xi],
    D(xi) = x^2, with samples from four fields."""
    alg = _super_algebroid()
    fields = _sample_fields(alg)[:4]
    alphas = _closed_families(alg)[0]
    dx, dxi, gx, gxi = ("d", "x"), ("d", "xi"), ("g", "x"), ("g", "xi")
    betas = {
        1: _form(alg, dx, gx, gx),
        2: _form(alg, dx, dxi, gx, gx),
        3: _form(alg, dxi, dxi, dxi, gxi),
    }
    samples = [list(w) for k in (1, 2, 3)
               for w in itertools.product(fields, repeat=k)]
    return alg, alphas, betas, samples


def finite_residuals(wrong_only=False):
    alg, alphas, betas, samples = finite_setup()
    target = conjugation_report(alg, alphas, betas, [])["twist"]
    src = alg.ops(alphas)
    fs = alg.morphism_ops(betas)
    targets = [src] if wrong_only else [alg.ops(target), src]
    for tgt in targets:
        for args in samples:
            yield morphism_defect(src, tgt, fs, args, alg.module)


def chiral_setup():
    world = JetWorld(SuperPolyAlgebra(
        [("x", 0, 0), ("y", 0, 0), ("xi", 1, -1), ("et", 1, -1)],
        D={"xi": {(("x", 1), ("y", 1)): Fraction(1)},
           "et": {(("x", 2),): Fraction(1)}},
    ))
    jets = world.jets
    X, Y = world.coord("x"), world.coord("y")
    XI, ET = world.coord("xi"), world.coord("et")
    b1 = ChevalleyCochain(world, 1, {("x",): {(): jets.mul(X, Y)}}, 0)
    s2 = symmetrized_seed(world, ("x", "xi"), {(): jets.mul(X, X)})
    b2 = ChevalleyCochain(world, 2, {("x", "xi"): s2}, 1)
    s3 = symmetrized_seed(world, ("x", "x", "x"),
                          {((1, 1),): jets.mul(XI, ET)})
    b3 = ChevalleyCochain(world, 3, {("x", "x", "x"): s3}, 0)
    return world, {1: b1, 2: b2, 3: b3}


def chiral_residuals(wrong_only=False):
    world, betas = chiral_setup()
    P = ChiralInftyAlgebroid(world)
    target, _ = chiral_infty_twist(P, lc_d(world, dict(betas)))
    targets = [P] if wrong_only else [target, P]
    for tgt in targets:
        for s in default_field_samples(world)[::2]:
            for k in (1, 2, 3):
                yield morphism_residual(P, tgt, betas, list(s[:k]))


def test_morphism_residuals_golden():
    entries = []
    for carrier, residuals in (("finite", finite_residuals()),
                               ("chiral", chiral_residuals())):
        for i, res in enumerate(residuals):
            if res:
                entries.append([carrier, i, res])
    assert len(entries) == 15
    text = json.dumps(enc_any(entries), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN


@pytest.mark.parametrize("residuals", [finite_residuals, chiral_residuals],
                         ids=["finite", "chiral"])
def test_wrong_target_leaves_a_residual(residuals):
    # the source itself is the wrong target when d(beta) != 0
    assert any(residuals(wrong_only=True))



def test_components_above_the_highest_arity_are_refused():
    world, betas = chiral_setup()
    P = ChiralInftyAlgebroid(world)
    seeds = {("et", "x", "xi", "y"): {(): world.coord("x")}}
    with pytest.raises(ValueError, match="highest arity 3"):
        chiral_infty_twist(P, {4: ChevalleyCochain(world, 4, seeds, 0)},
                           check=True)
    with pytest.raises(ValueError, match="highest arity 3"):
        chiral_infty_morphism(
            P, {**betas, 4: ChevalleyCochain(world, 4, seeds, 1)})
