"""Chiral algebroids over a polynomial base.

The standard model lives on the free-field state space: the carrier splits
as jets of the base plus jets of vector fields, the bracket is the standard
Lie* bracket of the free-field system pulled through the jet dictionary,
and the full chiral module action of jets of functions is available at
every integer mode.  ``ChiralInftyAlgebroid`` is the one chiral algebroid
class: its unary operation is the differential induced by the base, and
twists add a family of antisymmetric function-multilinear cochains on
lifted vector fields to its operations; the twisted structure satisfies
the generalized Jacobi identities exactly when the family is closed for
the combined differential ``lc_d``.  An ordinary chiral algebroid, over an
even base with D = 0, is the strict case: the unary operation is zero,
only the bracket is twisted (by a 2-cochain), and ``lc_d`` reduces to the
Chevalley differential.

A cochain family maps each arity n <= ``starops.MAX_ARITY`` to an
arity-n cochain, and it has one zero: a member that vanishes is absent
from the dict, never None and never a cochain without seeds (``lc_d``
and ``ChiralInftyAlgebroid`` drop the ones that cancel).  A twist
component is added to an operation by ``starops.plus_op`` and a
morphism family is ``starops.identity_plus`` of its cochains; a cochain
evaluates each argument through its vector-field part.

``form_cochain`` is the one path from a differential form over an even
base to a cochain: its value on frames is the form contracted with them
(``algebra.FormAlgebra.iota``), embedded into jets by g -> g and
dg -> g' (so f dg maps to f g').  A 3-form yields an arity-2 cochain
with one-form values; a 2-form yields an arity-2 cochain with function
values, or, negated, an arity-1 cochain with one-form values.  On forms this matches the De Rham differential
with the Chevalley one: the Chevalley differential of the arity-1
cochain of -beta is the arity-2 cochain of d(beta) (``lc_d`` takes the
Chevalley part with the sign (-1)^(1 + p_i |phi|), so on parity-even
cochains it is minus that image).  ``form_twist`` is the one path from a
3-form and a 2-form to a twist cochain.

The generalized Jacobi identities of a twisted structure and the
equation of a homotopy morphism are evaluated by
``starops.jacobi_report`` and ``starops.morphism_defect``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import ring
from .algebra import FormAlgebra, SuperPolyAlgebra
from .chevalley import (
    ChevalleyCochain,
    JetWorld,
    _chevalley_d,
    frame_cochain,
    tau_name,
)
from .exact import antisym_sign, unshuffles
from .starops import (
    MAX_ARITY,
    LambdaPoly,
    StarOp,
    identity_plus,
    jacobi_report,
    lp_acc,
    lp_from_elem,
    lp_map_coeffs,
    lp_scale,
    morphism_defect,
    permute_slots,
    plus_op,
)


# -- cochain helpers --------------------------------------------------------------


def cochain_add(
    world: JetWorld, *cochains: ChevalleyCochain
) -> ChevalleyCochain:
    """Sum of one or more cochains of one arity."""
    arity = cochains[0].arity
    par = cochains[0].parity
    if any(c.arity != arity or c.parity != par for c in cochains):
        raise ValueError("cochain sum needs equal arities and parities")
    seeds: Dict[tuple, LambdaPoly] = {}
    for c in cochains:
        for tup, val in c.seeds.items():
            lp_acc(seeds.setdefault(tup, {}), val)
    return ChevalleyCochain(world, arity, seeds, par)


# -- the sample window ---------------------------------------------------------------


def default_field_samples(
    world: JetWorld, jet_order: int = 1, degree: int = 1
) -> List[List[ring.Poly]]:
    """Vector-field triples on the standard window.

    ``degree`` <= 0 gives the frame fields only; any ``degree`` >= 1 adds
    each frame field multiplied by one coordinate jet of order up to
    ``jet_order``.
    """
    fields: List[ring.Poly] = []
    names = world.frame_names()
    for nm in names:
        fields.append(world.tau(nm))
    for nm in names:
        for other in names:
            for k in range(0, jet_order + 1):
                if degree >= 1:
                    fields.append(
                        world.jets.mul(
                            world.coord(other, k), world.tau(nm)
                        )
                    )
    samples = []
    base = [world.tau(nm) for nm in names]
    for tup in itertools.combinations_with_replacement(
        range(len(base)), 3
    ):
        samples.append([base[i] for i in tup])
    step = max(1, len(fields) // 6)
    picked = fields[::step][:6]
    for tup in itertools.combinations(range(len(picked)), 3):
        samples.append([picked[i] for i in tup])
    return samples


def sub_samples(samples, k: int) -> List[list]:
    """The distinct length-k sub-tuples of the sample tuples, in order."""
    seen = {}
    for tup in samples:
        for sub in itertools.combinations(tup, k):
            key = tuple(tuple(sorted(e.items())) for e in sub)
            seen.setdefault(key, list(sub))
    return list(seen.values())


# -- differential forms into cochains -----------------------------------------------


def form_cochain(
    world: JetWorld, form: ring.Poly, arity: int
) -> ChevalleyCochain:
    """The arity-``arity`` cochain of a differential form over an even base.

    Its value on frames (xi_1, ..., xi_n) is the form contracted with
    them, xi_n first, embedded into jets by g -> g and dg -> g'.  Every
    contraction must be a function or a one-form.
    """
    base = world.base
    if any(base.parity(nm) for nm in base.gen_names):
        raise ValueError("form cochains need an even base")
    forms = FormAlgebra(base)

    def jet_letter(key):
        kind, g = key
        letter = (g, 1 if kind == "d" else 0)
        world.coord(*letter)  # validates the letter
        return letter, 1

    def seed(tup, _pars, _taus):
        rest = form
        for nm in reversed(tup):
            # the frame d/d(nm) is even over an even base
            rest = forms.iota(rest, {nm: ring.poly_one()}, 0)
        degrees = {forms.form_degree_of_mono(m) for m in rest}
        if len(degrees) > 1 or degrees - {0, 1}:
            raise ValueError(
                f"the contraction with {tup} is not all functions or"
                " all one-forms"
            )
        return lp_from_elem(ring.substitute(rest, jet_letter,
                                            world.jets.parity))

    return frame_cochain(world, arity, seed, 0)


def form_twist(
    world: JetWorld,
    three_form: Optional[ring.Poly] = None,
    two_form: Optional[ring.Poly] = None,
) -> Tuple[Optional[ChevalleyCochain], bool]:
    """The twist cochain of a 3-form and a 2-form together, and whether
    both forms are De Rham closed.

    Each form enters as its arity-2 :func:`form_cochain`; the twists add,
    which is the product-torsor structure at window scale.  None if
    neither form is given.
    """
    forms = FormAlgebra(world.base)
    parts = []
    closed = True
    for form in (three_form, two_form):
        if form is not None:
            closed = closed and not forms.derham_d(form)
            parts.append(form_cochain(world, form, 2))
    return (cochain_add(world, *parts) if parts else None), closed


# -- homotopy chiral algebroids over a differential base -----------------------------


def differential_current(world: JetWorld) -> ring.Poly:
    """The canonical odd element sum_g D(g) tau_g of the carrier."""
    jets = world.jets
    out: ring.Poly = {}
    for g in world.base.gen_names:
        img = world.base.D_images.get(g)
        if not img:
            continue
        term = ring.pmul(jets.lift(img), world.tau(g), jets.parity)
        ring.acc_poly(out, term)
    return out


def jet_differential(world: JetWorld) -> StarOp:
    """The induced differential on the carrier as an arity-1 operation.

    This is the zero mode of the canonical odd current; on jets of
    functions it agrees with the prolonged base differential, on lifted
    vector fields it picks up the normal-ordering correction.
    """
    fa = world.to_fock(differential_current(world))

    def fn(v):
        return lp_from_elem(
            world.from_fock(world.fock.nth(fa, 0, world.to_fock(v))))

    return StarOp(1, world.module, fn, 1)


def hat_d(phi: ChevalleyCochain) -> ChevalleyCochain:
    """The differential-induced part of the cochain differential.

    (hat_d phi)(x_1..x_n) = D(phi(x_1..x_n))
        + (-1)^(n-1) sum_i +- phi(x_1, ..., D x_i, ..., x_n)
    computed on frame tuples and rewrapped as a cochain; together with the
    Chevalley differential it squares to zero and controls twisted Jacobi.
    """
    world = phi.world
    n = phi.arity
    if not differential_current(world):
        # a base without a differential: both parts vanish
        return ChevalleyCochain(world, n, {}, (phi.parity + 1) & 1)
    d1 = jet_differential(world)
    # graded-commutator sign: hat phi = l1 o phi - (-1)^|phi| phi o l1
    s_extra = -1 if not (phi.parity & 1) else 1

    def seed(tup, pars, args):
        total: LambdaPoly = {}
        lp_acc(total, lp_map_coeffs(phi(*args), world.jets.D))
        for sig in unshuffles(1, n):
            img = world.sigma(d1(args[sig[0] - 1]).get((), {}))
            if not img:
                continue
            val = phi(img, *[args[s - 1] for s in sig[1:]])
            sign = s_extra * antisym_sign(sig, pars)
            lp_acc(total, permute_slots(val, sig, world.module, sign))
        if (phi.parity + n) & 1:
            # global sign on the class |phi| != n mod 2, which makes this
            # anticommute with the bracket part of the differential
            total = lp_scale(total, -1)
        return total

    return frame_cochain(world, n, seed, (phi.parity + 1) & 1)


def lc_d(
    world: JetWorld, alphas: Dict[int, ChevalleyCochain]
) -> Dict[int, ChevalleyCochain]:
    """The truncated Chevalley--De Rham differential of a cochain family.

    Component k of the image combines the Chevalley differential of the
    arity-(k-1) member with the differential-induced part of the arity-k
    member; a component that vanishes is left out.
    """
    out: Dict[int, ChevalleyCochain] = {}
    for k in range(1, max(alphas, default=0) + 2):
        parts = []
        if k - 1 in alphas:
            parts.append(_chevalley_d(alphas[k - 1], True))
        if k in alphas:
            parts.append(hat_d(alphas[k]))
        if parts:
            d = cochain_add(world, *parts)
            if d.seeds:
                out[k] = d
    return out


def validate_lc_component(
    world: JetWorld,
    phi: ChevalleyCochain,
    total_degree: int = 2,
) -> None:
    """Arity, degree and parity bookkeeping of one twist component
    (errors on abuse)."""
    n = phi.arity
    if n > MAX_ARITY:
        raise ValueError(
            f"arity-{n} component is above the highest arity {MAX_ARITY}"
        )
    want_par = (total_degree + n) & 1
    if phi.parity != want_par:
        raise ValueError(
            f"arity-{n} component must have operation parity {want_par}"
        )
    shift = total_degree - n
    for tup, val in phi.seeds.items():
        base = sum(-world.ext.degree(tau_name(nm)) for nm in tup)
        want = shift - base
        for elem in val.values():
            d = world.jets.poly_degree(elem)
            if d is not None and d != want:
                raise ValueError(
                    f"arity-{n} component has degree {d} != {want} "
                    f"on {tup}"
                )


class ChiralInftyAlgebroid:
    """The standard homotopy chiral algebroid of a base, twisted.

    Operations: the induced differential at arity 1 plus an optional
    twist component, the standard bracket at arity 2 plus a twist, and
    pure twist components at arity 3.  Each twist component has total
    degree 2; a component of arity above ``MAX_ARITY`` is an error, and
    one with no seeds is left out of ``alphas``.  The chiral module
    action of jets of functions is part of the structure and is never
    touched by a twist.
    """

    def __init__(
        self,
        world: JetWorld,
        alphas: Optional[Dict[int, ChevalleyCochain]] = None,
    ):
        self.world = world
        self.alphas: Dict[int, ChevalleyCochain] = {}
        for n, a in (alphas or {}).items():
            if a.arity != n:
                raise ValueError("component arity mismatch")
            validate_lc_component(world, a, total_degree=2)
            if a.seeds:
                self.alphas[n] = a
        self._ops: Optional[Dict[int, StarOp]] = None

    def ops(self) -> Dict[int, StarOp]:
        if self._ops is None:
            out = {1: jet_differential(self.world), 2: self.world.bracket()}
            for n, a in self.alphas.items():
                out[n] = plus_op(out.get(n), a)
            self._ops = out
        return self._ops

    def bracket(self, a: ring.Poly, b: ring.Poly) -> LambdaPoly:
        return self.ops()[2](a, b)

    def module_action(
        self, a: ring.Poly, n: int, v: ring.Poly
    ) -> ring.Poly:
        """The n-th chiral action of a jet of a function on the carrier.

        Defined for every integer n through the free-field dictionary;
        independent of any twist.
        """
        w = self.world
        if w.sigma(a):
            raise ValueError("the acting element must be a function")
        return w.from_fock(w.fock.nth(w.to_fock(a), n, w.to_fock(v)))


def standard_chiral_infty_algebroid(
    base: SuperPolyAlgebra,
) -> ChiralInftyAlgebroid:
    return ChiralInftyAlgebroid(JetWorld(base))


def fs_closed_family(
    world: JetWorld,
) -> Tuple[ChevalleyCochain, ChevalleyCochain]:
    """The closed twist family (a2, a3) over Q[x, xi] with D(xi) = x^2.

    Its components have weight <= 3; a2 alone is not closed, and a3 is the
    ternary partner that closes it.
    """
    jets = world.jets

    def mono(*keys):
        out = ring.poly_one()
        for k in keys:
            out = jets.mul(out, jets.gen(k))
        return out

    a2 = ChevalleyCochain(
        world, 2,
        {("x", "x"): {
            ((1, 1),): ring.pscale(mono(("x", 0), ("x", 2)), 2),
            (): ring.padd(
                ring.pscale(mono(("x", 1), ("x", 2)), -1),
                ring.pscale(mono(("x", 0), ("x", 3)), -1),
            ),
        }},
        0,
    )
    a3 = ChevalleyCochain(
        world, 3,
        {("x", "x", "xi"): {
            ((1, 1), (2, 2)): {(): Fraction(1, 2)},
            ((1, 2), (2, 1)): {(): Fraction(-1, 2)},
        }},
        1,
    )
    return a2, a3


def chiral_infty_twist(
    P: ChiralInftyAlgebroid,
    alphas: Dict[int, ChevalleyCochain],
    check: bool = False,
) -> Tuple[ChiralInftyAlgebroid, Optional[dict]]:
    """Add a cochain family to the operations; twists are additive.

    With ``check`` set the generalized Jacobi identities of the twisted
    structure are evaluated on the distinct singletons and pairs of
    :func:`default_field_samples` and then on its triples, and compared
    against the independently computed cocycle condition on the total
    twist.
    """
    world = P.world
    # the new algebroid drops the components that cancel
    out = ChiralInftyAlgebroid(world, {
        n: cochain_add(world, *(f[n] for f in (P.alphas, alphas) if n in f))
        for n in set(P.alphas) | set(alphas)
    })
    if not check:
        return out, None
    samples = default_field_samples(world)
    window = [s for k in range(1, MAX_ARITY) for s in sub_samples(samples, k)]
    report = jacobi_report(out.ops(), window + samples, MAX_ARITY)
    report["closed"] = not lc_d(world, out.alphas)
    report["match"] = report["closed"] == report["ok"]
    return out, report


def morphism_residual(
    P: ChiralInftyAlgebroid,
    Q: ChiralInftyAlgebroid,
    betas: Dict[int, ChevalleyCochain],
    args: Sequence[ring.Poly],
) -> LambdaPoly:
    """Defect of the homotopy morphism equation at arity len(args).

    The morphism from P to Q is f_1 = id + beta_1 after projection and
    f_n = beta_n after projection for n >= 2; the defect is the
    difference between the two sides of the morphism equation, supported
    up to arity three.
    """
    module = P.world.module
    return morphism_defect(P.ops(), Q.ops(), identity_plus(module, betas),
                           args, module)


def chiral_infty_morphism(
    P: ChiralInftyAlgebroid,
    betas: Dict[int, ChevalleyCochain],
) -> dict:
    """Build the morphism given by a degree-1 cochain family and check it.

    The morphism maps P to its twist by the differential of the family;
    the report records, on the leading 1, 2 and 3 arguments of each
    :func:`default_field_samples` triple, that the morphism equation holds
    against that target, and that against P itself the residual is
    exactly the differential of the family.
    """
    world = P.world
    for nn, b in betas.items():
        if b.arity != nn:
            raise ValueError("component arity mismatch")
        validate_lc_component(world, b, total_degree=1)
    samples = default_field_samples(world)
    dbeta = lc_d(world, betas)
    target, _ = chiral_infty_twist(P, dbeta)
    report = {
        "ok": True,
        "failures": [],
        "residual_matches_differential": True,
        "exact_target": sorted(dbeta),
    }
    for s in samples:
        for k in range(1, MAX_ARITY + 1):
            args = list(s[:k])
            res = morphism_residual(P, target, betas, args)
            if res:
                report["ok"] = False
                report["failures"].append(
                    {"k": k, "args": args, "residual": res}
                )
            res_self = morphism_residual(P, P, betas, args)
            want = dbeta[k](*args) if k in dbeta else {}
            if res_self != want:
                report["residual_matches_differential"] = False
    return report
