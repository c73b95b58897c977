"""Chiral algebroids over a polynomial base.

The standard model lives on the free-field state space: the carrier splits
as jets of the base plus jets of vector fields, the bracket is the standard
Lie* bracket of the free-field system pulled through the jet dictionary,
and the full chiral module action of jets of functions is available at
every integer mode.  Twists add an antisymmetric function-multilinear
2-cochain on lifted vector fields to the bracket; the twisted bracket
satisfies the Lie* Jacobi identity exactly when the cochain is closed for
the Chevalley differential.

Differential-form data embeds through the identification of one-forms with
the first-order jet component: f dg maps to f g' inside the jet algebra.
A 3-form over the base yields an arity-2 cochain (the value is the form
contracted with the two arguments), a 2-form yields an arity-1 cochain;
this functor matches the De Rham differential with the Chevalley one.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from . import ring
from .algebra import FormAlgebra, SuperPolyAlgebra
from .chevalley import (
    ChevalleyCochain,
    JetWorld,
    chevalley_d,
    tau_name,
)
from .exact import antisym_sign, binomial, unshuffles
from .starops import (
    LambdaPoly,
    StarOp,
    compose_front,
    jacobi_defect,
    lp_add,
    lp_eliminate,
    lp_from_elem,
    lp_map_coeffs,
    lp_mul_mono,
    lp_normal,
    lp_relabel,
    lp_scale,
)


# -- cochain helpers --------------------------------------------------------------


def cochain_seeds(phi: ChevalleyCochain) -> Dict[tuple, LambdaPoly]:
    """The canonical (sorted-tuple) seed table of a cochain."""
    return {
        tup: val
        for tup, val in phi.table.items()
        if tuple(sorted(tup)) == tup
    }


def cochain_add(
    world: JetWorld, *cochains: Optional[ChevalleyCochain]
) -> Optional[ChevalleyCochain]:
    """Sum of cochains of one arity (None counts as zero)."""
    live = [c for c in cochains if c is not None]
    if not live:
        return None
    arity = live[0].arity
    par = live[0].parity
    if any(c.arity != arity or c.parity != par for c in live):
        raise ValueError("cochain sum needs equal arities and parities")
    seeds: Dict[tuple, LambdaPoly] = {}
    for c in live:
        for tup, val in cochain_seeds(c).items():
            seeds[tup] = lp_add(seeds.get(tup, {}), val)
    seeds = {t: lp_normal(v) for t, v in seeds.items()}
    return ChevalleyCochain(
        world, arity, {t: v for t, v in seeds.items() if v}, par
    )


def cochain_is_zero(phi: Optional[ChevalleyCochain]) -> bool:
    return phi is None or not any(
        lp_normal(v) for v in phi.table.values()
    )


# -- the standard chiral algebroid and its twists ---------------------------------


class ChiralAlgebroid:
    """The standard chiral algebroid of a base, twisted by a 2-cochain.

    The carrier is the direct sum of the jets of the base and the jets of
    vector fields (tangent degree at most one in the extended jet
    algebra); the chiral module action of jets of functions is part of the
    structure and is never touched by a twist.
    """

    def __init__(
        self, world: JetWorld, alpha: Optional[ChevalleyCochain] = None
    ):
        if alpha is not None and alpha.arity != 2:
            raise ValueError("a twist is an arity-2 cochain")
        self.world = world
        self.alpha = alpha
        mu = world.bracket()
        if alpha is None:
            self.bracket_op = mu
        else:
            def fn(a, b, _mu=mu, _al=alpha, _w=world):
                v = _mu(a, b)
                sa, sb = _w.sigma(a), _w.sigma(b)
                if sa and sb:
                    v = lp_add(v, _al(sa, sb))
                return lp_normal(v)

            self.bracket_op = StarOp(2, world.module, fn, 0)

    def bracket(self, a: ring.Poly, b: ring.Poly) -> LambdaPoly:
        return self.bracket_op(a, b)

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


def standard_chiral_algebroid(base: SuperPolyAlgebra) -> ChiralAlgebroid:
    return ChiralAlgebroid(JetWorld(base))


def twist_chiral(
    algebroid: ChiralAlgebroid,
    alpha: ChevalleyCochain,
    check: bool = False,
    samples: Optional[Sequence[Sequence[ring.Poly]]] = None,
) -> Tuple[ChiralAlgebroid, Optional[dict]]:
    """Add an arity-2 cochain to the bracket; optionally verify Jacobi.

    With ``check`` set the Lie* Jacobi identity of the twisted bracket is
    evaluated on the samples and compared with closedness of the total
    twist: the two verdicts must agree, and the report says whether they
    do.
    """
    world = algebroid.world
    total = cochain_add(world, algebroid.alpha, alpha)
    out = ChiralAlgebroid(world, total)
    if not check:
        return out, None
    if samples is None:
        samples = default_field_samples(world)
    report = liestar_jacobi_report(out.bracket_op, samples)
    report["closed"] = cochain_is_zero(chevalley_d(total))
    report["match"] = report["closed"] == report["ok"]
    return out, report


def default_field_samples(
    world: JetWorld, jet_order: int = 1, degree: int = 1
) -> List[List[ring.Poly]]:
    """Vector-field triples on the standard window.

    Frame fields multiplied by coordinate jets of order up to
    ``jet_order`` and polynomial degree up to ``degree``.
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


def liestar_jacobi_report(
    op: StarOp, samples: Sequence[Sequence[ring.Poly]]
) -> dict:
    """Classical Lie* Jacobi (arity 3) of a single bracket on samples."""
    failures = []
    for args in samples:
        if len(args) != 3:
            continue
        d = jacobi_defect({2: op}, 3, list(args), op.module)
        if d:
            failures.append({"args": args, "defect": d})
    return {"ok": not failures, "failures": failures}


def liestar_infty_jacobi(
    ops: Dict[int, StarOp],
    samples: Sequence[Sequence[ring.Poly]],
    k_max: int = 3,
    window: Optional[dict] = None,
) -> dict:
    """Generalized Jacobi report of a family of star operations."""
    module = next(iter(ops.values())).module
    failures = []
    checked = 0
    for args in samples:
        k = len(args)
        if k > k_max:
            continue
        checked += 1
        d = jacobi_defect(ops, k, list(args), module)
        if d:
            failures.append({"arity": k, "args": args, "defect": d})
    return {
        "ok": not failures,
        "failures": failures,
        "checked": checked,
        "window": dict(window or {}),
    }


# -- free-field witnesses -----------------------------------------------------------


def non_centrality_witness(world: JetWorld) -> dict:
    """The defect of naive normal ordering on the standard carrier.

    Compares the (-1)-st product of the squared zero-mode coordinate with
    the naive Fock monomial against the first momentum mode; their
    difference is a pure first-order coordinate mode.
    """
    nm = world.frame_names()[0]
    fk = world.fock
    x0 = ring.poly_gen(("c", nm, 0))
    mom = ring.poly_gen(("m", nm, -1))
    product = fk.nth(fk.mul(x0, x0), -1, mom)
    naive = fk.mul(x0, x0, mom)
    diff = ring.psub(product, naive)
    return {
        "difference": diff,
        "jet_image": world.from_fock(diff),
        "generator": nm,
    }


def extended_commutator_defect(
    world: JetWorld,
    a: ring.Poly,
    n: int,
    b: ring.Poly,
    m: int,
    v: ring.Poly,
) -> ring.Poly:
    """Defect of the mode-commutator formula on a state, any integer m.

    [a_[n], b_[m]] v - sum_j C(n,j) (a_(j) b)_[n+m-j] v computed in the
    free-field realization; zero in particular for negative m when b is a
    jet of a function.
    """
    fk = world.fock
    fa, fb, fv = world.to_fock(a), world.to_fock(b), world.to_fock(v)
    pa, pb = fk.state_parity(fa), fk.state_parity(fb)
    if pa is None or pb is None:
        raise ValueError("states must be parity-homogeneous")
    out = fk.nth(fa, n, fk.nth(fb, m, fv))
    swap = fk.nth(fb, m, fk.nth(fa, n, fv))
    if (pa * pb) & 1:
        out = ring.padd(out, swap)
    else:
        out = ring.psub(out, swap)
    wmax = fk.max_weight(fa) + fk.max_weight(fb)
    for j in range(0, wmax + 1):
        c = binomial(n, j)
        if not c:
            continue
        ab = fk.nth(fa, j, fb)
        if not ab:
            continue
        out = ring.psub(
            out, ring.pscale(fk.nth(ab, n + m - j, fv), c)
        )
    return out


# -- differential forms into cochains -----------------------------------------------


def form_contract(
    forms: FormAlgebra, omega: ring.Poly, names: Sequence[str]
) -> ring.Poly:
    """Contract a form with coordinate frames (even base), left to right."""
    out = omega
    for nm in reversed(list(names)):
        if not out:
            return {}
        out = ring.derive(
            out,
            {("d", nm): forms.inject(ring.poly_one())},
            1,
            forms.parity,
        )
    return out


def one_form_to_jet(world: JetWorld, omega: ring.Poly) -> ring.Poly:
    """Embed f dg as f g' in the jet algebra (one-forms only)."""
    out: ring.Poly = {}
    for mono, c in omega.items():
        dletters = [g for (kind, g), e in mono for _ in range(e)
                    if kind == "d"]
        if len(dletters) != 1:
            raise ValueError("expected a one-form")
        elem = world.jets.gen((dletters[0], 1))
        for (kind, g), e in mono:
            if kind == "d":
                continue
            for _ in range(e):
                elem = world.jets.mul(world.coord(g, 0), elem)
        for m2, c2 in elem.items():
            ring.acc(out, m2, c * c2)
    return out


def function_to_jet(world: JetWorld, f: ring.Poly) -> ring.Poly:
    """Embed a zero-form (base polynomial written in form letters)."""
    out: ring.Poly = {}
    for mono, c in f.items():
        elem = world.jets.one()
        for (kind, g), e in mono:
            if kind == "d":
                raise ValueError("expected a zero-form")
            for _ in range(e):
                elem = world.jets.mul(elem, world.coord(g, 0))
        for m2, c2 in elem.items():
            ring.acc(out, m2, c * c2)
    return out


def graded_form_functor(
    world: JetWorld,
    alpha0: Optional[ring.Poly] = None,
    beta0: Optional[ring.Poly] = None,
    force: bool = False,
) -> dict:
    """Cochains from differential forms over an even base.

    A 3-form yields the arity-2 cocycle alpha(xi, eta) =
    alpha0(xi, eta, .) embedded through one-forms; it is rejected (with
    the De Rham value) when not closed, unless ``force`` is set.  A
    2-form yields the arity-1 cochain of the corresponding change of
    splitting.
    """
    base = world.base
    if any(base.parity(nm) for nm in base.gen_names):
        raise ValueError("form functors need an even base")
    forms = FormAlgebra(base)
    out: dict = {"ok": True}
    names = sorted(world.frame_names())
    if alpha0 is not None:
        d = forms.derham_d(alpha0)
        if d and not force:
            return {"ok": False, "derham_d": d}
        out["derham_d"] = d
        seeds: Dict[tuple, LambdaPoly] = {}
        for a, b in itertools.combinations(names, 2):
            rest = form_contract(forms, alpha0, [a, b])
            if rest:
                seeds[(a, b)] = {(): one_form_to_jet(world, rest)}
        out["alpha"] = ChevalleyCochain(world, 2, seeds, 0)
    if beta0 is not None:
        seeds1: Dict[tuple, LambdaPoly] = {}
        for a in names:
            rest = form_contract(forms, beta0, [a])
            if rest:
                # the sign makes the functor commute with the
                # differentials and id + beta an isomorphism from the
                # exact twist to the standard algebroid
                seeds1[(a,)] = {
                    (): ring.pscale(one_form_to_jet(world, rest), -1)
                }
        out["beta"] = ChevalleyCochain(world, 1, seeds1, 0)
    return out


def two_form_cochain(
    world: JetWorld, beta0: ring.Poly
) -> ChevalleyCochain:
    """The function-valued arity-2 cochain of a 2-form (Picard-Lie shape)."""
    base = world.base
    forms = FormAlgebra(base)
    names = sorted(world.frame_names())
    seeds: Dict[tuple, LambdaPoly] = {}
    for a, b in itertools.combinations(names, 2):
        rest = form_contract(forms, beta0, [a, b])
        if rest:
            seeds[(a, b)] = {(): function_to_jet(world, rest)}
    return ChevalleyCochain(world, 2, seeds, 0)


def filtered_twist(
    world: JetWorld,
    alpha0: ring.Poly,
    beta0: ring.Poly,
    check: bool = False,
    samples: Optional[Sequence[Sequence[ring.Poly]]] = None,
) -> Tuple[ChiralAlgebroid, Optional[dict]]:
    """Twist the standard algebroid by a 3-form and a 2-form together.

    Jacobi holds exactly when both forms are closed; the twists add, so
    this is the product-torsor structure at window scale.
    """
    forms = FormAlgebra(world.base)
    parts = []
    if alpha0:
        rep = graded_form_functor(world, alpha0=alpha0, force=True)
        parts.append(rep["alpha"])
    if beta0:
        parts.append(two_form_cochain(world, beta0))
    total = cochain_add(world, *parts) if parts else None
    algebroid = ChiralAlgebroid(world, total)
    if not check:
        return algebroid, None
    if samples is None:
        samples = default_field_samples(world)
    report = liestar_jacobi_report(algebroid.bracket_op, samples)
    report["closed"] = (not forms.derham_d(alpha0)) and (
        not forms.derham_d(beta0)
    )
    report["match"] = report["closed"] == report["ok"]
    return algebroid, report


# -- homotopy chiral algebroids over a differential base -----------------------------


def differential_current(world: JetWorld) -> ring.Poly:
    """The canonical odd element sum_g D(g) tau_g of the carrier."""
    jets = world.jets
    out: ring.Poly = {}
    for g in world.base.gen_names:
        img = world.base.D_images.get(g)
        if not img:
            continue
        lifted = jets.lift(
            {
                tuple((name, e) for name, e in mono): c
                for mono, c in img.items()
            }
        )
        term = ring.pmul(lifted, world.tau(g), jets.parity)
        for mono, c in term.items():
            ring.acc(out, mono, c)
    return out


def jet_differential(world: JetWorld) -> StarOp:
    """The induced differential on the carrier as an arity-1 operation.

    This is the zero mode of the canonical odd current; on jets of
    functions it agrees with the prolonged base differential, on lifted
    vector fields it picks up the normal-ordering correction.
    """
    fa = world.to_fock(differential_current(world))

    def fn(v):
        out = world.from_fock(world.fock.nth(fa, 0, world.to_fock(v)))
        return lp_from_elem(out) if out else {}

    return StarOp(1, world.module, fn, 1)


def lc_chevalley_d(phi: ChevalleyCochain) -> ChevalleyCochain:
    """The Chevalley differential in the convention of the homotopy defect.

    Differs from :func:`chevalley_d` by the sign (-1)^(1 + p_i |phi|) on
    the term where the i-th argument acts (p_i its parity); this is the
    convention under which the generalized Jacobi defect of a twisted
    structure is exactly the differential of the twist.
    """
    world = phi.world
    n = phi.arity
    mu = world.bracket()
    seeds: Dict[tuple, LambdaPoly] = {}
    frame = sorted(world.frame_names())
    for tup in itertools.combinations_with_replacement(frame, n + 1):
        pars = [world.frame_parity(nm) for nm in tup]
        total: LambdaPoly = {}
        for i in range(1, n + 2):
            rest = tup[:i - 1] + tup[i:]
            rest_pos = [p for p in range(1, n + 2) if p != i]
            v = phi(*[world.tau(nm) for nm in rest])
            v = lp_relabel(
                v, {p: rest_pos[p - 1] for p in range(1, n + 1)}
            )
            term: LambdaPoly = {}
            for mono, m in v.items():
                ww = mu(world.tau(tup[i - 1]), m)
                ww = lp_relabel(ww, {1: i})
                term = lp_add(term, lp_mul_mono(ww, mono))
            sign = -1 if i & 1 == 0 else 1
            if pars[i - 1] and (sum(pars[: i - 1]) & 1):
                sign = -sign
            if (1 + pars[i - 1] * phi.parity) & 1:
                sign = -sign
            total = lp_add(total, lp_scale(term, sign))
        total = lp_eliminate(total, n + 1, world.module, range(1, n + 1))
        if lp_normal(total):
            seeds[tup] = lp_normal(total)
    # the bracket is parity-even, so composing with it keeps the parity
    return ChevalleyCochain(world, n + 1, seeds, phi.parity)


def hat_d(phi: ChevalleyCochain) -> ChevalleyCochain:
    """The differential-induced part of the cochain differential.

    (hat_d phi)(x_1..x_n) = D(phi(x_1..x_n))
        + (-1)^(n-1) sum_i +- phi(x_1, ..., D x_i, ..., x_n)
    computed on frame tuples and rewrapped as a cochain; together with the
    Chevalley differential it squares to zero and controls twisted Jacobi.
    """
    world = phi.world
    n = phi.arity
    jets = world.jets
    fa = world.to_fock(differential_current(world))
    frame = sorted(world.frame_names())
    seeds: Dict[tuple, LambdaPoly] = {}
    # graded-commutator sign: hat phi = l1 o phi - (-1)^|phi| phi o l1
    s_extra = -1 if not (phi.parity & 1) else 1
    for tup in itertools.combinations_with_replacement(frame, n):
        pars = [world.frame_parity(nm) for nm in tup]
        args = [world.tau(nm) for nm in tup]
        total = lp_map_coeffs(phi(*args), jets.D)
        for sig in unshuffles(1, n):
            first = args[sig[0] - 1]
            img = world.sigma(
                world.from_fock(
                    world.fock.nth(fa, 0, world.to_fock(first))
                )
            )
            if not img:
                continue
            rest = [args[s - 1] for s in sig[1:]]
            val = phi(img, *rest)
            val = lp_relabel(
                val, {p: sig[p - 1] for p in range(1, n + 1)}
            )
            val = lp_eliminate(val, n, world.module, range(1, n))
            total = lp_add(
                total,
                lp_scale(val, s_extra * antisym_sign(sig, pars)),
            )
        if (phi.parity + n) & 1:
            # global sign on the class |phi| != n mod 2, which makes this
            # anticommute with the bracket part of the differential
            total = lp_scale(total, -1)
        total = lp_normal(total)
        if total:
            seeds[tup] = total
    return ChevalleyCochain(world, n, seeds, (phi.parity + 1) & 1)


def lc_d(
    world: JetWorld, alphas: Dict[int, Optional[ChevalleyCochain]]
) -> Dict[int, Optional[ChevalleyCochain]]:
    """The truncated Chevalley--De Rham differential of a cochain family.

    Component k of the image combines the Chevalley differential of the
    arity-(k-1) member with the differential-induced part of the arity-k
    member.
    """
    arities = [n for n, a in alphas.items() if a is not None]
    out: Dict[int, Optional[ChevalleyCochain]] = {}
    top = max(arities, default=0) + 1
    for k in range(1, top + 1):
        parts = []
        prev = alphas.get(k - 1)
        if prev is not None:
            parts.append(lc_chevalley_d(prev))
        cur = alphas.get(k)
        if cur is not None:
            parts.append(hat_d(cur))
        if parts:
            out[k] = cochain_add(world, *parts)
    return {k: v for k, v in out.items() if not cochain_is_zero(v)}


def validate_lc_component(
    world: JetWorld,
    phi: ChevalleyCochain,
    total_degree: int = 2,
) -> None:
    """Degree/parity bookkeeping of one twist component (errors on abuse)."""
    n = phi.arity
    want_par = (total_degree + n) & 1
    if phi.parity != want_par:
        raise ValueError(
            f"arity-{n} component must have operation parity {want_par}"
        )
    shift = total_degree - n
    for tup, val in cochain_seeds(phi).items():
        base = sum(-world.ext.degree(tau_name(nm)) for nm in tup)
        want = shift - base
        for elem in val.values():
            d = world.jets.poly_degree(elem)
            if d is not None and elem and d != want:
                raise ValueError(
                    f"arity-{n} component has degree {d} != {want} "
                    f"on {tup}"
                )


class ChiralInftyAlgebroid:
    """The standard homotopy chiral algebroid of a differential base.

    Operations: the induced differential at arity 1 plus an optional
    twist component, the standard bracket at arity 2 plus a twist, and
    pure twist components at higher arities.
    """

    def __init__(
        self,
        world: JetWorld,
        alphas: Optional[Dict[int, ChevalleyCochain]] = None,
        max_arity: int = 3,
        total_degree: int = 2,
    ):
        self.world = world
        self.max_arity = max_arity
        self.alphas: Dict[int, ChevalleyCochain] = {}
        for n, a in (alphas or {}).items():
            if a is None or cochain_is_zero(a):
                continue
            if a.arity != n:
                raise ValueError("component arity mismatch")
            validate_lc_component(world, a, total_degree)
            self.alphas[n] = a
        self._ops: Optional[Dict[int, StarOp]] = None

    def ops(self) -> Dict[int, StarOp]:
        if self._ops is not None:
            return self._ops
        world = self.world
        out: Dict[int, StarOp] = {}
        d1 = jet_differential(world)
        a1 = self.alphas.get(1)
        if a1 is None:
            out[1] = d1
        else:
            def l1(v, _d=d1, _a=a1, _w=world):
                val = _d(v)
                s = _w.sigma(v)
                if s:
                    val = lp_add(val, _a(s))
                return lp_normal(val)

            out[1] = StarOp(1, world.module, l1, 1)
        mu = world.bracket()
        a2 = self.alphas.get(2)
        if a2 is None:
            out[2] = mu
        else:
            def l2(a, b, _mu=mu, _a=a2, _w=world):
                v = _mu(a, b)
                sa, sb = _w.sigma(a), _w.sigma(b)
                if sa and sb:
                    v = lp_add(v, _a(sa, sb))
                return lp_normal(v)

            out[2] = StarOp(2, world.module, l2, 0)
        for n in range(3, self.max_arity + 1):
            an = self.alphas.get(n)
            if an is None:
                continue

            def ln(*args, _a=an, _w=world):
                sigs = [_w.sigma(a) for a in args]
                if not all(sigs):
                    return {}
                return _a(*sigs)

            out[n] = StarOp(n, world.module, ln, n & 1)
        self._ops = out
        return out


def standard_chiral_infty_algebroid(
    base: SuperPolyAlgebra, max_arity: int = 3
) -> ChiralInftyAlgebroid:
    return ChiralInftyAlgebroid(JetWorld(base), max_arity=max_arity)


def chiral_infty_twist(
    P: ChiralInftyAlgebroid,
    alphas: Dict[int, ChevalleyCochain],
    check: bool = False,
    samples: Optional[Sequence[Sequence[ring.Poly]]] = None,
) -> Tuple[ChiralInftyAlgebroid, Optional[dict]]:
    """Add a cochain family to the operations; twists are additive.

    With ``check`` set the generalized Jacobi identities of the twisted
    structure are evaluated on the samples and compared against the
    independently computed cocycle condition on the total twist.
    """
    world = P.world
    new: Dict[int, ChevalleyCochain] = {}
    for n in set(P.alphas) | set(alphas):
        s = cochain_add(world, P.alphas.get(n), alphas.get(n))
        if s is not None and not cochain_is_zero(s):
            new[n] = s
    out = ChiralInftyAlgebroid(
        world, new, max_arity=P.max_arity
    )
    if not check:
        return out, None
    if samples is None:
        samples = default_field_samples(world)
    report = liestar_infty_jacobi(
        out.ops(), samples, k_max=P.max_arity
    )
    dal = lc_d(world, dict(new))
    report["closed"] = not dal
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
    world = P.world
    module = world.module
    n = len(args)
    if n > 3:
        raise ValueError("morphism residual supported up to arity three")
    pars = [module.parity(a) for a in args]
    if any(p is None for p in pars):
        raise ValueError("arguments must be parity-homogeneous")
    ls, lps = P.ops(), Q.ops()

    def f_elem(x):
        """f_1 on an element (result is an element)."""
        out = dict(x)
        b1 = betas.get(1)
        if b1 is not None:
            s = world.sigma(x)
            if s:
                v = b1(s).get((), {})
                for mono, c in v.items():
                    ring.acc(out, mono, c)
        return out

    def f_op(k):
        if k == 1:
            def fn(x):
                return lp_from_elem(f_elem(x))

            return StarOp(1, module, fn, 0)
        bk = betas.get(k)
        if bk is None:
            return None

        def fn(*xs, _b=bk):
            sig = [world.sigma(x) for x in xs]
            if not all(sig):
                return {}
            return _b(*sig)

        return StarOp(k, module, fn, bk.parity)

    lhs: LambdaPoly = {}
    for i in range(1, n + 1):
        j = n + 1 - i
        if i not in ls:
            continue
        fj = f_op(j)
        if fj is None:
            continue
        comp = compose_front(fj, ls[i])
        for sig in unshuffles(i, n):
            perm = [args[s - 1] for s in sig]
            val = comp(*perm)
            val = lp_relabel(val, {p: sig[p - 1] for p in range(1, n + 1)})
            val = lp_eliminate(val, n, module, range(1, n))
            sign = antisym_sign(sig, pars)
            if (i * (j - 1)) & 1:
                sign = -sign
            lhs = lp_add(lhs, lp_scale(val, sign))

    rhs: LambdaPoly = {}
    # target differential applied to the top correction
    if n > 1:
        fn_top = f_op(n)
        if fn_top is not None:
            comp = compose_front(lps[1], fn_top)
            rhs = lp_add(rhs, comp(*args))
    # the target arity-n operation on first components
    if n in lps:
        rhs = lp_add(rhs, lps[n](*[f_elem(a) for a in args]))
    if n == 3 and 2 in lps and f_op(2) is not None:
        f2 = f_op(2)
        lp2 = lps[2]
        for sig in unshuffles(1, 3):
            single = f_elem(args[sig[0] - 1])
            pair = f2(args[sig[1] - 1], args[sig[2] - 1])
            if not pair:
                continue
            total: LambdaPoly = {}
            for mono, m in pair.items():
                w = lp2(single, m)
                w = lp_mul_mono(w, tuple((v + 1, e) for v, e in mono))
                total = lp_add(total, w)
            # composite slots: single at 1, the pair at 2 and 3
            total = lp_relabel(
                total,
                {1: sig[0], 2: sig[1], 3: sig[2]},
            )
            total = lp_eliminate(total, 3, module, range(1, 3))
            sign = antisym_sign(sig, pars)
            # the odd binary component crosses the leading argument
            if pars[sig[0] - 1]:
                sign = -sign
            rhs = lp_add(rhs, lp_scale(total, sign))
    return lp_normal(lp_add(lhs, lp_scale(rhs, -1)))


def chiral_infty_morphism(
    P: ChiralInftyAlgebroid,
    betas: Dict[int, ChevalleyCochain],
    samples: Optional[Sequence[Sequence[ring.Poly]]] = None,
    k_max: int = 3,
) -> dict:
    """Build the morphism given by a degree-1 cochain family and check it.

    The morphism maps P to its twist by the differential of the family;
    the report records that the morphism equation holds against that
    target, and that against P itself the residual is exactly the
    differential of the family.
    """
    world = P.world
    for nn, b in betas.items():
        if b is None:
            continue
        if b.arity != nn:
            raise ValueError("component arity mismatch")
        validate_lc_component(world, b, total_degree=1)
    betas = {nn: b for nn, b in betas.items() if b is not None}
    if samples is None:
        samples = default_field_samples(world)
    dbeta = lc_d(world, dict(betas))
    target, _ = chiral_infty_twist(P, dbeta)
    report = {
        "ok": True,
        "failures": [],
        "residual_matches_differential": True,
        "exact_target": sorted(dbeta),
    }
    for s in samples:
        for k in range(1, k_max + 1):
            args = list(s[:k])
            res = morphism_residual(P, target, betas, args)
            if res:
                report["ok"] = False
                report["failures"].append(
                    {"k": k, "args": args, "residual": res}
                )
            res_self = morphism_residual(P, P, betas, args)
            want = dbeta.get(k)
            wv = lp_normal(want(*args)) if want is not None else {}
            if lp_normal(lp_add(res_self, lp_scale(wv, -1))):
                report["residual_matches_differential"] = False
    return report
