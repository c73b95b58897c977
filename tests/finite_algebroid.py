"""The two-term algebroid A (+) Der(A) of a differential algebra A.

Its operations are the differential, the Lie bracket of vector fields and
their action on functions.  Parity-even forms twist them and parity-odd
forms conjugate them, order by order, both through one signed
contraction against the vector-field parts of the arguments, built on
``algebra.FormAlgebra.iota``; the total differential ``DGForms.total_d``
decides which twists are closed.  It is the jet-free case of
``chiralis.algebroid`` and a second carrier for the library's shared
pieces: the carrier is ``algebra.tangent_algebra`` of A (l_1 is its D),
twists and morphisms are added by ``starops.plus_op`` and
``starops.identity_plus``, and ``starops.jacobi_report`` and
``starops.morphism_defect`` check them.  The tests import it.
"""

from __future__ import annotations

from typing import Dict, Sequence

from chiralis import ring
from chiralis.algebra import (
    FormAlgebra,
    SuperPolyAlgebra,
    split_tangent,
    tangent_algebra,
    tangent_part,
    tau_base,
    tau_name,
)
from chiralis.starops import (
    MAX_ARITY,
    StarModule,
    StarOp,
    identity_plus,
    jacobi_report,
    lp_from_elem,
    morphism_defect,
    plus_op,
    zero_translate,
)


class DGForms(FormAlgebra):
    """Forms over a differential algebra, with the Lie derivative along
    its differential and the total differential."""

    # the common parity of a form, or None: the rule of the ambient
    poly_parity = SuperPolyAlgebra.poly_parity

    def split(self, p: ring.Poly) -> Dict[int, ring.Poly]:
        """The parts of p by form degree (number of ``d`` letters)."""
        out: Dict[int, ring.Poly] = {}
        for mono, c in p.items():
            out.setdefault(self.form_degree_of_mono(mono), {})[mono] = c
        return out

    def lie_D(self, p: ring.Poly) -> ring.Poly:
        """Lie derivative along the ambient differential D.

        Odd derivation with g -> -D(g) and dg -> d(D(g)).  The relative
        sign between the two defining rules is forced: it is what makes
        lie_D anticommute with derham_d and square to zero, so that
        total_d = derham_d + lie_D satisfies total_d^2 = 0.
        """
        images = {}
        for mono in p:
            for key, _e in mono:
                if key not in images:
                    kind, g = key
                    img = self.inject(self.ambient.D(self.ambient.gen(g)))
                    images[key] = (self.derham_d(img) if kind == "d"
                                   else ring.pscale(img, -1))
        return ring.derive(p, images, 1, self.parity)

    def total_d(self, p: ring.Poly) -> ring.Poly:
        return ring.padd(self.derham_d(p), self.lie_D(p))


class DerAlgebroid:
    """Functions plus derivations of a differential super-polynomial algebra.

    The carrier is :func:`algebra.tangent_algebra` of the base: its
    elements of tangent degree at most one are a function (the
    tangent-free part) plus a derivation, f * tau_g standing for f d/dg.
    l_1 is the carrier's D.  Higher operations can be twisted by
    differential forms, contracted against the derivation parts of the
    arguments.
    """

    def __init__(self, base: SuperPolyAlgebra):
        self.base = base
        self.forms = DGForms(base)
        self.carrier = tangent_algebra(base)
        self.module = StarModule(
            parity=self.carrier.poly_parity, translate=zero_translate
        )

    def tau(self, name: str) -> ring.Poly:
        return self.carrier.gen(tau_name(name))

    def fun_part(self, e: ring.Poly) -> ring.Poly:
        return tangent_part(e, 0)

    def _parity(self, u: ring.Poly) -> int:
        p = self.carrier.poly_parity(u)
        if p is None:
            raise ValueError("arguments must be parity-homogeneous")
        return p

    def field_apply(self, u: ring.Poly, h: ring.Poly) -> ring.Poly:
        """Apply the derivation part of u to a function."""
        out: ring.Poly = {}
        for mono, c in u.items():
            split = split_tangent(mono, self.carrier.parity)
            if split is not None:
                fmono, tkey, s = split
                name = tau_base(tkey)
                dh = ring.derive(h, {name: ring.poly_one()},
                                 self.base.parity(name), self.base.parity)
                out = ring.padd(out, ring.pmul({fmono: c * s}, dh,
                                               self.carrier.parity))
        return out

    def field_bracket(self, u: ring.Poly, v: ring.Poly) -> ring.Poly:
        u, v = tangent_part(u, 1), tangent_part(v, 1)
        if not u or not v:
            return {}
        sign = (-1) ** (self._parity(u) * self._parity(v))
        out: ring.Poly = {}
        for name in self.base.gen_names:
            g = self.base.gen(name)
            w = ring.psub(
                self.field_apply(u, self.field_apply(v, g)),
                ring.pscale(self.field_apply(v, self.field_apply(u, g)), sign),
            )
            if w:
                out = ring.padd(out, ring.pmul(
                    w, ring.poly_gen(tau_name(name)), self.carrier.parity))
        return out

    def contract(self, alpha: ring.Poly, fields) -> ring.Poly:
        """<alpha, X_1 ^ ... ^ X_n> as a function (zero-form part): alpha
        contracted by the derivation part of each field, the last first."""
        omega = alpha
        for u in reversed(list(fields)):
            u = tangent_part(u, 1)
            if not omega or not u:
                return {}
            components = {name: self.field_apply(u, self.base.gen(name))
                          for name in self.base.gen_names}
            omega = self.forms.iota(omega, components, self._parity(u))
        out: ring.Poly = {}
        for mono, c in omega.items():
            if not self.forms.form_degree_of_mono(mono):
                ring.acc(out, tuple((name, e) for (_, name), e in mono), c)
        return out

    def contract_signed(self, omega: ring.Poly, elems) -> ring.Poly:
        """The contraction, signed so that on parity-even forms (twist
        components) it is graded-antisymmetric and compatible with the
        differential on forms; a parity-odd form (a morphism component)
        carries the further n + sum of the argument parities."""
        elems = list(elems)
        t = self.contract(omega, elems)
        if not t:
            return {}
        n, q = len(elems), self.forms.poly_parity(omega)
        s = n - 1 + q * n + sum((n - i + q) * self.carrier.poly_parity(e)
                                for i, e in enumerate(elems))
        return ring.pscale(t, -1) if s & 1 else t

    def contractions(self, family: Dict[int, ring.Poly],
                     parity: int) -> Dict[int, StarOp]:
        """The signed contraction of each nonzero form of ``family``, all
        of the given parity, against the derivation parts of as many
        arguments as its key: an operation of parity key plus parity."""
        for n, omega in family.items():
            if omega and self.forms.poly_parity(omega) != parity:
                raise ValueError(f"component {n} must be parity-"
                                 f"{('even', 'odd')[parity]} as a form")
        return {n: StarOp(n, self.module, lambda *args, omega=omega:
                          lp_from_elem(self.contract_signed(omega, args)),
                          (n + parity) & 1)
                for n, omega in family.items() if omega}

    def ops(self, alphas: Dict[int, ring.Poly]) -> Dict[int, StarOp]:
        """The twisted operations l_n as star operations (zero translation)."""
        def l2(e1, e2):
            X1, X2 = tangent_part(e1, 1), tangent_part(e2, 1)
            sign = (-1) ** (self.carrier.poly_parity(e1)
                            * self.carrier.poly_parity(e2))
            v = self.field_bracket(X1, X2)
            v = ring.padd(v, self.field_apply(X1, self.fun_part(e2)))
            v = ring.psub(v, ring.pscale(
                self.field_apply(X2, self.fun_part(e1)), sign))
            return lp_from_elem(v)

        out = {1: StarOp(1, self.module,
                         lambda e: lp_from_elem(self.carrier.D(e)), 1),
               2: StarOp(2, self.module, l2, 0)}
        for n, op in sorted(self.contractions(alphas, 0).items()):
            if n <= MAX_ARITY:
                out[n] = plus_op(out.get(n), op)
        return out

    def morphism_ops(self, betas: Dict[int, ring.Poly]) -> Dict[int, StarOp]:
        """The morphism f_1 = id + <beta_1, sigma(-)> and
        f_n = <beta_n, sigma(-) ^ ... ^ sigma(-)> for n >= 2."""
        return identity_plus(self.module, self.contractions(betas, 1))


def form_sum(family: Dict[int, ring.Poly]) -> ring.Poly:
    total: ring.Poly = {}
    for a in family.values():
        total = ring.padd(total, a)
    return total


def twist_jacobi_report(
    alg: DerAlgebroid,
    alphas: Dict[int, ring.Poly],
    samples: Sequence[Sequence[ring.Poly]],
) -> dict:
    """Generalized Jacobi defects of the twisted structure on sample tuples."""
    report = jacobi_report(alg.ops(alphas), samples, MAX_ARITY)
    report["closed"] = not alg.forms.total_d(form_sum(alphas))
    report["match"] = report["closed"] == report["ok"]
    return report


def conjugation_report(
    alg: DerAlgebroid,
    alphas: Dict[int, ring.Poly],
    betas: Dict[int, ring.Poly],
    samples: Sequence[Sequence[ring.Poly]],
) -> dict:
    """Check that twisting by the total differential of the morphism forms
    is exactly conjugation: id + beta-contraction is a morphism from the
    alpha-twist to the (alpha + total_d beta)-twist."""
    fs = alg.morphism_ops(betas)
    dbeta = alg.forms.split(alg.forms.total_d(form_sum(betas)))
    new_alphas = {m: dict(a) for m, a in alphas.items()}
    for m in range(1, 5):
        if dbeta.get(m):
            new_alphas[m] = ring.padd(new_alphas.get(m, {}), dbeta[m])
    l_ops, lp_ops = alg.ops(alphas), alg.ops(new_alphas)
    failures = []
    for args in samples:
        d = morphism_defect(l_ops, lp_ops, fs, args, alg.module)
        if d:
            failures.append({"args": args, "defect": d.get((), {})})
    return {"ok": not failures, "failures": failures, "twist": new_alphas}
