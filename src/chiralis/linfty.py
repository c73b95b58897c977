"""Homotopy Lie structures: finite-dimensional checks and jet-free algebroids.

Two independent verification paths for finite-dimensional homotopy Lie
structures are provided and compared:

  * the direct generalized Jacobi sums (through the star-operation
    machinery with the zero translation, to which it degenerates);
  * the square of the coderivation induced on the free cocommutative
    coalgebra of the parity-shifted space, with the structure maps
    transported through the decalage isomorphism.

The second half of the module implements the two-term algebroid
A (+) Der(A) of a differential super-commutative algebra: the
differential, the Lie bracket of vector fields and their action on
functions, twists of the higher operations by differential forms
(contracted against the vector-field projections of the arguments), and
order-by-order conjugation by arity-wise module-valued morphisms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import ring
from .algebra import FormAlgebra, SuperPolyAlgebra
from .exact import Row, antisym_sign, echelon, unshuffles
from .starops import (
    StarModule,
    StarOp,
    jacobi_defect,
    lp_from_elem,
    zero_translate,
)

Elem = Dict[str, Fraction]


class GradedSpace:
    """A finite graded vector space with a chosen homogeneous basis."""

    def __init__(self, basis: Sequence[Tuple[str, int]]):
        self.names = [n for n, _ in basis]
        self.degrees = dict(basis)
        if len(self.degrees) != len(self.names):
            raise ValueError("duplicate basis names")

    def parity(self, name: str) -> int:
        return self.degrees[name] & 1

    def elem_parity(self, e: Elem) -> Optional[int]:
        pars = {self.parity(n) for n, c in e.items() if c}
        if not pars:
            return 0
        if len(pars) > 1:
            return None
        return pars.pop()

    def module(self) -> StarModule:
        return StarModule(parity=self.elem_parity, translate=zero_translate)


def _canon(names: Sequence[str], parities: Sequence[int], antisym: bool):
    """Sort a basis tuple, tracking the (anti)symmetry sign; None if zero."""
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
            # repeats survive exactly when a swap fixes the term
            if antisym != bool(arr[j][1]):
                return None, 0
    return tuple(n for n, _ in arr), sign


class BasisMultiMap:
    """A graded (anti)symmetric multilinear map given on sorted basis tuples."""

    def __init__(
        self,
        space: GradedSpace,
        arity: int,
        values: Dict[tuple, Elem],
        antisym: bool = True,
        shift: Dict[str, int] = None,
    ):
        self.space = space
        self.arity = arity
        self.antisym = antisym
        self.shift = shift
        self.values: Dict[tuple, Elem] = {}
        for tup, val in values.items():
            if tuple(sorted(tup)) != tuple(tup):
                raise ValueError("value tuples must be sorted")
            key, s = _canon(
                tup, [self._parity(n) for n in tup], antisym
            )
            if key is None:
                if any(val.values()):
                    raise ValueError(f"tuple {tup} must carry zero")
                continue
            v = {n: c for n, c in val.items() if c}
            if v:
                self.values[tup] = v

    def _parity(self, name: str) -> int:
        if self.shift is not None:
            return self.shift[name]
        return self.space.parity(name)

    def on_basis(self, names: Sequence[str]) -> Elem:
        key, s = _canon(
            names, [self._parity(n) for n in names], self.antisym
        )
        if key is None:
            return {}
        val = self.values.get(key)
        if not val:
            return {}
        return {n: s * c for n, c in val.items()}

    def __call__(self, *args: Elem) -> Elem:
        out: Elem = {}
        for combo in itertools.product(*(a.items() for a in args)):
            coeff = Fraction(1)
            names = []
            for n, c in combo:
                coeff *= c
                names.append(n)
            for n, c in self.on_basis(names).items():
                ring.acc(out, n, coeff * c)
        return out

    def as_star_op(self) -> StarOp:
        mod = self.space.module()

        def fn(*args):
            return lp_from_elem(self(*args)) if self(*args) else {}

        return StarOp(self.arity, mod, fn, self.arity & 1)


def basis_words(
    names: Sequence[str], parities: Dict[str, int], length: int
) -> List[tuple]:
    """Sorted tuples with repeats allowed only for even-parity letters."""
    out = []
    for tup in itertools.combinations_with_replacement(sorted(names), length):
        if any(
            tup[i] == tup[i + 1] and parities[tup[i]]
            for i in range(length - 1)
        ):
            continue
        out.append(tup)
    return out


def direct_jacobi_report(
    ls: Dict[int, BasisMultiMap], space: GradedSpace, max_k: int
) -> dict:
    """Generalized Jacobi defects evaluated on all basis words up to max_k."""
    mod = space.module()
    ops = {n: l.as_star_op() for n, l in ls.items()}
    # words are drawn with the shifted parities: an antisymmetric map
    # kills a repeated even letter and may not kill a repeated odd one
    pars = {n: space.parity(n) ^ 1 for n in space.names}
    failures = []
    for k in range(1, max_k + 1):
        for word in basis_words(space.names, pars, k):
            args = [{n: Fraction(1)} for n in word]
            d = jacobi_defect(ops, k, args, mod)
            if d:
                failures.append({"arity": k, "word": word,
                                 "defect": d.get((), {})})
    return {"ok": not failures, "failures": failures}


def decalage(l: BasisMultiMap) -> BasisMultiMap:
    """Transport an antisymmetric map to the symmetric parity-shifted side."""
    n = l.arity
    space = l.space
    shifted = {nm: space.parity(nm) ^ 1 for nm in space.names}
    values: Dict[tuple, Elem] = {}
    base_sign = -1 if (n * (n - 1) // 2) & 1 else 1
    for tup, val in l.values.items():
        s = base_sign
        for i, nm in enumerate(tup):
            if ((n - 1 - i) * space.parity(nm)) & 1:
                s = -s
        # re-sort for the shifted parities (same letters, sign may differ)
        key, s2 = _canon(tup, [shifted[nm] for nm in tup], False)
        if key is None:
            continue
        entry = values.setdefault(key, {})
        for nm, c in val.items():
            ring.acc(entry, nm, s * s2 * c)
    return BasisMultiMap(l.space, n, values, antisym=False, shift=shifted)


def coderivation_apply(
    hat_ls: Dict[int, BasisMultiMap],
    space: GradedSpace,
    vec: Dict[tuple, Fraction],
) -> Dict[tuple, Fraction]:
    """Apply the coderivation induced by symmetric maps to a word vector."""
    shifted = {nm: space.parity(nm) ^ 1 for nm in space.names}
    out: Dict[tuple, Fraction] = {}
    for word, coeff in vec.items():
        N = len(word)
        for n, hat in hat_ls.items():
            if n > N:
                continue
            for pos in itertools.combinations(range(N), n):
                chosen = [word[p] for p in pos]
                rest = [word[p] for p in range(N) if p not in pos]
                # Koszul sign extracting the chosen letters to the front
                s = 1
                taken = set()
                for p in pos:
                    skipped = sum(
                        shifted[word[q]] for q in range(p)
                        if q not in taken
                    )
                    if shifted[word[p]] and (skipped & 1):
                        s = -s
                    taken.add(p)
                img = hat.on_basis(chosen)
                for nm, c in img.items():
                    key, s2 = _canon(
                        [nm] + rest,
                        [shifted[x] for x in [nm] + rest],
                        False,
                    )
                    if key is None:
                        continue
                    ring.acc(out, key, coeff * c * s * s2)
    return out


def coderivation_square_report(
    ls: Dict[int, BasisMultiMap], space: GradedSpace, max_k: int
) -> dict:
    """delta^2 = 0 on all words up to length max_k, through decalage."""
    hat_ls = {n: decalage(l) for n, l in ls.items()}
    shifted = {nm: space.parity(nm) ^ 1 for nm in space.names}
    failures = []
    for k in range(1, max_k + 1):
        for word in basis_words(space.names, shifted, k):
            one = {word: Fraction(1)}
            sq = coderivation_apply(
                hat_ls, space, coderivation_apply(hat_ls, space, one)
            )
            if sq:
                failures.append({"word": word, "square": sq})
    return {"ok": not failures, "failures": failures}


def linfty_report(
    ls: Dict[int, BasisMultiMap], space: GradedSpace, max_k: int
) -> dict:
    direct = direct_jacobi_report(ls, space, max_k)
    coder = coderivation_square_report(ls, space, max_k)
    return {
        "ok": direct["ok"] and coder["ok"],
        "direct": direct,
        "coderivation": coder,
        "agree": direct["ok"] == coder["ok"],
    }


# -- the two-term algebroid of a differential algebra ----------------------------

TAU_PREFIX = "tau "


def _tau(name: str) -> str:
    return TAU_PREFIX + name


def twist_sign(pars: Sequence[int]) -> int:
    """Sign exponent attached to an n-fold contraction with the given
    argument parities; it makes the contraction graded-antisymmetric and
    compatible with the differential on forms."""
    n = len(pars)
    return ((n - 1) + sum((n - i) * p for i, p in enumerate(pars))) & 1


def defect_sign(pars: Sequence[int]) -> int:
    """Sign exponent relating the generalized Jacobi defect of a twisted
    structure to the contraction of the differential of the twist."""
    n = len(pars)
    return sum((n - 1 - i) * p for i, p in enumerate(pars)) & 1


class DerAlgebroid:
    """Functions plus derivations of a differential super-polynomial algebra.

    Carrier elements are polynomials in the base generators and tangent
    letters of tangent degree at most one: the tangent-free part is a
    function, and f * tau_g stands for the derivation f d/dg.  Higher
    operations can be twisted by differential forms, contracted against
    the derivation parts of the arguments.
    """

    def __init__(self, base: SuperPolyAlgebra):
        self.base = base
        self.forms = FormAlgebra(base)
        gens = [
            (n, base.parity(n), base.degree(n)) for n in base.gen_names
        ] + [
            (_tau(n), base.parity(n), -base.degree(n))
            for n in base.gen_names
        ]
        self.carrier = SuperPolyAlgebra(gens)
        self.module = StarModule(
            parity=self.carrier.poly_parity, translate=zero_translate
        )

    def tau(self, name: str) -> ring.Poly:
        return self.carrier.gen(_tau(name))

    def _is_tau(self, g) -> bool:
        return str(g).startswith(TAU_PREFIX)

    def _tdeg(self, mono) -> int:
        return sum(e for g, e in mono if self._is_tau(g))

    def sigma(self, e: ring.Poly) -> ring.Poly:
        return {m: c for m, c in e.items() if self._tdeg(m) == 1}

    def fun_part(self, e: ring.Poly) -> ring.Poly:
        return {m: c for m, c in e.items() if self._tdeg(m) == 0}

    def _split_terms(self, u: ring.Poly):
        """Write a derivation as (coefficient, base generator) terms."""
        for mono, c in u.items():
            taus = [(g, e) for g, e in mono if self._is_tau(g)]
            if not taus:
                continue
            if len(taus) != 1 or taus[0][1] != 1:
                raise ValueError("tangent degree must be at most one")
            tkey = taus[0][0]
            fmono = tuple((g, e) for g, e in mono if g != tkey)
            s = 1
            tpar = self.carrier.parity(tkey)
            seen = False
            for g, e in mono:
                if g == tkey:
                    seen = True
                    continue
                if seen and tpar and (self.carrier.parity(g) * e) & 1:
                    s = -s
            yield {fmono: c * s}, str(tkey)[len(TAU_PREFIX):]

    def field_apply(self, u: ring.Poly, h: ring.Poly) -> ring.Poly:
        """Apply the derivation part of u to a function."""
        out: ring.Poly = {}
        for f, name in self._split_terms(u):
            dh = ring.derive(
                h,
                {name: ring.poly_one()},
                self.base.parity(name),
                self.base.parity,
            )
            out = ring.padd(
                out, ring.pmul(f, dh, self.carrier.parity)
            )
        return out

    def field_bracket(self, u: ring.Poly, v: ring.Poly) -> ring.Poly:
        u, v = self.sigma(u), self.sigma(v)
        if not u or not v:
            return {}
        pu = self.carrier.poly_parity(u)
        pv = self.carrier.poly_parity(v)
        if pu is None or pv is None:
            raise ValueError("arguments must be parity-homogeneous")
        out: ring.Poly = {}
        for name in self.base.gen_names:
            g = self.base.gen(name)
            w = ring.psub(
                self.field_apply(u, self.field_apply(v, g)),
                ring.pscale(
                    self.field_apply(v, self.field_apply(u, g)),
                    (-1) ** (pu * pv),
                ),
            )
            if w:
                out = ring.padd(
                    out,
                    ring.pmul(
                        w, ring.poly_gen(_tau(name)), self.carrier.parity
                    ),
                )
        return out

    def diff(self, e: ring.Poly) -> ring.Poly:
        """l_1 before twisting: D on functions, [D, -] on derivations."""
        out = self.base.D(self.fun_part(e))
        X = self.sigma(e)
        if X:
            px = self.carrier.poly_parity(X)
            for name in self.base.gen_names:
                g = self.base.gen(name)
                w = ring.psub(
                    self.base.D(self.field_apply(X, g)),
                    ring.pscale(
                        self.field_apply(X, self.base.D(g)), (-1) ** px
                    ),
                )
                if w:
                    out = ring.padd(
                        out,
                        ring.pmul(
                            w,
                            ring.poly_gen(_tau(name)),
                            self.carrier.parity,
                        ),
                    )
        return out

    def iota(self, u: ring.Poly, omega: ring.Poly) -> ring.Poly:
        """Contraction of a form against a derivation (an odd operation)."""
        u = self.sigma(u)
        if not u:
            return {}
        pu = self.carrier.poly_parity(u)
        if pu is None:
            raise ValueError("the derivation must be parity-homogeneous")
        images = {}
        for name in self.base.gen_names:
            w = self.field_apply(u, self.base.gen(name))
            if w:
                images[("d", name)] = self.forms.inject(w)
        return ring.derive(
            omega, images, (pu + 1) & 1, self.forms.parity
        )

    def contract(self, alpha: ring.Poly, fields) -> ring.Poly:
        """<alpha, X_1 ^ ... ^ X_n> as a function (zero-form part)."""
        omega = alpha
        for u in reversed(list(fields)):
            if not omega:
                return {}
            omega = self.iota(u, omega)
        out: ring.Poly = {}
        for mono, c in omega.items():
            if any(kind == "d" for (kind, _), _ in mono):
                continue
            key = tuple((name, e) for (_, name), e in mono)
            ring.acc(out, key, c)
        return out

    def contract_signed(self, alpha: ring.Poly, fields) -> ring.Poly:
        """Contraction with the sign that makes it graded-antisymmetric."""
        fields = list(fields)
        t = self.contract(alpha, fields)
        if not t:
            return {}
        s = twist_sign([self.carrier.poly_parity(u) for u in fields])
        return ring.pscale(t, -1) if s else t

    def ops(
        self, alphas: Dict[int, ring.Poly], max_arity: int = 3
    ) -> Dict[int, StarOp]:
        """The twisted operations l_n as star operations (zero translation)."""
        for n, a in alphas.items():
            if a and self.forms.poly_parity(a) != 0:
                raise ValueError(
                    f"twist component {n} must be parity-even as a form"
                )
        out: Dict[int, StarOp] = {}

        def twist(an, args):
            t = self.contract(an, [self.sigma(e) for e in args])
            if not t:
                return {}
            s = twist_sign([self.carrier.poly_parity(e) for e in args])
            return ring.pscale(t, -1) if s else t

        def l1(e):
            v = self.diff(e)
            a1 = alphas.get(1)
            if a1:
                v = ring.padd(v, twist(a1, [e]))
            return lp_from_elem(v) if v else {}

        out[1] = StarOp(1, self.module, l1, 1)

        def l2(e1, e2):
            X1, X2 = self.sigma(e1), self.sigma(e2)
            p1 = self.carrier.poly_parity(e1)
            p2 = self.carrier.poly_parity(e2)
            v = self.field_bracket(X1, X2)
            v = ring.padd(v, self.field_apply(X1, self.fun_part(e2)))
            v = ring.psub(
                v,
                ring.pscale(
                    self.field_apply(X2, self.fun_part(e1)),
                    (-1) ** (p1 * p2),
                ),
            )
            a2 = alphas.get(2)
            if a2:
                v = ring.padd(v, twist(a2, [e1, e2]))
            return lp_from_elem(v) if v else {}

        out[2] = StarOp(2, self.module, l2, 0)

        for n in range(3, max_arity + 1):
            an = alphas.get(n)
            if not an:
                continue

            def ln(*args, an=an):
                v = twist(an, list(args))
                return lp_from_elem(v) if v else {}

            out[n] = StarOp(n, self.module, ln, n & 1)
        return out

    def total_d(self, alpha: ring.Poly) -> ring.Poly:
        return self.forms.total_d(alpha)


def twist_jacobi_report(
    alg: DerAlgebroid,
    alphas: Dict[int, ring.Poly],
    samples: Sequence[Sequence[ring.Poly]],
    max_k: int = 3,
) -> dict:
    """Generalized Jacobi defects of the twisted structure on sample tuples."""
    ops = alg.ops(alphas, max_arity=max_k)
    failures = []
    for args in samples:
        k = len(args)
        if k > max_k:
            continue
        d = jacobi_defect(ops, k, list(args), alg.module)
        if d:
            failures.append({"args": args, "defect": d.get((), {})})
    alpha_total = {}
    for a in alphas.values():
        alpha_total = ring.padd(alpha_total, a)
    closed = not alg.total_d(alpha_total)
    return {
        "ok": not failures,
        "failures": failures,
        "closed": closed,
        "match": closed == (not failures),
    }


def _beta_contract(alg, beta, elems):
    t = alg.contract(beta, [alg.sigma(e) for e in elems])
    if not t:
        return {}
    s = morphism_sign([alg.carrier.poly_parity(e) for e in elems])
    return ring.pscale(t, -1) if s else t


def morphism_sign(pars: Sequence[int]) -> int:
    """Sign exponent attached to the contraction components of a morphism."""
    return (1 + defect_sign(pars)) & 1


def morphism_defect(
    alg: DerAlgebroid,
    l_ops: Dict[int, StarOp],
    lp_ops: Dict[int, StarOp],
    betas: Dict[int, ring.Poly],
    args: Sequence[ring.Poly],
) -> ring.Poly:
    """Defect of the morphism equation at arity len(args).

    The morphism is f_1 = id + <beta_1, sigma(-)> and
    f_n = <beta_n, sigma(-) ^ ... ^ sigma(-)> for n >= 2, mapping the
    source structure ``l_ops`` to the target ``lp_ops``; supported up to
    arity three.
    """
    for n, b in betas.items():
        if b and alg.forms.poly_parity(b) != 1:
            raise ValueError(
                f"morphism component {n} must be parity-odd as a form"
            )
    n = len(args)
    pars = [alg.carrier.poly_parity(a) for a in args]
    if any(p is None for p in pars):
        raise ValueError("arguments must be parity-homogeneous")

    def f(k, elems):
        if k == 1:
            out = dict(elems[0])
            b1 = betas.get(1)
            if b1:
                out = ring.padd(
                    out, _beta_contract(alg, b1, [elems[0]])
                )
            return out
        bk = betas.get(k)
        if not bk:
            return {}
        return _beta_contract(alg, bk, elems)

    def l_eval(ops, k, elems):
        if k not in ops:
            return {}
        v = ops[k](*elems)
        return v.get((), {}) if v else {}

    lhs: ring.Poly = {}
    for i in range(1, n + 1):
        j = n + 1 - i
        for sig in unshuffles(i, n):
            perm = [args[s - 1] for s in sig]
            inner = l_eval(l_ops, i, perm[:i])
            val = f(j, [inner] + perm[i:]) if j > 1 else f(1, [inner])
            if not val:
                continue
            sign = antisym_sign(sig, pars)
            if (i * (j - 1)) & 1:
                sign = -sign
            lhs = ring.padd(lhs, ring.pscale(val, sign))

    rhs: ring.Poly = {}
    # l'_1 applied to f_n
    top = f(n, list(args)) if n > 1 else None
    if n > 1 and top:
        rhs = ring.padd(rhs, l_eval(lp_ops, 1, [top]))
    # l'_n applied to f_1 in every slot
    rhs = ring.padd(
        rhs, l_eval(lp_ops, n, [f(1, [a]) for a in args])
    )
    if n == 3:
        for sig in unshuffles(1, 3):
            x1 = f(1, [args[sig[0] - 1]])
            x2 = f(2, [args[sig[1] - 1], args[sig[2] - 1]])
            if not x2:
                continue
            sign = antisym_sign(sig, pars)
            # the odd binary component crosses the leading argument
            if pars[sig[0] - 1]:
                sign = -sign
            rhs = ring.padd(
                rhs,
                ring.pscale(l_eval(lp_ops, 2, [x1, x2]), sign),
            )
    return ring.psub(lhs, rhs)


def conjugation_report(
    alg: DerAlgebroid,
    alphas: Dict[int, ring.Poly],
    betas: Dict[int, ring.Poly],
    samples: Sequence[Sequence[ring.Poly]],
) -> dict:
    """Check that twisting by the total differential of the morphism forms
    is exactly conjugation: id + beta-contraction is a morphism from the
    alpha-twist to the (alpha + total_d beta)-twist."""
    beta_total: ring.Poly = {}
    for b in betas.values():
        beta_total = ring.padd(beta_total, b)
    dbeta = alg.total_d(beta_total)
    new_alphas: Dict[int, ring.Poly] = {}
    for m, a in alphas.items():
        new_alphas[m] = dict(a)
    for m in range(1, 5):
        comp = alg.forms.split(dbeta).get(m) if dbeta else None
        if comp:
            new_alphas[m] = ring.padd(new_alphas.get(m, {}), comp)
    l_ops = alg.ops(alphas)
    lp_ops = alg.ops(new_alphas)
    failures = []
    for args in samples:
        d = morphism_defect(alg, l_ops, lp_ops, betas, args)
        if d:
            failures.append({"args": args, "defect": d})
    return {"ok": not failures, "failures": failures,
            "twist": new_alphas}


# -- linear solving over the rationals ------------------------------------------


def linear_solve(

    eqs: List[Row], nunk: int
) -> Optional[List[Fraction]]:
    """One exact solution of a sparse linear system, or None.

    Each equation is a Row over columns 0..nunk (column nunk holds the
    right-hand side); free unknowns are set to zero.
    """
    red, pivots = echelon(eqs, nunk + 1)
    sol = [Fraction(0)] * nunk
    for row, piv in reversed(list(zip(red, pivots))):
        if piv == nunk:
            return None
        acc = row.get(nunk, Fraction(0))
        for col, c in row.items():
            if col not in (piv, nunk):
                acc -= c * sol[col]
        sol[piv] = acc / row[piv]
    return sol
