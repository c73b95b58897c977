"""Homotopy Lie structures: finite-dimensional checks and jet-free algebroids.

Two independent verification paths for finite-dimensional homotopy Lie
structures are provided and compared:

  * the direct generalized Jacobi sums (through the star-operation
    machinery with the zero translation, to which it degenerates);
  * the square of the coderivation induced on the free cocommutative
    coalgebra of the parity-shifted space, with the structure maps
    transported through the decalage isomorphism.

The two paths still share only basis bookkeeping: the canonical sort of
a basis tuple (``_canon``), the basis-word lists (``basis_words``) and
each map's lookup of its stored values.  Work that depends on words and
parities alone is cached for the process: ``_canon``, the word lists and
the (chosen, rest, Koszul sign) extraction splits of a word
(``_extractions``).  Sorts and splits take their signs from
:mod:`chiralis.exact`, the one permutation-sign routine.  Each
``BasisMultiMap`` canonicalizes a name tuple once, and the coderivation
square computes the image of each basis word once per structure, forming
delta^2(w) from those images.

The second half of the module implements the two-term algebroid
A (+) Der(A) of a differential super-commutative algebra: the
differential, the Lie bracket of vector fields and their action on
functions, twists of the operations by parity-even differential forms,
and order-by-order conjugation by the morphisms of parity-odd forms.
Both kinds of form act through one signed contraction against the
vector-field projections of the arguments (the form's parity picks the
sign), built on ``algebra.FormAlgebra.iota``.  This is the jet-free case
of the chiral layer in ``algebroid``, and it shares that layer's code:
the carrier is ``algebra.tangent_algebra`` of the base and l_1 is its
D; a twist is added to an operation by ``starops.plus_op`` and the
morphism family is ``starops.identity_plus``; the twisted structures
and morphisms are star operations with the zero translation, checked by
the same ``starops.jacobi_report`` and ``starops.morphism_defect``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from . import exact, ring
from .algebra import (
    FormAlgebra,
    SuperPolyAlgebra,
    split_tangent,
    tangent_algebra,
    tangent_part,
    tau_base,
    tau_name,
)
from .starops import (
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

Elem = Dict[str, ring.Scalar]


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


@functools.lru_cache(maxsize=None)
def _canon(names: tuple, parities: tuple, antisym: bool):
    """Sort a basis tuple, tracking the (anti)symmetry sign; None if zero.

    The sign is that of the stable sorting permutation
    (:func:`exact.antisym_sign` or :func:`exact.koszul_sign`).  A pure
    function of its three tuples, cached for the process: the words of a
    space and their re-sorts recur across structures.
    """
    sigma = tuple(sorted(range(1, len(names) + 1),
                         key=lambda k: names[k - 1]))
    sign = (exact.antisym_sign if antisym else exact.koszul_sign)(
        sigma, parities)
    key = tuple(names[k - 1] for k in sigma)
    for j in range(len(key) - 1):
        if key[j] == key[j + 1]:
            # repeats survive exactly when a swap fixes the term
            if antisym != bool(parities[sigma[j] - 1]):
                return None, 0
    return key, sign


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
                tuple(tup), tuple(self._parity(n) for n in tup), antisym
            )
            if key is None:
                if any(val.values()):
                    raise ValueError(f"tuple {tup} must carry zero")
                continue
            v = {n: c for n, c in val.items() if c}
            if v:
                self.values[tup] = v
        # name tuple -> (value or None, sign), filled by _lookup
        self._seen: Dict[tuple, Tuple[Optional[Elem], int]] = {}

    def _parity(self, name: str) -> int:
        if self.shift is not None:
            return self.shift[name]
        return self.space.parity(name)

    def _lookup(self, names: tuple) -> Tuple[Optional[Elem], int]:
        """The stored value of the canonical form of ``names`` (None when
        it is zero) and the sign of the re-sort; each tuple is
        canonicalized once per map."""
        hit = self._seen.get(names)
        if hit is None:
            key, s = _canon(
                names, tuple(self._parity(n) for n in names), self.antisym
            )
            hit = self._seen[names] = (
                self.values.get(key) if key is not None else None, s)
        return hit

    def __call__(self, *args: Elem) -> Elem:
        out: Elem = {}
        for combo in itertools.product(*(a.items() for a in args)):
            coeff = 1
            names = []
            for n, c in combo:
                coeff *= c
                names.append(n)
            val, s = self._lookup(tuple(names))
            if val:
                ring.acc_poly(out, val, s * coeff)
        return out

    def as_star_op(self) -> StarOp:
        mod = self.space.module()

        def fn(*args):
            return lp_from_elem(self(*args))

        return StarOp(self.arity, mod, fn, self.arity & 1)


def basis_words(
    names: Sequence[str], parities: Dict[str, int], length: int
) -> List[tuple]:
    """Sorted tuples with repeats allowed only for even-parity letters."""
    return list(_words(tuple(sorted((n, parities[n]) for n in names)),
                       length))


@functools.lru_cache(maxsize=None)
def _words(letters: Tuple[Tuple[str, int], ...], length: int) -> tuple:
    """:func:`basis_words` on sorted (name, parity) letters, cached."""
    out = []
    for tup in itertools.combinations_with_replacement(letters, length):
        if any(
            tup[i] == tup[i + 1] and tup[i][1]
            for i in range(length - 1)
        ):
            continue
        out.append(tuple(n for n, _ in tup))
    return tuple(out)


def direct_jacobi_report(
    ls: Dict[int, BasisMultiMap], space: GradedSpace, max_k: int
) -> dict:
    """Generalized Jacobi defects evaluated on all basis words up to max_k."""
    ops = {n: l.as_star_op() for n, l in ls.items()}
    # words are drawn with the shifted parities: an antisymmetric map
    # kills a repeated even letter and may not kill a repeated odd one
    pars = {n: space.parity(n) ^ 1 for n in space.names}
    words = [[{n: 1} for n in word] for k in range(1, max_k + 1)
             for word in basis_words(space.names, pars, k)]
    return jacobi_report(ops, words, max_k)


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
        key, s2 = _canon(tup, tuple(shifted[nm] for nm in tup), False)
        if key is None:
            continue
        entry = values.setdefault(key, {})
        ring.acc_poly(entry, val, s * s2)
    return BasisMultiMap(l.space, n, values, antisym=False, shift=shifted)


@functools.lru_cache(maxsize=None)
def _extractions(word: tuple, parities: tuple, n: int) -> tuple:
    """Each way to pull n letters of a word to the front, as (chosen
    letters, remaining letters, their parities, Koszul sign): one per
    (n, len(word) - n)-unshuffle, in the order of
    :func:`exact.unshuffles`.  It depends on the word and its letters'
    parities only, so it is computed once per process."""
    out = []
    for sigma in exact.unshuffles(n, len(word)):
        letters = tuple(word[p - 1] for p in sigma)
        out.append((letters[:n], letters[n:],
                    tuple(parities[p - 1] for p in sigma[n:]),
                    exact.koszul_sign(sigma, parities)))
    return tuple(out)


def coderivation_apply(
    hat_ls: Dict[int, BasisMultiMap],
    space: GradedSpace,
    vec: Dict[tuple, ring.Scalar],
) -> Dict[tuple, ring.Scalar]:
    """Apply the coderivation induced by symmetric maps to a word vector."""
    shifted = {nm: space.parity(nm) ^ 1 for nm in space.names}
    out: Dict[tuple, ring.Scalar] = {}
    for word, coeff in vec.items():
        pars = tuple(shifted[x] for x in word)
        for n, hat in hat_ls.items():
            if n > len(word):
                continue
            for chosen, rest, rest_pars, s in _extractions(word, pars, n):
                val, s1 = hat._lookup(chosen)
                if not val:
                    continue
                for nm, c in val.items():
                    key, s2 = _canon(
                        (nm,) + rest, (shifted[nm],) + rest_pars, False
                    )
                    if key is None:
                        continue
                    ring.acc(out, key, coeff * (s1 * c) * s * s2)
    return out


def coderivation_square_report(
    ls: Dict[int, BasisMultiMap], space: GradedSpace, max_k: int
) -> dict:
    """delta^2 = 0 on all words up to length max_k, through decalage.

    delta(w) is computed once per basis word w and delta^2(w) is the sum
    of c * delta(w') over the words w' of delta(w), which are basis words
    of the same length or shorter.
    """
    hat_ls = {n: decalage(l) for n, l in ls.items()}
    shifted = {nm: space.parity(nm) ^ 1 for nm in space.names}
    images: Dict[tuple, Dict[tuple, ring.Scalar]] = {}

    def delta(word: tuple) -> Dict[tuple, ring.Scalar]:
        img = images.get(word)
        if img is None:
            img = images[word] = coderivation_apply(hat_ls, space, {word: 1})
        return img

    failures = []
    for k in range(1, max_k + 1):
        for word in basis_words(space.names, shifted, k):
            sq: Dict[tuple, ring.Scalar] = {}
            for w2, c in delta(word).items():
                ring.acc_poly(sq, delta(w2), c)
            if sq:
                failures.append({"word": word, "square": sq})
    return {"ok": not failures, "failures": failures}


# -- the two-term algebroid of a differential algebra ----------------------------


def contraction_sign(pars: Sequence[int], form_parity: int) -> int:
    """Sign exponent attached to an n-fold contraction of a form of the
    given parity with arguments of the given parities.

    On parity-even forms (twist components) it makes the contraction
    graded-antisymmetric and compatible with the differential on forms;
    a parity-odd form (a morphism component) carries the further
    n + sum(pars).
    """
    n = len(pars)
    q = form_parity & 1
    return ((n - 1 + q * n)
            + sum((n - i + q) * p for i, p in enumerate(pars))) & 1


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
        self.forms = FormAlgebra(base)
        self.carrier = tangent_algebra(base)
        self.module = StarModule(
            parity=self.carrier.poly_parity, translate=zero_translate
        )

    def tau(self, name: str) -> ring.Poly:
        return self.carrier.gen(tau_name(name))

    def sigma(self, e: ring.Poly) -> ring.Poly:
        return tangent_part(e, 1)

    def fun_part(self, e: ring.Poly) -> ring.Poly:
        return tangent_part(e, 0)

    def _split_terms(self, u: ring.Poly):
        """Write a derivation as (coefficient, base generator) terms."""
        for mono, c in u.items():
            split = split_tangent(mono, self.carrier.parity)
            if split is not None:
                fmono, tkey, s = split
                yield {fmono: c * s}, tau_base(tkey)

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
                        w, ring.poly_gen(tau_name(name)), self.carrier.parity
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
        components = {}
        for name in self.base.gen_names:
            w = self.field_apply(u, self.base.gen(name))
            if w:
                components[name] = w
        return self.forms.iota(omega, components, pu)

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

    def contract_signed(self, omega: ring.Poly, elems) -> ring.Poly:
        """Contraction with the sign of :func:`contraction_sign`; the
        form's own parity selects the twist or the morphism convention."""
        elems = list(elems)
        t = self.contract(omega, elems)
        if not t:
            return {}
        s = contraction_sign([self.carrier.poly_parity(e) for e in elems],
                             self.forms.poly_parity(omega))
        return ring.pscale(t, -1) if s else t

    def contraction(self, omega: ring.Poly, arity: int) -> StarOp:
        """The signed contraction of ``omega`` against the derivation
        parts of ``arity`` arguments, an operation of parity arity plus
        the form's parity."""
        return StarOp(
            arity, self.module,
            lambda *args: lp_from_elem(self.contract_signed(omega, args)),
            (arity + self.forms.poly_parity(omega)) & 1)

    def ops(self, alphas: Dict[int, ring.Poly]) -> Dict[int, StarOp]:
        """The twisted operations l_n as star operations (zero translation)."""
        for n, a in alphas.items():
            if a and self.forms.poly_parity(a) != 0:
                raise ValueError(
                    f"twist component {n} must be parity-even as a form"
                )

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
            return lp_from_elem(v)

        base = {1: StarOp(1, self.module,
                          lambda e: lp_from_elem(self.carrier.D(e)), 1),
                2: StarOp(2, self.module, l2, 0)}
        out: Dict[int, StarOp] = dict(base)
        for n in range(1, MAX_ARITY + 1):
            an = alphas.get(n)
            if an:
                out[n] = plus_op(base.get(n), self.contraction(an, n))
        return out

    def morphism_ops(self, betas: Dict[int, ring.Poly]) -> Dict[int, StarOp]:
        """The morphism f_1 = id + <beta_1, sigma(-)> and
        f_n = <beta_n, sigma(-) ^ ... ^ sigma(-)> for n >= 2."""
        for n, b in betas.items():
            if b and self.forms.poly_parity(b) != 1:
                raise ValueError(
                    f"morphism component {n} must be parity-odd as a form"
                )
        return identity_plus(self.module, {
            n: self.contraction(b, n) for n, b in betas.items() if b})


def twist_jacobi_report(
    alg: DerAlgebroid,
    alphas: Dict[int, ring.Poly],
    samples: Sequence[Sequence[ring.Poly]],
) -> dict:
    """Generalized Jacobi defects of the twisted structure on sample tuples."""
    report = jacobi_report(alg.ops(alphas), samples, MAX_ARITY)
    alpha_total = {}
    for a in alphas.values():
        alpha_total = ring.padd(alpha_total, a)
    report["closed"] = not alg.forms.total_d(alpha_total)
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
    beta_total: ring.Poly = {}
    for b in betas.values():
        beta_total = ring.padd(beta_total, b)
    dbeta = alg.forms.split(alg.forms.total_d(beta_total))
    new_alphas = {m: dict(a) for m, a in alphas.items()}
    for m in range(1, 5):
        if dbeta.get(m):
            new_alphas[m] = ring.padd(new_alphas.get(m, {}), dbeta[m])
    l_ops = alg.ops(alphas)
    lp_ops = alg.ops(new_alphas)
    failures = []
    for args in samples:
        d = morphism_defect(l_ops, lp_ops, fs, args, alg.module)
        if d:
            failures.append({"args": args, "defect": d.get((), {})})
    return {"ok": not failures, "failures": failures,
            "twist": new_alphas}
