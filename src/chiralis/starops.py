"""Translation-covariant multilinear star operations.

An arity-n star operation takes n elements of a module and returns a
polynomial in formal translation symbols z_1, ..., z_{n-1} with
module-valued coefficients; the symbol z_n attached to the last argument is
eliminated through the relation

    z_n = T - z_1 - ... - z_{n-1},

where T acts on the coefficients by the target module's translation
operator.  Values are "lambda polynomials": dicts mapping sorted tuples of
(slot, exponent) pairs to module elements, where slots are named by the
argument position they are attached to.  Keeping slot names attached to
argument positions makes the symmetric-group action and compositions
purely mechanical: permuting arguments permutes slot names, composing an
inner operation into the front slot renames the outer front variable to
the sum of the consumed slots.

Modules are anything with a parity function and a translation operator on
elements; elements themselves are dicts with exact rational coefficients.
Ordinary (non-star) multilinear algebra is the special case where the
translation is zero and no z-symbols ever appear.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import ring
from .exact import antisym_sign, koszul_sign, unshuffles

LamMono = Tuple[Tuple[int, int], ...]
# LambdaPoly: dict mapping LamMono -> module element (itself a dict)
LambdaPoly = Dict[LamMono, dict]


class StarModule:
    """A module handle: element parity and translation."""

    def __init__(
        self,
        parity: Callable[[dict], Optional[int]],
        translate: Callable[[dict], dict],
    ):
        self.parity = parity
        self.translate = translate


def zero_translate(_elem: dict) -> dict:
    return {}


# -- lambda polynomial arithmetic ---------------------------------------------


def _lp_acc(out: LambdaPoly, m: LamMono, e: dict) -> None:
    """Accumulate the element ``e`` at ``m`` into ``out``, dropping zeros."""
    cur = ring.padd(out.get(m, {}), e)
    if cur:
        out[m] = cur
    else:
        out.pop(m, None)


def lp_add(p: LambdaPoly, q: LambdaPoly) -> LambdaPoly:
    out = {m: dict(e) for m, e in p.items()}
    for m, e in q.items():
        _lp_acc(out, m, e)
    return out


def lp_scale(p: LambdaPoly, c) -> LambdaPoly:
    c = Fraction(c)
    if not c:
        return {}
    return {m: ring.pscale(e, c) for m, e in p.items()}


def lp_from_elem(e: dict) -> LambdaPoly:
    return {(): dict(e)} if e else {}


def lp_is_zero(p: LambdaPoly) -> bool:
    return all(not e for e in p.values())


def lp_normal(p: LambdaPoly) -> LambdaPoly:
    return {m: e for m, e in p.items() if e}


def _mono_mul(a: LamMono, b: LamMono) -> LamMono:
    d = dict(a)
    for s, e in b:
        d[s] = d.get(s, 0) + e
    return tuple(sorted(d.items()))


def lp_mul_mono(p: LambdaPoly, mono: LamMono, c=Fraction(1)) -> LambdaPoly:
    return {_mono_mul(m, mono): ring.pscale(e, c) for m, e in p.items() if e}


def lp_mul_var(p: LambdaPoly, slot: int, power: int = 1) -> LambdaPoly:
    return lp_mul_mono(p, ((slot, power),))


def lp_map_coeffs(p: LambdaPoly, f: Callable[[dict], dict]) -> LambdaPoly:
    out = {}
    for m, e in p.items():
        fe = f(e)
        if fe:
            out[m] = fe
    return out


def lp_relabel(p: LambdaPoly, mapping: Dict[int, int]) -> LambdaPoly:
    out: LambdaPoly = {}
    for m, e in p.items():
        nm = tuple(sorted((mapping.get(s, s), x) for s, x in m))
        _lp_acc(out, nm, e)
    return out


def lp_apply_translate_minus_vars(
    p: LambdaPoly, module: StarModule, slots: Sequence[int], times: int = 1
) -> LambdaPoly:
    """Apply the operator (T - sum of slot variables) ``times`` times."""
    for _ in range(times):
        out = lp_map_coeffs(p, module.translate)
        for s in slots:
            out = lp_add(out, lp_scale(lp_mul_var(p, s), -1))
        p = out
    return p


def lp_subst_sum(p: LambdaPoly, slot: int, new_slots: Sequence[int]) -> LambdaPoly:
    """Substitute the slot variable by a sum of other slot variables."""
    out: LambdaPoly = {}
    for m, e in p.items():
        base = tuple((s, x) for s, x in m if s != slot)
        power = next((x for s, x in m if s == slot), 0)
        terms: LambdaPoly = {base: e}
        for _ in range(power):
            nxt: LambdaPoly = {}
            for mm, ee in terms.items():
                for ns in new_slots:
                    nxt = lp_add(nxt, lp_mul_var({mm: ee}, ns))
            terms = nxt
        out = lp_add(out, terms)
    return out


def lp_eliminate(p: LambdaPoly, slot: int, module: StarModule,
                 kept: Sequence[int]) -> LambdaPoly:
    """Canonicalize by substituting z_slot = T - sum of kept variables."""
    out: LambdaPoly = {}
    for m, e in p.items():
        base = tuple((s, x) for s, x in m if s != slot)
        power = next((x for s, x in m if s == slot), 0)
        term: LambdaPoly = {base: e}
        if power:
            term = lp_apply_translate_minus_vars(term, module, kept, power)
        out = lp_add(out, term)
    return lp_normal(out)


def lp_deriv_var(p: LambdaPoly, slot: int) -> LambdaPoly:
    """Formal d/dz_slot."""
    out: LambdaPoly = {}
    for m, e in p.items():
        d = dict(m)
        power = d.pop(slot, 0)
        if not power:
            continue
        if power > 1:
            d[slot] = power - 1
        _lp_acc(out, tuple(sorted(d.items())), ring.pscale(e, power))
    return out


# -- star operations -----------------------------------------------------------


class StarOp:
    """An arity-n star operation given by an evaluator on module elements.

    ``fn(*args)`` must return a canonical LambdaPoly in slot variables
    1..n-1.  ``op_parity`` is the parity of the operation itself, used in
    Koszul bookkeeping by the callers.
    """

    def __init__(self, arity: int, module: StarModule, fn, op_parity: int = 0):
        self.arity = arity
        self.module = module
        self.fn = fn
        self.parity = op_parity & 1

    def __call__(self, *args) -> LambdaPoly:
        if len(args) != self.arity:
            raise ValueError(
                f"arity mismatch: expected {self.arity}, got {len(args)}"
            )
        return self.fn(*args)


def sigma_act(sigma: Sequence[int], phi: StarOp, parities=None) -> StarOp:
    """The symmetric-group action on star operations.

    ``sigma`` is 1-indexed (a tuple of images).  The result evaluates phi
    on the permuted arguments, renames the slot variables back through the
    permutation, eliminates the last slot, and multiplies by the Koszul
    sign of the permutation on the argument parities.
    """
    n = phi.arity
    if len(sigma) != n:
        raise ValueError("permutation length must equal the arity")

    def fn(*args):
        perm_args = [args[sigma[p] - 1] for p in range(n)]
        val = phi(*perm_args)
        val = lp_relabel(val, {p: sigma[p - 1] for p in range(1, n + 1)})
        val = lp_eliminate(val, n, phi.module, range(1, n))
        x = [phi.module.parity(a) for a in args]
        if any(p is None for p in x):
            raise ValueError("arguments must be parity-homogeneous")
        return lp_scale(val, koszul_sign(tuple(sigma), x))

    return StarOp(n, phi.module, fn, phi.parity)


def compose_front(outer: StarOp, inner: StarOp) -> StarOp:
    """The composite outer(inner(a_1..a_i), a_{i+1}, ..., a_{i+j-1})."""
    i, j = inner.arity, outer.arity
    n = i + j - 1

    def fn(*args):
        v = inner(*args[:i])
        out: LambdaPoly = {}
        relabel = {t: i + t - 1 for t in range(2, j + 1)}
        for mono, m in v.items():
            w = outer({k: c for k, c in m.items()}, *args[i:])
            w = lp_relabel(w, relabel)
            w = lp_subst_sum(w, 1, range(1, i + 1))
            out = lp_add(out, lp_mul_mono(w, mono))
        return lp_eliminate(out, n, outer.module, range(1, n))

    return StarOp(n, outer.module, fn, (outer.parity + inner.parity) & 1)


def op_equal_on(phi: StarOp, psi: StarOp, tuples) -> bool:
    for args in tuples:
        if lp_normal(lp_add(phi(*args), lp_scale(psi(*args), -1))):
            return False
    return True


def jacobi_defect(
    ls: Dict[int, StarOp], k: int, args, module: StarModule
) -> LambdaPoly:
    """The arity-k generalized Jacobi sum

    sum_{i+j=k+1} sum_{(i,k-i)-unshuffles s} sgn(s) eps(s, x)
        (-1)^{i(j-1)} s^{-1} o l_j(l_i(x_{s1}..x_{si}), x_{s(i+1)}, ...)

    evaluated on the given argument tuple; zero for a homotopy Lie
    structure.
    """
    x = [module.parity(a) for a in args]
    if any(p is None for p in x):
        raise ValueError("arguments must be parity-homogeneous")
    total: LambdaPoly = {}
    for i in range(1, k + 1):
        j = k + 1 - i
        if i not in ls or j not in ls:
            continue
        comp = compose_front(ls[j], ls[i])
        for sig in unshuffles(i, k):
            perm_args = [args[s - 1] for s in sig]
            val = comp(*perm_args)
            val = lp_relabel(
                val, {p: sig[p - 1] for p in range(1, k + 1)}
            )
            val = lp_eliminate(val, k, module, range(1, k))
            sign = antisym_sign(sig, x)
            if (i * (j - 1)) & 1:
                sign = -sign
            total = lp_add(total, lp_scale(val, sign))
    return lp_normal(total)


def va_bracket(system, translate_sign: int = -1) -> StarOp:
    """The Lie* bracket of a vertex algebra engine.

    mu(a, b) = sum_{n>=0} (a_(n) b) z_1^n / n!; the module translation
    handed to the star calculus is ``translate_sign`` times the vertex
    translation operator (the conventions used here require the opposite
    sign, the default).
    """
    module = StarModule(
        parity=system.state_parity,
        translate=lambda p: ring.pscale(system.T(p), translate_sign),
    )

    def fn(a, b):
        out: LambdaPoly = {}
        wmax = system.max_weight(a) + system.max_weight(b)
        fact = Fraction(1)
        for nn in range(0, wmax + 1):
            if nn:
                fact *= nn
            v = system.nth(a, nn, b)
            if v:
                out[((1, nn),) if nn else ()] = ring.pscale(v, Fraction(1) / fact)
        return lp_normal(out)

    return StarOp(2, module, fn, 0)


def op_on_free_basis(
    arity: int,
    module: StarModule,
    values: Dict[tuple, LambdaPoly],
    op_parity: int = 0,
) -> StarOp:
    """A star operation on a module free over the translation algebra.

    Elements are dicts keyed by ``(name, k)`` meaning the k-th translate of
    the basis vector ``name``; ``values`` gives canonical values on tuples
    of basis names.  Evaluation extends by linearity and translation
    covariance: a translate in slot i < n multiplies by z_i, a translate in
    the last slot applies (T - z_1 - ... - z_{n-1}).
    """

    def fn(*args):
        out: LambdaPoly = {}
        kept = range(1, arity)

        def expand(i, prefix_mono, coeff, names):
            nonlocal out
            for (name, k), c in args[i].items():
                if i < arity - 1:
                    mono = _mono_mul(prefix_mono, ((i + 1, k),) if k else ())
                    expand(i + 1, mono, coeff * c, names + [name])
                else:
                    val = values.get(tuple(names + [name]))
                    if val:
                        term = lp_apply_translate_minus_vars(
                            val, module, kept, k
                        )
                        term = lp_mul_mono(term, prefix_mono, coeff * c)
                        out = lp_add(out, term)

        expand(0, (), Fraction(1), [])
        return lp_normal(out)

    return StarOp(arity, module, fn, op_parity)


def lie_star_check(bracket: StarOp, basis: List[dict]) -> dict:
    """Antisymmetry and Jacobi for an arity-2 star operation on a window."""
    module = bracket.module
    failures = []
    flip = sigma_act((2, 1), bracket)
    for a in basis:
        for b in basis:
            d = lp_normal(lp_add(bracket(a, b), flip(a, b)))
            if d:
                failures.append({"identity": "antisymmetry", "args": (a, b),
                                 "defect": d})
    ls = {2: bracket}
    for a in basis:
        for b in basis:
            for c in basis:
                d = jacobi_defect(ls, 3, (a, b, c), module)
                if d:
                    failures.append({"identity": "jacobi",
                                     "args": (a, b, c), "defect": d})
    return {"ok": not failures, "failures": failures,
            "pairs": len(basis) ** 2, "triples": len(basis) ** 3}
