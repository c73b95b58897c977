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
the sum of the consumed slots.  A slot monomial is a ``ring`` monomial of
even letters; a relabel, a sum of slots, the elimination of z_n and the
Leibniz shift of ``chevalley`` are each one :func:`lp_substitute`.

Modules are anything with a parity function and a translation operator on
elements; elements themselves are dicts with exact rational coefficients.
A lambda polynomial is canonical where it is made: it never holds an
empty module element, so zero is ``{}`` and equal values are ``==``.
Sums accumulate in place through :func:`lp_acc`, which drops an element
that cancels and copies an element the first time it enters a sum, so
a sum never shares (and never changes) an element of its summands.
Ordinary (non-star) multilinear algebra is the special case where the
translation is zero and no z-symbols ever appear.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import ring
from .exact import antisym_sign, koszul_sign, unshuffles

LamMono = Tuple[Tuple[int, int], ...]
# LambdaPoly: dict mapping LamMono -> module element (itself a dict)
LambdaPoly = Dict[LamMono, dict]

# the highest arity of an operation, a Jacobi identity and a morphism
MAX_ARITY = 3

# the translation symbol in a linear form of lp_substitute; slots start at 1
T = 0


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


def _lp_acc(out: LambdaPoly, m: LamMono, e: dict,
            c: ring.Scalar = 1) -> None:
    """Accumulate ``c * e`` at ``m`` into ``out`` in place, dropping zeros.

    ``e`` is copied on first insert, so ``out`` owns every element it
    holds and adding into one never reaches the caller's dicts.
    """
    cur = out.get(m)
    if cur is None:
        if e:
            out[m] = ring.pscale(e, c)
    else:
        ring.acc_poly(cur, e, c)
        if not cur:
            del out[m]


def lp_acc(out: LambdaPoly, p: LambdaPoly, c: ring.Scalar = 1) -> None:
    """Accumulate ``c * p`` into ``out`` in place: ``ring.acc_poly`` for
    lambda polynomials.  ``out`` ends equal to ``lp_add(out,
    lp_scale(p, c))``, item order and scalar types included, and shares
    no element with ``p``."""
    if not c:
        return
    if c == 1:
        c = 1  # as in ring.pscale, a unit scale keeps int coefficients int
    for m, e in p.items():
        _lp_acc(out, m, e, c)


def lp_add(p: LambdaPoly, q: LambdaPoly) -> LambdaPoly:
    out = {m: dict(e) for m, e in p.items()}
    lp_acc(out, q)
    return out


def lp_scale(p: LambdaPoly, c: ring.Scalar) -> LambdaPoly:
    ring.check_scalar(c)
    if not c:
        return {}
    return {m: ring.pscale(e, c) for m, e in p.items()}


def lp_from_elem(e: dict) -> LambdaPoly:
    return {(): dict(e)} if e else {}


def _even(_slot: int) -> int:
    return 0


def lp_mul_mono(p: LambdaPoly, mono: LamMono) -> LambdaPoly:
    return {ring.mono_mul(m, mono, _even)[0]: dict(e) for m, e in p.items()}


def lp_mul_var(p: LambdaPoly, slot: int, power: int = 1) -> LambdaPoly:
    return lp_mul_mono(p, ((slot, power),))


def lp_map_coeffs(p: LambdaPoly, f: Callable[[dict], dict]) -> LambdaPoly:
    return {m: fe for m, e in p.items() if (fe := f(e))}


def lp_substitute(
    p: LambdaPoly,
    images: Dict[int, Dict[int, ring.Scalar]],
    power: Optional[Callable[[int, dict], dict]] = None,
) -> LambdaPoly:
    """The algebra map on slot variables sending z_s to the linear form
    ``images[s]``, a dict ``{slot: scalar}``; a slot with no image stays.
    A form may hold the key ``T``, an operator on the coefficients: a
    term with T^a takes ``power(a, e)`` in place of its coefficient e
    (every term, a = 0 included, when ``power`` is given).  Each
    monomial's product of images is expanded by ``ring.pmul``.
    """
    out: LambdaPoly = {}
    for m, e in p.items():
        prod: ring.Poly = {(): 1}
        for s, x in m:
            form = {((t, 1),): c for t, c in images.get(s, {s: 1}).items()}
            for _ in range(x):
                prod = ring.pmul(prod, form, _even)
        coeffs: Dict[int, dict] = {}
        for mono, c in prod.items():
            a = mono[0][1] if mono and mono[0][0] == T else 0
            if a not in coeffs:
                coeffs[a] = power(a, e) if power else e
            _lp_acc(out, mono[1:] if a else mono, coeffs[a], c)
    return out


def _translates(module: StarModule) -> Callable[[int, dict], dict]:
    """``power`` for :func:`lp_substitute` when T is the module's
    translation: T^a(e), the a-fold translate."""
    def power(a, e):
        for _ in range(a):
            e = module.translate(e)
        return e
    return power


def lp_eliminate(p: LambdaPoly, slot: int, module: StarModule,
                 kept: Sequence[int]) -> LambdaPoly:
    """Canonicalize by substituting z_slot = T - sum of kept variables."""
    return lp_substitute(p, {slot: {T: 1, **dict.fromkeys(kept, -1)}},
                         _translates(module))


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


def plus_op(base: Optional[StarOp], extra: StarOp) -> StarOp:
    """``base`` (None for zero) plus ``extra``, keeping the parity of
    ``base``: the one way an operation gets a twist or a morphism
    component (a cochain, or the contraction of a form) added to it."""
    if base is None:
        return extra

    def fn(*args):
        return lp_add(base(*args), extra(*args))

    return StarOp(extra.arity, extra.module, fn, base.parity)


def identity_plus(module: StarModule,
                  extras: Dict[int, StarOp]) -> Dict[int, StarOp]:
    """The morphism family f_1 = id + extras[1] and f_n = extras[n] for
    n >= 2; f_1 is the identity when ``extras`` has no arity-1 member."""
    ident = StarOp(1, module, lp_from_elem, 0)
    fs = {n: plus_op(ident if n == 1 else None, e)
          for n, e in extras.items()}
    fs.setdefault(1, ident)
    return fs


def permute_slots(val: LambdaPoly, sigma: Sequence[int],
                  module: StarModule, sign: int) -> LambdaPoly:
    """The slot-permutation action on a value.

    ``sigma`` is 1-indexed (a tuple of images).  In one substitution slot
    p of ``val`` goes to z_sigma(p), except the slot that sigma sends to
    n, which goes to T - z_1 - ... - z_{n-1}; the result is multiplied by
    ``sign``, the Koszul or antisymmetry sign the caller owes.
    """
    n = len(sigma)
    images = {p: {s: 1} for p, s in enumerate(sigma, 1) if s != p}
    images[sigma.index(n) + 1] = {T: 1, **dict.fromkeys(range(1, n), -1)}
    return lp_scale(lp_substitute(val, images, _translates(module)), sign)


def _parities(module: StarModule, args) -> List[int]:
    x = [module.parity(a) for a in args]
    if any(p is None for p in x):
        raise ValueError("arguments must be parity-homogeneous")
    return x


def sigma_act(sigma: Sequence[int], phi: StarOp) -> StarOp:
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
        val = phi(*[args[s - 1] for s in sigma])
        sign = koszul_sign(tuple(sigma), _parities(phi.module, args))
        return permute_slots(val, sigma, phi.module, sign)

    return StarOp(n, phi.module, fn, phi.parity)


def compose_front(outer: StarOp, inner: StarOp) -> StarOp:
    """The composite outer(inner(a_1..a_i), a_{i+1}, ..., a_{i+j-1}).

    The relabel of the outer slots t >= 2 to i + t - 1 is empty for
    j = 1, the identity for i = 1 and never read for j = 2, which covers
    every composite of the identities up to ``MAX_ARITY`` = 3.  It stays
    because the composite is defined at every arity: its test composes
    every i, j <= 3, and i >= 2 with j = 3 reads it."""
    i, j = inner.arity, outer.arity
    n = i + j - 1

    # the front slot goes to the sum of the consumed slots, the others up
    images = {t: {i + t - 1: 1} for t in range(2, j + 1)}
    images[1] = dict.fromkeys(range(1, i + 1), 1)

    def fn(*args):
        v = inner(*args[:i])
        out: LambdaPoly = {}
        for mono, m in v.items():
            w = lp_substitute(outer(m, *args[i:]), images)
            lp_acc(out, lp_mul_mono(w, mono))
        # no z_n to eliminate: outer values reach slots < n, inner ones < i
        return out

    return StarOp(n, outer.module, fn, (outer.parity + inner.parity) & 1)


def apply_to_value(op: StarOp, a, val: LambdaPoly) -> LambdaPoly:
    """op(a, -) on a value of an inner operation, coefficient by coefficient.

    The slot of ``a`` is 1 and the value's own slots move up by one; the
    result is canonical when the inner arguments follow ``a``.
    """
    out: LambdaPoly = {}
    for mono, m in val.items():
        shifted = tuple((s + 1, e) for s, e in mono)
        lp_acc(out, lp_mul_mono(op(a, m), shifted))
    return out


def unshuffle_sum(
    inner: Dict[int, StarOp], outer: Dict[int, StarOp], k: int, args,
    module: StarModule,
) -> LambdaPoly:
    """The arity-k unshuffle sum

    sum_{i+j=k+1} sum_{(i,k-i)-unshuffles s} sgn(s) eps(s, x) (-1)^{i(j-1)}
        s^{-1} o outer_j(inner_i(x_{s1}..x_{si}), x_{s(i+1)}, ..., x_{sk})

    evaluated on the given argument tuple; a pair (i, j) missing from
    either family contributes nothing, and the argument parities are read
    only once a pair is present.
    """
    x = None
    total: LambdaPoly = {}
    for i in range(1, k + 1):
        j = k + 1 - i
        if i not in inner or j not in outer:
            continue
        if x is None:
            x = _parities(module, args)
        comp = compose_front(outer[j], inner[i])
        for sig in unshuffles(i, k):
            sign = antisym_sign(sig, x) * (-1) ** (i * (j - 1))
            val = comp(*[args[s - 1] for s in sig])
            lp_acc(total, permute_slots(val, sig, module, sign))
    return total


def jacobi_defect(
    ls: Dict[int, StarOp], k: int, args, module: StarModule
) -> LambdaPoly:
    """The arity-k generalized Jacobi sum: the unshuffle sum of ``ls``
    composed with itself; zero for a homotopy Lie structure."""
    return unshuffle_sum(ls, ls, k, args, module)


def jacobi_report(ops: Dict[int, StarOp], samples, k_max: int) -> dict:
    """Generalized Jacobi defects of a family on the sample tuples of
    arity at most ``k_max``, one failure entry per nonzero defect."""
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
    return {"ok": not failures, "failures": failures, "checked": checked}


def morphism_defect(
    ls: Dict[int, StarOp], lps: Dict[int, StarOp], fs: Dict[int, StarOp],
    args, module: StarModule,
) -> LambdaPoly:
    """Defect of the homotopy morphism equation at arity n = len(args).

    ``fs`` maps the structure ``ls`` to ``lps``; ``fs[1]`` must be present.
    The left side is the unshuffle sum of ``ls`` into ``fs``, the right
    side lps_1 o f_n + lps_n(f_1 x_1, ..., f_1 x_n) and, at arity three,
    the terms lps_2(f_1 x, f_2(y, z)) over the (1, 2)-unshuffles.
    """
    n = len(args)
    if n > MAX_ARITY:
        raise ValueError("the morphism equation is supported up to arity three")
    x = _parities(module, args)
    lhs = unshuffle_sum(ls, fs, n, args, module)
    rhs: LambdaPoly = {}
    if n > 1 and n in fs:
        rhs = compose_front(lps[1], fs[n])(*args)
    firsts = [fs[1](a).get((), {}) for a in args]
    if n in lps:
        lp_acc(rhs, lps[n](*firsts))
    if n == 3 and 2 in lps and 2 in fs:
        for sig in unshuffles(1, 3):
            pair = fs[2](args[sig[1] - 1], args[sig[2] - 1])
            if not pair:
                continue
            val = apply_to_value(lps[2], firsts[sig[0] - 1], pair)
            sign = antisym_sign(sig, x)
            # the odd binary component crosses the leading argument
            if x[sig[0] - 1]:
                sign = -sign
            lp_acc(rhs, permute_slots(val, sig, module, sign))
    lp_acc(lhs, rhs, -1)
    return lhs


def va_bracket(system) -> StarOp:
    """The Lie* bracket of a vertex algebra engine.

    mu(a, b) = sum_{n>=0} (a_(n) b) z_1^n / n!; the module translation
    handed to the star calculus is minus the vertex translation T: the
    calculus turns a translate in slot i into +z_i, while a vertex
    algebra has (Ta)_(n) = -n a_(n-1), i.e. [Ta_lambda b] = -lambda
    [a_lambda b].  The sum runs over the nonzero a_(n) b with n >= 0 of
    ``system.products``, which end at the state pole bound.
    """
    module = StarModule(
        parity=system.state_parity,
        translate=lambda p: ring.pscale(system.T(p), -1),
    )

    def fn(a, b):
        return {((1, nn),) if nn else (): ring.pdiv(v, math.factorial(nn))
                for nn, v in system.products(a, b, 0)}

    return StarOp(2, module, fn, 0)


class LieStarDefects:
    """The antisymmetry and Jacobi defects of an arity-2 star operation,
    each evaluated once per distinct argument tuple (an argument is keyed
    by its set of items)."""

    def __init__(self, bracket: StarOp):
        self.bracket = bracket
        self._flip = sigma_act((2, 1), bracket)
        self._seen: Dict[tuple, LambdaPoly] = {}

    def _once(self, identity: str, args, compute) -> LambdaPoly:
        key = (identity,) + tuple(frozenset(x.items()) for x in args)
        hit = self._seen.get(key)
        if hit is None:
            hit = self._seen[key] = compute()
        return hit

    def antisymmetry(self, a, b) -> LambdaPoly:
        return self._once("antisymmetry", (a, b), lambda: lp_add(
            self.bracket(a, b), self._flip(a, b)))

    def jacobi(self, a, b, c) -> LambdaPoly:
        return self._once("jacobi", (a, b, c), lambda: jacobi_defect(
            {2: self.bracket}, 3, (a, b, c), self.bracket.module))


def lie_star_check(
    bracket: StarOp,
    basis: List[dict],
    defects: Optional[LieStarDefects] = None,
) -> dict:
    """Antisymmetry and Jacobi for an arity-2 star operation on a window.

    Windows that overlap can share one ``defects`` to evaluate each
    identity once.
    """
    if defects is None:
        defects = LieStarDefects(bracket)
    failures = []
    for a in basis:
        for b in basis:
            d = defects.antisymmetry(a, b)
            if d:
                failures.append({"identity": "antisymmetry", "args": (a, b),
                                 "defect": d})
    for a in basis:
        for b in basis:
            for c in basis:
                d = defects.jacobi(a, b, c)
                if d:
                    failures.append({"identity": "jacobi",
                                     "args": (a, b, c), "defect": d})
    return {"ok": not failures, "failures": failures,
            "pairs": len(basis) ** 2, "triples": len(basis) ** 3}
