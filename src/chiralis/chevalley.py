"""Jet tangent carriers, Chevalley cochains, and the mode Lie algebra.

The carrier of a polynomial base algebra A is the jet algebra of A extended
by tangent frame generators tau_g = d/dg (one per base generator, with
flipped cohomological degree); elements of tangent degree <= 1 represent
the direct sum of the jet algebra of A and the jet module of vector
fields.  The standard Lie* bracket on the carrier is computed through the
free-field dictionary: jets embed into the beta-gamma--bc state space by

    g^(k)    ->  (-1)^k k! (coordinate mode of g at -k)
    tau^(k)  ->  (-1)^k k! (momentum mode of g at -k-1)

and the bracket is the vertex engine's Lie* bracket conjugated by this
embedding (which intertwines the jet translation with the negated vertex
translation operator).

Chevalley cochains are antisymmetric multilinear star operations on vector
fields with function values, stored on frame tuples and evaluated through
sesquilinearity and function-multilinearity slot rules; ``chevalley_d`` is
the Chevalley differential for the standard structure (abelian frame, so
only action terms contribute on frame tuples).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import ring
from .algebra import JetAlgebra, SuperPolyAlgebra
from .exact import binomial, koszul_sign, sgn
from .fock import BGSystem
from .starops import (
    LambdaPoly,
    StarModule,
    StarOp,
    lp_add,
    lp_apply_translate_minus_vars,
    lp_deriv_var,
    lp_eliminate,
    lp_map_coeffs,
    lp_mul_mono,
    lp_mul_var,
    lp_normal,
    lp_relabel,
    lp_scale,
)

TAU_PREFIX = "tau "


def tau_name(name: str) -> str:
    return TAU_PREFIX + name


class JetWorld:
    """Jets of A together with the tangent frame and the Fock dictionary."""

    def __init__(self, base: SuperPolyAlgebra):
        for name in base.gen_names:
            if str(name).startswith(TAU_PREFIX):
                raise ValueError(f"reserved generator name {name!r}")
        self.base = base
        gens = [
            (name, base.parity(name), base.degree(name))
            for name in base.gen_names
        ]
        gens += [
            (tau_name(name), base.parity(name), -base.degree(name))
            for name in base.gen_names
        ]
        D = {k: dict(v) for k, v in base.D_images.items()}
        for name in base.gen_names:
            img: ring.Poly = {}
            s = -1 if not (base.parity(name) & 1) else 1
            # the induced differential on frames: the commutator of the
            # base differential with the coordinate vector field
            for other in base.gen_names:
                dother = base.D_images.get(other)
                if not dother:
                    continue
                part = ring.derive(
                    dother, {name: ring.poly_one()}, base.parity(name),
                    base.parity,
                )
                if part:
                    term = ring.pmul(
                        part,
                        ring.poly_gen(tau_name(other)),
                        lambda g: (
                            base.parity(g[len(TAU_PREFIX):])
                            if str(g).startswith(TAU_PREFIX)
                            else base.parity(g)
                        ),
                    )
                    for mono, c in term.items():
                        ring.acc(img, mono, s * c)
            if img:
                D[tau_name(name)] = img
        self.ext = SuperPolyAlgebra(gens, D=D)
        self.jets = JetAlgebra(self.ext)
        self.module = StarModule(
            parity=self.jets.poly_parity, translate=self.jets.translate
        )
        fock_base = SuperPolyAlgebra(
            [(n, base.parity(n), base.degree(n)) for n in base.gen_names]
        )
        self.fock = BGSystem(fock_base)
        self._bracket: Optional[StarOp] = None

    # -- element constructors --------------------------------------------------
    def coord(self, name: str, k: int = 0) -> ring.Poly:
        return self.jets.gen((name, k))

    def tau(self, name: str, k: int = 0) -> ring.Poly:
        return self.jets.gen((tau_name(name), k))

    def frame_names(self) -> List[str]:
        return list(self.base.gen_names)

    def frame_parity(self, name: str) -> int:
        return self.base.parity(name)

    def is_tau_key(self, key) -> bool:
        return str(key[0]).startswith(TAU_PREFIX)

    def tangent_degree(self, mono) -> int:
        return sum(e for g, e in mono if self.is_tau_key(g))

    def sigma(self, p: ring.Poly) -> ring.Poly:
        """Projection onto the vector-field (tangent-degree 1) part."""
        return {m: c for m, c in p.items() if self.tangent_degree(m) == 1}

    # -- Fock dictionary ---------------------------------------------------------
    def _letter_to_fock(self, key) -> Tuple[tuple, Fraction]:
        name, k = key
        fact = Fraction(1)
        for i in range(1, k + 1):
            fact *= i
        if k & 1:
            fact = -fact
        if str(name).startswith(TAU_PREFIX):
            return ("m", str(name)[len(TAU_PREFIX):], -k - 1), fact
        return ("c", name, -k), fact

    def to_fock(self, p: ring.Poly) -> ring.Poly:
        out: ring.Poly = {}
        for mono, c in p.items():
            state = self.fock.vac()
            coeff = c
            for g, e in mono:
                letter, fact = self._letter_to_fock(g)
                for _ in range(e):
                    state = self.fock.mul(state, ring.poly_gen(letter))
                    coeff *= fact
            for m2, c2 in state.items():
                ring.acc(out, m2, coeff * c2)
        return out

    def _letter_from_fock(self, key) -> Tuple[tuple, Fraction]:
        kind, name, k = key
        order = -k if kind == "c" else -k - 1
        fact = Fraction(1)
        for i in range(1, order + 1):
            fact *= i
        if order & 1:
            fact = -fact
        gname = name if kind == "c" else tau_name(name)
        return (gname, order), Fraction(1) / fact

    def from_fock(self, p: ring.Poly) -> ring.Poly:
        out: ring.Poly = {}
        for mono, c in p.items():
            elem = self.jets.one()
            coeff = c
            for g, e in mono:
                letter, fact = self._letter_from_fock(g)
                for _ in range(e):
                    elem = self.jets.mul(elem, self.jets.gen(letter))
                    coeff *= fact
            for m2, c2 in elem.items():
                ring.acc(out, m2, coeff * c2)
        return out

    # -- the standard Lie* bracket ------------------------------------------------
    def bracket(self) -> StarOp:
        if self._bracket is not None:
            return self._bracket
        world = self

        def fn(a, b):
            fa, fb = world.to_fock(a), world.to_fock(b)
            out: LambdaPoly = {}
            wmax = world.fock.max_weight(fa) + world.fock.max_weight(fb)
            fact = Fraction(1)
            for n in range(0, wmax + 1):
                if n:
                    fact *= n
                v = world.fock.nth(fa, n, fb)
                if v:
                    out[((1, n),) if n else ()] = ring.pscale(
                        world.from_fock(v), Fraction(1) / fact
                    )
            return lp_normal(out)

        self._bracket = StarOp(2, self.module, fn, 0)
        return self._bracket


class ChevalleyCochain(StarOp):
    """An antisymmetric function-multilinear cochain on vector fields.

    ``seeds`` maps sorted frame-name tuples to canonical lambda-polynomial
    values with function coefficients; the full (permuted) frame table is
    derived through the antisymmetry relation at construction.
    """

    def __init__(
        self,
        world: JetWorld,
        arity: int,
        seeds: Dict[tuple, LambdaPoly],
        op_parity: int = 0,
    ):
        self.world = world
        self.table: Dict[tuple, LambdaPoly] = {}
        for names, val in seeds.items():
            if tuple(sorted(names)) != tuple(names):
                raise ValueError("seed tuples must be sorted")
            if not val:
                continue
            pars = [world.frame_parity(n) for n in names]
            for perm in itertools.permutations(range(1, arity + 1)):
                tup = tuple(names[p - 1] for p in perm)
                v = lp_relabel(
                    val,
                    {q: perm.index(q) + 1 for q in range(1, arity + 1)},
                )
                v = lp_eliminate(v, arity, world.module, range(1, arity))
                v = lp_normal(lp_scale(v, sgn(perm) * koszul_sign(perm, pars)))
                prev = self.table.get(tup)
                if prev is None:
                    self.table[tup] = v
                elif lp_normal(lp_add(prev, lp_scale(v, -1))):
                    raise ValueError(
                        f"seed on {names} breaks antisymmetry at {tup}"
                    )
        super().__init__(arity, world.module, self._evaluate, op_parity)

    def _term_value(self, parts):
        """Value on one tuple of terms (f_mono, tau_key) per slot."""
        n = self.arity
        world = self.world
        names = tuple(
            str(g[0])[len(TAU_PREFIX):] for (_f, g) in parts
        )
        val = self.table.get(names)
        if not val:
            return {}
        # sesquilinearity: jet orders of the frame letters
        for i, (_f, (gname, k)) in enumerate(parts, start=1):
            if not k:
                continue
            if i < n:
                val = lp_mul_var(val, i, k)
            else:
                val = lp_apply_translate_minus_vars(
                    val, world.module, range(1, n), k
                )
        # function multilinearity with Koszul prefix signs
        sign = 1
        prefix = 0
        for i, (fmono, g) in enumerate(parts, start=1):
            fpar = ring.mono_parity(fmono, world.jets.parity)
            if fpar and ((self.parity + prefix) & 1):
                sign = -sign
            f = {fmono: Fraction(1)}
            if fmono:
                if i < n:
                    acc: LambdaPoly = {}
                    deriv = val
                    m = 0
                    fshift = f
                    while deriv:
                        term = lp_map_coeffs(
                            deriv,
                            lambda e, fs=fshift: ring.pmul(
                                fs, e, world.jets.parity
                            ),
                        )
                        c = Fraction((-1) ** m, 1)
                        for mm in range(1, m + 1):
                            c /= mm
                        acc = lp_add(acc, lp_scale(term, c))
                        deriv = lp_deriv_var(deriv, i)
                        fshift = world.jets.translate(fshift)
                        m += 1
                    val = acc
                else:
                    val = lp_map_coeffs(
                        val,
                        lambda e: ring.pmul(f, e, world.jets.parity),
                    )
            prefix = (prefix + fpar + world.jets.parity(g)) & 1
        return lp_scale(val, sign) if sign == -1 else val

    def _evaluate(self, *args):
        n = self.arity
        world = self.world
        out: LambdaPoly = {}
        split_args = []
        for a in args:
            terms = []
            for mono, c in a.items():
                taus = [(g, e) for g, e in mono if world.is_tau_key(g)]
                if len(taus) != 1 or taus[0][1] != 1:
                    raise ValueError(
                        "cochain arguments must be vector fields"
                    )
                fmono = tuple(
                    (g, e) for g, e in mono if not world.is_tau_key(g)
                )
                s = _split_sign(mono, taus[0][0], world.jets.parity)
                terms.append((fmono, taus[0][0], c * s))
            split_args.append(terms)
        for combo in itertools.product(*split_args):
            coeff = Fraction(1)
            parts = []
            for fmono, g, c in combo:
                coeff *= c
                parts.append((fmono, g))
            v = self._term_value(parts)
            if v:
                out = lp_add(out, lp_scale(v, coeff))
        return lp_normal(out)


def _split_sign(mono, tau_key, parity) -> int:
    """Koszul sign rewriting a sorted monomial as (f-part) * (tau letter)."""
    # the tau letter must move right past every letter after it
    s = 1
    seen = False
    tpar = parity(tau_key)
    for g, e in mono:
        if g == tau_key:
            seen = True
            continue
        if seen and tpar and (parity(g) * e) & 1:
            s = -s
    return s


def symmetrized_seed(
    world: JetWorld, names: tuple, val: LambdaPoly
) -> LambdaPoly:
    """Project a would-be seed onto the antisymmetry constraint.

    Seeds on tuples with repeated (odd) frame letters must be invariant
    under the stabilizer of the tuple acting through relabel/eliminate and
    Koszul signs; this averages over that stabilizer.
    """
    n = len(names)
    pars = [world.frame_parity(nm) for nm in names]
    total: LambdaPoly = {}
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        if tuple(names[p - 1] for p in perm) != tuple(names):
            continue
        v = lp_relabel(
            val, {q: perm.index(q) + 1 for q in range(1, n + 1)}
        )
        v = lp_eliminate(v, n, world.module, range(1, n))
        total = lp_add(
            total, lp_scale(v, sgn(perm) * koszul_sign(perm, pars))
        )
        count += 1
    return lp_normal(lp_scale(total, Fraction(1, count)))


def chevalley_d(phi: ChevalleyCochain) -> ChevalleyCochain:
    """The Chevalley differential of a cochain for the standard structure.

    Computed on sorted frame tuples (where only the action terms survive,
    the standard frame being abelian) and re-wrapped as a cochain.
    """
    world = phi.world
    n = phi.arity
    mu = world.bracket()
    seeds: Dict[tuple, LambdaPoly] = {}
    frame = sorted(world.frame_names())
    for tup in itertools.combinations_with_replacement(frame, n + 1):
        pars = [world.frame_parity(nm) for nm in tup]
        # repeated even frame letters can still carry nonzero values
        # through the lambda dependence, so no tuple is skipped here
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
                w = mu(world.tau(tup[i - 1]), m)
                w = lp_relabel(w, {1: i})
                term = lp_add(term, lp_mul_mono(w, mono))
            sign = -1 if i & 1 == 0 else 1
            # Koszul: move a_i left past a_1..a_{i-1} (the action applies
            # to the value from the left, so phi itself is not crossed)
            if pars[i - 1] and (sum(pars[: i - 1]) & 1):
                sign = -sign
            total = lp_add(total, lp_scale(term, sign))
        total = lp_eliminate(total, n + 1, world.module, range(1, n + 1))
        if lp_normal(total):
            seeds[tup] = lp_normal(total)
    return ChevalleyCochain(world, n + 1, seeds, (phi.parity + 1) & 1)


def multilin_expected(
    phi: StarOp, slot: int, f: ring.Poly, args, world: JetWorld
) -> LambdaPoly:
    """The function-multilinearity prediction for phi(..., f*a_slot, ...)."""
    n = phi.arity
    val = phi(*args)
    fpar = world.jets.poly_parity(f)
    prefix = phi.parity
    for a in args[: slot - 1]:
        prefix = (prefix + world.jets.poly_parity(a)) & 1
    sign = -1 if (fpar and prefix) else 1
    if slot == n:
        out = lp_map_coeffs(
            val, lambda e: ring.pmul(f, e, world.jets.parity)
        )
        return lp_scale(out, sign)
    acc: LambdaPoly = {}
    deriv = val
    m = 0
    fshift = f
    while deriv:
        term = lp_map_coeffs(
            deriv,
            lambda e, fs=fshift: ring.pmul(fs, e, world.jets.parity),
        )
        c = Fraction((-1) ** m, 1)
        for mm in range(1, m + 1):
            c /= mm
        acc = lp_add(acc, lp_scale(term, c))
        deriv = lp_deriv_var(deriv, slot)
        fshift = world.jets.translate(fshift)
        m += 1
    return lp_scale(acc, sign)


def multilinearity_check(
    phi: StarOp, slot: int, f: ring.Poly, args, world: JetWorld
) -> dict:
    scaled = list(args)
    scaled[slot - 1] = world.jets.mul(f, args[slot - 1])
    got = phi(*scaled)
    want = multilin_expected(phi, slot, f, args, world)
    diff = lp_normal(lp_add(got, lp_scale(want, -1)))
    return {"ok": not diff, "difference": diff}


def lie_modes_bracket(
    mu: StarOp,
    a: dict,
    n: int,
    b: dict,
    m: int,
    decompose: Callable[[dict], Dict[tuple, Fraction]],
) -> Dict[tuple, Fraction]:
    """The bracket [a_[n], b_[m]] = sum_j C(n,j) (a_(j) b)_[n+m-j] in the
    mode Lie algebra of a Lie* algebra.

    ``decompose`` writes an element as translation-power combinations
    {(basis_name, k): c} meaning c * T^k(basis vector); classes reduce by
    (T v)_[p] = p * v_[p-1].
    """
    val = mu(a, b)
    out: Dict[tuple, Fraction] = {}
    for mono, elem in val.items():
        j = mono[0][1] if mono else 0
        fact = 1
        for i in range(1, j + 1):
            fact *= i
        coeff = Fraction(binomial(n, j) * fact)
        if not coeff:
            continue
        for (name, k), c in decompose(elem).items():
            p = n + m - j
            fall = Fraction(1)
            for step in range(k):
                fall *= p - step
            ring.acc(out, (name, p - k), coeff * c * fall)
    return out
