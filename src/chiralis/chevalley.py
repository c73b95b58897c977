"""Jet tangent carriers, their Lie* bracket, and Chevalley cochains.

The carrier of a polynomial base algebra A is the jet algebra of
``algebra.tangent_algebra(A)``: A extended by tangent frame generators
tau_g = d/dg (one per base generator, with flipped cohomological
degree); elements of tangent degree <= 1 represent the direct sum of the
jet algebra of A and the jet module of vector fields.
The standard Lie* bracket on the carrier is computed through the
free-field dictionary: jets embed into the beta-gamma--bc state space by

    g^(k)    ->  (-1)^k k! (coordinate mode of g at -k)
    tau^(k)  ->  (-1)^k k! (momentum mode of g at -k-1)

and the bracket is the vertex engine's Lie* bracket conjugated by this
embedding (which intertwines the jet translation with the negated vertex
translation operator); both directions are ``ring.substitute``.

Chevalley cochains are antisymmetric multilinear star operations on vector
fields with function values, stored on frame tuples and evaluated by one
slot rule, the last slot included: a frame jet of order k in slot i
multiplies the value by z_i^k (sesquilinearity) and a function factor f
enters as z_i -> z_i - T_f, T_f translating f alone (function
multilinearity); z_n stays a symbol until one elimination at the end,
and both rewrites are ``starops.lp_substitute``.  A cochain reads a
carrier element through its vector-field part, so function terms
contribute zero.  ``frame_cochain`` is the one way to build a cochain
from a value per sorted frame tuple;
``chevalley_d`` is the Chevalley differential for the standard structure
(abelian frame, so only action terms contribute on frame tuples).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import ring
from .algebra import (
    JetAlgebra,
    SuperPolyAlgebra,
    is_tau,
    split_tangent,
    tangent_algebra,
    tangent_part,
    tau_base,
    tau_name,
)
from .exact import antisym_sign, inverse, unshuffles
from .fock import BGSystem
from .starops import (
    LambdaPoly,
    StarModule,
    StarOp,
    T,
    apply_to_value,
    lp_acc,
    lp_eliminate,
    lp_map_coeffs,
    lp_mul_var,
    lp_scale,
    lp_substitute,
    permute_slots,
    va_bracket,
)


class JetWorld:
    """Jets of A together with the tangent frame and the Fock dictionary."""

    def __init__(self, base: SuperPolyAlgebra):
        self.base = base
        self.ext = tangent_algebra(base)
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

    def sigma(self, p: ring.Poly) -> ring.Poly:
        """Projection onto the vector-field (tangent-degree 1) part."""
        return tangent_part(p, 1)

    # -- Fock dictionary ---------------------------------------------------------
    def _letter_to_fock(self, key) -> Tuple[tuple, int]:
        """The Fock letter of a jet letter and the factor it carries."""
        name, k = key
        fact = -math.factorial(k) if k & 1 else math.factorial(k)
        if is_tau(name):
            return ("m", tau_base(name), -k - 1), fact
        return ("c", name, -k), fact

    def to_fock(self, p: ring.Poly) -> ring.Poly:
        return ring.substitute(p, self._letter_to_fock, self.fock.parity)

    def _letter_from_fock(self, key) -> Tuple[tuple, Fraction]:
        """The jet letter of a Fock letter and the factor it carries."""
        kind, name, k = key
        order = -k if kind == "c" else -k - 1
        fact = -math.factorial(order) if order & 1 else math.factorial(order)
        letter = (name if kind == "c" else tau_name(name), order)
        self.jets.gen(letter)  # validates the letter
        return letter, Fraction(1, fact)

    def from_fock(self, p: ring.Poly) -> ring.Poly:
        return ring.substitute(p, self._letter_from_fock, self.jets.parity)

    # -- the standard Lie* bracket ------------------------------------------------
    def bracket(self) -> StarOp:
        """The free-field Lie* bracket conjugated by the Fock dictionary."""
        if self._bracket is None:
            mu = va_bracket(self.fock)

            def fn(a, b):
                v = mu(self.to_fock(a), self.to_fock(b))
                return lp_map_coeffs(v, self.from_fock)

            self._bracket = StarOp(2, self.module, fn, 0)
        return self._bracket


class ChevalleyCochain(StarOp):
    """An antisymmetric function-multilinear cochain on vector fields.

    ``seeds`` maps sorted frame-name tuples to canonical lambda-polynomial
    values with function coefficients; the full (permuted) frame table is
    derived through the antisymmetry relation at construction.  The
    cochain keeps its nonzero seeds, with the last slot eliminated, as
    ``seeds``: no seeds means the zero cochain.
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
        self.seeds: Dict[tuple, LambdaPoly] = {}
        for names, val in seeds.items():
            if tuple(sorted(names)) != tuple(names):
                raise ValueError("seed tuples must be sorted")
            if not val:
                continue
            pars = [world.frame_parity(n) for n in names]
            for perm in itertools.permutations(range(1, arity + 1)):
                tup = tuple(names[p - 1] for p in perm)
                v = permute_slots(val, inverse(perm), world.module,
                                  antisym_sign(perm, pars))
                prev = self.table.get(tup)
                if prev is None:
                    self.table[tup] = v
                elif prev != v:
                    raise ValueError(
                        f"seed on {names} breaks antisymmetry at {tup}"
                    )
            # the identity permutation comes first: the canonical seed
            self.seeds[tuple(names)] = self.table[tuple(names)]
        super().__init__(arity, world.module, self._evaluate, op_parity)

    def _term_value(self, parts):
        """Value on one tuple of terms (f_mono, tau_key) per slot, every
        slot by the one rule; z_n is eliminated once, at the end."""
        n = self.arity
        world = self.world
        names = tuple(tau_base(g[0]) for (_f, g) in parts)
        val = self.table.get(names)
        if not val:
            return {}
        # sesquilinearity: jet orders of the frame letters
        for i, (_f, (_gname, k)) in enumerate(parts, start=1):
            if k:
                val = lp_mul_var(val, i, k)
        # function multilinearity with Koszul prefix signs
        sign = 1
        prefix = 0
        for i, (fmono, g) in enumerate(parts, start=1):
            fpar = ring.mono_parity(fmono, world.jets.parity)
            if fpar and ((self.parity + prefix) & 1):
                sign = -sign
            if fmono:
                val = _leibniz(world, val, i, {fmono: 1})
            prefix = (prefix + fpar + world.jets.parity(g)) & 1
        val = lp_eliminate(val, n, world.module, range(1, n))
        return lp_scale(val, sign) if sign == -1 else val

    def _evaluate(self, *args):
        n = self.arity
        world = self.world
        out: LambdaPoly = {}
        split_args = []
        for a in args:
            terms = []
            for mono, c in a.items():
                split = split_tangent(mono, world.jets.parity)
                if split is not None:
                    fmono, tkey, s = split
                    terms.append((fmono, tkey, c * s))
            split_args.append(terms)
        for combo in itertools.product(*split_args):
            coeff = 1
            parts = []
            for fmono, g, c in combo:
                coeff *= c
                parts.append((fmono, g))
            lp_acc(out, self._term_value(parts), coeff)
        return out


def _leibniz(world: JetWorld, val: LambdaPoly, slot: int,
             f: ring.Poly) -> LambdaPoly:
    """The value on f * a_slot, from the value ``val`` on a_slot (unsigned):
    the series sum_m (-1)^m / m! T^m(f) d^m/dz_slot^m, which is the
    substitution z_slot -> z_slot - T_f, T_f translating f alone."""
    fs = [f]

    def power(a, e):
        while len(fs) <= a:
            fs.append(world.jets.translate(fs[-1]))
        return ring.pmul(fs[a], e, world.jets.parity)

    return lp_substitute(val, {slot: {slot: 1, T: -1}}, power)


def frame_cochain(
    world: JetWorld,
    arity: int,
    seed: Callable[[tuple, List[int], List[ring.Poly]], LambdaPoly],
    parity: int,
) -> ChevalleyCochain:
    """The cochain whose value on each sorted frame tuple is
    ``seed(tup, pars, taus)``, with ``pars`` the parities and ``taus`` the
    frame fields of the tuple's letters.

    Repeated letters are visited too: a repeated even frame letter can
    still carry a nonzero value through the lambda dependence.
    """
    seeds: Dict[tuple, LambdaPoly] = {}
    frame = sorted(world.frame_names())
    for tup in itertools.combinations_with_replacement(frame, arity):
        seeds[tup] = seed(tup, [world.frame_parity(nm) for nm in tup],
                          [world.tau(nm) for nm in tup])
    return ChevalleyCochain(world, arity, seeds, parity)


def _chevalley_d(phi: ChevalleyCochain, lc: bool) -> ChevalleyCochain:
    """The body of :func:`chevalley_d`, in either sign convention.

    With ``lc`` it is taken in the convention of the homotopy defect
    (``algebroid.lc_d``): the term where the i-th argument acts gets the
    extra sign (-1)^(1 + p_i |phi|), p_i its parity, and the parity of
    phi is kept, since composing with the parity-even bracket keeps it.
    That is the convention under which the generalized Jacobi defect of
    a twisted structure is exactly the differential of the twist.
    """
    world = phi.world
    n = phi.arity
    mu = world.bracket()

    def seed(tup, pars, taus):
        total: LambdaPoly = {}
        for sig in unshuffles(1, n + 1):
            # a_i acts on phi of the others; the Koszul sign moves a_i
            # left past a_1..a_{i-1} (the action applies to the value
            # from the left, so phi itself is not crossed)
            i = sig[0]
            v = phi(*[taus[s - 1] for s in sig[1:]])
            term = apply_to_value(mu, taus[i - 1], v)
            sign = antisym_sign(sig, pars)
            if lc and (1 + pars[i - 1] * phi.parity) & 1:
                sign = -sign
            lp_acc(total, permute_slots(term, sig, world.module, sign))
        return total

    parity = phi.parity if lc else (phi.parity + 1) & 1
    return frame_cochain(world, n + 1, seed, parity)


def chevalley_d(phi: ChevalleyCochain) -> ChevalleyCochain:
    """The Chevalley differential of a cochain for the standard structure.

    Computed on sorted frame tuples (where only the action terms survive,
    the standard frame being abelian) and re-wrapped as a cochain.
    """
    return _chevalley_d(phi, False)
