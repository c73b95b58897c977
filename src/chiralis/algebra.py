"""Polynomial super DG algebras, jet algebras, and De Rham-type complexes.

A :class:`SuperPolyAlgebra` is a finitely generated super-commutative
polynomial algebra over the rationals whose generators carry a parity and a
cohomological degree, optionally equipped with an odd square-zero
differential ``D`` of degree +1.

A :class:`JetAlgebra` adjoins variables ``x^(k)`` for every base generator
``x`` and every k >= 0 together with the translation derivation
``translate`` sending ``x^(k)`` to ``x^(k+1)``; the base differential
extends so that it commutes with translation.

A :class:`FormAlgebra` adjoins a differential ``dg`` for every generator
``g`` of the ambient algebra, with parity flipped, and provides the exterior
differential ``derham_d``, which squares to zero.  Forms are the twisting
data of the chiral algebroid layer, and :meth:`FormAlgebra.iota` is their
one contraction by a vector field: ``algebroid.form_cochain`` contracts
forms against frames with it.

:func:`tangent_algebra` is the one carrier of vector fields, the
algebra whose jets ``chevalley.JetWorld.ext`` has: the base plus one
tangent letter tau_g = d/dg per base generator g, with D(tau_g) =
[D, d/dg].  :func:`tau_name`, :func:`is_tau`, :func:`tau_base`,
:func:`tangent_part` and :func:`split_tangent` are the one naming and
splitting convention of its letters, plain or as jet keys (name, k).
"""

from __future__ import annotations

from typing import Dict, Optional

from . import ring
from .ring import Poly, poly_one


class SuperPolyAlgebra:
    """Super-commutative polynomial algebra with an optional differential.

    ``gens`` is a list of ``(name, parity, degree)`` triples; ``D`` maps
    generator names to polynomial images (parity +1, degree +1, square zero
    -- all verified at construction).
    """

    def __init__(self, gens, D: Optional[Dict] = None):
        self._parity = {}
        self._degree = {}
        self.gen_names = []
        for name, parity, degree in gens:
            if name in self._parity:
                raise ValueError(f"duplicate generator {name!r}")
            self._parity[name] = parity & 1
            self._degree[name] = degree
            self.gen_names.append(name)
        self.D_images: Dict = {k: dict(v) for k, v in (D or {}).items() if v}
        for name, img in self.D_images.items():
            if name not in self._parity:
                raise ValueError(f"differential on unknown generator {name!r}")
            for mono in img:
                if ring.mono_parity(mono, self.parity) != (
                    self._parity[name] ^ 1
                ):
                    raise ValueError(f"D({name!r}) has wrong parity")
                if (
                    ring.mono_degree(mono, self.degree)
                    != self._degree[name] + 1
                ):
                    raise ValueError(f"D({name!r}) has wrong degree")
        for name in self.gen_names:
            if self.D(self.D(self.gen(name))):
                raise ValueError(f"D^2 != 0 on generator {name!r}")

    # -- gradings ---------------------------------------------------------
    def parity(self, key) -> int:
        return self._parity[key]

    def degree(self, key) -> int:
        return self._degree[key]

    def poly_degree(self, p: Poly):
        """Common cohomological degree of p, or None if inhomogeneous/zero."""
        degs = {ring.mono_degree(m, self.degree) for m in p}
        return degs.pop() if len(degs) == 1 else None

    def poly_parity(self, p: Poly):
        pars = {ring.mono_parity(m, self.parity) for m in p}
        return pars.pop() if len(pars) == 1 else None

    # -- arithmetic --------------------------------------------------------
    def gen(self, name) -> Poly:
        if name not in self._parity:
            raise KeyError(name)
        return ring.poly_gen(name)

    def mul(self, *ps: Poly) -> Poly:
        return ring.pmul_many(ps, self.parity)

    def D(self, p: Poly) -> Poly:
        return ring.derive(p, self.D_images, 1, self.parity)

    def str(self, p: Poly) -> str:
        return ring.poly_str(p, self._genname)

    def _genname(self, g) -> str:
        return str(g)


class JetAlgebra(SuperPolyAlgebra):
    """Jet algebra of a base :class:`SuperPolyAlgebra`.

    Generator keys are ``(name, k)`` with k >= 0; ``(name, 0)`` is the base
    generator.  Gradings: parity and cohomological degree are inherited from
    the base generator, ``weight((name, k)) = k``.
    """

    def __init__(self, base: SuperPolyAlgebra):
        self.base = base

    def gen(self, key) -> Poly:
        name, k = key
        if name not in self.base._parity or k < 0:
            raise KeyError(key)
        return ring.poly_gen(key)

    def parity(self, key) -> int:
        return self.base.parity(key[0])

    def degree(self, key) -> int:
        return self.base.degree(key[0])

    def weight(self, key) -> int:
        return key[1]

    def lift(self, p: Poly) -> Poly:
        """Inject a base-algebra polynomial as jet variables of order 0."""
        return {
            tuple(((g, 0), e) for g, e in mono): c for mono, c in p.items()
        }

    def translate(self, p: Poly) -> Poly:
        """The jet translation, x^(k) -> x^(k+1); an even derivation."""
        images = {}
        for mono in p:
            for (name, k), _e in mono:
                images[(name, k)] = ring.poly_gen((name, k + 1))
        return ring.derive(p, images, 0, self.parity)

    def _D_image(self, key) -> Poly:
        name, k = key
        img = self.lift(self.base.D_images.get(name, {}))
        for _ in range(k):
            img = self.translate(img)
        return img

    def D(self, p: Poly) -> Poly:
        images = {}
        for mono in p:
            for (g, _e) in mono:
                if g not in images:
                    images[g] = self._D_image(g)
        return ring.derive(p, images, 1, self.parity)

    def _genname(self, g) -> str:
        name, k = g
        return str(name) if k == 0 else f"{name}^({k})"


class FormAlgebra:
    """Differential forms over an ambient (super, possibly jet) algebra.

    Form variables are keyed ``('g', key)`` for the ambient generator and
    ``('d', key)`` for its differential, with ``parity(dg) = parity(g) + 1``
    and the same cohomological degree.  Arbitrary mixed-degree elements are
    allowed; :meth:`form_degree_of_mono` reads the form degree (number of
    ``d`` letters) of a monomial.
    """

    def __init__(self, ambient: SuperPolyAlgebra):
        self.ambient = ambient

    # -- gradings ----------------------------------------------------------
    def parity(self, key) -> int:
        kind, g = key
        p = self.ambient.parity(g)
        return p ^ 1 if kind == "d" else p

    @staticmethod
    def form_degree_of_mono(mono) -> int:
        return sum(e for (kind, _g), e in mono if kind == "d")

    # -- constructors -------------------------------------------------------
    def inject(self, p: Poly) -> Poly:
        """View an ambient element as a 0-form."""
        return {
            tuple((("g", g), e) for g, e in mono): c for mono, c in p.items()
        }

    def gen(self, key) -> Poly:
        self.ambient.gen(key)  # validates / extends jets
        return ring.poly_gen(("g", key))

    def d_gen(self, key) -> Poly:
        self.ambient.gen(key)
        return ring.poly_gen(("d", key))

    def mul(self, *ps: Poly) -> Poly:
        return ring.pmul_many(ps, self.parity)

    # -- differentials -------------------------------------------------------
    def derham_d(self, p: Poly) -> Poly:
        images = {}
        for mono in p:
            for (kind, g), _e in mono:
                if kind == "g":
                    images[("g", g)] = ring.poly_gen(("d", g))
        return ring.derive(p, images, 1, self.parity)

    def iota(self, form: Poly, components: Dict, parity: int) -> Poly:
        """Contraction of a form by the vector field sum_g components[g]
        d/dg (ambient components) of parity ``parity``: the derivation
        dg -> components[g], g -> 0, of parity ``parity + 1``."""
        images = {("d", g): self.inject(c) for g, c in components.items()}
        return ring.derive(form, images, (parity + 1) & 1, self.parity)


# -- tangent letters -----------------------------------------------------------

TAU_PREFIX = "tau "


def tau_name(name: str) -> str:
    """The tangent letter d/d(name) of a base generator."""
    return TAU_PREFIX + name


def is_tau(letter) -> bool:
    """Whether a letter, or the jet key (letter, k), is a tangent letter."""
    if isinstance(letter, tuple):
        letter = letter[0]
    return str(letter).startswith(TAU_PREFIX)


def tau_base(letter) -> str:
    """The base generator a tangent letter stands for."""
    return str(letter)[len(TAU_PREFIX):]


def tangent_part(p: Poly, k: int) -> Poly:
    """The terms of p with exactly k tangent letters (k = 0: the function
    part, k = 1: the vector-field part of a carrier element)."""
    return {m: c for m, c in p.items()
            if sum(e for g, e in m if is_tau(g)) == k}


def tangent_algebra(base: SuperPolyAlgebra) -> SuperPolyAlgebra:
    """The carrier of vector fields on ``base``: the base generators plus
    one tangent letter tau_g = d/dg per generator g, of the same parity
    and negated degree.  D extends the base differential by D(tau_g) =
    [D, d/dg], so on a vector field X it is the commutator [D, X]."""
    for name in base.gen_names:
        if is_tau(name):
            raise ValueError(f"reserved generator name {name!r}")
    gens = [(n, base.parity(n), base.degree(n)) for n in base.gen_names]
    gens += [(tau_name(n), base.parity(n), -base.degree(n))
             for n in base.gen_names]

    def parity(g):
        return base.parity(tau_base(g) if is_tau(g) else g)

    D = {k: dict(v) for k, v in base.D_images.items()}
    for g in base.gen_names:
        # [D, d/dg] = -(-1)^|g| sum_h (d D(h) / dg) d/dh
        img: Poly = {}
        for h, dh in base.D_images.items():
            part = ring.derive(dh, {g: poly_one()}, base.parity(g),
                               base.parity)
            ring.acc_poly(img, ring.pmul(part, ring.poly_gen(tau_name(h)),
                                         parity), -(-1) ** base.parity(g))
        if img:
            D[tau_name(g)] = img
    return SuperPolyAlgebra(gens, D=D)


def split_tangent(mono, parity):
    """Write a monomial as sign * (f-part) * (its one tangent letter).

    Returns ``(f_mono, tau_key, sign)``, or None when ``mono`` has no
    tangent letter; raises ``ValueError`` when it has more.
    """
    taus = [(g, e) for g, e in mono if is_tau(g)]
    if not taus:
        return None
    if len(taus) != 1 or taus[0][1] != 1:
        raise ValueError("tangent degree must be at most one")
    tkey = taus[0][0]
    f_mono = tuple((g, e) for g, e in mono if g != tkey)
    # the sign of moving the tau letter right past every letter after it
    return f_mono, tkey, ring.mono_mul(f_mono, ((tkey, 1),), parity)[1]
