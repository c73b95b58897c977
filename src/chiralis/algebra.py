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
differential ``derham_d``, the Lie derivative ``lie_D`` along the ambient
differential, and their sum ``total_d``; all three square to zero and the
first two anticommute.
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

    def one(self) -> Poly:
        return poly_one()

    def mul(self, *ps: Poly) -> Poly:
        return ring.pmul_many(ps, self.parity)

    def derive(self, p: Poly, images: Dict, dparity: int) -> Poly:
        return ring.derive(p, images, dparity, self.parity)

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
    the base generator, ``weight((name, k)) = k``.  Jet variables are
    materialized lazily up to the largest order touched so far.
    """

    def __init__(self, base: SuperPolyAlgebra):
        self.base = base
        self._parity = {}
        self._degree = {}
        self.gen_names = []
        self._max_order = -1
        self._D_cache: Dict = {}
        self.D_images = self  # sentinel; D() is overridden below
        self._extend(0)

    def _extend(self, order: int) -> None:
        for k in range(self._max_order + 1, order + 1):
            for name in self.base.gen_names:
                key = (name, k)
                self._parity[key] = self.base.parity(name)
                self._degree[key] = self.base.degree(name)
                self.gen_names.append(key)
        self._max_order = max(self._max_order, order)

    def gen(self, key) -> Poly:
        name, k = key
        if name not in self.base._parity or k < 0:
            raise KeyError(key)
        self._extend(k)
        return ring.poly_gen(key)

    def parity(self, key) -> int:
        return self.base.parity(key[0])

    def degree(self, key) -> int:
        return self.base.degree(key[0])

    def weight(self, key) -> int:
        return key[1]

    def poly_weight(self, p: Poly):
        ws = {ring.mono_degree(m, self.weight) for m in p}
        return ws.pop() if len(ws) == 1 else None

    def lift(self, p: Poly) -> Poly:
        """Inject a base-algebra polynomial as jet variables of order 0."""
        return {
            tuple(((g, 0), e) for g, e in mono): c for mono, c in p.items()
        }

    def translate(self, p: Poly) -> Poly:
        """The jet translation, x^(k) -> x^(k+1); an even derivation."""
        orders = [k for m in p for (_, k), _ in m]
        if orders:
            self._extend(max(orders) + 1)
        images = {
            (name, k): ring.poly_gen((name, k + 1))
            for name in self.base.gen_names
            for k in range(self._max_order)
        }
        return ring.derive(p, images, 0, self.parity)

    def _D_image(self, key) -> Poly:
        if key not in self._D_cache:
            name, k = key
            img = self.lift(self.base.D_images.get(name, {}))
            for _ in range(k):
                img = self.translate(img)
            self._D_cache[key] = img
        return self._D_cache[key]

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
    allowed; :meth:`split` separates them by form degree (number of ``d``
    letters).
    """

    def __init__(self, ambient: SuperPolyAlgebra):
        self.ambient = ambient

    # -- gradings ----------------------------------------------------------
    def parity(self, key) -> int:
        kind, g = key
        p = self.ambient.parity(g)
        return p ^ 1 if kind == "d" else p

    def degree(self, key) -> int:
        return self.ambient.degree(key[1])

    def weight(self, key) -> int:
        return self.ambient.weight(key[1])

    def poly_parity(self, p: Poly):
        pars = {ring.mono_parity(m, self.parity) for m in p}
        return pars.pop() if len(pars) == 1 else None

    @staticmethod
    def form_degree_of_mono(mono) -> int:
        return sum(e for (kind, _g), e in mono if kind == "d")

    def split(self, p: Poly) -> Dict[int, Poly]:
        out: Dict[int, Poly] = {}
        for mono, c in p.items():
            out.setdefault(self.form_degree_of_mono(mono), {})[mono] = c
        return out

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

    def lie_D(self, p: Poly) -> Poly:
        """Lie derivative along the ambient differential D.

        Odd derivation with g -> -D(g) and dg -> d(D(g)).  The relative
        sign between the two defining rules is forced: it is what makes
        lie_D anticommute with derham_d and square to zero, so that
        total_d = derham_d + lie_D satisfies total_d^2 = 0.
        """
        images = {}
        for mono in p:
            for (kind, g), _e in mono:
                key = (kind, g)
                if key in images:
                    continue
                img = self.inject(self.ambient.D(self.ambient.gen(g)))
                images[key] = (
                    self.derham_d(img)
                    if kind == "d"
                    else ring.pscale(img, -1)
                )
        return ring.derive(p, images, 1, self.parity)

    def total_d(self, p: Poly) -> Poly:
        return ring.padd(self.derham_d(p), self.lie_D(p))

    def is_closed(self, p: Poly, total: bool = True) -> bool:
        return not (self.total_d(p) if total else self.derham_d(p))

    def str(self, p: Poly) -> str:
        def name(key):
            kind, g = key
            base = self.ambient._genname(g)
            return f"d{base}" if kind == "d" else base

        return ring.poly_str(p, name)
