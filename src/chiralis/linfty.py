"""Homotopy Lie structures: finite-dimensional checks.

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
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from . import exact, ring
from .starops import (
    StarModule,
    StarOp,
    jacobi_report,
    lp_from_elem,
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
    ):
        self.space = space
        self.arity = arity
        self.antisym = antisym
        self.values: Dict[tuple, Elem] = {}
        for tup, val in values.items():
            if tuple(sorted(tup)) != tuple(tup):
                raise ValueError("value tuples must be sorted")
            key, s = _canon(
                tuple(tup), tuple(space.parity(n) for n in tup), antisym
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

    def _lookup(self, names: tuple) -> Tuple[Optional[Elem], int]:
        """The stored value of the canonical form of ``names`` (None when
        it is zero) and the sign of the re-sort; each tuple is
        canonicalized once per map."""
        hit = self._seen.get(names)
        if hit is None:
            key, s = _canon(
                names, tuple(self.space.parity(n) for n in names),
                self.antisym
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
    """Transport an antisymmetric map to the symmetric parity-shifted side.

    The image lives on the space with every degree raised by one, whose
    parities are the shifted ones.
    """
    n = l.arity
    space = l.space
    shifted = GradedSpace([(nm, space.degrees[nm] + 1)
                           for nm in space.names])
    values: Dict[tuple, Elem] = {}
    base_sign = -1 if (n * (n - 1) // 2) & 1 else 1
    for tup, val in l.values.items():
        s = base_sign
        for i, nm in enumerate(tup):
            if ((n - 1 - i) * space.parity(nm)) & 1:
                s = -s
        # re-sort for the shifted parities (same letters, sign may differ)
        key, s2 = _canon(tup, tuple(shifted.parity(nm) for nm in tup), False)
        if key is None:
            continue
        entry = values.setdefault(key, {})
        ring.acc_poly(entry, val, s * s2)
    return BasisMultiMap(shifted, n, values, antisym=False)


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
