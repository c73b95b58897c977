"""The beta-gamma / bc first-order vertex algebra engine.

For a polynomial super algebra with even generators x_i and odd generators
xi_j, the corresponding free-field vertex algebra has, for every generator,
a coordinate field and a conjugate momentum field whose only nonzero
commutators are the canonical delta pairings.

States are super polynomials (see :mod:`chiralis.ring`) in mode letters

    ('c', name, k)   coordinate mode, k <= 0,
    ('m', name, k)   momentum mode,   k <  0,

sorted canonically by key: coordinates before momenta, then by generator
name, then by decreasing |k|.  The letter of mode index k corresponds to the
field mode with standard (vertex-operator) index k-1 for coordinates and k
for momenta, so that letters of states always have operator index <= -1
(creation) and the vacuum is the empty monomial.

All n-th products are computed by a recursion that peels the leftmost
letter of the first argument with the iterate formula

  (a_(m) b)_(n) c = sum_j (-1)^j C(m,j) [ a_(m-j) (b_(n+j) c)
                     - (-1)^(m + |a||b|) b_(m+n-j) (a_(j) c) ],

whose two standard special cases are the commutator formula (m >= 0) and
the normal-ordering formula (m = -1); the pole bound below makes every
sum finite and the recursion terminate.  It stops at a one-letter first
argument, whose products have a closed form: the letter of operator index
-1-l is T^l phi / l! for the field phi of its mode family, and by the
derivative rule (T a)_(n) = -n a_(n-1),

  (T^l phi / l!)_(n) = (-1)^l C(n, l) phi_(n-l),

one mode applied to the second argument.

Products of monomials obey a pole-order bound (Wick's theorem; Kac,
*Vertex Algebras for Beginners*, 3.3): a_(n) b = 0 for n >= P(a, b), where
P(a, b) is the weight, with multiplicity, of the letters of a whose
conjugate family (the same generator, the other kind) occurs in b, plus
that of the letters of b whose conjugate family occurs in a.  The OPE of
two normally ordered monomials of free fields is a sum over sets of
contractions between their letters; only conjugate letters contract, a
contraction of letters of weights w and w' has pole order w + w', and the
uncontracted letters are regular.  Every loop over product indices ends
at this bound, for states at :meth:`BGSystem.state_pole_bound`.

There is one product loop, :meth:`BGSystem.nth`: it expands both states
into monomials and sums the memoized monomial products of ``_nth_mono``
into a new state, so a product belongs to its caller and no memo entry is
handed out.  ``_nth_mono`` reads the memo first and returns the products
that the bound makes zero at once, with no recursion and no memo entry,
and evaluates the others by the two inner products of the iterate formula
on the shorter first argument.  Term 1 runs over the j below the bound of
(rest, b); its modes are creation modes, each a multiplication by one
letter.  In term 2 the annihilation mode g_(j) with j >= 0 can only
contract a letter of b conjugate to g, so the sum runs over just the
conjugate letters present in b (j = -1 - their operator index, in
increasing j).  Every term is accumulated in place.  The parity and
per-family weights of each monomial are computed once and kept per
system (:meth:`BGSystem.grade`), so the bounds and parity checks of
``_nth_mono``, the Borcherds checker and the Lie* bracket cost a dict
lookup.  The memo lives as long as its system: a caller that reuses few
products (a seeded Borcherds draw) checks on a fresh system.

:func:`borcherds_checks` checks the Borcherds identities of the triples
(a, b, c) for one pair (a, b) and a list of third states c
(:func:`borcherds_full_check` checks one).  The tables of the pair -- the
nonzero inner products a_(k) b, each (r, s, t)'s left-hand-side terms and
the ranges of the other sums -- are built once; per third state only the
nonzero inner products b_(k) c and a_(k) c and the outer products are
computed, and the (r, s, t) of one triple share them.  A window that
checks many third states per pair keeps a ``pairs`` table across calls,
one entry per pair: its state pole bound and its inner-product lists,
keyed by their range, so a table hit recomputes nothing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import ring
from .algebra import SuperPolyAlgebra
from .exact import binomial

State = ring.Poly

_CONJ = {"c": "m", "m": "c"}  # the conjugate family's kind


class BGSystem:
    """Free-field vertex algebra over a polynomial super algebra base."""

    def __init__(self, base: SuperPolyAlgebra):
        if base.D_images:
            raise ValueError("base differential is installed via operators,"
                             " not on the state space")
        self.base = base
        self._memo: Dict = {}
        # monomial -> (parity, {(kind, name): weight of its letters of that
        # mode family})
        self._grades: Dict = {}

    # -- letters -------------------------------------------------------------
    def parity(self, key) -> int:
        return self.base._parity[key[1]]

    def weight(self, key) -> int:
        return -key[2]

    def degree(self, key) -> int:
        d = self.base.degree(key[1])
        return -d if key[0] == "m" else d

    def mode(self, kind: str, name: str, k: int) -> State:
        if kind not in ("c", "m") or name not in self.base._parity:
            raise ValueError(f"unknown mode family {(kind, name)!r}")
        if (kind == "c" and k > 0) or (kind == "m" and k >= 0):
            raise ValueError(f"mode index {k} out of range for kind {kind!r}")
        return ring.poly_gen((kind, name, k))

    def coord(self, name: str, k: int) -> State:
        return self.mode("c", name, k)

    def mom(self, name: str, k: int) -> State:
        return self.mode("m", name, k)

    def vac(self) -> State:
        return ring.poly_one()

    # -- state-level gradings --------------------------------------------------
    def mul(self, *states: State) -> State:
        return ring.pmul_many(states, self.parity)

    def mono_degree(self, mono) -> int:
        return ring.mono_degree(mono, self.degree)

    def grade(self, mono) -> Tuple[int, Dict]:
        """(parity, family weights) of a monomial, computed once per
        system; the family weights map each mode family (kind, name) of its
        letters to their total weight, with multiplicity."""
        hit = self._grades.get(mono)
        if hit is None:
            fams: Dict = {}
            for g, e in mono:
                fams[g[:2]] = fams.get(g[:2], 0) + self.weight(g) * e
            hit = (ring.mono_parity(mono, self.parity), fams)
            self._grades[mono] = hit
        return hit

    def pole_bound(self, ma, mb) -> int:
        """P(a, b): the weight of the letters of a whose conjugate family
        occurs in b, plus that of the letters of b whose conjugate family
        occurs in a.  a_(n) b = 0 for every n >= P(a, b) (Wick)."""
        fb = self.grade(mb)[1]
        p = 0
        for (kind, name), w in self.grade(ma)[1].items():
            wb = fb.get((_CONJ[kind], name))
            if wb is not None:
                p += w + wb
        return p

    def state_pole_bound(self, x: State, y: State) -> int:
        """The maximum of P over the monomial pairs of x and y (0 if there
        are none): x_(n) y = 0 for every n at or above it."""
        return max((self.pole_bound(ma, mb) for ma in x for mb in y),
                   default=0)

    def state_parity(self, p: State) -> Optional[int]:
        pars = {self.grade(m)[0] for m in p}
        return pars.pop() if len(pars) == 1 else None

    # -- translation -------------------------------------------------------------
    def T(self, p: State) -> State:
        """Translation operator: an even derivation raising weight by 1."""
        images = {}
        for mono in p:
            for (kind, name, k), _e in mono:
                key = (kind, name, k)
                if key not in images:
                    coeff = 1 - k if kind == "c" else -k
                    images[key] = ring.pscale(
                        ring.poly_gen((kind, name, k - 1)), coeff
                    )
        return ring.derive(p, images, 0, self.parity)

    # -- mode action ----------------------------------------------------------
    @staticmethod
    def _voa_index(key) -> int:
        kind, _name, k = key
        return k - 1 if kind == "c" else k

    def _letter_from_voa(self, kind: str, name: str, j: int):
        return (kind, name, j + 1 if kind == "c" else j)

    def _pair_coeff(self, annih_kind: str, odd: int) -> int:
        # momentum contracting coordinate: +1; coordinate contracting
        # momentum: -1 for even pairs, +1 for odd pairs (anticommutator).
        if annih_kind == "m" or odd:
            return 1
        return -1

    def apply_mode(self, kind: str, name: str, j: int, p: State) -> State:
        """Apply the field mode of operator index j to a state."""
        if j <= -1:
            letter = ring.poly_gen(self._letter_from_voa(kind, name, j))
            return ring.pmul(letter, p, self.parity)
        # annihilation: contract against the conjugate letter of index -1-j
        target = self._letter_from_voa(_CONJ[kind], name, -1 - j)
        odd = self.base.parity(name)
        return ring.derive(p, {target: {(): self._pair_coeff(kind, odd)}},
                           odd, self.parity)

    # -- products ---------------------------------------------------------------
    def nth(self, a: State, n: int, b: State) -> State:
        """The n-th product a_(n) b, bilinear in both states: the memoized
        monomial products summed into a new state, which the caller owns."""
        out: State = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                ring.acc_poly(out, self._nth_mono(ma, n, mb), ca * cb)
        return out

    def _nth_mono(self, ma, n: int, mb) -> State:
        """The n-th product of two monomials, memoized per system.

        A product with n >= P(a, b) (:meth:`pole_bound`) is zero and is
        returned at once, with no recursion and no memo entry: by Wick's
        theorem the OPE a(z) b(w) is a sum over sets of contractions, each
        between a letter of a and a letter of b of the conjugate family;
        a contraction of letters of weights w and w' has pole order
        w + w', and the uncontracted letters are regular, so the pole
        order is at most P(a, b).

        A one-letter first argument is the base case: its products are one
        mode of its field, (T^l phi / l!)_(n) = (-1)^l C(n, l) phi_(n-l)
        with l = -1 - (operator index of the letter), applied to b.  A
        longer first argument peels its leftmost letter with the iterate
        formula, down to a one-letter rest.
        """
        memo = self._memo
        key = (ma, n, mb)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if n >= 0 and n >= self.pole_bound(ma, mb):
            return {}
        if not ma:
            res = {mb: 1} if n == -1 else {}
            memo[key] = res
            return res
        g, e = ma[0]
        kind, name, _k = g
        m = self._voa_index(g)
        if e == 1 and len(ma) == 1:
            l = -1 - m
            coeff = binomial(n, l)
            if l & 1:
                coeff = -coeff
            res = ring.pscale(self.apply_mode(kind, name, n - l, {mb: 1}),
                              coeff) if coeff else {}
            memo[key] = res
            return res
        parity = self.parity
        ma_rest = ((g, e - 1),) + ma[1:] if e > 1 else ma[1:]
        pa_rest = self.grade(ma_rest)[0]
        out: State = {}
        # term 1: sum_j (-1)^j C(m,j) g_(m-j) (rest_(n+j) b); m - j <= -1,
        # so g_(m-j) multiplies by a letter; rest_(n+j) b = 0 once
        # n + j >= P(rest, b) >= 0
        for j in range(0, max(self.pole_bound(ma_rest, mb) - n, 0)):
            inner = self._nth_mono(ma_rest, n + j, mb)
            if not inner:
                continue
            coeff = binomial(m, j)
            if j & 1:
                coeff = -coeff
            letter = ((self._letter_from_voa(kind, name, m - j), 1),)
            for mono, c in inner.items():
                prod, sign = ring.mono_mul(letter, mono, parity)
                if prod is not None:
                    ring.acc(out, prod, coeff * sign * c)
        # term 2: -(-1)^(m + |g||rest|) sum_j (-1)^j C(m,j)
        #           rest_(m+n-j) (g_(j) b)
        # g_(j) b is nonzero only when b holds the conjugate letter of
        # operator index -1-j; those j are visited in increasing order, as
        # the full j loop would, so the result keeps its item order.
        conj = _CONJ[kind]
        js = sorted(-1 - self._voa_index(h) for h, _e in mb
                    if h[0] == conj and h[1] == name)
        sign2 = -1 if (m + parity(g) * pa_rest) & 1 else 1
        b_state = {mb: 1}
        for j in js:
            coeff = binomial(m, j)
            if j & 1:
                coeff = -coeff
            for gm, gc in self.apply_mode(kind, name, j, b_state).items():
                ring.acc_poly(out, self._nth_mono(ma_rest, m + n - j, gm),
                              -sign2 * coeff * gc)
        memo[key] = out
        return out

    def str(self, p: State) -> str:
        def name(key):
            kind, nm, k = key
            fam = nm if kind == "c" else f"d{nm}"
            return f"{fam}[{k}]"

        return ring.poly_str(p, name)


def borcherds_full_check(va, a, b, c, r: int, s: int, t: int) -> dict:
    """Check the full Borcherds identity for F = (x-y)^r (x-z)^s (y-z)^t.

    Evaluates

      sum_j C(s,j) (a_(r+j) b)_(s+t-j) c
        - sum_j (-1)^j C(r,j) [ a_(r+s-j) (b_(t+j) c)
             - (-1)^(r + |a||b|) b_(r+t-j) (a_(s+j) c) ]

    and reports whether it vanishes.  All sums are truncated by exact
    pole bounds.
    """
    return borcherds_checks(va, a, b, [c], [(r, s, t)])[0][0]


def _span(starts) -> Tuple[int, Optional[int]]:
    """(lo, cap): the sums of ``starts`` visit k >= lo, and k <= cap.

    A start (l, n) asks for k = l + j with j >= 0, and for j <= n when
    n >= 0, since C(n, j) = 0 there; ``cap`` is None when some n < 0.
    The products x_(k) y at or above the state pole bound vanish, which
    ends k too (:func:`_inner_products`).
    """
    lo = min(l for l, _n in starts)
    cap = None if any(n < 0 for _l, n in starts) else max(
        l + n for l, n in starts)
    return lo, cap


def _inner_products(va, x, y, span, pairs) -> list:
    """[(k, x_(k) y)] for the nonzero products with k in ``span`` (see
    :func:`_span`) and k below the state pole bound of (x, y), in
    increasing k: a product at or above it is zero.

    ``pairs``, when given, keeps one entry per pair across calls, keyed
    by (x, y): the pair's state pole bound, computed once, and a dict of
    its lists keyed by (lo, hi); the lists are never mutated.
    """
    lo, cap = span
    if pairs is None:
        bound, lists = va.state_pole_bound(x, y), None
    else:
        pair = (tuple(x.items()), tuple(y.items()))
        entry = pairs.get(pair)
        if entry is None:
            entry = pairs[pair] = (va.state_pole_bound(x, y), {})
        bound, lists = entry
    hi = bound - 1 if cap is None else min(bound - 1, cap)
    if lists is not None:
        hit = lists.get((lo, hi))
        if hit is not None:
            return hit
    out = []
    for k in range(lo, hi + 1):
        p = va.nth(x, k, y)
        if p:
            out.append((k, p))
    if lists is not None:
        lists[lo, hi] = out
    return out


def borcherds_checks(va, a, b, cs, rsts, pairs=None) -> list:
    """Check the Borcherds identity of the triples (a, b, c), for c in
    ``cs``, at every (r, s, t) of ``rsts``: per third state, one
    :func:`borcherds_full_check` report per (r, s, t), in order.

    The tables of the pair (a, b) are built once: the parities, the
    nonzero inner products a_(k) b over the union of the ranges the sums
    visit (ending at ``va.state_pole_bound``), each (r, s, t)'s
    left-hand-side terms, and the ranges of b_(k) c and a_(k) c.  Per
    third state only those two lists and the outer products are computed;
    the identities of one triple share them.  Each sum walks its list with
    j = k - r (k - t, k - s) in increasing j, so every report keeps the
    item order and scalar types of the identity checked alone.  ``pairs``
    is a dict that keeps each pair's pole bound and inner-product lists
    across calls, for a window in which each pair of states occurs with
    many third states.
    """
    pa, pb = va.state_parity(a), va.state_parity(b)
    if pa is None or pb is None:
        raise ValueError("arguments must be parity-homogeneous")
    if not rsts:
        return [[] for _c in cs]
    ab = _inner_products(va, a, b, _span([(r, s) for r, s, _t in rsts]),
                         pairs)
    span_bc = _span([(t, r) for r, _s, t in rsts])
    span_ac = _span([(s, r) for r, s, _t in rsts])
    tables = []  # per (r, s, t): its left-hand-side terms and sign
    for r, s, t in rsts:
        lhs_terms = []
        for k, p in ab:
            j = k - r
            coeff = binomial(s, j)  # 0 for j < 0
            if coeff:
                lhs_terms.append((k, p, s + t - j, coeff))
        sign_r = -1 if (r + pa * pb) & 1 else 1
        tables.append((r, s, t, lhs_terms, sign_r))
    out = []
    for c in cs:
        bc = _inner_products(va, b, c, span_bc, pairs)
        ac = _inner_products(va, a, c, span_ac, pairs)
        # (role, k, n) -> (a_(k) b)_(n) c, a_(n) (b_(k) c), b_(n) (a_(k) c)
        outer: Dict = {}
        reports = []
        for r, s, t, lhs_terms, sign_r in tables:
            lhs: State = {}
            for k, p, n, coeff in lhs_terms:
                prod = outer.get((0, k, n))
                if prod is None:
                    prod = outer[0, k, n] = va.nth(p, n, c)
                ring.acc_poly(lhs, prod, coeff)
            rhs: State = {}
            for k, p in bc:
                j = k - t
                coeff = binomial(r, j)
                if coeff:
                    n = r + s - j
                    prod = outer.get((1, k, n))
                    if prod is None:
                        prod = outer[1, k, n] = va.nth(a, n, p)
                    ring.acc_poly(rhs, prod, -coeff if j & 1 else coeff)
            for k, p in ac:
                j = k - s
                coeff = binomial(r, j)
                if coeff:
                    n = r + t - j
                    prod = outer.get((2, k, n))
                    if prod is None:
                        prod = outer[2, k, n] = va.nth(b, n, p)
                    ring.acc_poly(rhs, prod,
                                  -sign_r * (-1 if j & 1 else 1) * coeff)
            diff = ring.psub(lhs, rhs)
            reports.append({
                "r": r,
                "s": s,
                "t": t,
                "ok": not diff,
                "lhs": lhs,
                "rhs": rhs,
                "difference": diff,
            })
        out.append(reports)
    return out
