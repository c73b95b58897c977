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
the normal-ordering formula (m = -1); weight bounds make every sum finite
and the recursion terminate.

There is one product loop, :meth:`BGSystem.nth`: it expands both states
into monomials and sums the memoized monomial products of ``_nth_mono``,
which evaluates the two inner products of the iterate formula on the
shorter first argument.  Term 1 runs over every j up to the weight bound.
In term 2 the annihilation mode g_(j) with j >= 0 can only contract a
letter of b conjugate to g, so the sum runs over just the conjugate letters
present in b (j = -1 - their operator index, in increasing j).  Every term
is accumulated in place.  The weight and parity of each monomial are
computed once and kept per system, so the weight bounds and parity checks
of ``_nth_mono``, the Borcherds checker and the Lie* bracket cost a dict
lookup.

The Borcherds identities of one triple (a, b, c) are checked together by
:func:`borcherds_checks` (:func:`borcherds_full_check` checks one): the
(r, s, t) share their products, and the sums visit only the nonzero inner
products a_(k) b, b_(k) c and a_(k) c.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import ring
from .algebra import SuperPolyAlgebra
from .exact import binomial

State = ring.Poly


class BGSystem:
    """Free-field vertex algebra over a polynomial super algebra base."""

    def __init__(self, base: SuperPolyAlgebra, odd_charge: int = 1):
        if base.D_images:
            raise ValueError("base differential is installed via operators,"
                             " not on the state space")
        self.base = base
        self.odd_charge = odd_charge
        self._memo: Dict = {}
        self._grades: Dict = {}  # monomial -> (weight, parity)

    # -- letters -------------------------------------------------------------
    def parity(self, key) -> int:
        return self.base._parity[key[1]]

    def weight(self, key) -> int:
        return -key[2]

    def degree(self, key) -> int:
        d = self.base.degree(key[1])
        return -d if key[0] == "m" else d

    def charge(self, key) -> int:
        mag = self.odd_charge if self.parity(key) else 1
        return mag if key[0] == "c" else -mag

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

    def mono_weight(self, mono) -> int:
        return ring.mono_degree(mono, self.weight)

    def mono_degree(self, mono) -> int:
        return ring.mono_degree(mono, self.degree)

    def grade(self, mono) -> Tuple[int, int]:
        """(weight, parity) of a monomial, computed once per system."""
        hit = self._grades.get(mono)
        if hit is None:
            hit = (self.mono_weight(mono), ring.mono_parity(mono, self.parity))
            self._grades[mono] = hit
        return hit

    def max_weight(self, p: State) -> int:
        grades = self._grades
        w = 0  # every monomial has weight >= 0
        for m in p:
            mw = (grades.get(m) or self.grade(m))[0]
            if mw > w:
                w = mw
        return w

    def state_parity(self, p: State) -> Optional[int]:
        grades = self._grades
        pars = {(grades.get(m) or self.grade(m))[1] for m in p}
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

    def _pair_coeff(self, annih_kind: str, odd: bool) -> int:
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
        conj_kind = "m" if kind == "c" else "c"
        target = self._letter_from_voa(conj_kind, name, -1 - j)
        odd = bool(self.base.parity(name))
        gp = self.base.parity(name)
        coeff0 = self._pair_coeff(kind, odd)
        out: State = {}
        for mono, c in p.items():
            pref = 0
            for idx, (g, e) in enumerate(mono):
                if g == target:
                    s = coeff0 * c * e
                    if gp and pref:
                        s = -s
                    rest = (
                        mono[:idx]
                        + (((g, e - 1),) if e > 1 else ())
                        + mono[idx + 1 :]
                    )
                    ring.acc(out, rest, s)
                pref = (pref + self.parity(g) * e) & 1
        return out

    # -- products ---------------------------------------------------------------
    def nth(self, a: State, n: int, b: State) -> State:
        """The n-th product a_(n) b, bilinear in both states."""
        if len(a) == 1 and len(b) == 1:
            # one memo lookup and one scale; a Fraction coefficient keeps
            # the result's coefficients Fraction, as in the general loop
            ((ma, ca),) = a.items()
            ((mb, cb),) = b.items()
            c0 = ca * cb
            res = self._memo.get((ma, n, mb))
            if res is None:
                res = self._nth_mono(ma, n, mb)
            if type(c0) is int and c0 == 1:
                return dict(res)
            return {mono: c0 * c for mono, c in res.items()}
        out: State = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                ring.acc_poly(out, self._nth_mono(ma, n, mb), ca * cb)
        return out

    def _nth_mono(self, ma, n: int, mb) -> State:
        key = (ma, n, mb)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not ma:
            res = {mb: 1} if n == -1 else {}
            self._memo[key] = res
            return res
        g, e = ma[0]
        kind, name, _k = g
        m = self._voa_index(g)
        ma_rest = ((g, e - 1),) + ma[1:] if e > 1 else ma[1:]
        w_rest, pa_rest = self.grade(ma_rest)
        w_b = self.grade(mb)[0]
        out: State = {}
        # term 1: sum_j (-1)^j C(m,j) g_(m-j) (rest_(n+j) b)
        for j in range(0, max(w_rest + w_b - n - 1, -1) + 1):
            coeff = binomial(m, j)
            if not coeff:
                continue
            inner = self._nth_mono(ma_rest, n + j, mb)
            if inner:
                term = self.apply_mode(kind, name, m - j, inner)
                ring.acc_poly(out, term, -coeff if j & 1 else coeff)
        # term 2: -(-1)^(m + |g||rest|) sum_j (-1)^j C(m,j)
        #           rest_(m+n-j) (g_(j) b)
        # g_(j) b is nonzero only when b holds the conjugate letter of
        # operator index -1-j; those j are visited in increasing order, as
        # the full j loop would, so the result keeps its item order.
        conj = "m" if kind == "c" else "c"
        js = sorted(-1 - self._voa_index(h) for h, _e in mb
                    if h[0] == conj and h[1] == name)
        sign2 = -1 if (m + self.parity(g) * pa_rest) & 1 else 1
        b_state = {mb: 1}
        for j in js:
            coeff = binomial(m, j)
            if not coeff:
                continue
            sgn = -1 if j & 1 else 1
            for gm, gc in self.apply_mode(kind, name, j, b_state).items():
                ring.acc_poly(out, self._nth_mono(ma_rest, m + n - j, gm),
                              -sign2 * sgn * coeff * gc)
        self._memo[key] = out
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
    weight bounds.
    """
    return borcherds_checks(va, a, b, c, [(r, s, t)])[0]


def _inner_products(va, x, y, starts, weight: int, pairs) -> list:
    """[(k, x_(k) y)] for the nonzero products that the sums of ``starts``
    visit, in increasing k.

    A start (lo, n) asks for k = lo + j with j >= 0 and k < weight (the
    products above vanish by weight), and for j <= n when n >= 0, since
    C(n, j) = 0 there.  ``pairs``, when given, keeps the lists across
    calls; they are never mutated.
    """
    lo = min(l for l, _n in starts)
    hi = min(weight - 1, max(l + n if n >= 0 else weight for l, n in starts))
    if pairs is not None:
        key = (tuple(x.items()), tuple(y.items()), lo, hi)
        hit = pairs.get(key)
        if hit is not None:
            return hit
    out = []
    for k in range(lo, hi + 1):
        p = va.nth(x, k, y)
        if p:
            out.append((k, p))
    if pairs is not None:
        pairs[key] = out
    return out


def borcherds_checks(va, a, b, c, rsts, pairs=None) -> list:
    """Check the Borcherds identity of one triple (a, b, c) at every
    (r, s, t) of ``rsts``; one :func:`borcherds_full_check` report each,
    in order.

    The identities of one triple share their products.  The inner products
    a_(k) b, b_(k) c and a_(k) c are computed once over the union of the
    ranges the sums visit, and only the nonzero ones are kept; each sum
    walks them with j = k - r (k - t, k - s) in increasing j, so every
    report keeps the item order and scalar types of the identity checked
    alone.  The outer products are kept for the triple.  ``pairs`` is a
    dict that keeps the inner-product lists across calls, for a window in
    which each pair of states occurs with many third states.
    """
    pa, pb = va.state_parity(a), va.state_parity(b)
    if pa is None or pb is None:
        raise ValueError("arguments must be parity-homogeneous")
    if not rsts:
        return []
    wa, wb, wc = va.max_weight(a), va.max_weight(b), va.max_weight(c)
    ab = _inner_products(va, a, b, [(r, s) for r, s, _t in rsts], wa + wb,
                         pairs)
    bc = _inner_products(va, b, c, [(t, r) for r, _s, t in rsts], wb + wc,
                         pairs)
    ac = _inner_products(va, a, c, [(s, r) for r, s, _t in rsts], wa + wc,
                         pairs)
    outer: Dict = {}

    def product(role, k, x, n, y):
        # role 0, 1, 2: (a_(k) b)_(n) c, a_(n) (b_(k) c), b_(n) (a_(k) c)
        key = (role, k, n)
        hit = outer.get(key)
        if hit is None:
            hit = outer[key] = va.nth(x, n, y)
        return hit

    reports = []
    for r, s, t in rsts:
        lhs: State = {}
        for k, p in ab:
            j = k - r
            coeff = binomial(s, j)  # 0 for j < 0
            if coeff:
                ring.acc_poly(lhs, product(0, k, p, s + t - j, c), coeff)
        rhs: State = {}
        sign_r = -1 if (r + pa * pb) & 1 else 1
        for k, p in bc:
            j = k - t
            coeff = binomial(r, j)
            if coeff:
                sgn = -1 if j & 1 else 1
                ring.acc_poly(rhs, product(1, k, a, r + s - j, p), sgn * coeff)
        for k, p in ac:
            j = k - s
            coeff = binomial(r, j)
            if coeff:
                sgn = -1 if j & 1 else 1
                ring.acc_poly(rhs, product(2, k, b, r + t - j, p),
                              -sign_r * sgn * coeff)
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
    return reports
