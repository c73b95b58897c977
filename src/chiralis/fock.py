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
which evaluates the two inner products of the iterate formula by calling
``nth`` again on the shorter first argument.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from . import ring
from .algebra import JetAlgebra, SuperPolyAlgebra
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

    # -- letters -------------------------------------------------------------
    def parity(self, key) -> int:
        return self.base.parity(key[1])

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

    def mono_charge(self, mono) -> int:
        return ring.mono_degree(mono, self.charge)

    def mono_degree(self, mono) -> int:
        return ring.mono_degree(mono, self.degree)

    def max_weight(self, p: State) -> int:
        return max((self.mono_weight(m) for m in p), default=0)

    def state_parity(self, p: State) -> Optional[int]:
        pars = {ring.mono_parity(m, self.parity) for m in p}
        return pars.pop() if len(pars) == 1 else None

    def momentum_count(self, mono) -> int:
        return sum(e for (kind, _n, _k), e in mono if kind == "m")

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

    def _pair_coeff(self, annih_kind: str, odd: bool) -> Fraction:
        # momentum contracting coordinate: +1; coordinate contracting
        # momentum: -1 for even pairs, +1 for odd pairs (anticommutator).
        if annih_kind == "m" or odd:
            return Fraction(1)
        return Fraction(-1)

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
        out: State = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                for mono, c in self._nth_mono(ma, n, mb).items():
                    ring.acc(out, mono, ca * cb * c)
        return out

    def _nth_mono(self, ma, n: int, mb) -> State:
        key = (ma, n, mb)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not ma:
            res = {mb: Fraction(1)} if n == -1 else {}
            self._memo[key] = res
            return res
        g, e = ma[0]
        kind, name, _k = g
        m = self._voa_index(g)
        ma_rest = ((g, e - 1),) + ma[1:] if e > 1 else ma[1:]
        a_rest = {ma_rest: Fraction(1)}
        b_state = {mb: Fraction(1)}
        ga = self.base.parity(name)
        pa_rest = ring.mono_parity(ma_rest, self.parity)
        w_rest = self.mono_weight(ma_rest)
        w_b = self.mono_weight(mb)
        out: State = {}
        # term 1: sum_j (-1)^j C(m,j) g_(m-j) (rest_(n+j) b)
        jmax1 = w_rest + w_b - n - 1
        for j in range(0, max(jmax1, -1) + 1):
            coeff = binomial(m, j)
            if not coeff:
                continue
            inner = self.nth(a_rest, n + j, b_state)
            if not inner:
                continue
            term = self.apply_mode(kind, name, m - j, inner)
            if term:
                sgn = -1 if j & 1 else 1
                out = ring.padd(out, ring.pscale(term, sgn * coeff))
        # term 2: -(-1)^(m + |g||rest|) sum_j (-1)^j C(m,j)
        #           rest_(m+n-j) (g_(j) b)
        sign2 = -1 if (m + ga * pa_rest) & 1 else 1
        jmax2 = w_b  # g_(j) b vanishes once j exceeds letter weights
        for j in range(0, jmax2 + 1):
            coeff = binomial(m, j)
            if not coeff:
                continue
            gb = self.apply_mode(kind, name, j, b_state)
            if not gb:
                continue
            inner = self.nth(a_rest, m + n - j, gb)
            if inner:
                sgn = -1 if j & 1 else 1
                out = ring.padd(out, ring.pscale(inner, -sign2 * sgn * coeff))
        self._memo[key] = out
        return out

    def str(self, p: State) -> str:
        def name(key):
            kind, nm, k = key
            fam = nm if kind == "c" else f"d{nm}"
            return f"{fam}[{k}]"

        return ring.poly_str(p, name)


class CommutativeVA:
    """Commutative vertex algebra of a (jet or plain) super algebra.

    Products: a_(-1-k) b = (T^k a / k!) b for k >= 0 and a_(n) b = 0 for
    n >= 0, where T is the jet translation (zero when the underlying
    algebra carries no translation).
    """

    def __init__(self, algebra: SuperPolyAlgebra):
        self.algebra = algebra

    def T(self, p):
        if isinstance(self.algebra, JetAlgebra):
            return self.algebra.translate(p)
        return {}

    def vac(self):
        return ring.poly_one()

    def mul(self, *ps):
        return ring.pmul_many(ps, self.algebra.parity)

    def max_weight(self, p) -> int:
        if isinstance(self.algebra, JetAlgebra):
            return max(
                (ring.mono_degree(m, self.algebra.weight) for m in p),
                default=0,
            )
        return 0

    def state_parity(self, p):
        return self.algebra.poly_parity(p)

    def nth(self, a, n: int, b):
        if n >= 0 or not a or not b:
            return {}
        k = -n - 1
        fact = 1
        for i in range(1, k + 1):
            fact *= i
        ta = a
        for _ in range(k):
            ta = self.T(ta)
        return ring.pscale(self.mul(ta, b), Fraction(1, fact))


def borcherds_full_check(va, a, b, c, r: int, s: int, t: int) -> dict:
    """Check the full Borcherds identity for F = (x-y)^r (x-z)^s (y-z)^t.

    Evaluates

      sum_j C(s,j) (a_(r+j) b)_(s+t-j) c
        - sum_j (-1)^j C(r,j) [ a_(r+s-j) (b_(t+j) c)
             - (-1)^(r + |a||b|) b_(r+t-j) (a_(s+j) c) ]

    and reports whether it vanishes.  All sums are truncated by exact
    weight bounds.
    """
    pa, pb = va.state_parity(a), va.state_parity(b)
    if pa is None or pb is None:
        raise ValueError("arguments must be parity-homogeneous")
    wa, wb, wc = va.max_weight(a), va.max_weight(b), va.max_weight(c)
    lhs: State = {}
    for j in range(0, max(wa + wb - r - 1, -1) + 1):
        coeff = binomial(s, j)
        if not coeff:
            continue
        ab = va.nth(a, r + j, b)
        if ab:
            lhs = ring.padd(lhs, ring.pscale(va.nth(ab, s + t - j, c), coeff))
    rhs: State = {}
    sign_r = -1 if (r + pa * pb) & 1 else 1
    for j in range(0, max(wb + wc - t - 1, -1) + 1):
        coeff = binomial(r, j)
        if not coeff:
            continue
        bc = va.nth(b, t + j, c)
        if bc:
            sgn = -1 if j & 1 else 1
            rhs = ring.padd(rhs, ring.pscale(va.nth(a, r + s - j, bc), sgn * coeff))
    for j in range(0, max(wa + wc - s - 1, -1) + 1):
        coeff = binomial(r, j)
        if not coeff:
            continue
        ac = va.nth(a, s + j, c)
        if ac:
            sgn = -1 if j & 1 else 1
            rhs = ring.padd(
                rhs,
                ring.pscale(va.nth(b, r + t - j, ac), -sign_r * sgn * coeff),
            )
    diff = ring.psub(lhs, rhs)
    return {
        "r": r,
        "s": s,
        "t": t,
        "ok": not diff,
        "lhs": lhs,
        "rhs": rhs,
        "difference": diff,
    }
