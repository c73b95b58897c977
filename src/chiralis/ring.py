"""Exact super-commutative polynomial arithmetic and the sparse layer.

This module is the one sparse arithmetic layer of the package: every
``{key: Fraction}`` dict -- free-field states, jet and form polynomials,
the module-element coefficients of lambda polynomials, and matrix rows --
is added, subtracted and scaled through :func:`acc`, :func:`padd`,
:func:`psub` and :func:`pscale`, which never store a zero coefficient.

Polynomials live over the rationals in a finite set of generators, each of
which carries a parity (0 = even, 1 = odd).  Monomials are tuples of
``(generator_key, exponent)`` pairs sorted by generator key; generator keys
may be any mutually orderable values (strings, tuples, ...).  Odd generators
square to zero and reordering them produces Koszul signs.

A polynomial is a dict mapping monomials to nonzero ``Fraction``
coefficients; the empty dict is zero and the empty monomial ``()`` is 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Tuple

Scalar = Fraction
GenKey = Hashable
Mono = Tuple[Tuple[GenKey, int], ...]
Poly = Dict[Mono, Fraction]

ONE_MONO: Mono = ()
ZERO = Fraction(0)


def poly_one() -> Poly:
    return {ONE_MONO: Fraction(1)}


def poly_gen(g: GenKey) -> Poly:
    return {((g, 1),): Fraction(1)}


def acc(out: Poly, mono: Mono, c: Fraction) -> None:
    """Accumulate ``c * mono`` into ``out``, dropping zeros."""
    v = out.get(mono, ZERO) + c
    if v:
        out[mono] = v
    else:
        out.pop(mono, None)


def padd(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        acc(out, m, c)
    return out


def psub(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        acc(out, m, -c)
    return out


def pscale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if not c:
        return {}
    return {m: c * v for m, v in p.items()}


def mono_parity(mono: Mono, parity: Callable[[GenKey], int]) -> int:
    return sum(parity(g) * e for g, e in mono) & 1


def mono_mul(a: Mono, b: Mono, parity: Callable[[GenKey], int]):
    """Multiply two sorted monomials.

    Returns ``(mono, sign)`` with sign ±1, or ``(None, 0)`` when an odd
    generator would be squared.
    """
    if not a:
        return b, 1
    if not b:
        return a, 1
    # Parity of the tail a[i:], used for Koszul signs as b's letters are
    # merged leftwards past the remaining letters of a.
    rem = [0] * (len(a) + 1)
    for k in range(len(a) - 1, -1, -1):
        rem[k] = (rem[k + 1] + parity(a[k][0]) * a[k][1]) & 1
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        ga, ea = a[i]
        gb, eb = b[j]
        if ga < gb:
            out.append(a[i])
            i += 1
        elif gb < ga:
            if parity(gb) and (eb & 1) and rem[i]:
                sign = -sign
            out.append(b[j])
            j += 1
        else:
            if parity(ga):
                return None, 0
            out.append((ga, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def pmul(p: Poly, q: Poly, parity: Callable[[GenKey], int]) -> Poly:
    out: Poly = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m, s = mono_mul(ma, mb, parity)
            if m is not None:
                acc(out, m, s * ca * cb)
    return out


def pmul_many(polys, parity: Callable[[GenKey], int]) -> Poly:
    out = poly_one()
    for p in polys:
        out = pmul(out, p, parity)
    return out


def derive(
    p: Poly,
    images: Dict[GenKey, Poly],
    dparity: int,
    parity: Callable[[GenKey], int],
) -> Poly:
    """Apply the graded derivation sending generator g to ``images[g]``.

    The derivation has parity ``dparity`` and satisfies the graded Leibniz
    rule D(uv) = D(u)v + (-1)^{dparity*|u|} u D(v).  Generators absent from
    ``images`` are annihilated.
    """
    out: Poly = {}
    for mono, coef in p.items():
        pref = 0  # parity of the prefix already passed over
        for idx, (g, e) in enumerate(mono):
            img = images.get(g)
            if img:
                s = coef * e
                if dparity and pref:
                    s = -s
                left = mono[:idx]
                right = (((g, e - 1),) if e > 1 else ()) + mono[idx + 1 :]
                for im, ic in img.items():
                    m1, s1 = mono_mul(left, im, parity)
                    if m1 is None:
                        continue
                    m2, s2 = mono_mul(m1, right, parity)
                    if m2 is None:
                        continue
                    acc(out, m2, s * ic * s1 * s2)
            pref = (pref + parity(g) * e) & 1
    return out


def mono_degree(mono: Mono, degree: Callable[[GenKey], int]) -> int:
    return sum(degree(g) * e for g, e in mono)


def poly_str(p: Poly, genname=str) -> str:
    if not p:
        return "0"
    parts = []
    for mono in sorted(p, key=repr):
        c = p[mono]
        lets = "*".join(
            genname(g) + (f"^{e}" if e > 1 else "") for g, e in mono
        )
        if not lets:
            parts.append(str(c))
        elif c == 1:
            parts.append(lets)
        elif c == -1:
            parts.append("-" + lets)
        else:
            parts.append(f"{c}*{lets}")
    return " + ".join(parts).replace("+ -", "- ")
