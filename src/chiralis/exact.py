"""Exact rational linear algebra and signed permutation combinatorics.

Scalars are ``fractions.Fraction`` throughout: every result of the engine is
exact, and equality of computed objects is decidable equality of canonical
forms.  This module supplies the two low-level services everything else is
built on: Koszul-sign bookkeeping for permutations of graded objects, and
sparse Gaussian elimination over the rationals (rank, kernel, reduced echelon
form) with a deterministic pivot rule.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from . import ring

Scalar = Fraction

ONE = Fraction(1)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for arbitrary integer n and k >= 0.

    For negative n this is the generalized coefficient
    C(n, k) = n (n-1) ... (n-k+1) / k!.
    """
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    q, r = divmod(num, den)
    assert r == 0
    return q


# ---------------------------------------------------------------------------
# Permutations (1-indexed tuples)


def compose(sigma: Sequence[int], tau: Sequence[int]) -> tuple[int, ...]:
    """Composition (sigma . tau)(k) = sigma(tau(k)), 1-indexed tuples."""
    return tuple(sigma[t - 1] for t in tau)


def inverse(sigma: Sequence[int]) -> tuple[int, ...]:
    """Inverse permutation, 1-indexed."""
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def sgn(sigma: Sequence[int]) -> int:
    """Ordinary sign of a permutation (+1 or -1)."""
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


def koszul_sign(sigma: Sequence[int], parities: Sequence[int]) -> int:
    """Koszul sign of permuting graded objects: (x_1,...,x_n) into
    (x_{sigma(1)},...,x_{sigma(n)}).

    ``parities[k-1]`` is the parity (0 or 1) of x_k.  The sign is the product
    of (-1)^(|x_{sigma(i)}| |x_{sigma(j)}|) over inversion pairs i < j with
    sigma(i) > sigma(j).
    """
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j] and parities[sigma[i] - 1] and parities[sigma[j] - 1]:
                sign = -sign
    return sign


def antisym_sign(sigma: Sequence[int], parities: Sequence[int]) -> int:
    """sgn(sigma) times the Koszul sign; the sign antisymmetric maps pick up."""
    return sgn(sigma) * koszul_sign(sigma, parities)


def unshuffles(i: int, n: int) -> list[tuple[int, ...]]:
    """(i, n-i)-unshuffles as 1-indexed permutations.

    A permutation sigma with sigma(1) < ... < sigma(i) and
    sigma(i+1) < ... < sigma(n); listed in lexicographic order of the first
    block.
    """
    out = []
    universe = range(1, n + 1)
    for first in itertools.combinations(universe, i):
        rest = tuple(k for k in universe if k not in first)
        out.append(first + rest)
    return out


# ---------------------------------------------------------------------------
# Sparse exact elimination

Row = dict[int, Fraction]


def _pivot_size(x: Fraction) -> int:
    return abs(x.numerator * x.denominator).bit_length()


def _eliminate(row: Row, piv: Row, col: int) -> None:
    """Clear column ``col`` of ``row`` with ``piv``, whose entry there is 1."""
    f = row.get(col)
    if f:
        f = -f
        for c, v in piv.items():
            ring.acc(row, c, f * v)


def echelon(rows: Iterable[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of a sparse rational matrix.

    ``rows`` are dicts mapping column index to a nonzero Fraction.  Columns
    are processed left to right; within the leftmost unprocessed column the
    pivot is the entry whose numerator*denominator has the smallest bit size,
    ties broken by the lowest row index.  Returns (reduced rows with pivot
    entries normalized to 1, pivot column list).
    """
    work = [dict(r) for r in rows if r]
    done: list[Row] = []
    pivots: list[int] = []
    for col in range(ncols):
        best = -1
        best_size = None
        for idx, row in enumerate(work):
            v = row.get(col)
            if v:
                size = _pivot_size(v)
                if best_size is None or size < best_size:
                    best, best_size = idx, size
        if best < 0:
            continue
        piv = work.pop(best)
        pv = piv[col]
        if pv != 1:
            piv = {c: v / pv for c, v in piv.items()}
        for row in itertools.chain(work, done):
            _eliminate(row, piv, col)
        done.append(piv)
        pivots.append(col)
        work = [r for r in work if r]
    return done, pivots


def rank_kernel(rows: Iterable[Row], ncols: int) -> tuple[int, list[Row]]:
    """Rank and a kernel basis of the linear map given by sparse ``rows``.

    The matrix acts on column vectors of length ``ncols``; the kernel basis
    vectors are sparse dicts, one per free column, in increasing order of the
    free column, each normalized to have coefficient 1 at its free column.
    """
    red, pivots = echelon(rows, ncols)
    pivot_set = set(pivots)
    kernel: list[Row] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec: Row = {free: ONE}
        for row, pcol in zip(red, pivots):
            v = row.get(free)
            if v:
                vec[pcol] = -v
        kernel.append(vec)
    return len(pivots), kernel


def reduce_against(vec: Row, red: list[Row], pivots: list[int]) -> Row:
    """Reduce a sparse vector modulo the row space of a reduced echelon form."""
    out = dict(vec)
    for row, pcol in zip(red, pivots):
        _eliminate(out, row, pcol)
    return out
