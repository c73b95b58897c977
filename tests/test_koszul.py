"""Tests for the chiralized Koszul complex and its exact cohomology.

Oracles used here:
  * the differential squares to zero on every basis state of the window
    (weight <= 4, a charge band wide enough to include momentum-heavy
    states) for m <= 3;
  * the differential preserves weight and charge and raises degree by 1
    on every evaluated state;
  * weight-0 cohomology has total dimension m with representatives
    x_0^a, 0 <= a < m — the classical Koszul cohomology of x^m;
  * Euler characteristics of every (weight, charge) line agree with the
    cochain alternating sums (rank-nullity);
  * dimensions are independent of the basis enumeration order, checked
    against a shuffled-basis recomputation;
  * the pruned cell enumerator agrees with a brute-force enumerator over
    every letter count, built with the carrier's own multiplication;
  * every cochain dimension is a coefficient of the carrier's character,
    a product series computed with plain integer dicts.
"""

import itertools
import random
from fractions import Fraction

import pytest

from chiralis import ring
from chiralis.exact import rank_kernel
from chiralis.koszul import ChiralKoszul


def test_build_rejects_bad_exponent():
    try:
        ChiralKoszul(0)
        assert False, "expected a rejection"
    except ValueError:
        pass


def test_defining_evaluations():
    for m in (1, 2, 3):
        K = ChiralKoszul(m)
        fk = K.fock
        assert K.d(fk.vac()) == {}
        assert K.d(fk.coord("x", 0)) == {}
        want = fk.vac()
        for _ in range(m):
            want = fk.mul(want, fk.coord("x", 0))
        assert K.d(fk.coord("xi", 0)) == want


def brute_force_cell_basis(K, weight, charge):
    """Reference enumerator: every letter count up to its weight bound,
    each monomial built by multiplying letters in the carrier."""
    fk = K.fock
    letters = []
    for k in range(-1, -weight - 1, -1):
        letters.append(("c", "x", k))
        letters.append(("m", "x", k))
        letters.append(("c", "xi", k))
        letters.append(("m", "xi", k))
    maxcnt = {lt: (weight // (-lt[2]) if fk.parity(lt) == 0 else 1)
              for lt in letters}
    ranges = [range(0, maxcnt[lt] + 1) for lt in letters]
    out = []
    for counts in itertools.product(*ranges):
        w = sum(c * (-lt[2]) for c, lt in zip(counts, letters))
        if w != weight:
            continue
        for xi0 in (0, 1):
            q = sum(c * K.charge(lt) for c, lt in zip(counts, letters))
            nx0 = charge - q - xi0 * K.m
            if nx0 < 0:
                continue
            state = fk.vac()
            for lt, c in zip(letters, counts):
                for _ in range(c):
                    state = fk.mul(state, ring.poly_gen(lt))
            if xi0:
                state = fk.mul(state, fk.coord("xi", 0))
            for _ in range(nx0):
                state = fk.mul(state, fk.coord("x", 0))
            (mono,) = state.keys()
            out.append(mono)
    out.sort()
    return out


def test_cell_basis_matches_brute_force():
    for m in (1, 2, 3):
        K = ChiralKoszul(m)
        for w in range(0, 4):
            for q in range(-2, 2 * m + 3):
                assert K.cell_basis(w, q) == brute_force_cell_basis(K, w, q)


def series_mul(f, g, top):
    """The product of two series in t, u and s, each a dict from (w, q, d)
    to the integer coefficient of t^w u^q s^d, cut above t-degree top."""
    out = {}
    for (w1, q1, d1), c1 in f.items():
        for (w2, q2, d2), c2 in g.items():
            if w1 + w2 <= top:
                key = (w1 + w2, q1 + q2, d1 + d2)
                out[key] = out.get(key, 0) + c1 * c2
    return out


def carrier_character(m, top):
    """The coefficients of t^w u^q s^d, w <= top, of

      prod_{k>=1} 1/((1 - t^k u)(1 - t^k u^-1))
        * prod_{k>=1} (1 + t^k u^m s^-1)(1 + t^k u^-m s)
        * (1 + u^m s^-1) * 1/(1 - u):

    the even letters of weight k >= 1 (x and its momentum, charge 1 and
    -1), the odd ones (xi and its momentum, charge m and -m, degree -1 and
    1), xi_0 and x_0.  The last factor is applied as a sum over the
    charges up to q, so every other factor is a finite series."""
    f = {(0, 0, 0): 1}
    for k in range(1, top + 1):
        for q in (1, -1):
            f = series_mul(f, {(k * n, q * n, 0): 1
                               for n in range(top // k + 1)}, top)
        for q, d in ((m, -1), (-m, 1)):
            f = series_mul(f, {(0, 0, 0): 1, (k, q, d): 1}, top)
    f = series_mul(f, {(0, 0, 0): 1, (0, m, -1): 1}, top)

    def coefficient(w, q, d):
        return sum(c for (w1, q1, d1), c in f.items()
                   if (w1, d1) == (w, d) and q1 <= q)

    return coefficient, {d for _w, _q, d in f}


@pytest.mark.parametrize("m, top", [(2, 5), (3, 4), (5, 3)])
def test_cochain_dimensions_match_the_carrier_character(m, top):
    """Each cell's basis size per degree is the coefficient of its
    (weight, charge, degree) in the character of the carrier, at charges
    -2 to 8: a basis that drops xi_0 or caps an even letter's exponent
    loses monomials here."""
    coefficient, degrees = carrier_character(m, top)
    K = ChiralKoszul(m)
    for w in range(top + 1):
        for q in range(-2, 9):
            cells = K.cell_by_degree(w, q)
            assert set(cells) <= degrees
            for d in degrees:
                assert len(cells.get(d, [])) == coefficient(w, q, d), (
                    w, q, d)


def test_differential_squares_to_zero_window():
    for m in (1, 2, 3):
        K = ChiralKoszul(m)
        for w in range(0, 5):
            for q in range(-4, 2 * m + 3):
                for mono in K.cell_basis(w, q):
                    v = {mono: Fraction(1)}
                    assert K.d(K.d(v)) == {}


def test_differential_grading():
    K = ChiralKoszul(2)
    fk = K.fock
    for w in range(0, 4):
        for q in range(-3, 6):
            for mono in K.cell_basis(w, q):
                img = K.d({mono: Fraction(1)})
                for mo in img:
                    assert ring.mono_degree(mo, fk.weight) == w
                    assert ring.mono_degree(mo, K.charge) == q
                    assert (
                        fk.mono_degree(mo)
                        == fk.mono_degree(mono) + 1
                    )


def test_matrices_compose_to_zero():
    for m in (1, 2, 3):
        K = ChiralKoszul(m)
        for w in range(0, 4):
            for q in range(-2, 2 * m + 2):
                cells = K.cell_by_degree(w, q)
                for d in sorted(cells):
                    c1, dom, mid = K._matrix(cells, d)
                    c2, mid2, _ = K._matrix(cells, d + 1)
                    assert mid == mid2
                    for col in c1:
                        # apply the next matrix to this image column
                        out: dict = {}
                        for i, c in col.items():
                            for j, c2v in c2[i].items():
                                v = out.get(j, Fraction(0)) + c * c2v
                                if v:
                                    out[j] = v
                                else:
                                    out.pop(j, None)
                        assert not out


def test_weight_zero_cohomology_is_classical_koszul():
    for m in (1, 2, 3):
        K = ChiralKoszul(m)
        rep = K.cohomology(0, 2 * m + 1)
        total = 0
        reps = []
        for cell in rep["cells"]:
            total += cell["dim"]
            if cell["dim"]:
                assert cell["degree"] == 0
                reps.extend(cell["representatives"])
        assert total == m
        narrower = K.cohomology(0, max(2 * m, m + 1))["cells"]
        assert sum(c["dim"] for c in narrower) == m
        # representatives are exactly the powers x_0^a, 0 <= a < m
        fk = K.fock
        got = set()
        for r in reps:
            assert len(r) == 1
            ((mono, c),) = r.items()
            assert c == 1
            if mono == ():
                got.add(0)
            else:
                ((key, e),) = mono
                assert key == ("c", "x", 0)
                got.add(e)
        assert got == set(range(m))


def test_euler_characteristics():
    for m in (1, 2):
        K = ChiralKoszul(m)
        table = K.character_table(2, 2 * m + 2, min_charge=-2)
        assert table["euler_ok"]
        assert table["lines"]


def test_basis_order_independence():
    rng = random.Random(20260826)
    K = ChiralKoszul(3)
    for w in (1, 2):
        for q in (0, 1, 3):
            cells = K.cell_by_degree(w, q)
            entries = {
                e["degree"]: e["dim"] for e in K.cell_cohomology(w, q)
            }
            # recompute with shuffled bases via plain rank-nullity
            shuffled = {
                d: rng.sample(b, len(b)) for d, b in cells.items()
            }
            dims = {}
            for d in cells:
                dom = shuffled[d]
                tgt = shuffled.get(d + 1, [])
                idx = {mo: i for i, mo in enumerate(tgt)}
                rows = [dict() for _ in tgt]
                for j, mo in enumerate(dom):
                    img = K.d({mo: Fraction(1)})
                    for m2, c in img.items():
                        rows[idx[m2]][j] = c
                rank, kernel = rank_kernel(rows, len(dom))
                prev = shuffled.get(d - 1, [])
                if prev:
                    idx2 = {mo: i for i, mo in enumerate(dom)}
                    prows = [dict() for _ in dom]
                    for j, mo in enumerate(prev):
                        img = K.d({mo: Fraction(1)})
                        for m2, c in img.items():
                            prows[idx2[m2]][j] = c
                    prank, _ = rank_kernel(prows, len(prev))
                else:
                    prank = 0
                dims[d] = len(kernel) - prank
            for d, dim in entries.items():
                assert dims.get(d, 0) == dim


@pytest.mark.xfail(strict=True, reason=(
    "cell_cohomology takes kernel vectors that stay nonzero modulo the "
    "image without reducing them against the representatives already "
    "taken; the fix changes the pinned fs_cohomology_wide report and "
    "lands with the benchmark re-pin"))
@pytest.mark.parametrize("m, weight, charge, degree",
                         [(2, 3, 1, 0), (3, 3, 1, 0), (3, 3, 6, -1)])
def test_representatives_are_independent_modulo_the_image(
        m, weight, charge, degree):
    K = ChiralKoszul(m)
    cell = next(c for c in K.cell_cohomology(weight, charge)
                if c["degree"] == degree)
    image, _, basis = K._matrix(K.cell_by_degree(weight, charge),
                                degree - 1)
    index = {mono: i for i, mono in enumerate(basis)}
    reps = [{index[mo]: c for mo, c in r.items()}
            for r in cell["representatives"]]
    assert len(reps) == cell["dim"]
    rank = rank_kernel(image, len(basis))[0]
    assert rank_kernel(image + reps, len(basis))[0] == rank + len(reps)
