"""Oracle tests for the exact linear algebra / sign core."""

import itertools
import math
import random
from fractions import Fraction

from chiralis import exact


def bubble_koszul(sigma, parities):
    """Oracle: realize sigma by adjacent transpositions, multiplying the sign
    for each swap of two odd objects."""
    seq = list(sigma)
    degs = [parities[s - 1] for s in seq]
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1):
            if seq[j] > seq[j + 1]:
                if degs[j] and degs[j + 1]:
                    sign = -sign
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                degs[j], degs[j + 1] = degs[j + 1], degs[j]
    return sign


def dense_rank(rows, ncols):
    """Oracle: plain dense fraction-free ranking without pivot strategy."""
    mat = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / pv
                for c in range(ncols):
                    mat[r][c] -= f * mat[rank][c]
        rank += 1
    return rank


def test_binomial_matches_math_comb():
    for n in range(0, 9):
        for k in range(0, 9):
            assert exact.binomial(n, k) == math.comb(n, k)


def test_binomial_negative_upper_index():
    # C(-1, j) = (-1)^j, C(-2, j) = (-1)^j (j+1)
    for j in range(8):
        assert exact.binomial(-1, j) == (-1) ** j
        assert exact.binomial(-2, j) == (-1) ** j * (j + 1)


def test_compose_and_inverse():
    sigma = (2, 3, 1)
    tau = (3, 1, 2)
    # (sigma . tau)(k) = sigma(tau(k))
    assert tuple(sigma[t - 1] for t in tau) == (1, 2, 3)
    for perm in itertools.permutations(range(1, 5)):
        inv = exact.inverse(perm)
        assert tuple(perm[t - 1] for t in inv) == (1, 2, 3, 4)
        assert tuple(inv[t - 1] for t in perm) == (1, 2, 3, 4)


def test_sgn_by_inversion_count():
    for perm in itertools.permutations(range(1, 5)):
        inv = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if perm[i] > perm[j]
        )
        assert exact.sgn(perm) == (-1) ** inv


def test_koszul_sign_all_even_is_one():
    for perm in itertools.permutations(range(1, 5)):
        assert exact.koszul_sign(perm, [0, 0, 0, 0]) == 1


def test_koszul_sign_all_odd_is_sgn():
    for perm in itertools.permutations(range(1, 5)):
        assert exact.koszul_sign(perm, [1, 1, 1, 1]) == exact.sgn(perm)


def test_koszul_sign_against_bubble_oracle():
    rng = random.Random(7)
    for n in range(2, 6):
        for _ in range(30):
            perm = tuple(rng.sample(range(1, n + 1), n))
            parities = [rng.randint(0, 1) for _ in range(n)]
            assert exact.koszul_sign(perm, parities) == bubble_koszul(perm, parities)


def test_koszul_sign_swap_two_odds():
    # swapping two odd elements gives -1
    assert exact.koszul_sign((2, 1), [1, 1]) == -1
    assert exact.koszul_sign((2, 1), [1, 0]) == 1
    assert exact.koszul_sign((2, 1), [0, 0]) == 1


def test_unshuffle_count_is_binomial():
    for n in range(1, 7):
        for i in range(n + 1):
            shuffles = exact.unshuffles(i, n)
            assert len(shuffles) == math.comb(n, i)
            assert len(set(shuffles)) == len(shuffles)
            for s in shuffles:
                assert sorted(s) == list(range(1, n + 1))
                assert list(s[:i]) == sorted(s[:i])
                assert list(s[i:]) == sorted(s[i:])


def test_unshuffles_lex_order_of_first_block():
    blocks = [s[:2] for s in exact.unshuffles(2, 4)]
    assert blocks == sorted(blocks)


def test_rank_kernel_identity():
    rows = [{i: Fraction(1)} for i in range(4)]
    rank, kernel = exact.rank_kernel(rows, 4)
    assert rank == 4 and kernel == []


def test_rank_kernel_known_kernel():
    # x + y + z = 0 has a 2-dimensional kernel
    rank, kernel = exact.rank_kernel([{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}], 3)
    assert rank == 1
    assert len(kernel) == 2
    for vec in kernel:
        assert sum(vec.values()) == 0


def test_rank_kernel_random_against_dense_oracle():
    rng = random.Random(11)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            row = {}
            for c in range(ncols):
                if rng.random() < 0.5:
                    v = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                    if v:
                        row[c] = v
            rows.append(row)
        rank, kernel = exact.rank_kernel(rows, ncols)
        assert rank == dense_rank(rows, ncols)
        assert rank + len(kernel) == ncols
        # kernel vectors really are in the kernel
        for vec in kernel:
            for row in rows:
                assert sum(row.get(c, Fraction(0)) * v for c, v in vec.items()) == 0


def test_echelon_is_reduced():
    rows = [
        {0: Fraction(2), 1: Fraction(4)},
        {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)},
    ]
    red, pivots = exact.echelon(rows, 3)
    for row, p in zip(red, pivots):
        assert row[p] == 1
        for other, q in zip(red, pivots):
            if q != p:
                assert p not in other


def test_reduce_against_image():
    rows = [{0: Fraction(1), 1: Fraction(1)}]
    red, pivots = exact.echelon(rows, 2)
    out = exact.reduce_against({0: Fraction(3)}, red, pivots)
    assert out == {1: Fraction(-3)}


# -- int-first scalars: the Fraction copy as oracle --------------------------------


def fraction_copy(rows):
    return [{c: Fraction(v) for c, v in row.items()} for row in rows]


def assert_exact(rows):
    for row in rows:
        for v in row.values():
            assert type(v) in (int, Fraction), (row, v)


# the first pivot is the int 2 (not 1), and the reduction makes fractions
INT_MATRIX = [
    {0: 2, 1: 4, 2: 6},
    {0: 3, 1: 5, 3: 7},
    {1: 2, 2: -4, 3: 6},
    {0: 5, 1: 9, 2: 6, 3: 7},
]


def test_echelon_int_matrix_matches_fraction_copy():
    red, pivots = exact.echelon(INT_MATRIX, 4)
    assert (red, pivots) == exact.echelon(fraction_copy(INT_MATRIX), 4)
    assert_exact(red)
    assert any(type(v) is int for row in red for v in row.values())
    assert any(type(v) is Fraction for row in red for v in row.values())
    rank, kernel = exact.rank_kernel(INT_MATRIX, 4)
    assert (rank, kernel) == exact.rank_kernel(fraction_copy(INT_MATRIX), 4)
    assert_exact(kernel)
    vec = {0: 1, 2: 5}
    got = exact.reduce_against(vec, red, pivots)
    assert got == exact.reduce_against(fraction_copy([vec])[0], red, pivots)
    assert_exact([got])


# systems [A | b] and their reduced forms: an int pivot other than 1, a
# normalized int pivot 1 (acc / 1 would make a float), a Fraction result
SYSTEMS = [
    ([{0: 2, 1: 6}], [{0: 1, 1: 3}]),
    ([{0: 1, 1: 1, 2: 2}, {1: 1, 2: 1}], [{0: 1, 2: 1}, {1: 1, 2: 1}]),
    ([{0: 3, 1: 1}, {0: 1, 1: 1, 2: 4}], [{0: 1, 2: -2}, {1: 1, 2: 6}]),
    ([{0: 2, 1: 3}], [{0: 1, 1: Fraction(3, 2)}]),
]


def test_rank_kernel_random_int_against_fraction_copy():
    rng = random.Random(31)
    cases = [(rows, 1 + max(max(row) for row in rows))
             for rows, _ in SYSTEMS]
    for _ in range(60):
        ncols = rng.randint(1, 6)
        cases.append(([
            {c: v for c in range(ncols) if (v := rng.randint(-4, 4))}
            for _ in range(rng.randint(1, 6))
        ], ncols))
    for rows, ncols in cases:
        got = exact.rank_kernel(rows, ncols)
        assert got == exact.rank_kernel(fraction_copy(rows), ncols)
        assert_exact(got[1])
        red, _ = exact.echelon(rows, ncols)
        assert_exact(red)
    for (rows, want), (_, ncols) in zip(SYSTEMS, cases):
        red, _ = exact.echelon(rows, ncols)
        assert red == want == exact.echelon(fraction_copy(rows), ncols)[0]


def test_binomial_is_memoized():
    exact.binomial.cache_clear()
    exact.binomial(7, 3)
    exact.binomial(7, 3)
    info = exact.binomial.cache_info()
    assert info.hits == 1 and info.misses == 1
