"""Exact linear algebra: normal forms, exterior powers, characteristic
polynomials.  Frozen expected values come from the determinant-divisor and
cofactor oracles in oracles.py."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from solhom.linalg import (
    IntMatrix,
    _bareiss_det,
    char_poly,
    exterior_power_matrix,
    hnf,
    snf,
    snf_diagonal,
    square_and_multiply,
    stable_rank_mod_p,
)
from oracles import (
    RatMatrix,
    det_cofactor,
    euclid_hnf,
    integer_kernel,
    invariant_factors_from_minors,
    is_checked_matrix,
    lattice_contains,
    lattice_equal,
    lattice_member,
    minor_entry,
    rank_mod_p,
    stable_rank_by_powers,
    stable_rank_by_squaring,
)


def is_unimodular(m: IntMatrix) -> bool:
    return abs(m.det()) == 1


# frozen from the determinant-divisor oracle
SNF_CASES = [
    ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [2, 2, 156]),
    ([[1, 2], [3, 4]], [1, 2]),
    ([[2, 4], [6, 8]], [2, 4]),
    ([[3, 0], [0, 12]], [3, 12]),
    ([[0, 4], [0, 0]], [4]),
    ([[5, 0, 0], [0, 3, 0], [0, 0, 4]], [1, 1, 60]),
]


@pytest.mark.parametrize("rows,expected", SNF_CASES)
def test_snf_frozen_diagonals(rows, expected):
    A = IntMatrix(rows)
    S, U, V = snf(A)
    assert U @ A @ V == S
    assert is_unimodular(U) and is_unimodular(V)
    assert snf_diagonal(A) == expected


def test_snf_divisibility_chain_and_sign():
    A = IntMatrix([[6, 10], [15, 4]])
    diag = snf_diagonal(A)
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def test_snf_matches_minor_oracle_randoms():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        A = IntMatrix(rows)
        S, U, V = snf(A)
        assert U @ A @ V == S
        assert is_unimodular(U) and is_unimodular(V)
        assert snf_diagonal(A) == invariant_factors_from_minors(rows)


def test_hnf_frozen_example():
    A = IntMatrix([[4, 2], [2, 4]])
    assert hnf(A) == IntMatrix([[2, 0], [4, 6]])


def test_hnf_drops_zero_columns():
    A = IntMatrix([[0, 3, 6], [0, 1, 2]])
    H = hnf(A)
    assert H.ncols == 1
    assert lattice_member(H.columns(), (3, 1))


def test_hnf_canonical_under_column_shuffle():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        cols = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        if all(all(c == 0 for c in col) for col in cols):
            continue
        A = IntMatrix.from_columns(cols)
        shuffled = cols[:]
        rng.shuffle(shuffled)
        B = IntMatrix.from_columns(shuffled)
        assert hnf(A) == hnf(B)
        assert hnf(hnf(A)) == hnf(A)


def test_hnf_preserves_lattice_full_rank():
    rng = random.Random(13)
    done = 0
    while done < 25:
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        A = IntMatrix(rows)
        if A.det() == 0:
            continue
        H = hnf(A)
        assert lattice_equal(A.columns(), H.columns())
        assert abs(A.det()) == abs(H.det())
        done += 1


# matrices with zero rows and columns, negative entries and rank below
# both dimensions: a column is a combination of drawn ones half the time
def _hnf_input(draw_shape):
    nrows, ncols = draw_shape
    entry = st.integers(-40, 40) | st.sampled_from([0, 0, 1, -1, 6, -15, 210])
    return st.lists(st.lists(entry, min_size=nrows, max_size=nrows), min_size=ncols, max_size=ncols)


@st.composite
def hnf_inputs(draw):
    cols = draw(st.tuples(st.integers(1, 5), st.integers(1, 6)).flatmap(_hnf_input))
    nrows = len(cols[0])
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i, j = draw(st.integers(0, len(cols) - 1)), draw(st.integers(0, len(cols) - 1))
        cols.append([a * x + b * y for x, y in zip(cols[i], cols[j])])
    if draw(st.booleans()):
        zero_row = draw(st.integers(0, nrows - 1))
        cols = [[0 if r == zero_row else x for r, x in enumerate(col)] for col in cols]
    return cols


@settings(max_examples=300, deadline=None)
@given(hnf_inputs())
@example([[0]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[4, -6], [-2, 3], [0, 0]])
def test_hnf_matches_the_euclid_round_route(cols):
    A = IntMatrix.from_columns(cols)
    if not any(x for col in cols for x in col):
        for route in (hnf, euclid_hnf):
            with pytest.raises(ValueError, match="zero lattice"):
                route(A)
        return
    H = hnf(A)
    assert H == euclid_hnf(A)
    assert is_checked_matrix(H)
    assert all(lattice_member(H.columns(), col) for col in cols)
    # the shape that makes the form unique
    pivots = [next(i for i, x in enumerate(col) if x) for col in H.columns()]
    assert pivots == sorted(set(pivots))
    for j, r in enumerate(pivots):
        assert H.rows[r][j] > 0 and all(0 <= x < H.rows[r][j] for x in H.rows[r][:j])


def test_lattice_contains_agrees_with_solver():
    rng = random.Random(17)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        A = IntMatrix(rows)
        if A.det() == 0:
            continue
        H = hnf(A)
        for _ in range(8):
            v = [rng.randint(-30, 30) for _ in range(n)]
            assert lattice_contains(H, v) == lattice_member(A.columns(), v)
        done += 1


@pytest.mark.parametrize("rows", [[[2]], [[1, 2], [3, -4]], [[0, 1, 0], [0, 0, 1], [1, -1, 2]]])
def test_pow_matches_repeated_products(rows):
    # IntMatrix.pow runs linalg.square_and_multiply with @ as the product
    A = IntMatrix(rows)
    product = IntMatrix.identity(A.nrows)
    for e in range(6):
        if e in (0, 1, 5):
            assert A.pow(e) == product
        product = product @ A
    with pytest.raises(ValueError):
        A.pow(-1)


def test_square_and_multiply_takes_the_product_as_a_parameter():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a + b

    # 13 = 0b1101: three squarings, and two products into the result
    assert square_and_multiply(3, 13, mul, lambda: 0) == 39
    assert len(calls) == 5
    assert square_and_multiply(3, 0, mul, lambda: "one") == "one"


def test_exterior_power_entries_are_minors():
    A = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    E = exterior_power_matrix(A, 2)
    # lexicographic pairs: (0,1), (0,2), (1,2)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for i, rs in enumerate(pairs):
        for j, cs in enumerate(pairs):
            assert E.rows[i][j] == minor_entry(A.rows, rs, cs)
    assert exterior_power_matrix(A, 0) == IntMatrix([[1]])
    assert exterior_power_matrix(A, 3) == IntMatrix([[A.det()]])


def test_exterior_power_functorial():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        A = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        B = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        assert exterior_power_matrix(A @ B, k) == exterior_power_matrix(
            A, k
        ) @ exterior_power_matrix(B, k)


def test_char_poly_companion_and_transpose():
    # companion matrix of x^3 - 2x + 5
    C = IntMatrix([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(C) == (1, 0, -2, 5)
    assert char_poly(C.transpose()) == char_poly(C)


def test_char_poly_constant_term_is_det():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        cp = char_poly(A)
        assert cp[0] == 1
        assert cp[-1] == (-1) ** n * A.det()
        trace = sum(A.rows[i][i] for i in range(n))
        assert cp[1] == -trace


def test_char_poly_rational():
    # M = [[1/2, 1], [0, 1/3]] is the pair (A, 6); coefficient i of M's is A's over 6^i
    A, m = IntMatrix([[3, 6], [0, 2]]), 6
    assert tuple(Fraction(c, m**i) for i, c in enumerate(char_poly(A))) == (
        Fraction(1),
        Fraction(-5, 6),
        Fraction(1, 6),
    )


def test_rank_and_stable_rank_mod_p():
    A = IntMatrix([[2, 0], [0, 3]])
    assert rank_mod_p(A, 2) == 1
    assert rank_mod_p(A, 3) == 1
    assert rank_mod_p(A, 5) == 2
    assert stable_rank_mod_p(A, 2) == 1
    # nilpotent mod 2 but invertible mod 3
    B = IntMatrix([[2, 1], [0, 2]])
    assert rank_mod_p(B, 2) == 1
    assert stable_rank_mod_p(B, 2) == 0
    assert stable_rank_mod_p(B, 3) == 2


def test_stable_rank_bounded_by_rank():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        for p in (2, 3, 5):
            assert stable_rank_mod_p(A, p) <= rank_mod_p(A, p)


def test_integer_kernel():
    A = IntMatrix([[1, 2, 3], [2, 4, 6]])
    basis = integer_kernel(A)
    assert len(basis) == 2
    for v in basis:
        assert A.apply(v) == (0, 0)
    assert integer_kernel(IntMatrix([[1, 0], [0, 1]])) == []


def test_det_matches_cofactor_oracle():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert IntMatrix(rows).det() == det_cofactor(rows)


def test_rat_matrix_inverse_and_solve():
    M = RatMatrix([[2, 1], [1, 1]])
    inv = M.inverse()
    assert M @ inv == RatMatrix.identity(2)
    with pytest.raises(ZeroDivisionError):
        RatMatrix([[1, 2], [2, 4]]).inverse()


def test_immutability():
    A = IntMatrix([[1]])
    with pytest.raises(AttributeError):
        A.rows = ((2,),)


small_square = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-10, 10), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=60, deadline=None)
@given(small_square)
def test_snf_diag_invariant_under_transpose(rows):
    A = IntMatrix(rows)
    assert snf_diagonal(A) == snf_diagonal(A.transpose())


@settings(max_examples=60, deadline=None)
@given(small_square, small_square)
def test_det_multiplicative(rows_a, rows_b):
    if len(rows_a) != len(rows_b):
        return
    A, B = IntMatrix(rows_a), IntMatrix(rows_b)
    assert (A @ B).det() == A.det() * B.det()


class Flag(int):
    """A non-bool int subclass, which IntMatrix accepts."""


@pytest.mark.parametrize("bad", [True, False, Fraction(1, 2), Fraction(2), 1.0, "1", None])
def test_int_matrix_rejects_non_int_entries(bad):
    with pytest.raises(TypeError):
        IntMatrix([[1, 2], [3, bad]])
    with pytest.raises(TypeError):
        IntMatrix([[bad]])


def test_int_matrix_accepts_int_subclasses_and_iterables():
    M = IntMatrix([[Flag(2), 0], (x for x in (1, 3))])
    assert M.rows == ((2, 0), (1, 3)) and M.det() == 6
    assert IntMatrix(iter([range(2), range(1, 3)])).rows == ((0, 1), (1, 2))


@pytest.mark.parametrize("rows", [[], [[]], [[], []], [[1, 2], [3]], [[1], [2, 3]], [[1], []]])
def test_int_matrix_rejects_empty_or_ragged_rows(rows):
    with pytest.raises(ValueError):
        IntMatrix(rows)


def test_ragged_rows_are_reported_before_bad_entries():
    # rows are checked in order, each for length before its entries
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [1.5]])
    with pytest.raises(TypeError):
        IntMatrix([[1, 2.5], [1]])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_inverse_pair_is_the_inverse_over_one_denominator(rows):
    M = IntMatrix(rows)
    det = M.det()
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            M.inverse_pair()
        return
    B, d = M.inverse_pair()
    assert abs(d) == abs(det)
    assert M @ B == IntMatrix.identity(M.nrows).scale(d) == B @ M


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n),
            st.one_of(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
                    lambda d: [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
                ),
                st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n),
            ),
        )
    )
)
def test_commutes_with_matches_the_products(pair):
    A, B = IntMatrix(pair[0]), IntMatrix(pair[1])
    assert A.commutes_with(B) == (A @ B == B @ A) == B.commutes_with(A)


def test_sum_and_difference_need_one_shape():
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMatrix([[1, 2]]) + IntMatrix([[1]])
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMatrix([[1, 2], [3, 4]]) - IntMatrix([[1, 1]])
    with pytest.raises(ValueError):
        IntMatrix.identity(0)


def square_rows(n: int, entries=st.integers(-6, 6)):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            square_rows(n),
            square_rows(n),
            st.lists(st.lists(st.integers(-6, 6), min_size=n + 1, max_size=n + 1), min_size=n, max_size=n),
        )
    ),
    st.integers(-5, 5),
    st.integers(1, 9),
)
def test_unchecked_results_are_checked_matrices(matrices, c, n):
    A, B, R = (IntMatrix(rows) for rows in matrices)
    results = [A @ B, A.transpose(), R.transpose(), A.scale(c), A.mod(n), A + B, A - B]
    results += [IntMatrix.identity(A.nrows), A.pow(3), *snf(R)]
    results += [exterior_power_matrix(R, k) for k in range(R.nrows + 1)]
    if A.det():
        results.append(A.inverse_pair()[0])
    if not R.is_zero():
        results.append(hnf(R))
    assert all(is_checked_matrix(M) for M in results)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(square_rows(n, st.sampled_from([0, 0, 0, 1, -1, 2, 3, 5, 6, 7, 10, 21])), st.booleans())
    ),
    st.sampled_from([2, 3, 5, 7]),
)
def test_stable_rank_mod_p_matches_the_power_sequence(case, p):
    rows, nilpotent = case
    if nilpotent:
        rows = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    assert stable_rank_mod_p(IntMatrix(rows), p) == stable_rank_by_powers(rows, p)


@st.composite
def jordan_conjugates(draw):
    """(A, p, expected): a unimodular conjugate of a block upper-triangular
    r x r matrix, r <= 24, whose diagonal blocks are Jordan blocks J_s(p t),
    nilpotent mod p of index s up to r, or upper-triangular blocks with a
    diagonal prime to p, invertible mod p.  The characteristic polynomial
    mod p is the product of the blocks', so the stable rank mod p is
    expected, the total size of the invertible blocks."""
    p = draw(st.sampled_from([2, 3, 5]), label="p")
    r = draw(st.integers(1, 24), label="r")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    a = [[0] * r for _ in range(r)]
    start = expected = 0
    while start < r:
        size = draw(st.integers(1, r - start), label="block size")
        nilpotent = draw(st.booleans(), label="nilpotent")
        for i in range(start, start + size):
            if nilpotent:
                a[i][i] = p * rng.randint(-2, 2)
                if i + 1 < start + size:
                    a[i][i + 1] = 1
            else:
                a[i][i] = rng.randint(1, p - 1) + p * rng.randint(-2, 2)
                a[i][i + 1 : start + size] = [rng.randint(-3, 3) for _ in range(i + 1, start + size)]
            a[i][start + size :] = [rng.choice([0, 0, 1, -2]) for _ in range(start + size, r)]
        expected += 0 if nilpotent else size
        start += size
    for _ in range(rng.randint(0, 2 * r)):
        # conjugate by I + c E_ij: add c times row j to row i, then take
        # c times column i from column j
        i, j, c = rng.randrange(r), rng.randrange(r), rng.randint(-2, 2)
        if i != j:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            for row in a:
                row[j] -= c * row[i]
    return IntMatrix(a), p, expected


@settings(max_examples=60, deadline=None)
@given(jordan_conjugates())
def test_stable_rank_of_jordan_conjugates_matches_both_power_routes(case):
    A, p, expected = case
    assert stable_rank_mod_p(A, p) == expected
    assert stable_rank_by_squaring(A, p) == expected
    assert stable_rank_by_powers(A.rows, p) == expected


def test_stable_rank_of_a_full_nilpotent_chain_is_zero():
    # one Jordan chain of index r: the rank falls by one per power, r times
    for r in (1, 2, 9, 24):
        N = IntMatrix([[int(j == i + 1) for j in range(r)] for i in range(r)])
        for p in (2, 3, 5):
            assert stable_rank_mod_p(N, p) == 0
            assert stable_rank_mod_p(N + IntMatrix.identity(r).scale(p + 1), p) == r


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: square_rows(n, st.integers(-10**12, 10**12))))
def test_small_determinants_match_the_cofactor_oracle(rows):
    assert _bareiss_det([list(row) for row in rows]) == det_cofactor(rows)
