"""Towers as exterior powers: each identity the engine uses against the
generic route it replaced (tests/oracles.py).

* The Laplace ladder (linalg.exterior_power_matrix given the power
  below) against every k-minor taken on its own by Bareiss.
* Sylvester-Franke, det Lambda^k(A) = det(A)^C(d-1, k-1), against
  Bareiss on the power itself.
* Jacobi's adjugate, read off the complementary power, against the
  fraction-free Gauss-Jordan inverse.

Random integer d x d matrices with d <= 5 and both sides of every
answer input are checked.  Then: a tower whose determinant has a prime
under no finite place of c is an internal error, and on a degree-4 unit
and a quadratic with a large prime no tower runs Bareiss, Gauss-Jordan
or Pollard rho.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import atom_colimit, eliminated_adjugate, minor_exterior_power, system_with
from record_answer_reports import answer_inputs
from solhom import engine, intfactor, linalg
from solhom.engine import finite_part_homology, hk_check
from solhom.errors import InternalCheckError, SolhomError
from solhom.limits import ColimitGroup
from solhom.linalg import (
    IntMatrix,
    complement_transpose,
    exterior_power_det,
    exterior_power_matrix,
)
from solhom.places import build_system

square = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=d, max_size=d)
)


def _invertible(rows) -> IntMatrix:
    A = IntMatrix(rows)
    assume(A.det() != 0)
    return A


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1), min_size=d, max_size=d)
))
def test_ladder_matches_the_per_minor_route(rows):
    # rectangular too: the square and the transposed shape
    for A in (IntMatrix(rows), IntMatrix(rows).transpose()):
        lower = exterior_power_matrix(A, 0)
        for k in range(1, min(A.nrows, A.ncols) + 1):
            lower = exterior_power_matrix(A, k, lower)
            assert lower == minor_exterior_power(A, k) == exterior_power_matrix(A, k)


def test_ladder_refuses_a_lower_power_of_the_wrong_shape():
    A = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    with pytest.raises(ValueError, match="next lower exterior power"):
        exterior_power_matrix(A, 2, exterior_power_matrix(A, 0))


@settings(max_examples=100, deadline=None)
@given(square)
def test_sylvester_franke_matches_bareiss(rows):
    A = IntMatrix(rows)
    d = A.nrows
    for k in range(d + 1):
        assert exterior_power_det(A.det(), d, k) == minor_exterior_power(A, k).det()


@settings(max_examples=100, deadline=None)
@given(square)
def test_jacobi_adjugate_matches_gauss_jordan(rows):
    A = _invertible(rows)
    d, det = A.nrows, A.det()
    for k in range(d + 1):
        power = minor_exterior_power(A, k)
        J = complement_transpose(minor_exterior_power(A, d - k), d, d - k)
        assert power @ J == IntMatrix.identity(power.nrows).scale(det)
        # adj Lambda^k(A) = det Lambda^k(A) * Lambda^k(A)^-1 = det(A)^(C(d-1, k-1) - 1) J
        adj = IntMatrix([[exterior_power_det(det, d, k) * x // det for x in row] for row in J.rows])
        assert adj == eliminated_adjugate(power)


@settings(max_examples=100, deadline=None)
@given(square, st.integers(1, 3), st.integers(1, 4))
def test_ladder_towers_match_the_generic_route(rows, m, s):
    """T = N Lambda^k(A) / m^k, integral for N = s m^d: its determinant
    and adjugate by the identities equal Bareiss and Gauss-Jordan."""
    A = _invertible(rows)
    d = A.nrows
    n_index = s * m**d
    powers = engine._exterior_ladder(A, d)
    for k in range(d + 1):
        tower = engine._ladder_tower(powers, k, m, n_index, None)
        assert tower.matrix == IntMatrix(
            [[n_index * x // m**k for x in row] for row in minor_exterior_power(A, k).rows]
        )
        assert tower.det == tower.matrix.det()
        assert tower.adjugate == eliminated_adjugate(tower.matrix)


def _answer_systems():
    for poly in sorted({poly for _, poly, _ in answer_inputs()}):
        try:
            sys_ = build_system(poly)
        except SolhomError:
            continue  # refused inputs have no towers
        yield poly, sys_


def test_every_answer_tower_matches_the_generic_route():
    checked = 0
    for poly, sys_ in _answer_systems():
        for side in (sys_, sys_.dual_system()):
            finite = finite_part_homology(side)
            g, _ = finite.principalization
            A, m = (g * side.c_inverse).mult_pair()
            for k, e in finite.entries.items():
                G = e.colimit
                power = minor_exterior_power(A, k)
                assert G.matrix == IntMatrix(
                    [[side.transfer_index * x // m**k for x in row] for row in power.rows]
                ), (poly, k)
                assert G.det == G.matrix.det(), (poly, k)
                assert G.adjugate == eliminated_adjugate(G.matrix), (poly, k)
                assert G.det_primes == tuple(intfactor.factorint(G.det)), (poly, k)
                if e.closed is not None:
                    atoms = atom_colimit(e)
                    assert atoms.det == atoms.matrix.det(), (poly, k)
                    assert atoms.adjugate == eliminated_adjugate(atoms.matrix), (poly, k)
                checked += 1
    assert checked > 200


def test_every_answer_action_matches_the_per_minor_route():
    for poly, sys_ in _answer_systems():
        for side in (sys_, sys_.dual_system()):
            A, m = side.c_inverse.mult_pair()
            n_index = side.transfer_index
            for k, e in finite_part_homology(side).entries.items():
                power = minor_exterior_power(A, k)
                common = math.gcd(m**k, *(n_index * x for row in power.rows for x in row))
                want = IntMatrix([[n_index * x // common for x in row] for row in power.rows])
                assert e.action == (want, m**k // common), (poly, k)


def test_a_determinant_prime_outside_the_places_is_an_internal_error():
    with pytest.raises(InternalCheckError, match="prime outside"):
        ColimitGroup(IntMatrix([[2, 1], [1, 4]]), primes={2, 3}).det_primes  # det 7
    assert ColimitGroup(IntMatrix([[2, 1], [1, 5]]), primes={2, 3}).det_primes == (3,)
    # c = 3/2: N = 3 from the contracting place over 3; dropping that
    # place leaves the degree-0 tower's determinant 3 outside
    sys_ = build_system("x-3/2")
    finite_part_homology(sys_)
    with pytest.raises(InternalCheckError, match="prime outside"):
        finite_part_homology(system_with(sys_, finite_stable=[]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))), st.integers(0, 2**32))
def test_complement_transpose_is_its_entrywise_definition(shape, seed):
    # entry (K, L) is (-1)^(sum K + sum L) X[L^c, K^c], read off slot by
    # slot, for any X on k-subsets, not only an exterior power
    d, k = shape
    rng = random.Random(seed)
    size = math.comb(d, k)
    X = IntMatrix([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)])
    slot = {I: i for i, I in enumerate(combinations(range(d), k))}

    def rest(K):
        return tuple(x for x in range(d) if x not in K)

    comps = list(combinations(range(d), d - k))
    expected = [
        [(-1) ** (sum(K) + sum(L)) * X.rows[slot[rest(L)]][slot[rest(K)]] for L in comps] for K in comps
    ]
    assert complement_transpose(X, d, k) == IntMatrix(expected)


def test_a_wrong_adjugate_or_determinant_fails_the_check_vector():
    T = IntMatrix([[2, 1], [1, 3]])  # det 5
    with pytest.raises(InternalCheckError, match="check vector"):
        ColimitGroup(T, 5, lambda: IntMatrix([[3, 1], [-1, 2]])).adjugate
    with pytest.raises(InternalCheckError, match="check vector"):
        ColimitGroup(T, 10).adjugate  # Gauss-Jordan's denominator is +-5
    assert ColimitGroup(T, 5, lambda: IntMatrix([[3, -1], [-1, 2]])).adjugate == eliminated_adjugate(T)


def test_a_flipped_complement_sign_is_caught(monkeypatch):
    """A Jacobi adjugate of the wrong sign fails the tower's check
    vector, and the duality check fails the report."""
    right = linalg.complement_transpose
    monkeypatch.setattr(engine, "complement_transpose", lambda X, d, k: right(X, d, k).scale(-1))
    sys_ = build_system("x^3-x-1")
    finite = finite_part_homology(sys_)
    with pytest.raises(InternalCheckError, match="check vector"):
        hk_check(sys_, finite)
    with pytest.raises(InternalCheckError, match="Jacobi dual"):
        engine.duality_check(
            sys_,
            engine.shifted_homology(sys_, finite),
            engine.shifted_homology(sys_.dual_system(), finite_part_homology(sys_.dual_system())),
        )


@pytest.mark.parametrize("poly", ["x^4-x-1", "x^2-x+1000003/7"])
def test_towers_run_no_elimination_and_no_rho(poly, monkeypatch):
    """After place analysis, neither side's towers or H/K check take a
    determinant by Bareiss on a tower-sized matrix, invert by
    Gauss-Jordan or factor by Pollard rho."""
    sys_ = build_system(poly)
    dual = sys_.dual_system()
    sys_.c_inverse  # both inverses exist before the spies go in
    sizes, inverted, split = [], [], []
    bareiss, inverse_pair, rho = linalg._bareiss_det, IntMatrix.inverse_pair, intfactor._pollard_rho
    monkeypatch.setattr(linalg, "_bareiss_det", lambda a: sizes.append(len(a)) or bareiss(a))
    monkeypatch.setattr(IntMatrix, "inverse_pair", lambda M: inverted.append(M.nrows) or inverse_pair(M))
    monkeypatch.setattr(intfactor, "_pollard_rho", lambda n: split.append(n) or rho(n))
    ranks = set()
    for side in (sys_, dual):
        finite = finite_part_homology(side)
        hk_check(side, finite)
        ranks |= {e.colimit.rank for e in finite.entries.values()}
    assert ranks == ({1, 4, 6} if poly == "x^4-x-1" else {1, 2})
    assert [n for n in sizes if n in ranks] == []
    assert inverted == [] and split == []
