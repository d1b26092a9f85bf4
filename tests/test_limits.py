"""Colimit groups: membership, certified equality, canonical forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_colimit_member,
    colimit_contains,
    from_presentation,
    signatures_match,
    solve_rational,
)
from solhom.engine import transfer_colimit
from solhom.errors import AtomClassExceeded, CapExceeded, InternalCheckError, NonCommuting
from solhom.fgab import FgAbGroup, endomorphism
from solhom.intfactor import factorint
from solhom.limits import (
    ColimitGroup,
    InvariantSignature,
    canonical_form,
    equal_commuting,
    free_colimit,
    _solve_lattice,
    torsion_colimit,
)
from solhom.linalg import IntMatrix, hnf


def test_membership_stages_frozen():
    G = ColimitGroup(IntMatrix([[2]]))
    assert G.membership_stage([Fraction(1, 8)]) == 3
    assert G.membership_stage([5]) == 0
    assert G.membership_stage([Fraction(1, 3)]) is None
    H = ColimitGroup(IntMatrix([[6]]))
    assert H.membership_stage([Fraction(1, 36)]) == 2
    assert H.membership_stage([Fraction(5, 4)]) == 2
    assert H.membership_stage([Fraction(1, 7)]) is None


def test_membership_against_brute_force():
    rng = random.Random(97)
    trials = 0
    while trials < 120:
        r = rng.choice([1, 2, 3])
        M = IntMatrix([[rng.randint(-4, 4) for _ in range(r)] for _ in range(r)])
        if M.det() == 0:
            continue
        trials += 1
        G = ColimitGroup(M)
        den = rng.choice([1, 2, 3, 4, 6, 9, 12])
        vec = [Fraction(rng.randint(-8, 8), den) for _ in range(r)]
        got = colimit_contains(G, vec)
        want = brute_colimit_member(M.rows, vec, 1000)
        assert got == want, (M.rows, vec)


def test_membership_factors_the_determinant_once(monkeypatch):
    from solhom import limits

    calls = []

    def counted(n):
        calls.append(n)
        return factorint(n)

    monkeypatch.setattr(limits, "factorint", counted)
    G = ColimitGroup(IntMatrix([[2, 1], [0, 6]]))
    for k in range(1, 13):
        colimit_contains(G, [Fraction(1, 2**k), Fraction(k, 3 * k + 7)])
        colimit_contains(G, [Fraction(1, 6**k), 1])
    assert G.membership_stage([Fraction(1, 3), Fraction(1, 5)]) is None
    assert G.signature == InvariantSignature(2, ((2, 0), (3, 1)))
    assert calls == [12]


def test_non_injective_tower_rejected():
    with pytest.raises(ValueError):
        ColimitGroup(IntMatrix([[2, 1], [2, 1]]))


# multiplication matrices over Z[sqrt(-5)], basis (1, t):
#   by 2(1 + t): [[2, -10], [2, 2]]      ideal (p1^3 p2, norm 24)
#   by 7 + t:    [[7, -5], [1, 7]]       ideal (p1 p2^3, norm 54)
#   by 2(1 - t): [[2, 10], [-2, 2]]      ideal (p1^3 p3, norm 24)
MULT_SAME = (IntMatrix([[2, -10], [2, 2]]), IntMatrix([[7, -5], [1, 7]]))
MULT_DIFFERENT = (IntMatrix([[2, 10], [-2, 2]]), IntMatrix([[7, -5], [1, 7]]))


def test_equal_commuting_certifies_equality():
    A = ColimitGroup(MULT_SAME[0])
    B = ColimitGroup(MULT_SAME[1])
    eq, witness = equal_commuting(A, B)
    assert eq and witness is None


def test_equal_commuting_separates_same_signature_groups():
    # both towers invert one prime over 3, so every isomorphism invariant
    # in the signature agrees; only the membership procedure can tell
    # them apart, because different primes over 3 are being inverted
    A = ColimitGroup(MULT_DIFFERENT[0])
    B = ColimitGroup(MULT_DIFFERENT[1])
    assert signatures_match(A.signature, B.signature)
    eq, witness = equal_commuting(A, B)
    assert not eq
    assert witness is not None
    assert colimit_contains(A, witness) != colimit_contains(B, witness)


def test_equal_commuting_noncommuting_raises():
    A = ColimitGroup(IntMatrix([[2, 1], [0, 1]]))
    B = ColimitGroup(IntMatrix([[1, 0], [1, 2]]))
    with pytest.raises(NonCommuting):
        equal_commuting(A, B)


def test_equal_commuting_rank_mismatch():
    A = ColimitGroup(IntMatrix([[2]]))
    B = ColimitGroup(IntMatrix([[2, 0], [0, 2]]))
    eq, witness = equal_commuting(A, B)
    assert not eq and witness is None


def test_signature_frozen():
    G = ColimitGroup(IntMatrix([[2, 10], [-2, 2]]))
    assert G.signature == InvariantSignature(2, ((2, 0), (3, 1)))
    H = ColimitGroup(IntMatrix([[4]]))
    assert H.signature == InvariantSignature(1, ((2, 0),))
    U = ColimitGroup(IntMatrix([[0, 1], [-1, 0]]))
    assert U.signature == InvariantSignature(2, ())


def test_canonical_forms():
    assert canonical_form(ColimitGroup(IntMatrix([[2]]))).pretty() == "Z[1/2]"
    assert canonical_form(ColimitGroup(IntMatrix([[12]]))).pretty() == "Z[1/6]"
    assert canonical_form(ColimitGroup(IntMatrix([[-1]]))).pretty() == "Z"
    assert canonical_form(ColimitGroup(None)).pretty() == "0"
    assert canonical_form(ColimitGroup(IntMatrix([[-1, 1], [1, 0]]))).pretty() == "Z^2"
    got = canonical_form(ColimitGroup(IntMatrix([[3, 0], [0, -1]])))
    assert got.pretty() == "Z + Z[1/3]"
    with pytest.raises(AtomClassExceeded):
        canonical_form(ColimitGroup(IntMatrix([[2, 10], [-2, 2]])))


def test_free_colimit_reduction():
    G = free_colimit(IntMatrix([[2, 1], [0, 0]]))
    assert G.rank == 1 and abs(G.det) == 2
    assert canonical_form(G).pretty() == "Z[1/2]"
    # nilpotent tower collapses
    N = free_colimit(IntMatrix([[0, 1], [0, 0]]))
    assert N.rank == 0
    assert canonical_form(N).pretty() == "0"
    # injective towers pass through untouched
    J = free_colimit(IntMatrix([[5]]))
    assert J.matrix == IntMatrix([[5]])


def _order_multiset(invariants, relations, F, steps):
    """Brute-force the eventual image of the endomorphism and return the
    multiset of element orders, as an independent structure witness."""
    import itertools

    dims = invariants
    elems = set(itertools.product(*(range(d) for d in dims)))

    def act(x):
        return tuple(
            sum(F[i][k] * x[k] for k in range(len(dims))) % dims[i] for i in range(len(dims))
        )

    img = elems
    for _ in range(steps):
        img = {act(x) for x in img}
    orders = []
    for x in img:
        o = 1
        y = x
        while any(y):
            y = tuple((a + b) % d for a, b, d in zip(y, x, dims))
            o += 1
        orders.append(o)
    return sorted(orders)


def _group_order_multiset(g: FgAbGroup):
    import itertools
    from math import gcd, lcm

    dims = g.torsion
    orders = []
    for x in itertools.product(*(range(d) for d in dims)):
        orders.append(lcm(*(d // gcd(a, d) for a, d in zip(x, dims))) if dims else 1)
    return sorted(orders)


TORSION_CASES = [
    # (invariants, endo matrix, expected)
    ((4,), [[2]], FgAbGroup(0, ())),
    ((9,), [[2]], FgAbGroup(0, (9,))),
    ((2, 2), [[0, 1], [1, 0]], FgAbGroup(0, (2, 2))),
    ((8,), [[2]], FgAbGroup(0, ())),
    ((12,), [[3]], FgAbGroup(0, (4,))),
]


def test_torsion_colimit_frozen_and_oracle():
    for invariants, F, want in TORSION_CASES:
        n = len(invariants)
        rel = IntMatrix([[invariants[i] if i == j else 0 for j in range(n)] for i in range(n)])
        got = torsion_colimit(FgAbGroup(0, tuple(invariants)), rel, IntMatrix(F))
        assert got == want, (invariants, F)
        oracle = _order_multiset(invariants, rel, F, steps=12)
        assert _group_order_multiset(got) == oracle, (invariants, F)


def test_torsion_colimit_long_image_chains():
    # doubling on Z/2^k moves the image chain k times before it reaches 0
    for k in (63, 64, 70):
        group = FgAbGroup(0, (2**k,))
        assert torsion_colimit(group, IntMatrix([[2**k]]), IntMatrix([[2]])) == FgAbGroup(0, ())
        hom = transfer_colimit([group], [endomorphism(group, IntMatrix([[2]]))])
        assert hom.entry(0).is_zero()
    # the bound comes from the group: one that understates the order of
    # the presented group leaves a chain still moving past it
    with pytest.raises(CapExceeded, match="log2"):
        torsion_colimit(FgAbGroup(0, (2,)), IntMatrix([[2**10]]), IntMatrix([[2]]))


def test_torsion_colimit_two_generator_presentation():
    # Z/2 + Z/3 presented on two generators, endo kills the Z/3 part
    rel = IntMatrix([[2, 0], [0, 3]])
    F = IntMatrix([[1, 0], [0, 0]])
    got = torsion_colimit(FgAbGroup(0, (6,)), rel, F)
    assert got == FgAbGroup(0, (2,))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 4, 9]), min_size=1, max_size=2),
    st.data(),
)
def test_torsion_colimit_matches_order_oracle(invariants, data):
    n = len(invariants)
    F = [
        [data.draw(st.integers(min_value=0, max_value=5)) for _ in range(n)]
        for _ in range(n)
    ]
    rel = IntMatrix([[invariants[i] if i == j else 0 for j in range(n)] for i in range(n)])
    # the lift must respect the relations: column j scaled entries must
    # vanish mod invariants[i] when multiplied by the generator order
    ok = all(
        (F[i][j] * invariants[j]) % invariants[i] == 0 for i in range(n) for j in range(n)
    )
    if not ok:
        return
    group = from_presentation(n, rel.columns())
    got = torsion_colimit(group, rel, IntMatrix(F))
    oracle = _order_multiset(tuple(invariants), rel, F, steps=16)
    assert _group_order_multiset(got) == oracle


def _matrix(rows, cols, lo=-6, hi=6):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(IntMatrix)


@st.composite
def _lattice_and_coefficients(draw):
    """A full-column-rank f x r integer B and an integer r x s X."""
    f = draw(st.integers(1, 4))
    r = draw(st.integers(1, f))
    B = draw(_matrix(f, r))
    assume(not B.is_zero() and hnf(B).ncols == r)
    return B, draw(_matrix(r, draw(st.integers(1, 3)), -9, 9))


@settings(max_examples=150, deadline=None)
@given(_lattice_and_coefficients())
def test_lattice_solve_reads_back_the_coefficients(case):
    B, X = case
    H = hnf(B)
    image = H @ X
    assert _solve_lattice(H, image) == X
    for target, col in zip(image.columns(), X.columns()):
        assert solve_rational(H.columns(), target) == list(col)


@settings(max_examples=150, deadline=None)
@given(_lattice_and_coefficients())
def test_lattice_solve_refuses_targets_off_the_lattice(case):
    # hnf(2B) = 2 hnf(B), so H X lies in the lattice of 2B exactly when X is even
    B, X = case
    H, H2 = hnf(B), hnf(B.scale(2))
    assert H2 == H.scale(2)
    got = _solve_lattice(H2, H @ X)
    if any(x % 2 for row in X.rows for x in row):
        assert got is None
        assert any(c.denominator != 1 for t in (H @ X).columns() for c in solve_rational(H2.columns(), t))
    else:
        assert got == IntMatrix([[x // 2 for x in row] for row in X.rows])


def test_lattice_solve_frozen():
    H = IntMatrix([[2, 0], [1, 3]])
    assert _solve_lattice(H, IntMatrix([[4], [5]])) == IntMatrix([[2], [1]])
    assert _solve_lattice(H, IntMatrix([[1], [0]])) is None
    assert _solve_lattice(H, IntMatrix([[2], [0]])) is None  # x = (1, -1/3)
    with pytest.raises(InternalCheckError, match="inconsistent lattice solve"):
        _solve_lattice(IntMatrix([[1], [0]]), IntMatrix([[0], [1]]))
