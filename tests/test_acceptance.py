"""Acceptance suite: one test per numbered requirement.

Run with -v to get one pass/fail line per criterion.  Criterion 2
aggregates its sub-assertions so a single deviating entry is reported
alongside the parts that hold; see docs/criterion-2.md for why its
stable H0 is Z[1/3] and not the published Z[1/6].
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from oracles import (
    brute_colimit_member,
    element,
    hk_report,
    invariant_factors_from_minors,
    lattice_equal,
    lefschetz_trace,
    rational_periodic_oracle,
)
from solhom.engine import (
    finite_part_homology,
    groupoid_homology,
    kunneth_product,
    positive_cone_contains,
    transfer_colimit,
)
from solhom.errors import HypothesisN1
from solhom.fgab import FgAbGroup, LocalizedForm, endomorphism
from solhom.limits import ColimitGroup, equal_commuting
from solhom.linalg import IntMatrix, char_poly, exterior_power_matrix, hnf, snf
from solhom.nfield import NumberField, element_valuations
from solhom.places import build_system
from solhom.qpoly import Poly, parse_poly

Z3 = LocalizedForm.localized(3)
Z2 = LocalizedForm.localized(2)
Z6 = LocalizedForm.localized(6)


def rational_system(c: Fraction):
    return build_system(Poly([Fraction(1), -Fraction(c)]))


def test_criterion_1_rational_three_halves():
    sys_ = rational_system(Fraction(3, 2))
    assert sys_.transfer_index == 3
    unstable = groupoid_homology(sys_)
    assert unstable.entry(0).closed == Z3
    assert unstable.entry(1).closed == Z2
    stable = groupoid_homology(sys_.dual_system())
    assert stable.entry(-1).closed == Z2
    assert stable.entry(0).closed == Z3


def test_criterion_2_sqrt_minus_five():
    failures = []

    def check(label, ok):
        if not ok:
            failures.append(label)

    sys_ = build_system("x^2-x+3/2")
    check("N = 3", sys_.transfer_index == 3)

    finite = finite_part_homology(sys_)
    check("H0 = Z[1/3]", finite.entries[0].closed == Z3)
    check("H2 = Z[1/2]", finite.entries[2].closed == Z2)

    sqrt = sys_.c.scale(2) - sys_.field.one()  # sqrt(-5) = 2c - 1
    w, den = (sys_.field.one() - sqrt).scale(2).mult_pair()
    check("2(1-sqrt(-5)) is integral", den == 1)
    fixture = ColimitGroup(w)
    equal, _ = equal_commuting(finite.entries[1].colimit, fixture)
    check("H1 equals colim(O_K, x2(1-sqrt(-5)))", equal)

    check(
        "delta actions are 3, 1-sqrt(-5), 2",
        finite.entries[0].action == (IntMatrix([[3]]), 1)
        and finite.entries[1].action == (sys_.field.one() - sqrt).mult_pair()
        and finite.entries[2].action == (IntMatrix([[2]]), 1),
    )

    stable = groupoid_homology(sys_.dual_system())
    check("stable H-2 = Z[1/2]", stable.entry(-2).closed == Z2)
    dual = sys_.dual_system()
    dual_sqrt = dual.field.one() - dual.c.scale(3)  # sqrt(-5) = 1 - 3/c
    wd, den = (dual.field.one() + dual_sqrt).scale(2).mult_pair()
    check("2(1+sqrt(-5)) is integral", den == 1)
    equal, _ = equal_commuting(stable.entry(-1).colimit, ColimitGroup(wd))
    check("stable H-1 equals colim(O_K, x2(1+sqrt(-5)))", equal)
    # The paper prints stable H0 = Z[1/6]; the top-degree tower is 27 and
    # the transfer route gives Z[1/3] as well, see docs/criterion-2.md.
    check("stable H0 = Z[1/3]", stable.entry(0).closed == Z3)
    check("stable H0 is not the published Z[1/6]", stable.entry(0).closed != Z6)

    assert not failures, "sub-assertions failed: " + "; ".join(failures)


def test_criterion_3_golden_torus():
    sys_ = build_system("x^2-x-1")
    assert not sys_.finite_stable and not sys_.finite_unstable
    hom = groupoid_homology(sys_)
    assert hom.degrees() == [-1, 0, 1]
    assert [hom.entry(k).rank for k in (-1, 0, 1)] == [1, 2, 1]
    A, m = hom.entry(0).action
    assert m == 1 and char_poly(A) == (1, 1, -1)  # x^2 + x - 1


def test_criterion_4_klein_bottle_transfer():
    z = FgAbGroup(1, ())
    z_tor = FgAbGroup(1, (2,))
    hom = transfer_colimit(
        [z, z_tor, FgAbGroup(0, ())],
        [
            endomorphism(z, IntMatrix([[9]])),
            endomorphism(z_tor, IntMatrix([[3, 0], [0, 1]])),
            None,
        ],
    )
    assert hom.entry(0).closed == Z3
    assert hom.entry(1).closed == Z3 + LocalizedForm.torsion(2)
    for k in (2, 3, 4):
        assert hom.entry(k).is_zero()


QUADRATIC_SAMPLE = ["x^2-x-1", "x^2-x+3/2", "x^2-2*x-1", "x^2-3", "x^2-x+1/2"]


def test_criterion_5_hk_and_rank_identity():
    for poly in ("x-3/2", "x^2-x-1", "x^2-x+3/2", "x-2"):
        report = hk_report(build_system(poly))
        assert report["verdicts"] == {"0": "equal", "1": "equal"}, poly

    rng = random.Random(20260823)
    seen = 0
    while seen < 20:
        q = rng.randint(2, 60)
        p = rng.randint(1, q - 1)
        if gcd(p, q) != 1:
            continue
        c = Fraction(-q if rng.random() < 0.25 else q, p)
        report = hk_report(rational_system(c))
        assert report["rank_identity"], c
        seen += 1
    for poly in QUADRATIC_SAMPLE:
        assert hk_report(build_system(poly))["rank_identity"], poly


def test_criterion_6_lefschetz_fixed_points():
    for poly in ("x-3/2", "x^2-x-1", "x^2-x+3/2"):
        sys_ = build_system(poly)
        for n, count in enumerate(sys_.periodic_counts(6), start=1):
            assert abs(lefschetz_trace(sys_, n)) == count, (poly, n)

    rng = random.Random(4096)
    seen = 0
    while seen < 10:
        q = rng.randint(2, 30)
        p = rng.randint(1, q - 1)
        if gcd(p, q) != 1:
            continue
        if rng.random() < 0.3:
            q = -q
        sys_ = rational_system(Fraction(q, p))
        for n in range(1, 7):
            assert abs(lefschetz_trace(sys_, n)) == rational_periodic_oracle(q, p, n)
        seen += 1


def test_criterion_7_kunneth():
    hom = groupoid_homology(rational_system(Fraction(3, 2)))
    square = kunneth_product(hom, hom)
    assert square.entry(0).closed == Z3
    assert square.entry(1).closed == LocalizedForm.localized(6, 2)
    assert square.entry(2).closed == Z2
    assert square.degrees() == [0, 1, 2]

    z = FgAbGroup(1, ())
    point = transfer_colimit([z], [endomorphism(z, IntMatrix([[1]]))])
    for graded in (hom, groupoid_homology(build_system("x^2-x-1"))):
        prod = kunneth_product(graded, point)
        assert {d: prod.entry(d).closed for d in prod.degrees()} == {
            d: graded.entry(d).closed for d in graded.degrees()
        }

    z_tor = FgAbGroup(1, (2,))
    klein = transfer_colimit(
        [z, z_tor],
        [endomorphism(z, IntMatrix([[9]])), endomorphism(z_tor, IntMatrix([[3, 0], [0, 1]]))],
    )
    ksquare = kunneth_product(klein, klein)
    # top degree 3 = 1 + 1 + 1 holds exactly the torsion product correction
    assert ksquare.entry(3).closed == LocalizedForm.torsion(2)
    assert ksquare.degrees() == [0, 1, 2, 3]


def test_criterion_8_positive_cone():
    sys_ = rational_system(Fraction(3, 2))
    for value in (1, Fraction(1, 3), Fraction(5, 9)):
        assert positive_cone_contains(sys_, {0: value})
    assert not positive_cone_contains(sys_, {0: -1})
    assert not positive_cone_contains(sys_, {0: 0, 1: [1]})
    with pytest.raises(HypothesisN1):
        positive_cone_contains(build_system("x^2-x-1"), {0: 1})


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = random.Random(777)

    # Smith/Hermite forms on 200 random matrices up to 6x6
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        A = IntMatrix([[rng.randint(-20, 20) for _ in range(m)] for _ in range(n)])
        S, U, V = snf(A)
        assert abs(U.det()) == 1 and abs(V.det()) == 1
        assert U @ A @ V == S
        diag = [S.rows[i][i] for i in range(min(n, m))]
        assert all(
            diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1) if diag[i] != 0
        )
        factors = invariant_factors_from_minors([list(r) for r in A.rows])
        assert [d for d in diag if d != 0] == factors
        if len(factors) == m:  # independent columns, the lattice oracle applies
            assert lattice_equal(A.columns(), hnf(A).columns())

    # exterior powers respect composition
    for _ in range(100):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        A = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        B = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert exterior_power_matrix(A @ B, k) == (
            exterior_power_matrix(A, k) @ exterior_power_matrix(B, k)
        )

    # membership decisions agree with a brute-force scan
    towers = [
        IntMatrix([[2]]),
        IntMatrix([[6]]),
        IntMatrix([[2, 1], [0, 3]]),
        IntMatrix([[2, -10], [2, 2]]),
        IntMatrix([[3, 0, 1], [0, 2, 0], [1, 0, 3]]),
    ]
    checked = 0
    while checked < 100:
        T = towers[rng.randrange(len(towers))]
        G = ColimitGroup(T)
        vec = [
            Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4, 6, 8, 9, 12]))
            for _ in range(G.rank)
        ]
        stage = G.membership_stage(vec)
        brute = brute_colimit_member([list(r) for r in T.rows], vec, cap=1000)
        assert (stage is not None) == brute, (T.rows, vec, stage)
        checked += 1

    # valuations are additive on products in Q(sqrt(-5))
    field = NumberField(parse_poly("x^2+5"))
    pairs = 0
    while pairs < 100:
        x = element(field,
            [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(2)]
        )
        y = element(field,
            [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(2)]
        )
        if x.is_zero() or y.is_zero():
            continue
        vx, vy = element_valuations(x), element_valuations(y)
        vxy = element_valuations(x * y)
        for prime in set(vx) | set(vy) | set(vxy):
            assert vxy.get(prime, 0) == vx.get(prime, 0) + vy.get(prime, 0)
        pairs += 1

    assert time.perf_counter() - start < 60
