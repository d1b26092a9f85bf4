"""Homology engine tests against hand-computed tower data.

The delta matrices below were worked out by hand from the ideal
arithmetic of each field (prime factorizations of (c), principal
generators of the expanding ideal, multiplication matrices in the
integral basis) and are frozen here as the expected values.
"""

from fractions import Fraction

import pytest

from oracles import hk_report, lefschetz_trace
from solhom.engine import (
    DegreeEntry,
    GradedGroup,
    finite_part_homology,
    groupoid_homology,
    k_theory,
    kunneth_product,
    lefschetz_traces,
    positive_cone_contains,
    principalization,
    transfer_colimit,
)
from solhom.errors import AtomClassExceeded, HypothesisN1
from solhom.fgab import FgAbGroup, LocalizedForm, endomorphism
from solhom.limits import ColimitGroup, canonical_form, equal_commuting
from solhom.linalg import IntMatrix, char_poly
from solhom.places import build_system


def klein_transfer_system():
    z = FgAbGroup(1, ())
    z_tor = FgAbGroup(1, (2,))
    trivial = FgAbGroup(0, ())
    groups = [z, z_tor, trivial]
    transfers = [
        endomorphism(z, IntMatrix([[9]])),
        endomorphism(z_tor, IntMatrix([[3, 0], [0, 1]])),
        None,
    ]
    return groups, transfers


def test_rational_three_halves_finite_part():
    sys = build_system("x-3/2")
    finite = finite_part_homology(sys)
    assert finite.entries[0].colimit.matrix == IntMatrix([[3]])
    assert finite.entries[1].colimit.matrix == IntMatrix([[4]])
    assert finite.entries[0].closed == LocalizedForm.localized(3)
    assert finite.entries[1].closed == LocalizedForm.localized(2)
    # theta' acts by N = 3 in degree 0 and by N/c = 2 in degree 1
    assert finite.entries[0].action == (IntMatrix([[3]]), 1)
    assert finite.entries[1].action == (IntMatrix([[2]]), 1)
    g, h = principalization(sys)
    assert h == 1 and g.norm() == 2


def test_rational_three_halves_both_sides():
    sys = build_system("x-3/2")
    unstable = groupoid_homology(sys)
    assert unstable.degrees() == [0, 1]
    assert unstable.entry(0).closed == LocalizedForm.localized(3)
    assert unstable.entry(1).closed == LocalizedForm.localized(2)
    stable = groupoid_homology(sys.dual_system())
    assert stable.degrees() == [-1, 0]
    assert stable.entry(-1).closed == LocalizedForm.localized(2)
    assert stable.entry(0).closed == LocalizedForm.localized(3)


def test_golden_homology_and_actions():
    sys = build_system("x^2-x-1")
    assert not sys.finite_stable and not sys.finite_unstable
    hom = groupoid_homology(sys)
    assert hom.degrees() == [-1, 0, 1]
    assert [hom.entry(k).rank for k in (-1, 0, 1)] == [1, 2, 1]
    assert hom.entry(-1).closed == LocalizedForm.free(1)
    assert hom.entry(0).closed == LocalizedForm.free(2)
    assert hom.entry(1).closed == LocalizedForm.free(1)
    # orientation sign -1 lands on the odd degrees
    assert hom.entry(-1).action == (IntMatrix([[-1]]), 1)
    assert hom.entry(1).action == (IntMatrix([[1]]), 1)
    A, m = hom.entry(0).action
    assert m == 1 and char_poly(A) == (1, 1, -1)


def _closed_sum(entries) -> LocalizedForm:
    return LocalizedForm([atom for e in entries for atom in e.closed.atoms])


def test_golden_k_theory():
    sys = build_system("x^2-x-1")
    finite = finite_part_homology(sys)
    k0, k1 = k_theory(sys, finite)
    # the degree shift is 1: K0 is degree 1 (unstable H_0), K1 degrees 0
    # and 2 (unstable H_-1 and H_1)
    assert k0 == {0: finite.entries[1]} and k1 == {-1: finite.entries[0], 1: finite.entries[2]}
    assert _closed_sum(k0.values()) == LocalizedForm.free(2)
    assert _closed_sum(k1.values()) == LocalizedForm.free(2)


SQRT5_DELTAS = {
    0: IntMatrix([[3]]),
    1: IntMatrix([[2, 10], [-2, 2]]),
    2: IntMatrix([[8]]),
}


def test_sqrt_minus_five_unstable():
    sys = build_system("x^2-x+3/2")
    assert sys.transfer_index == 3
    finite = finite_part_homology(sys)
    for k, expected in SQRT5_DELTAS.items():
        assert finite.entries[k].colimit.matrix == expected
    assert finite.entries[0].closed == LocalizedForm.localized(3)
    assert finite.entries[1].closed is None
    assert finite.entries[2].closed == LocalizedForm.localized(2)
    # theta' actions: 3, multiplication by 1 - sqrt(-5), and 2
    assert finite.entries[0].action == (IntMatrix([[3]]), 1)
    assert finite.entries[2].action == (IntMatrix([[2]]), 1)
    sqrt = sys.c.scale(2) - sys.field.one()  # sqrt(-5) = 2c - 1
    mult = (sys.field.one() - sqrt).mult_pair()
    assert finite.entries[1].action == mult

    # the degree-1 group is the colimit of multiplication by 2(1 - sqrt(-5))
    w, den = (sys.field.one() - sqrt).scale(2).mult_pair()
    assert den == 1
    fixture = ColimitGroup(w)
    equal, witness = equal_commuting(finite.entries[1].colimit, fixture)
    assert equal and witness is None


def test_sqrt_minus_five_stable():
    sys = build_system("x^2-x+3/2")
    dual = sys.dual_system()
    assert dual.transfer_index == 2
    stable = groupoid_homology(sys.dual_system())
    assert stable.degrees() == [-2, -1, 0]
    assert stable.entry(-2).closed == LocalizedForm.localized(2)
    assert stable.entry(-1).closed is None
    # the acceptance test for criterion 2 asserts the same value and names
    # the published Z[1/6] as a deviation (docs/criterion-2.md)
    assert stable.entry(0).closed == LocalizedForm.localized(3)

    # in the dual presentation sqrt(-5) = 1 - 3/c
    sqrt = dual.field.one() - dual.c.scale(3)
    assert sqrt * sqrt == dual.field.from_rational(-5)
    w, den = (dual.field.one() + sqrt).scale(2).mult_pair()
    assert den == 1
    fixture = ColimitGroup(w)
    equal, witness = equal_commuting(stable.entry(-1).colimit, fixture)
    assert equal and witness is None
    # theta' actions on the stable side: 2, mult by 1 + sqrt(-5), 3
    assert stable.entry(-2).action == (IntMatrix([[2]]), 1)
    assert stable.entry(-1).action == (dual.field.one() + sqrt).mult_pair()
    assert stable.entry(0).action == (IntMatrix([[3]]), 1)


def test_sqrt_minus_five_stable_top_degree_is_odd():
    # stable H_0 is the dual's top degree, a 1x1 tower N' * N(g' * c);
    # docs/criterion-2.md explains why this entry decides Z[1/3]
    sys = build_system("x^2-x+3/2")
    dual = sys.dual_system()
    g, h = principalization(dual)
    entry = dual.transfer_index * g.norm() * dual.c.inverse().norm()
    assert h == 2 and entry == 2 * 3**h * Fraction(3, 2) == 3 ** (h + 1) == 27
    tower = finite_part_homology(dual).entries[2].colimit.matrix
    assert tower.rows == ((entry,),)
    assert entry % 2 == 1
    assert groupoid_homology(sys.dual_system()).entry(0).closed == LocalizedForm.localized(3)


def test_sqrt_minus_five_k_theory():
    sys = build_system("x^2-x+3/2")
    k0, k1 = k_theory(sys, finite_part_homology(sys))
    assert _closed_sum(k0.values()) == LocalizedForm.localized(3) + LocalizedForm.localized(2)
    assert {k: e.colimit.matrix for k, e in k1.items()} == {1: SQRT5_DELTAS[1]}
    assert k1[1].closed is None
    with pytest.raises(AtomClassExceeded):
        canonical_form(k1[1].colimit)


LEFSCHETZ_TABLE = {
    "x-3/2": [1, 5, 19, 65, 211, 665],
    "x^2-x-1": [1, -1, 4, -5, 11, -16],
    "x^2-x+3/2": [3, 21, 63, 105, 123, 441],
}


def test_lefschetz_traces_match_fixed_points():
    for poly, expected in LEFSCHETZ_TABLE.items():
        sys = build_system(poly)
        values = [lefschetz_trace(sys, n) for n in range(1, 7)]
        assert values == expected
        assert lefschetz_traces(sys, 6) == expected
        counts = sys.periodic_counts(6)
        assert [abs(v) for v in values] == counts


def test_hk_check_fixtures():
    for poly in ("x-3/2", "x^2-x-1", "x^2-x+3/2", "x-2"):
        report = hk_report(build_system(poly))
        assert report["verdicts"] == {"0": "equal", "1": "equal"}
        assert report["rank_identity"]


def test_transfer_colimit_klein():
    groups, transfers = klein_transfer_system()
    hom = transfer_colimit(groups, transfers)
    assert hom.degrees() == [0, 1]
    assert hom.entry(0).closed == LocalizedForm.localized(3)
    assert hom.entry(1).closed == LocalizedForm.localized(3) + LocalizedForm.torsion(2)
    assert hom.entry(2).is_zero()


def test_transfer_colimit_mixing_splits_under_powers():
    # the mixing block is nonzero but vanishes mod 2 after squaring
    group = FgAbGroup(1, (2,))
    hom = transfer_colimit([group], [endomorphism(group, IntMatrix([[3, 0], [1, 1]]))])
    assert hom.entry(0).closed == LocalizedForm.localized(3) + LocalizedForm.torsion(2)


def test_transfer_colimit_dying_torsion():
    # doubling on Z/4 eventually kills the torsion entirely
    group = FgAbGroup(0, (4,))
    hom = transfer_colimit([group], [endomorphism(group, IntMatrix([[2]]))])
    assert hom.entry(0).is_zero()


def test_kunneth_square_of_rational_fixture():
    sys = build_system("x-3/2")
    hom = groupoid_homology(sys)
    square = kunneth_product(hom, hom)
    assert square.entry(0).closed == LocalizedForm.localized(3)
    assert square.entry(1).closed == LocalizedForm.localized(6, 2)
    assert square.entry(2).closed == LocalizedForm.localized(2)


def test_rank_of_entries_without_a_colimit():
    from solhom import engine
    from solhom.cli import fixture_graded

    assert engine._ZERO_ENTRY.rank == 0
    product = kunneth_product(fixture_graded("solenoid:3/2"), fixture_graded("klein"))
    ranks = {d: product.entry(d).rank for d in product.degrees()}
    assert ranks == {d: product.entry(d).closed.free_rank for d in product.degrees()}
    assert ranks[0] == 1  # Z[1/3] (x) Z[1/3]


def test_kunneth_klein_square_and_point():
    groups, transfers = klein_transfer_system()
    klein = transfer_colimit(groups, transfers)
    square = kunneth_product(klein, klein)
    two = LocalizedForm.torsion(2)
    assert square.entry(2).closed == LocalizedForm.localized(3) + two + two + two
    assert square.entry(3).closed == two

    z = FgAbGroup(1, ())
    point = transfer_colimit([z], [endomorphism(z, IntMatrix([[1]]))])
    for graded in (klein, groupoid_homology(build_system("x^2-x-1"))):
        prod = kunneth_product(graded, point)
        assert {d: prod.entry(d).closed for d in prod.degrees()} == {
            d: graded.entry(d).closed for d in graded.degrees()
        }


def test_positive_cone():
    sys = build_system("x-3/2")
    assert positive_cone_contains(sys, {0: 1})
    assert positive_cone_contains(sys, {0: Fraction(1, 3)})
    assert positive_cone_contains(sys, {0: Fraction(5, 9)})
    assert positive_cone_contains(sys, {})
    assert positive_cone_contains(sys, {0: 0, 1: 0})
    assert not positive_cone_contains(sys, {0: -1})
    assert not positive_cone_contains(sys, {0: 0, 1: [1]})
    with pytest.raises(ValueError):
        positive_cone_contains(sys, {0: Fraction(1, 5)})
    with pytest.raises(HypothesisN1):
        positive_cone_contains(build_system("x^2-x-1"), {0: 1})
