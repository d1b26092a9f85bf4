"""Classified abelian groups, atoms, tensor/Tor, Kunneth."""

from __future__ import annotations

import random

import pytest

from solhom import fgab

from solhom.errors import AtomClassExceeded
from solhom.fgab import (
    FgAbGroup,
    GroupHom,
    LocalizedForm,
    endomorphism,
    kunneth,
    localized_from_fgab,
)
from solhom.linalg import IntMatrix
from oracles import compose, from_presentation, tensor, tensor_invariant_factors, tor, tor_invariant_factors


Z = LocalizedForm.free(1)


def test_from_presentation_frozen():
    assert from_presentation(2, [[2, 0]]) == FgAbGroup(1, (2,))
    assert from_presentation(2, [[2, 4], [6, 8]]) == FgAbGroup(0, (2, 4))
    assert from_presentation(1, []) == FgAbGroup(1)
    assert from_presentation(3, [[1, 0, 0]]) == FgAbGroup(2)
    assert from_presentation(1, [[1]]).is_trivial()


def test_divisibility_chain_enforced():
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1, 2))


def test_replace_validates_like_the_constructor():
    g = FgAbGroup(0, (2,))
    assert g._replace(torsion=(2, 4)) == FgAbGroup(0, (2, 4))
    assert repr(g._replace(free_rank=1)) == "FgAbGroup(free_rank=1, torsion=(2,))"
    with pytest.raises(ValueError):
        g._replace(torsion=(4, 2))
    with pytest.raises(ValueError):
        g._replace(free_rank=-1)
    hom = GroupHom(g, FgAbGroup(0, (4,)), IntMatrix([[2]]))
    with pytest.raises(ValueError):
        hom._replace(matrix=IntMatrix([[1]]))


def test_elementary_divisors():
    assert FgAbGroup(0, (2, 6)).elementary_divisors() == (2, 2, 3)
    assert FgAbGroup(1, (12,)).elementary_divisors() == (3, 4)


def test_group_hom_validation():
    z_mod2 = FgAbGroup(0, (2,))
    free = FgAbGroup(1)
    # torsion cannot map to free
    with pytest.raises(ValueError):
        GroupHom(z_mod2, free, IntMatrix([[1]]))
    GroupHom(z_mod2, free, IntMatrix([[0]]))
    # Z/2 -> Z/4 must land in the 2-torsion
    z_mod4 = FgAbGroup(0, (4,))
    with pytest.raises(ValueError):
        GroupHom(z_mod2, z_mod4, IntMatrix([[1]]))
    GroupHom(z_mod2, z_mod4, IntMatrix([[2]]))


def test_endomorphism_compose():
    g = FgAbGroup(1, (2,))
    e = endomorphism(g, IntMatrix([[3, 0], [0, 1]]))
    sq = compose(e, e)
    assert sq.matrix == IntMatrix([[9, 0], [0, 1]])


def test_localized_form_normalization():
    assert LocalizedForm.localized(9) == LocalizedForm.localized(3)
    assert LocalizedForm.localized(1) == Z
    assert LocalizedForm.torsion(6) == LocalizedForm.torsion(2) + LocalizedForm.torsion(3)
    assert LocalizedForm.torsion(1).is_zero()
    with pytest.raises(ValueError):
        LocalizedForm([("tor", 6)])


def test_pretty():
    form = LocalizedForm.free(2) + LocalizedForm.localized(6) + LocalizedForm.torsion(2)
    assert form.pretty() == "Z^2 + Z[1/6] + Z/2"
    assert LocalizedForm.zero().pretty() == "0"
    assert (LocalizedForm.torsion(2) + LocalizedForm.torsion(2)).pretty() == "(Z/2)^2"


def test_tensor_rules_frozen():
    half = LocalizedForm.localized(2)
    third = LocalizedForm.localized(3)
    assert half.tensor(third) == LocalizedForm.localized(6)
    assert LocalizedForm.localized(6).tensor(LocalizedForm.localized(10)) == LocalizedForm.localized(30)
    assert half.tensor(LocalizedForm.torsion(2)).is_zero()
    assert half.tensor(LocalizedForm.torsion(3)) == LocalizedForm.torsion(3)
    assert LocalizedForm.torsion(4).tensor(LocalizedForm.torsion(6)) == LocalizedForm.torsion(2)
    assert Z.tensor(half) == half
    assert LocalizedForm.zero().tensor(half).is_zero()


def test_tensor_commutative_random():
    rng = random.Random(9)
    pool = [
        Z,
        LocalizedForm.free(2),
        LocalizedForm.localized(2),
        LocalizedForm.localized(15),
        LocalizedForm.torsion(4),
        LocalizedForm.torsion(9),
        LocalizedForm.localized(3) + LocalizedForm.torsion(8),
    ]
    for _ in range(30):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert a.tensor(b) == b.tensor(a)
        assert a.tensor(b.tensor(c)) == a.tensor(b).tensor(c)
        assert a.tor(b) == b.tor(a)


def test_tor_rules():
    assert tor(FgAbGroup(0, (4,)), FgAbGroup(0, (6,))) == LocalizedForm.torsion(2)
    assert tor(FgAbGroup(1), FgAbGroup(0, (5,))).is_zero()
    assert LocalizedForm.localized(2).tor(LocalizedForm.torsion(2)).is_zero()


def test_tensor_matches_presentation_oracle():
    rng = random.Random(15)
    chains = [(), (2,), (3,), (2, 4), (6,), (2, 6), (12,), (5, 5)]
    for _ in range(40):
        fa, fb = rng.randint(0, 2), rng.randint(0, 2)
        ta, tb = rng.choice(chains), rng.choice(chains)
        A, B = FgAbGroup(fa, ta), FgAbGroup(fb, tb)
        got = tensor(A, B)
        free = sum(1 for kind, _ in got.atoms if kind == "free")
        tors = sorted(d for kind, d in got.atoms if kind == "tor")
        assert (free, tors) == tensor_invariant_factors(fa, list(ta), fb, list(tb))
        got_tor = tor(A, B)
        tors2 = sorted(d for kind, d in got_tor.atoms if kind == "tor")
        assert tors2 == tor_invariant_factors(list(ta), list(tb))
        assert not any(kind != "tor" for kind, _ in got_tor.atoms)


def test_kunneth_point_identity():
    a = {0: LocalizedForm.localized(3), 1: LocalizedForm.localized(2)}
    point = {0: Z}
    assert kunneth(a, point) == a
    assert kunneth(point, a) == a


def test_kunneth_tor_shift_frozen():
    a = {0: Z, 1: LocalizedForm.torsion(2)}
    out = kunneth(a, a)
    assert out == {
        0: Z,
        1: LocalizedForm.torsion(2) + LocalizedForm.torsion(2),
        2: LocalizedForm.torsion(2),
        3: LocalizedForm.torsion(2),  # Tor(Z/2, Z/2) lands one degree up
    }


def test_kunneth_negative_degrees():
    a = {-1: Z, 0: LocalizedForm.free(2)}
    out = kunneth(a, a)
    assert out == {-2: Z, -1: LocalizedForm.free(4), 0: LocalizedForm.free(4)}


def test_coerce_rejects_garbage():
    with pytest.raises(AtomClassExceeded):
        tensor("Z", FgAbGroup(1))  # type: ignore[arg-type]


def test_localized_from_fgab():
    g = FgAbGroup(2, (2, 6))
    assert localized_from_fgab(g) == LocalizedForm.free(2) + LocalizedForm.torsion(2) + LocalizedForm.torsion(2) + LocalizedForm.torsion(3)


def test_sums_keep_the_normal_atoms_and_factor_nothing(monkeypatch):
    rng = random.Random(26)
    makers = [
        lambda: LocalizedForm.free(rng.randint(0, 2)),
        lambda: LocalizedForm.localized(rng.choice([2, 12, 30, 49, 1001]), rng.randint(1, 2)),
        lambda: LocalizedForm.torsion(rng.choice([1, 4, 12, 27, 360])),
    ]
    pairs = [(rng.choice(makers)(), rng.choice(makers)()) for _ in range(60)]
    expected = [LocalizedForm(a.atoms + b.atoms) for a, b in pairs]

    def refuse(*_args):
        raise AssertionError("a sum of normal forms factored an atom")

    monkeypatch.setattr(fgab, "radical", refuse)
    monkeypatch.setattr(fgab, "factorint", refuse)
    for (a, b), want in zip(pairs, expected):
        total = a + b
        assert total == want and hash(total) == hash(want)
        assert total.pretty() == want.pretty()
