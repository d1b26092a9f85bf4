"""The per-degree integer H/K comparison against the block-sum Fraction one.

engine.k_theory keeps each K-group as its degree entries keyed by
unstable degree, engine.hk_check compares each closed form's atom tower
with its own tower, and limits.equal_commuting tests the columns of T^(-1) as integer
columns of one fraction-free adjugate.  tests/oracles.py keeps the
routes they replaced: block_sum_hk_check (one block-diagonal matrix per
parity, built by the oracle) and fraction_equal_commuting
(RatMatrix.inverse and Fraction membership).  equal_commuting witnesses
and stages must agree.  Where the oracle reads "differ", hk_check
raises InternalCheckError for the first such parity, and the witness it
names must lie in exactly one of an entry's tower and its atom tower.
A closed form that does not commute with its tower raises NonCommuting
on both routes.  A K-group's report, the sum of its entries' closed
forms or the sum of their invariant signatures, must agree with the
block sum's closed form and isomorphism invariants.
"""

import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    block_diagonal,
    block_sum_hk_check,
    fraction_equal_commuting,
    fraction_membership_stage,
    hk_report,
)
from solhom import engine
from solhom.cli import _k_group_json
from solhom.engine import DegreeEntry, GradedGroup, finite_part_homology, hk_check, k_theory
from solhom.errors import AtomClassExceeded, CapExceeded, InternalCheckError, NonCommuting
from solhom.fgab import LocalizedForm
from solhom.limits import ColimitGroup, InvariantSignature, canonical_form, equal_commuting
from solhom.linalg import IntMatrix
from solhom.places import build_system

# ---------------------------------------------------------------------------
# graded towers


def _entry(matrix: IntMatrix, closed: LocalizedForm | None) -> DegreeEntry:
    return DegreeEntry(ColimitGroup(matrix), closed, None, "test")


def _canonical(matrix: IntMatrix) -> DegreeEntry:
    G = ColimitGroup(matrix)
    return DegreeEntry(G, canonical_form(G), None, "test")


nonzero = st.integers(-12, 12).filter(bool)


@st.composite
def rank_one(draw):
    return _canonical(IntMatrix([[draw(nonzero)]]))


@st.composite
def unimodular(draw):
    n = draw(st.integers(2, 3))
    M = IntMatrix.identity(n)
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(n)))[:2]
        E = [[int(a == b) for b in range(n)] for a in range(n)]
        E[i][j] = draw(st.integers(-3, 3))
        M = M @ IntMatrix(E)
    if draw(st.booleans()):
        M = M @ IntMatrix([[-1 if a == b == 0 else int(a == b) for b in range(n)] for a in range(n)])
    return _canonical(M)


@st.composite
def diagonal(draw):
    n = draw(st.integers(2, 3))
    d = [draw(nonzero) for _ in range(n)]
    return _canonical(IntMatrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]))


@st.composite
def no_closed_form(draw):
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2))
    M = IntMatrix(rows)
    if M.det() == 0 or abs(M.det()) == 1 or M.is_diagonal():
        M = IntMatrix([[2, 10], [-2, 2]])
    return _entry(M, None)


@st.composite
def differing(draw):
    """A rank-one tower whose closed form inverts one prime too many."""
    m = draw(nonzero)
    q = draw(st.sampled_from([p for p in (5, 7, 11, 13) if m % p]))
    return _entry(IntMatrix([[m]]), LocalizedForm.localized(abs(m) * q))


@st.composite
def non_commuting(draw):
    """An upper-triangular tower given the closed form of its diagonal:
    the atom tower has unequal diagonal entries, so the two do not
    commute."""
    a, b = draw(st.sampled_from([(2, 1), (3, 1), (2, 3), (5, 2)]))
    M = IntMatrix([[a, draw(st.integers(1, 3))], [0, b]])
    return _entry(M, LocalizedForm.localized(a) + LocalizedForm.localized(b))


degree = st.one_of(
    rank_one(), unimodular(), diagonal(), no_closed_form(), differing(), non_commuting()
)


def _graded(entries: list[DegreeEntry], shift: int):
    """(fake system, finite part) over degrees 0, 1, ...; a free degree is
    appended so the ranks add up to a power of two."""
    total = sum(e.colimit.rank for e in entries)
    size = 1
    while size < total:
        size *= 2
    if size > total:
        entries = entries + [_canonical(IntMatrix.identity(size - total))]
    sys = SimpleNamespace(degree_shift=shift, field=SimpleNamespace(degree=size.bit_length() - 1))
    return sys, GradedGroup(dict(enumerate(entries)))


PASSED = {"verdicts": {"0": "equal", "1": "equal"}, "rank_identity": True}


def _separating_entry(error: InternalCheckError, k_groups) -> DegreeEntry:
    """The entry named by hk_check's error: the parity and closed form in
    its message, with the witness lying in exactly one of the entry's
    tower and its atom tower."""
    found = re.fullmatch(r"K(\d): closed form (.+) differs from its tower; witness \((.+)\)", str(error))
    assert found, str(error)
    parity, form = int(found[1]), found[2]
    witness = [Fraction(x) for x in found[3].split(", ")]
    for e in k_groups[parity].values():
        if e.closed is not None and e.closed.pretty() == form and e.colimit.rank == len(witness):
            in_tower = fraction_membership_stage(e.colimit, witness) is not None
            in_atoms = fraction_membership_stage(engine._atom_colimit(e), witness) is not None
            if in_tower != in_atoms:
                return e
    raise AssertionError(f"no entry of K{parity} is separated by {witness}")


def _check_against_oracle(entries: list[DegreeEntry], shift: int):
    """hk_check against the block-sum oracle: its passed record when the
    oracle reads equal on both parities, None when both raise
    NonCommuting, and otherwise its InternalCheckError, which names the
    first parity that the oracle reads differ, with a witness that
    separates an entry of it from its atom tower."""
    sys, finite = _graded(entries, shift)
    try:
        want = block_sum_hk_check(sys, finite)
    except NonCommuting:
        with pytest.raises(NonCommuting):
            hk_check(sys, finite)
        return None
    assert want["rank_identity"]
    differ = [i for i, v in sorted(want["verdicts"].items()) if v == "differ"]
    if not differ:
        assert hk_check(sys, finite) == PASSED
        return PASSED
    with pytest.raises(InternalCheckError) as info:
        hk_check(sys, finite)
    assert str(info.value).startswith(f"K{differ[0]}: ")
    _separating_entry(info.value, k_theory(sys, finite))
    return info.value


@settings(max_examples=150, deadline=None)
@given(st.lists(degree, min_size=2, max_size=5), st.integers(0, 1))
def test_per_degree_verdicts_match_the_block_sum_oracle(entries, shift):
    _check_against_oracle(entries, shift)


@settings(max_examples=40, deadline=None)
@given(differing(), st.lists(degree, max_size=2), non_commuting(), st.integers(0, 1))
def test_non_commuting_degree_after_a_differing_one(first, middle, last, shift):
    # the differing and the non-commuting degree share a parity: a closed
    # form that does not commute with its tower is a bug, and the earlier
    # mismatch does not hide it
    filler = [_canonical(IntMatrix([[1]]))] if len(middle) % 2 == 0 else []
    entries = [first] + middle + filler + [last]
    sys, finite = _graded(entries, shift)
    with pytest.raises(NonCommuting):
        hk_check(sys, finite)
    assert _check_against_oracle(entries, shift) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(degree, min_size=1, max_size=3), non_commuting(), st.integers(0, 4), st.integers(0, 1))
def test_non_commuting_closed_form_raises(others, bad, at, shift):
    entries = others[:at] + [bad] + others[at:]
    sys, finite = _graded(entries, shift)
    with pytest.raises(NonCommuting):
        hk_check(sys, finite)


def test_differing_degree_raises_with_its_witness():
    entries = [
        _canonical(IntMatrix([[2, 1], [1, 1]])),
        _canonical(IntMatrix([[3]])),
        _entry(IntMatrix([[2]]), LocalizedForm.localized(6)),
        _canonical(IntMatrix([[1]])),
    ]
    error = _check_against_oracle(entries, 0)
    # 1/2 lies in Z[1/6]; 1/6 does not lie in Z[1/2].  Degree 2 is even.
    assert str(error) == "K0: closed form Z[1/6] differs from its tower; witness (1/6)"


def test_diagonal_tower_meets_its_atoms_in_diagonal_order():
    # LocalizedForm sorts diag(2, 1) into Z + Z[1/2]; the atom tower must
    # still be diag(2, 1), not diag(1, 2), another subgroup of Q^2
    entries = [_canonical(IntMatrix([[2, 0], [0, 1]])), _canonical(IntMatrix.identity(2))]
    assert _check_against_oracle(entries, 0) == PASSED
    assert engine._atom_colimit(entries[0]).matrix == IntMatrix([[2, 0], [0, 1]])
    three = _canonical(IntMatrix([[-12, 0, 0], [0, 1, 0], [0, 0, 5]]))
    assert engine._atom_colimit(three).matrix == IntMatrix([[6, 0, 0], [0, 1, 0], [0, 0, 5]])


def test_wrong_closed_form_of_a_diagonal_tower_is_caught():
    # the closed form still decides the atom tower: Z + Z[1/3] for
    # diag(2, 1) becomes diag(3, 1), which differs
    entries = [
        _entry(IntMatrix([[2, 0], [0, 1]]), LocalizedForm.free(1) + LocalizedForm.localized(3)),
        _canonical(IntMatrix.identity(2)),
    ]
    error = _check_against_oracle(entries, 0)
    assert str(error).startswith("K0: closed form Z + Z[1/3] differs from its tower")


def test_k_groups_are_the_entries_of_each_parity():
    entries = [
        _canonical(IntMatrix([[3]])),
        _entry(IntMatrix([[2, 10], [-2, 2]]), None),
        _canonical(IntMatrix([[2]])),
        _canonical(IntMatrix([[5]])),
    ]
    # degree k has unstable degree k - 1; degree 4 is the appended Z^3
    sys, finite = _graded(entries, 1)
    k0, k1 = k_theory(sys, finite)
    assert k0 == {0: entries[1], 2: entries[3]}
    assert k1 == {-1: entries[0], 1: entries[2], 3: finite.entries[4]}


def test_wrong_canonical_form_is_caught(monkeypatch):
    """hk_check is live: a closed form with a changed radical raises."""

    def wrong(G):
        atoms = [("inv", m * 5) if kind == "inv" else (kind, m) for kind, m in canonical_form(G).atoms]
        return LocalizedForm(atoms)

    assert hk_report(build_system("x-3/2")) == PASSED
    monkeypatch.setattr(engine, "canonical_form", wrong)
    sys = build_system("x-3/2")
    finite = finite_part_homology(sys)
    with pytest.raises(InternalCheckError) as info:
        hk_check(sys, finite)
    assert str(info.value).startswith("K0: closed form Z[1/15] differs from its tower")
    _separating_entry(info.value, k_theory(sys, finite))


# ---------------------------------------------------------------------------
# the closed forms canonical_form gives, certified from integer identities

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def atom_class_entry(draw):
    """A rank-one, diagonal (negative entries and +-1 included) or
    unimodular tower with its canonical closed form, or with that form
    mutated: a prime too many, a prime dropped, or Z turned into Z[1/p]."""
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["diagonal", "unimodular"]))
    if shape == "diagonal":
        d = [draw(nonzero) for _ in range(n)]
        M = IntMatrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    else:
        M = draw(unimodular()).colimit.matrix
    G = ColimitGroup(M)
    moduli = [m if kind == "inv" else 1 for kind, m in canonical_form(G).atoms]
    i = draw(st.integers(0, len(moduli) - 1))
    m = moduli[i]
    mutation = draw(st.sampled_from(["none", "extra", "dropped", "swap"]))
    if mutation == "extra":
        moduli[i] = m * draw(st.sampled_from([p for p in SMALL_PRIMES if m % p]))
    elif mutation == "dropped" and m > 1:
        moduli[i] = m // min(p for p in SMALL_PRIMES if m % p == 0)
    elif mutation == "swap" and m == 1:
        moduli[i] = draw(st.sampled_from(SMALL_PRIMES))
    return DegreeEntry(G, LocalizedForm(("inv", m) for m in moduli), None, "test")


@settings(max_examples=300, deadline=None)
@given(atom_class_entry(), st.integers(0, 1))
def test_certified_degrees_agree_with_equal_commuting(e, shift):
    # hk_check's outcome on an atom-class degree is equal_commuting's
    # verdict and witness against its atom tower, or its NonCommuting (a
    # unimodular tower against a mutated diagonal); the canonical forms
    # are certified without it, the mutated ones go to it
    sys, finite = _graded([e], shift)
    try:
        equal, witness = equal_commuting(e.colimit, engine._atom_colimit(e))
    except NonCommuting:
        assert not engine._certified(e)
        with pytest.raises(NonCommuting):
            hk_check(sys, finite)
        return
    assert engine._certified(e) is equal
    if equal:
        assert hk_check(sys, finite) == PASSED
        return
    with pytest.raises(InternalCheckError) as info:
        hk_check(sys, finite)
    shown = ", ".join(map(str, witness))
    want = f"K{shift}: closed form {e.closed.pretty()} differs from its tower; witness ({shown})"
    assert str(info.value) == want


def test_certified_degrees_take_no_membership_test(monkeypatch):
    # a report's closed forms are certified from integer identities:
    # no degree of these reports reaches equal_commuting
    def refuse(*args):
        raise AssertionError("membership test on a certified degree")

    monkeypatch.setattr(ColimitGroup, "membership_stage", refuse)
    monkeypatch.setattr(engine, "equal_commuting", refuse)
    for poly in ("x-3/2", "x^2-x+3/2", "x^2-79/4", "x^3-x-1", "x^4-x-1"):
        sys = build_system(poly)
        for side in (sys, sys.dual_system()):
            assert hk_report(side) == PASSED


def test_diagonal_tower_with_a_wrong_determinant_is_caught(monkeypatch):
    # a Sylvester-Franke determinant off the product of the diagonal:
    # diag(2, 3) with det 9; the diagonal route declines it, and
    # equal_commuting's adjugate check vector raises
    A = IntMatrix([[2, 0], [0, 3]])
    monkeypatch.setattr(engine, "exterior_power_det", lambda det_a, d, k: 9)
    tower = engine._ladder_tower(engine._exterior_ladder(A, 2), 1, 1, 1, {2, 3})
    assert tower.matrix == A and tower.det == 9
    entry = DegreeEntry(tower, LocalizedForm.localized(2) + LocalizedForm.localized(3), None, "test")
    sys, finite = _graded([entry], 0)
    with pytest.raises(InternalCheckError, match="adjugate and determinant disagree on the check vector"):
        hk_check(sys, finite)


def test_unimodular_tower_with_a_wrong_adjugate_is_caught(monkeypatch):
    # degree 1 of the unit x^3-x-1 has determinant +-1 and closed form
    # Z^3; one entry of its Jacobi adjugate perturbed fails the check vector
    scaled = engine._scaled_complement

    def perturbed(X, d, k, num, den):
        adj = scaled(X, d, k, num, den)
        if d - k != 1:
            return adj
        rows = [list(row) for row in adj.rows]
        rows[0][0] += 1
        return IntMatrix(rows)

    monkeypatch.setattr(engine, "_scaled_complement", perturbed)
    sys = build_system("x^3-x-1")
    finite = finite_part_homology(sys)
    assert abs(finite.entries[1].colimit.det) == 1 and finite.entries[1].closed == LocalizedForm.free(3)
    with pytest.raises(InternalCheckError, match="adjugate and determinant disagree on the check vector"):
        hk_check(sys, finite)


# ---------------------------------------------------------------------------
# equal_commuting and membership against the Fraction route


def _poly_in(M: IntMatrix, coeffs: list[int]) -> IntMatrix:
    out = IntMatrix.identity(M.nrows).scale(0)
    power = IntMatrix.identity(M.nrows)
    for c in coeffs:
        out = out + power.scale(c)
        power = power @ M
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
def test_equal_commuting_matches_the_fraction_route(rows, p, q):
    M = IntMatrix(rows)
    A, B = _poly_in(M, p), _poly_in(M, q)
    if A.det() == 0 or B.det() == 0:
        return
    G, H = ColimitGroup(A), ColimitGroup(B)
    assert equal_commuting(G, H) == fraction_equal_commuting(G, H)


@pytest.mark.parametrize(
    "a, b, equal",
    [
        ([[1, 1], [1, -1]], [[2, 0], [0, 2]], True),  # det -2; A^2 = 2I
        ([[0, 1], [1, 1]], [[1, 1], [1, 2]], True),  # det -1 against its square
        ([[-3]], [[6]], False),
        ([[-2, 1], [1, -2]], [[2, -1], [-1, 2]], True),
    ],
)
def test_negative_determinants(a, b, equal):
    G, H = ColimitGroup(IntMatrix(a)), ColimitGroup(IntMatrix(b))
    got = equal_commuting(G, H)
    assert got == fraction_equal_commuting(G, H)
    assert got[0] is equal


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
        )
    ),
    st.sampled_from([1, -1, 2, -4, 6, 9, -12, 35, 64]),
)
def test_membership_stage_matches_the_fraction_route(case, den):
    rows, num = case
    M = IntMatrix(rows)
    if M.det() == 0:
        return
    G = ColimitGroup(M)
    want = fraction_membership_stage(G, [Fraction(x, den) for x in num])
    assert G.membership_stage(num, den) == want
    assert G.membership_stage([Fraction(x, den) for x in num]) == want


def test_membership_stage_numbers_and_overscan():
    G = ColimitGroup(IntMatrix([[2]]))
    assert G.membership_stage([1], 8) == G.membership_stage([-1], -8) == 3
    assert G.membership_stage([6], 8) == 2
    assert G.membership_stage([1], 3) is None
    # a wrong factorization of the determinant shrinks the proven bound
    # (Omega(4) reads as 1): the witness at stage 2 lies in the overscan
    for stage in (G.membership_stage, lambda v: fraction_membership_stage(G, v)):
        G.__dict__["det_primes"] = (4,)
        with pytest.raises(CapExceeded):
            stage([Fraction(1, 4)])


# ---------------------------------------------------------------------------
# K-group reports: the sum of the entries' closed forms


def _k_signature(form: LocalizedForm, primes) -> InvariantSignature:
    """Rank and mod-p ranks read off atoms Z and Z[1/m]: Z[1/m]/p is 0
    when p divides m and Z/p otherwise."""
    ranks = tuple((p, sum(1 for kind, m in form.atoms if not (kind == "inv" and m % p == 0))) for p in primes)
    return InvariantSignature(form.free_rank, ranks)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(rank_one(), unimodular(), diagonal(), no_closed_form()), min_size=1, max_size=4))
def test_k_group_report_agrees_with_the_block_sum(entries):
    block = ColimitGroup(block_diagonal([e.colimit.matrix for e in entries]))
    want = InvariantSignature.of(block)
    record = _k_group_json(dict(enumerate(entries)))
    try:
        assert record["group"] == canonical_form(block).pretty()
    except AtomClassExceeded:
        pass
    if all(e.closed is not None for e in entries):
        form = LocalizedForm([atom for e in entries for atom in e.closed.atoms])
        assert record == {"group": form.pretty(), "provenance": "canonical_form"}
        assert _k_signature(form, block.det_primes) == want
    else:
        # the degrees it sums and the block sum's signature; no tower
        assert record == {
            "group": " + ".join(f"H_{k}" for k in range(len(entries))),
            "signature": {"rank": want.rank, "mod_p_ranks": [list(pair) for pair in want.mod_p_ranks]},
            "provenance": "degree sum (signature-only)",
        }


def test_k_group_of_a_unimodular_and_a_localized_entry():
    # canonical_form of the block sum diag([4], [[2, 1], [1, 1]]) finds no
    # class (neither unimodular nor diagonal); the sum of the closed forms
    # is the group
    entries = [_canonical(IntMatrix([[4]])), _canonical(IntMatrix([[2, 1], [1, 1]]))]
    block = ColimitGroup(block_diagonal([e.colimit.matrix for e in entries]))
    with pytest.raises(AtomClassExceeded):
        canonical_form(block)
    assert _k_group_json(dict(enumerate(entries))) == {"group": "Z^2 + Z[1/2]", "provenance": "canonical_form"}
    assert _k_signature(LocalizedForm.free(2) + LocalizedForm.localized(2), block.det_primes) == block.signature


nonsingular = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)
).map(IntMatrix).filter(lambda M: M.det() != 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(nonsingular, min_size=1, max_size=4))
def test_summed_signature_is_the_signature_of_the_block_sum(towers):
    summed = InvariantSignature.direct_sum(ColimitGroup(T).signature for T in towers)
    assert summed == InvariantSignature.of(ColimitGroup(block_diagonal(towers)))


def test_summed_signature_where_p_divides_one_determinant():
    # 5 divides only the first determinant (det 10): the second summand
    # (det 3) is invertible mod 5 and counts its full rank 2 there
    first = IntMatrix([[2, 4], [1, 7]])
    second = IntMatrix([[1, 1], [1, 4]])
    summed = InvariantSignature.direct_sum([ColimitGroup(first).signature, ColimitGroup(second).signature])
    assert summed == InvariantSignature.of(ColimitGroup(block_diagonal([first, second])))
    assert summed == InvariantSignature(4, ((2, 3), (3, 3), (5, 3)))
