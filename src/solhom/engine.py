"""Homology, K-theory shadow, and trace data of a solenoid system.

The finite-part chain groups are exterior powers of the ring of
integers.  One self-map step multiplies by c and applies the transfer,
which on degree k acts as N times the k-th exterior power of
multiplication by 1/c.  That map does not preserve the reference
lattice when c has expanding finite places, so the tower is flattened
first: a generator g of a principal power of the expanding ideal is
folded in, replacing the step by an integer matrix on the same lattice
without changing the colimit.

All of this runs on integers: a multiplication matrix is a pair A / m
(NfElement.mult_pair), its k-th exterior power is Lambda^k(A) / m^k,
and Lefschetz rows are integer determinants, each divided exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    AtomClassExceeded,
    DegenerateFix,
    FlatteningFailure,
    HypothesisN1,
    InternalCheckError,
)
from .fgab import FgAbGroup, GroupHom, LocalizedForm, _atom_sort_key, kunneth, localized_from_fgab
from .intfactor import factorint
from .limits import (
    ColimitGroup,
    canonical_form,
    equal_commuting,
    free_colimit,
    torsion_colimit,
)
from .linalg import IntMatrix, exterior_power_matrix
from .nfield import FractionalIdeal, NfElement, principal_generator
from .places import SolenoidSystem

# Powers tried when splitting a transfer endomorphism off its torsion.
MAX_SPLITTING_POWER = 24


class DegreeEntry(NamedTuple):
    """One graded piece: the colimit presentation, its closed form when
    one exists in the supported atom class, and the reported self-map
    as a reduced pair (A, m): the matrix A / m with m > 0 and
    gcd(m, entries of A) = 1."""

    colimit: ColimitGroup | None
    closed: LocalizedForm | None
    action: tuple[IntMatrix, int] | None
    provenance: str

    @property
    def rank(self) -> int:
        if self.colimit is not None:
            return self.colimit.rank
        if self.closed is not None:
            return self.closed.free_rank
        return 0

    def is_zero(self) -> bool:
        if self.colimit is not None and self.colimit.rank > 0:
            return False
        return self.closed is None or self.closed.is_zero()

    def pretty(self) -> str:
        if self.closed is not None:
            return self.closed.pretty()
        if self.colimit is not None:
            return f"colim(Z^{self.colimit.rank}, {self.colimit.matrix.rows})"
        return "0"


_ZERO_ENTRY = DegreeEntry(None, LocalizedForm.zero(), None, "trivial")


class GradedGroup:
    """Finitely supported family of groups indexed by an integer degree.

    A finite part keeps the (g, h) of principalization its tower was
    flattened with.
    """

    def __init__(
        self,
        entries: dict[int, DegreeEntry],
        principalization: tuple[NfElement, int] | None = None,
    ):
        self.entries = entries
        self.principalization = principalization

    def __repr__(self) -> str:
        return f"GradedGroup(entries={self.entries!r}, principalization={self.principalization!r})"

    def degrees(self) -> list[int]:
        return sorted(k for k, e in self.entries.items() if not e.is_zero())

    def entry(self, k: int) -> DegreeEntry:
        return self.entries.get(k, _ZERO_ENTRY)

    def closed_forms(self) -> dict[int, LocalizedForm]:
        """Degrees with a nonzero closed form; raises when some nonzero
        entry has none, since downstream formulas need the atom data."""
        out: dict[int, LocalizedForm] = {}
        for k in sorted(self.entries):
            e = self.entries[k]
            if e.is_zero():
                continue
            if e.closed is None:
                raise AtomClassExceeded(f"degree {k} entry has no closed form")
            out[k] = e.closed
        return out


def principalization(sys: SolenoidSystem) -> tuple[NfElement, int]:
    """Generator g and the least exponent h with (g) equal to the h-th
    power of the expanding ideal, the order of its class.  Without
    expanding finite places the ideal is the whole ring and g = 1."""
    field = sys.field
    if not sys.finite_unstable:
        return field.one(), 1
    ideal = FractionalIdeal.ring_of_integers(field)
    for fp in sys.finite_unstable:
        ideal = ideal * fp.prime.power(-fp.valuation)
    # Degree 2: h divides the class number, at most the number of reduced
    # forms of discriminant D, <= 2|D| (docs/principalization.md).  Degree
    # 1 stops at h = 1.  Degree >= 3: 12 is a heuristic search limit for
    # principal_generator's small box, not a class-number fact.
    limit = 2 * abs(field.discriminant) if field.degree == 2 else 12
    power = ideal
    for h in range(1, limit + 1):
        gen = principal_generator(power)
        if gen is not None:
            return gen, h
        power = power * ideal
    error = InternalCheckError if field.degree == 2 else FlatteningFailure
    raise error(f"no principal power of the expanding ideal up to exponent {limit}")


def finite_part_homology(sys: SolenoidSystem) -> GradedGroup:
    """Homology of the finite-place tower, graded by exterior degree
    0..[K:Q].

    Degree k is the colimit of the integer matrix N * Lambda^k(m_{g/c})
    in the integral basis.  The stored action is the untwisted transfer
    step N * Lambda^k(m_{1/c}), whose traces feed the fixed-point
    formula, as the pair (N * Lambda^k(A), m^k) for m_{1/c} = A / m,
    reduced.  It differs from the tower matrix by the flattening factor
    Lambda^k(m_g), which is invertible in the colimit, and integral
    once g is: its entries are minors of an integer matrix.
    """
    field = sys.field
    n_index = sys.transfer_index
    g, h = principalization(sys)
    if g.integer_coords()[1] != 1:
        raise FlatteningFailure("principal generator is not integral")
    c_inv = sys.c.inverse()
    a_flat, m_flat = (g * c_inv).mult_pair()
    a_theta, m_theta = c_inv.mult_pair()

    entries: dict[int, DegreeEntry] = {}
    for k in range(field.degree + 1):
        flat, den = exterior_power_matrix(a_flat, k).rows, m_flat**k
        if any(n_index * x % den for row in flat for x in row):
            raise FlatteningFailure(f"transfer matrix at degree {k} is not integral")
        delta = IntMatrix([[n_index * x // den for x in row] for row in flat])
        tower = ColimitGroup(delta)
        try:
            closed = canonical_form(tower)
            provenance = "canonical_form_rank1" if tower.rank == 1 else "canonical_form"
        except AtomClassExceeded:
            closed = None
            provenance = "tower"
        theta, den = exterior_power_matrix(a_theta, k).rows, m_theta**k
        common = math.gcd(den, *(n_index * x for row in theta for x in row))
        action = IntMatrix([[n_index * x // common for x in row] for row in theta]), den // common
        entries[k] = DegreeEntry(tower, closed, action, provenance)
    return GradedGroup(entries, (g, h))


def shifted_homology(base: SolenoidSystem, finite: GradedGroup) -> GradedGroup:
    """A finite part of base re-indexed by base's contracting dimension.

    Reported self-maps pick up the orientation sign of the archimedean
    part on odd degrees.
    """
    shift = base.degree_shift
    sign = base.orientation_sign
    entries: dict[int, DegreeEntry] = {}
    for k, e in finite.entries.items():
        degree = k - shift
        action = e.action
        if action is not None and sign == -1 and degree % 2 != 0:
            action = action[0].scale(-1), action[1]
        entries[degree] = DegreeEntry(e.colimit, e.closed, action, e.provenance)
    return GradedGroup(entries)


def groupoid_homology(sys: SolenoidSystem, side: str = "unstable") -> GradedGroup:
    """Homology of the chosen side; the stable side is the dual system's
    unstable side."""
    if side not in ("unstable", "stable"):
        raise ValueError(f"side must be 'stable' or 'unstable', not {side!r}")
    base = sys if side == "unstable" else sys.dual_system()
    return shifted_homology(base, finite_part_homology(base))


def duality_check(sys: SolenoidSystem, unstable: GradedGroup, stable: GradedGroup) -> None:
    """Jacobi's complementary-minor identity between the two sides,
    which share one integral basis (docs/duality.md): the stable action
    in degree -j is eps_j P_k U_j^T P_k^-1, where U_j is the unstable
    action in degree j = k - shift, P_k sends the k-subset I to its
    complement with sign (-1)^(sum I), and eps_j = sign N(c) for even j,
    1 for odd j.  A mismatch raises InternalCheckError.
    """
    d = sys.field.degree
    sign = 1 if sys.c.norm() > 0 else -1
    for j, entry in unstable.entries.items():
        k = j + sys.degree_shift
        subsets = list(combinations(range(d), k))
        slot = {I: i for i, I in enumerate(combinations(range(d), d - k))}
        complement = [slot[tuple(x for x in range(d) if x not in I)] for I in subsets]
        eps = 1 if j % 2 else sign
        U, den = entry.action
        expected = [[0] * len(subsets) for _ in subsets]
        for a, I in enumerate(subsets):
            for b, J in enumerate(subsets):
                # entry (J^c, I^c) of the stable action
                expected[complement[b]][complement[a]] = (
                    eps * (-1) ** (sum(I) + sum(J)) * U.rows[a][b]
                )
        if stable.entry(-j).action != (IntMatrix(expected), den):
            raise InternalCheckError(
                f"stable action in degree {-j} is not the Jacobi dual of unstable degree {j}"
            )


def k_theory(
    sys: SolenoidSystem, finite: GradedGroup
) -> tuple[list[DegreeEntry], list[DegreeEntry]]:
    """The two K-groups, each the list of the finite part's degree
    entries of one parity of shifted degree, in degree order: K_i is the
    direct sum of their colimits, the colimit of the block sum of their
    towers."""
    shift = sys.degree_shift
    out: tuple[list[DegreeEntry], list[DegreeEntry]] = ([], [])
    for k in sorted(finite.entries):
        out[(k - shift) % 2].append(finite.entries[k])
    if not all(out):
        raise InternalCheckError("empty parity class in the K-group sum")
    return out


def _atom_colimit(e: DegreeEntry) -> ColimitGroup:
    """The canonical atom tower of a degree with a closed form: the
    diagonal matrix with 1 for each Z and m for each Z[1/m].

    LocalizedForm sorts its atoms, so for a diagonal tower they are put
    back in the order of its own diagonal: the i-th smallest atom goes
    where the i-th smallest diagonal radical sits, and diag(2, 1) with
    closed form Z + Z[1/2] meets diag(2, 1), not diag(1, 2), which is
    another subgroup of Q^2.
    """
    atoms = list(e.closed.atoms)
    if any(kind == "tor" for kind, _ in atoms):
        raise InternalCheckError("torsion atom inside a free colimit comparison")
    T = e.colimit.matrix
    n = len(atoms)
    if n > 1 and T.nrows == n and T.is_diagonal():
        own = [LocalizedForm.localized(abs(T.rows[i][i])).atoms[0] for i in range(n)]
        slots = sorted(range(n), key=lambda i: _atom_sort_key(own[i]))
        for i, atom in zip(slots, e.closed.atoms):
            atoms[i] = atom
    diag = [m if kind == "inv" else 1 for kind, m in atoms]
    return ColimitGroup(IntMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]))


def hk_check(
    sys: SolenoidSystem,
    finite: GradedGroup,
    k_groups: tuple[list[DegreeEntry], list[DegreeEntry]],
) -> dict:
    """Re-certify each K-group summand's closed form against its tower.

    K_i is the direct sum of the colimits of its entries, so its closed
    form is the sum of theirs, and it is right when each closed form in
    it equals its own tower's colimit.  An entry without a closed form is
    its own summand and is not compared.  So this re-certifies
    canonical_form; it is not an independent check of the HK conjecture.
    A closed form that differs from its atom tower raises
    InternalCheckError naming the parity, the closed form and the witness
    of equal_commuting, as does a failed rank identity.  Every closed
    form commutes with its atom tower (rank one, unimodular against I,
    diagonal), so a NonCommuting from equal_commuting is a bug; it
    propagates, and the comparisons go on past a mismatch so that none
    is hidden.  The record returned is that of the passed check.
    """
    differ = None
    for i, entries in enumerate(k_groups):
        for e in entries:
            if e.closed is not None:
                equal, witness = equal_commuting(e.colimit, _atom_colimit(e))
                if not equal and differ is None:
                    shown = "none: ranks differ" if witness is None else ", ".join(map(str, witness))
                    differ = f"K{i}: closed form {e.closed.pretty()} differs from its tower; "
                    differ += f"witness ({shown})"
    if differ is not None:
        raise InternalCheckError(differ)
    if sum(e.rank for e in finite.entries.values()) != 2 ** sys.field.degree:
        raise InternalCheckError("degree ranks do not add up to 2^[K:Q]")
    return {"verdicts": {"0": "equal", "1": "equal"}, "rank_identity": True}


def lefschetz_traces(sys: SolenoidSystem, n: int) -> list[int]:
    """Alternating trace sums of the powers 1..n of the transfer action.

    Row k equals N^k det(I - m_{1/c}^k), an integer whose absolute value
    is the number of points of period k.  With m_{1/c} = A / m for an
    integer A, that is N^k det(m^k I - A^k) / m^(kd); the powers of A are
    carried from one row to the next.
    """
    d = sys.field.degree
    A, m = sys.c.inverse().mult_pair()
    power = IntMatrix.identity(d)
    out = []
    for k in range(1, n + 1):
        power = power @ A
        det = (IntMatrix.identity(d).scale(m**k) - power).det()
        # the conjugates of c^-k are the eigenvalues of m_{1/c}^k, and one
        # of them is 1 exactly when c^k = 1
        if det == 0:
            raise DegenerateFix(f"c^{k} = 1, the fixed set is not finite")
        value, den = sys.transfer_index**k * det, m ** (k * d)
        if value % den:
            raise InternalCheckError("trace sum is not an integer")
        out.append(value // den)
    return out


def positive_cone_contains(sys: SolenoidSystem, components: Mapping[int, object]) -> bool:
    """Order structure on the graded total group when N > 1: an element
    is positive iff it is zero or its degree-zero part is a strictly
    positive element of Z[1/N].

    Components map shifted degrees to a rational (degree zero has rank
    one) or a sequence of rationals.
    """
    if sys.transfer_index == 1:
        raise HypothesisN1("the order structure needs transfer index N > 1")
    normalized: dict[int, list[Fraction]] = {}
    for deg, value in components.items():
        if isinstance(value, (list, tuple)):
            normalized[deg] = [Fraction(v) for v in value]
        else:
            normalized[deg] = [Fraction(value)]
    if all(all(v == 0 for v in vec) for vec in normalized.values()):
        return True
    head = normalized.get(0, [Fraction(0)])
    if len(head) != 1:
        raise ValueError("the degree-zero component has rank one")
    lead = head[0]
    if lead == 0:
        return False
    n_primes = set(factorint(sys.transfer_index))
    if any(p not in n_primes for p in factorint(lead.denominator)):
        raise ValueError(f"{lead} does not lie in Z[1/{sys.transfer_index}]")
    return lead > 0


def _split_blocks(matrix: IntMatrix, free_rank: int) -> tuple[IntMatrix | None, list[list[int]], IntMatrix | None]:
    """Free, mixing, and torsion blocks of an endomorphism matrix in
    free-then-torsion generator order."""
    n = matrix.nrows
    free = (
        IntMatrix([row[:free_rank] for row in matrix.rows[:free_rank]])
        if free_rank
        else None
    )
    mixing = [row[:free_rank] for row in matrix.rows[free_rank:]]
    tors = (
        IntMatrix([row[free_rank:] for row in matrix.rows[free_rank:]])
        if n > free_rank
        else None
    )
    return free, mixing, tors


def _stationary_entry(group: FgAbGroup, transfer: GroupHom | None) -> DegreeEntry:
    if group.is_trivial():
        return DegreeEntry(None, LocalizedForm.zero(), None, "trivial")
    if transfer is None:
        raise ValueError("a nontrivial degree group needs a transfer map")
    if transfer.domain != group or transfer.codomain != group:
        raise ValueError("transfer must be an endomorphism of its degree group")

    fr = group.free_rank
    orders = group.torsion
    power = transfer.matrix
    for _ in range(MAX_SPLITTING_POWER):
        free_blk, mixing, tor_blk = _split_blocks(power, fr)
        clean = all(
            entry % orders[i] == 0
            for i, row in enumerate(mixing)
            for entry in row
        )
        if clean:
            break
        power = power @ transfer.matrix
    else:
        raise AtomClassExceeded("transfer does not split from its torsion under powers")

    closed = LocalizedForm.zero()
    tower: ColimitGroup | None = None
    if fr:
        tower = free_colimit(free_blk)
        closed = closed + canonical_form(tower)
    if orders:
        finite = FgAbGroup(0, orders)
        relations = IntMatrix([
            [orders[i] if i == j else 0 for j in range(len(orders))]
            for i in range(len(orders))
        ])
        stationary = torsion_colimit(finite, relations, tor_blk)
        closed = closed + localized_from_fgab(stationary)
    return DegreeEntry(tower, closed, (transfer.matrix, 1), "transfer_colimit")


def transfer_colimit(
    groups: Sequence[FgAbGroup], transfers: Sequence[GroupHom | None]
) -> GradedGroup:
    """Colimit of a degreewise stationary system: one classified group
    and one self-map per degree, starting at degree zero.  Trivial
    degrees take None in place of a map."""
    if len(groups) != len(transfers):
        raise ValueError("need one transfer per degree group")
    entries = {
        deg: _stationary_entry(grp, hom)
        for deg, (grp, hom) in enumerate(zip(groups, transfers))
    }
    return GradedGroup(entries)


def kunneth_product(a: GradedGroup, b: GradedGroup) -> GradedGroup:
    """Graded product: tensor terms on the degree sum, torsion
    correction terms one degree higher."""
    product = kunneth(a.closed_forms(), b.closed_forms())
    return GradedGroup(
        {deg: DegreeEntry(None, form, None, "kunneth") for deg, form in product.items()}
    )
