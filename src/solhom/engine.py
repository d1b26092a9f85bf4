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
and Lefschetz rows come from the characteristic polynomial of A by
Newton's identities, each division exact.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    AtomClassExceeded,
    DegenerateFix,
    FlatteningFailure,
    HypothesisN1,
    InternalCheckError,
    PrincipalizationUndecided,
)
from .fgab import FgAbGroup, GroupHom, LocalizedForm, kunneth, localized_from_fgab
from .intfactor import factorint
from .limits import (
    ColimitGroup,
    canonical_form,
    diagonal_radicals,
    free_colimit,
    torsion_colimit,
)
from .linalg import IntMatrix, complement_transpose, exterior_power_det, exterior_power_matrix
from .nfield import BOX_RADIUS, NfElement, canonical_generator, principal_generator
from .places import SolenoidSystem

# Powers tried when splitting a transfer endomorphism off its torsion.
MAX_SPLITTING_POWER = 24

# Exponents of the expanding ideal the degree >= 3 generator search tries.
BOX_EXPONENT_LIMIT = 12


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
    flattened with and, for a unit c, the dual's pair of ladders
    (finite_part_homology).
    """

    def __init__(
        self,
        entries: dict[int, DegreeEntry],
        principalization: tuple[NfElement, int] | None = None,
        dual_ladders: tuple[list[IntMatrix], list[IntMatrix]] | None = None,
    ):
        self.entries = entries
        self.principalization = principalization
        self.dual_ladders = dual_ladders

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
    power of sys.expanding_ideal, the order of its class.  Without
    expanding finite places the ideal is the whole ring and g = 1."""
    field = sys.field
    if not sys.finite_unstable:
        return field.one(), 1
    ideal = power = sys.expanding_ideal
    # Degree 2: h divides the class number, at most the number of reduced
    # forms of discriminant D, <= 2|D| (docs/principalization.md).  Degree
    # 1 stops at h = 1.  Degree >= 3: BOX_EXPONENT_LIMIT is a search limit
    # for principal_generator's small box, not a class-number fact, so
    # reaching it is a refusal, not an internal failure.
    limit = 2 * abs(field.discriminant) if field.degree == 2 else BOX_EXPONENT_LIMIT
    for h in range(1, limit + 1):
        gen = principal_generator(power)
        if gen is not None:
            return gen, h
        power = power * ideal
    if field.degree <= 2:
        raise InternalCheckError(
            f"no principal power of the expanding ideal up to exponent {limit}"
        )
    raise PrincipalizationUndecided(
        f"no power of the expanding ideal up to exponent BOX_EXPONENT_LIMIT = {limit} "
        f"has a generator in the box of radius BOX_RADIUS = {BOX_RADIUS}"
    )


def dual_principalization(
    sys: SolenoidSystem, found: tuple[NfElement, int]
) -> tuple[NfElement, int]:
    """The dual system's (g', h') from sys's principalization (g, h), with
    no search.  The dual's expanding ideal is sys's contracting ideal M,
    and (c) = M J^-1 for sys's expanding ideal J, so (c^h g) = M^h: h' = h
    and g' = +-c^h g by the sign rule, with M^h built only for the real
    quadratic walk (docs/principalization.md, "The dual's generator").
    Without contracting finite places M is the whole ring, and g' = 1,
    h' = 1 as principalization gives."""
    dual = sys.dual_system()
    if not dual.finite_unstable:
        return sys.field.one(), 1
    g, h = found
    gen = canonical_generator(sys.c.pow(h) * g, lambda: dual.expanding_ideal.pow(h))
    if gen.den != 1 or abs(sys.field.integer_norm(gen.num)) != sys.transfer_index**h:
        raise InternalCheckError(f"dual generator {gen!r} does not have the norm of M^{h}")
    return gen, h


def finite_part_homology(
    sys: SolenoidSystem, found: tuple[NfElement, int] | None = None, ladders=None
) -> GradedGroup:
    """Homology of the finite-place tower, graded by exterior degree
    0..[K:Q], flattened with found = (g, h), principalization(sys) when
    not given.

    Degree k is the colimit of the integer matrix N * Lambda^k(m_{g/c})
    in the integral basis.  The stored action is the untwisted transfer
    step N * Lambda^k(m_{1/c}), whose traces feed the fixed-point
    formula, as the pair (N * Lambda^k(A), m^k) for m_{1/c} = A / m,
    reduced.  It differs from the tower matrix by the flattening factor
    Lambda^k(m_g), which is invertible in the colimit, and integral
    once g is: its entries are minors of an integer matrix.

    Each matrix's exterior powers are built once, as one Laplace ladder,
    and shared by the tower and the action when g = 1.  Each tower's
    determinant is Sylvester-Franke's, its adjugate Jacobi's, read off
    the complementary power, and every prime of its determinant lies
    under a finite place of c (docs/duality.md).

    For a unit c, N = g = m = 1 and det A = +-1, and by Jacobi
    Lambda^k(A^-1) is det A times the complement transpose of
    Lambda^(d-k)(A), which also gives the tower's adjugate.  The result's
    dual_ladders is the pair (ladder of A^-1, ladder of A): the dual's
    matrix is A^-1, and its call takes the pair as ladders and builds
    none (docs/duality.md).
    """
    d = sys.field.degree
    n_index = sys.transfer_index
    g, h = principalization(sys) if found is None else found
    if g.den != 1:
        raise FlatteningFailure("principal generator is not integral")
    c_inv = sys.c_inverse
    a_flat, m_flat = (g * c_inv).mult_pair()
    a_theta, m_theta = c_inv.mult_pair()
    primes = {fp.prime.p for fp in sys.finite_stable + sys.finite_unstable}
    if ladders is not None and ladders[0][1] != a_flat:
        raise InternalCheckError("the given ladder is not that of the flattened step")
    flat_powers = _exterior_ladder(a_flat, d) if ladders is None else ladders[0]
    if ladders is None and not primes:
        det_a = flat_powers[d].rows[0][0]
        ladders = flat_powers, [
            _scaled_complement(flat_powers[d - k], d, d - k, det_a, 1) for k in range(d + 1)
        ]
    # g = 1 (a unit c, or the forward side of an integral one): one ladder
    same = (a_theta, m_theta) == (a_flat, m_flat)
    theta_powers = flat_powers if same else _exterior_ladder(a_theta, d)

    entries: dict[int, DegreeEntry] = {}
    for k in range(d + 1):
        tower = _ladder_tower(flat_powers, k, m_flat, n_index, primes, ladders and ladders[1][k])
        try:
            closed = canonical_form(tower)
            provenance = "canonical_form_rank1" if tower.rank == 1 else "canonical_form"
        except AtomClassExceeded:
            closed = None
            provenance = "tower"
        theta, den = theta_powers[k].rows, m_theta**k
        common = 1 if den == 1 else math.gcd(den, *(n_index * x for row in theta for x in row))
        action = _rescaled(theta_powers[k], n_index, common), den // common
        entries[k] = DegreeEntry(tower, closed, action, provenance)
    return GradedGroup(entries, (g, h), ladders and ladders[::-1])


def _exterior_ladder(A: IntMatrix, d: int) -> list[IntMatrix]:
    """Lambda^0(A), ..., Lambda^d(A), each from the one below it."""
    powers = [exterior_power_matrix(A, 0)]
    for k in range(1, d + 1):
        powers.append(exterior_power_matrix(A, k, powers[-1]))
    return powers


def _ladder_tower(
    powers: list[IntMatrix], k: int, m: int, n_index: int, primes: set[int], inverse=None
) -> ColimitGroup:
    """The tower T = N Lambda^k(A) / m^k of a d x d matrix A, from the
    ladder powers = [Lambda^0(A), ..., Lambda^d(A)].  det A is Lambda^d(A),
    det T is Sylvester-Franke's N^s det(A)^C(d-1, k-1) / m^(k s) for
    s = C(d, k), and by Jacobi T^-1 = m^k J / (N det A) for J the
    complement transpose of Lambda^(d-k)(A), so adj T = det T m^k J /
    (N det A), built when first asked for, or det T times inverse, T^-1
    when it is given.  primes holds every prime of det T."""
    d = len(powers) - 1
    flat, den = powers[k].rows, m**k
    if den > 1 and any(n_index * x % den for row in flat for x in row):
        raise FlatteningFailure(f"transfer matrix at degree {k} is not integral")
    delta = _rescaled(powers[k], n_index, den)
    det_a, size = powers[d].rows[0][0], len(flat)
    det, rest = divmod(n_index**size * exterior_power_det(det_a, d, k), den**size)
    if rest:
        raise InternalCheckError(f"tower determinant at degree {k} is not an integer")
    if inverse is not None:
        adjugate = functools.partial(_rescaled, inverse, det, 1)
    else:
        adjugate = functools.partial(
            _scaled_complement, powers[d - k], d, d - k, det * den, n_index * det_a
        )
    return ColimitGroup(delta, det, adjugate, primes)


def _scaled_complement(X: IntMatrix, d: int, k: int, num: int, den: int) -> IntMatrix:
    """complement_transpose(X, d, k) times num / den, where the product
    is an integer matrix; ColimitGroup.adjugate's check vector guards
    the floor division."""
    return _rescaled(complement_transpose(X, d, k), num, den)


def _rescaled(X: IntMatrix, num: int, den: int) -> IntMatrix:
    """X times num / den, each entry floor-divided; X itself when num = den."""
    if num == den:
        return X
    return IntMatrix._trusted(tuple(tuple(num * x // den for x in row) for row in X.rows))


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
    if side == "unstable":
        return shifted_homology(sys, finite_part_homology(sys))
    dual, found = sys.dual_system(), dual_principalization(sys, principalization(sys))
    return shifted_homology(dual, finite_part_homology(dual, found))


def duality_check(sys: SolenoidSystem, unstable: GradedGroup, stable: GradedGroup) -> None:
    """Jacobi's complementary-minor identity between the two sides,
    which share one integral basis (docs/duality.md): the stable action
    in degree -j is eps_j complement_transpose(U_j) = eps_j P_k U_j^T
    P_k^-1, where U_j is the unstable action in degree j = k - shift,
    P_k sends the k-subset I to its complement with sign (-1)^(sum I),
    and eps_j = sign N(c) for even j, 1 for odd j.  A mismatch raises
    InternalCheckError.
    """
    d = sys.field.degree
    sign = 1 if sys.c.norm() > 0 else -1
    for j, entry in unstable.entries.items():
        eps = 1 if j % 2 else sign
        U, den = entry.action
        expected = _scaled_complement(U, d, j + sys.degree_shift, eps, 1)
        if stable.entry(-j).action != (expected, den):
            raise InternalCheckError(
                f"stable action in degree {-j} is not the Jacobi dual of unstable degree {j}"
            )


def k_theory(
    sys: SolenoidSystem, finite: GradedGroup
) -> tuple[dict[int, DegreeEntry], dict[int, DegreeEntry]]:
    """The two K-groups, each the finite part's degree entries of one
    parity of unstable degree, keyed by that degree in degree order: K_i
    is the direct sum of their colimits."""
    shift = sys.degree_shift
    out: tuple[dict[int, DegreeEntry], dict[int, DegreeEntry]] = ({}, {})
    for k in sorted(finite.entries):
        out[(k - shift) % 2][k - shift] = finite.entries[k]
    if not all(out):
        raise InternalCheckError("empty parity class in the K-group sum")
    return out


def _atom_moduli(e: DegreeEntry) -> list[int]:
    """The diagonal of the canonical atom tower of a degree with a closed
    form: 1 for each Z and m for each Z[1/m].

    LocalizedForm sorts its atoms, so for a diagonal tower they are put
    back in the order of its own diagonal: the i-th smallest atom goes
    where the i-th smallest diagonal radical sits, and diag(2, 1) with
    closed form Z + Z[1/2] meets diag(2, 1), not diag(1, 2), which is
    another subgroup of Q^2.
    """
    if any(kind == "tor" for kind, _ in e.closed.atoms):
        raise InternalCheckError("torsion atom inside a free colimit comparison")
    moduli = [m if kind == "inv" else 1 for kind, m in e.closed.atoms]
    n = len(moduli)
    if n > 1 and e.colimit.rank == n and e.colimit.matrix.is_diagonal():
        radicals = diagonal_radicals(e.colimit)
        aligned = [1] * n
        for i, m in zip(sorted(range(n), key=radicals.__getitem__), moduli):
            aligned[i] = m
        return aligned
    return moduli


def _same_support(t: int, m: int) -> bool:
    """t and m have the same prime divisors: each divides a power of the
    other."""
    for a, b in ((abs(t), m), (m, t)):
        while (g := math.gcd(a, b)) > 1:
            a //= g
        if a != 1:
            return False
    return True


def _certified(e: DegreeEntry) -> bool:
    """True when an integer identity shows that the closed form of a
    degree is its tower's colimit (docs/duality.md): a diagonal tower
    whose diagonal multiplies to its determinant and shares each entry's
    primes with its atom, since colim(diag t) is the sum of the Z[1/t_i];
    or a tower of determinant +-1 with closed form Z^r, whose adjugate
    passes its check vector, since T^-1 is then integral.  These are the
    only closed forms canonical_form gives."""
    G, atoms = e.colimit, e.closed.atoms
    if G.matrix is None or len(atoms) != G.rank:
        return False
    if G.matrix.is_diagonal():
        diag = [G.matrix.rows[i][i] for i in range(G.rank)]
        return math.prod(diag) == G.det and all(map(_same_support, diag, _atom_moduli(e)))
    # reading the adjugate runs its check vector, T (adj v) = det v
    return abs(G.det) == 1 and all(kind == "free" for kind, _ in atoms) and G.adjugate is not None


def certify_closed_forms(named: Iterable[tuple[str, DegreeEntry]]) -> None:
    """Raise InternalCheckError at the first degree, in the order given,
    whose closed form _certified does not certify against its tower,
    naming it as given.  A degree without a closed form is not compared."""
    for name, e in named:
        if e.closed is not None and not _certified(e):
            raise InternalCheckError(f"{name}: closed form {e.closed.pretty()} differs from its tower")


def hk_check(sys: SolenoidSystem, finite: GradedGroup) -> dict:
    """Re-certify the closed form of each degree of the finite part
    against its tower.

    K_i is the direct sum of the degrees of parity i, so its closed form
    is the sum of theirs, and it is right when each closed form in it
    equals its own tower's colimit.  A degree without a closed form is
    its own summand and is not compared.  So this re-certifies
    canonical_form; it is not an independent check of the HK conjecture.
    Each closed form is certified from an integer identity (_certified);
    one that is not raises InternalCheckError naming its K-group (the
    parity of its unstable degree; K0 is checked first) and the closed
    form, as does a failed rank identity.  The record returned is that
    of the passed check.
    """
    shift = sys.degree_shift
    order = sorted(finite.entries, key=lambda k: ((k - shift) % 2, k))
    certify_closed_forms((f"K{(k - shift) % 2}", finite.entries[k]) for k in order)
    if sum(e.rank for e in finite.entries.values()) != 2 ** sys.field.degree:
        raise InternalCheckError("degree ranks do not add up to 2^[K:Q]")
    return {"verdicts": {"0": "equal", "1": "equal"}, "rank_identity": True}


def lefschetz_traces(sys: SolenoidSystem, n: int) -> list[int]:
    """Alternating trace sums of the powers 1..n of the transfer action:
    row k is N^k det(I - m_{1/c}^k), with m_{1/c} = A / m, an integer
    whose absolute value is the number of points of period k.

    char_poly(A) is read off mu, the minimal polynomial of 1/c that the
    dual system holds: 1/c generates the field, so det(x I - A) =
    m^d mu(x / m), whose coefficient i is m^i mu_i, an integer since A
    is (docs/lefschetz.md)."""
    m = sys.c_inverse.den
    mu = sys.dual_system().min_poly.coeffs
    pairs = [divmod(a.numerator * m**i, a.denominator) for i, a in enumerate(mu)]
    if any(r for _, r in pairs):
        raise InternalCheckError("the dual's min_poly gives m_{1/c} a non-integral char_poly")
    return lefschetz_rows([q for q, _ in pairs], m, sys.transfer_index, n)


def lefschetz_rows(coeffs: Sequence[int], m: int, N: int, n: int) -> list[int]:
    """N^k det(m^k I - A^k) / m^(kd) for k = 1..n, from coeffs =
    char_poly(A), with no matrix powers (docs/lefschetz.md): Newton's
    identities take coeffs to the power sums s_j = tr(A^j), j <= nd, and
    s_k, s_2k, ..., s_dk, the power sums of A^k's eigenvalues, to the
    coefficients a_j of det(x I - A^k), each division by j exact.  Row k
    is that polynomial at x = m^k."""
    d, c = len(coeffs) - 1, coeffs[1:]
    s = [d]
    for j in range(1, n * d + 1):
        # s_j + c_1 s_(j-1) + ... + c_(j-1) s_1 + j c_j = 0, c_j = 0 past d
        t = sum(map(operator.mul, c, s[j - 1 : max(j - d - 1, 0) : -1]))
        s.append(-t - j * c[j - 1] if j <= d else -t)
    out = []
    for k in range(1, n + 1):
        p, a = s[k : k * d + 1 : k], [1]
        for j in range(1, d + 1):
            # j a_j = -(a_(j-1) p_1 + ... + a_0 p_j), with p_i = s_(ik)
            q, r = divmod(-sum(map(operator.mul, a, p[j - 1 :: -1])), j)
            if r:
                raise InternalCheckError(f"Newton's identity at power {k} does not divide by {j}")
            a.append(q)
        mk = m**k
        det = functools.reduce(lambda acc, x: acc * mk + x, a)
        # the conjugates of c^-k are the eigenvalues of m_{1/c}^k, and one
        # of them is 1 exactly when c^k = 1
        if det == 0:
            raise DegenerateFix(f"c^{k} = 1, the fixed set is not finite")
        value, rest = divmod(N**k * det, mk**d)
        if rest:
            raise InternalCheckError("trace sum is not an integer")
        out.append(value)
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
