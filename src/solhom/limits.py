"""Colimits of towers Z^r -> Z^r -> ... along a fixed integer matrix.

The colimit of an injective T is realized concretely as the subgroup
G = union of T^(-n) Z^r inside Q^r.  rank(G / pG) equals the stable
rank of T mod p, an isomorphism invariant that a report prints for a
colimit without a closed form, and adds over the direct sum of a
K-group's degrees.

Membership and equality are the tests' oracle: a report certifies its
closed forms from integer identities (engine._certified).  They stay
here because the benchmark's tracer wraps their names (ROADMAP item 1).
Two facts make them decide:

* Membership is decidable with a proven stage bound.  Applying T never
  increases the denominator of a vector, and if the p-denominator of a
  candidate stalls for rank-many steps, the stalled part sits in the
  part of F_p^r where T is invertible and the denominator never clears.
  So members of G shed at least one power of p every rank steps, and a
  candidate with denominator d is settled by stage rank * max_p v_p(d).

* For commuting T and T', containment of colimits reduces to finitely
  many membership tests: G is contained in G' exactly when every column
  of T^(-1) lies in G', because T^(-1) then maps G' into itself and
  induction carries T^(-n) Z^r inside.  This makes equality definitive
  in both directions, with an explicit witness vector on failure.

Torsion towers are finite, so their colimit is the eventual image with
the map acting bijectively; mixed towers reduce to a block-diagonal
power of the map when some power kills the free-to-torsion mixing.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import AtomClassExceeded, CapExceeded, InternalCheckError, NonCommuting
from .fgab import FgAbGroup, LocalizedForm
from .intfactor import factorint
from .linalg import IntMatrix, hnf, snf_diagonal, stable_rank_mod_p

# The overscan past the proven stage bound is a self-check only: a member
# is settled by the bound, so no answer depends on this factor while the
# bound argument holds.
MEMBERSHIP_CAP_FACTOR = 10


class ColimitGroup:
    """colim(Z^r, T) for injective T, as the union of T^(-n) Z^r in Q^r.

    The trivial group is matrix=None with rank zero.  A caller that knows
    T's determinant by an identity passes it as det, and its adjugate as
    adjugate, a function of no arguments called at most once, when the
    adjugate is first read; otherwise they come from Bareiss elimination.
    primes, when given, holds every prime of the determinant: det_primes
    divides them out instead of factoring.
    """

    def __init__(
        self,
        matrix: IntMatrix | None,
        det: int | None = None,
        adjugate: Callable[[], IntMatrix] | None = None,
        primes: Iterable[int] | None = None,
    ):
        self._adjugate = adjugate
        self._primes = None if primes is None else sorted(primes)
        if matrix is None:
            self.matrix = None
            self.rank = 0
            self.det = 1
        else:
            if matrix.nrows != matrix.ncols:
                raise ValueError("tower matrix must be square")
            self.matrix = matrix
            self.rank = matrix.nrows
            self.det = matrix.det() if det is None else det
            if self.det == 0:
                raise ValueError("tower matrix must be injective; reduce with free_colimit")

    def __repr__(self) -> str:
        return f"ColimitGroup(rank={self.rank}, det={self.det})"

    @functools.cached_property
    def det_primes(self) -> tuple[int, ...]:
        """The primes dividing the tower determinant, found once: divided
        out of the given primes, or by factoring.  A cofactor left after
        the given primes is an InternalCheckError."""
        if self._primes is None:
            return tuple(factorint(self.det))
        rest, found = abs(self.det), []
        for p in self._primes:
            if rest % p == 0:
                found.append(p)
                while rest % p == 0:
                    rest //= p
        if rest != 1:
            raise InternalCheckError(
                f"tower determinant {self.det} has a prime outside {self._primes}"
            )
        return tuple(found)

    @functools.cached_property
    def adjugate(self) -> IntMatrix:
        """adj T, with T adj T = det T I: the caller's, or read off the
        fraction-free inverse.  One product on a fixed vector checks
        T (adj v) = det v; that is a guard against a wrong identity or a
        wrong determinant, not a proof."""
        if self._adjugate is not None:
            adj = self._adjugate()
        else:
            inv, d = self.matrix.inverse_pair()
            adj = inv if d == self.det else inv.scale(-1)
        v = range(1, self.rank + 1)
        if self.matrix.apply(adj.apply(v)) != tuple(self.det * x for x in v):
            raise InternalCheckError("adjugate and determinant disagree on the check vector")
        return adj

    def membership_stage(self, vec: Sequence, den: int = 1) -> int | None:
        """Least n with T^n (vec / den) integral, or None when vec / den is
        not in the group; the tests' oracle, which no report calls.  Runs
        on the integer numerators against one denominator (rational
        entries are cleared to a common one first), cancelling their gcd
        after each step.  Scans past the proven bound as a self-check; a
        witness in the overscan region means the bound argument failed."""
        if len(vec) != self.rank:
            raise ValueError("vector length does not match the rank")
        num = list(vec)
        if not all(type(c) is int for c in num):
            q = [Fraction(c) for c in num]
            m = math.lcm(*(c.denominator for c in q))
            num = [c.numerator * (m // c.denominator) for c in q]
            den *= m
        if den < 0:
            num, den = [-c for c in num], -den
        g = math.gcd(den, *num)
        if g > 1:
            num, den = [c // g for c in num], den // g
        if den == 1:
            return 0
        # Omega(den) over the determinant's primes; any other prime in
        # den is never cleared by T.
        omega = 0
        rest = den
        for p in self.det_primes:
            while rest % p == 0:
                rest //= p
                omega += 1
        if rest != 1:
            return None
        # r * Omega(den): the chain of partial preimages sits inside a
        # group of order den**r and grows strictly until the witness.
        bound = self.rank * omega
        cap = MEMBERSHIP_CAP_FACTOR * bound
        for n in range(cap + 1):
            if den == 1:
                if n > bound:
                    raise CapExceeded(
                        f"membership witness at stage {n} beyond proven bound {bound}"
                    )
                return n
            num = self.matrix.apply(num)
            g = math.gcd(den, *num)
            if g > 1:
                num, den = [c // g for c in num], den // g
        return None

    @functools.cached_property
    def signature(self) -> "InvariantSignature":
        """The signature, computed once for this tower."""
        return InvariantSignature.of(self)


class InvariantSignature(NamedTuple):
    """Isomorphism invariants of a free colimit: the rank and the
    dimension of G/pG for each prime dividing the tower determinant."""

    rank: int
    mod_p_ranks: tuple[tuple[int, int], ...]

    @staticmethod
    def of(G: ColimitGroup) -> "InvariantSignature":
        pairs = []
        for p in G.det_primes:
            pairs.append((p, stable_rank_mod_p(G.matrix, p)))
        return InvariantSignature(G.rank, tuple(pairs))

    @staticmethod
    def direct_sum(sigs: Iterable["InvariantSignature"]) -> "InvariantSignature":
        """The signature of a direct sum: the ranks add, and so do the
        ranks of G/pG, since (G + H)/p(G + H) is G/pG + H/pH.  A summand
        whose determinant p does not divide has its tower invertible mod
        p, so it counts its full rank at p."""
        sigs = list(sigs)
        primes = sorted({p for sig in sigs for p, _ in sig.mod_p_ranks})
        at = [(dict(sig.mod_p_ranks), sig.rank) for sig in sigs]
        ranks = tuple((p, sum(ranks_at.get(p, rank) for ranks_at, rank in at)) for p in primes)
        return InvariantSignature(sum(sig.rank for sig in sigs), ranks)


def equal_commuting(G: ColimitGroup, H: ColimitGroup) -> tuple[bool, tuple | None]:
    """Decide G == H as subgroups of Q^r when the tower matrices commute:
    the tests' oracle, which no report calls.

    Returns (True, None) or (False, witness) where the witness vector
    (of Fractions) lies in exactly one of the two groups.  Raises
    NonCommuting when the matrices do not commute, since the reduction
    to finitely many membership tests is only proven in the commuting
    case.  The columns of T^(-1) are tested as the integer columns of
    adj T against the one denominator det T.
    """
    if G.rank != H.rank:
        return False, None
    if G.rank == 0:
        return True, None
    if not G.matrix.commutes_with(H.matrix):
        raise NonCommuting("tower matrices do not commute; membership cannot decide equality")
    for source, target in ((G, H), (H, G)):
        d = source.det
        for col in source.adjugate.columns():
            if target.membership_stage(col, d) is None:
                return False, tuple(Fraction(c, d) for c in col)
    return True, None


def canonical_form(G: ColimitGroup) -> LocalizedForm:
    """Closed form of the colimit in the supported atom classes.

    Covers unimodular and diagonal towers, rank one included; anything
    else raises AtomClassExceeded so callers can fall back to reporting
    the tower itself.
    """
    if G.rank == 0:
        return LocalizedForm.zero()
    if abs(G.det) == 1:
        return LocalizedForm.free(G.rank)
    if G.matrix.is_diagonal():
        return LocalizedForm._sorted(("inv", m) if m > 1 else ("free", 0) for m in diagonal_radicals(G))
    raise AtomClassExceeded(
        f"rank {G.rank} tower with determinant {G.det} has no supported closed form"
    )


def diagonal_radicals(G: ColimitGroup) -> list[int]:
    """The radical of each diagonal entry of a diagonal tower, read off
    det_primes: exact when det is the product of the diagonal."""
    primes = G.det_primes
    return [math.prod(p for p in primes if G.matrix.rows[i][i] % p == 0) for i in range(G.rank)]


def free_colimit(F: IntMatrix | None) -> ColimitGroup:
    """colim(Z^f, F) for a possibly non-injective F, restricted to the
    eventual image where the map becomes injective.

    The tower Z^f -> Z^f is cofinal with F^f Z^f -> F^f Z^f, and on that
    sublattice F acts injectively because the rank of F^k has stabilized.
    """
    if F is None:
        return ColimitGroup(None)
    f = F.nrows
    det = F.det()
    if det != 0:
        return ColimitGroup(F, det)
    L = F.pow(f)
    if L.is_zero():
        return ColimitGroup(None)
    basis = hnf(L)  # f x r_s, r_s = stable rank of F
    image = F @ basis
    T = _solve_lattice(basis, image)
    if T is None:
        raise InternalCheckError("map does not preserve its eventual image lattice")
    return ColimitGroup(T)


def _solve_lattice(B: IntMatrix, image: IntMatrix) -> IntMatrix | None:
    """The integer X with B X = image for B in column Hermite form, or
    None when X is not integral.  Column j of B has its pivot in row p_j
    (its first nonzero row) and later columns vanish there, so each
    column of X is read by forward substitution over the pivot rows."""
    pivots = [next(i for i, x in enumerate(col) if x) for col in B.columns()]
    cols = []
    for target in image.columns():
        residual = list(target)
        x = []
        for j, p in enumerate(pivots):
            q, r = divmod(residual[p], B.rows[p][j])
            if r:
                return None
            x.append(q)
            if q:
                residual = [a - q * row[j] for a, row in zip(residual, B.rows)]
        cols.append(x)
    X = IntMatrix.from_columns(cols)
    if B @ X != image:
        raise InternalCheckError("inconsistent lattice solve")
    return X


def torsion_colimit(group: FgAbGroup, relations: IntMatrix, F: IntMatrix) -> FgAbGroup:
    """colim of a finite group along an endomorphism: the eventual image.

    The group is presented as Z^n / (columns of relations); F is a lift
    of the endomorphism with F * relations inside the relation lattice.
    Once the descending chain F^k Z^n + R stabilizes, the map permutes
    the stabilized subgroup bijectively, so the colimit is that subgroup.
    Each strict step is a proper subgroup of the last, of index at least
    2, so the chain moves at most log2 |group| times.
    """
    if group.free_rank != 0:
        raise ValueError("torsion_colimit expects a finite group")
    n = F.nrows
    L = IntMatrix.identity(n)
    for _ in range(math.prod(group.torsion).bit_length() + 1):
        nxt = hnf(_stack_columns(F @ L, relations))
        if nxt == L:
            break
        L = nxt
    else:
        raise CapExceeded("image chain of a finite group moved past its log2 |group| bound")
    # present L / relations: the relation lattice pulled through the basis
    M = _solve_lattice(L, relations)
    if M is None:
        raise InternalCheckError("relation lattice escaped the stabilized image")
    invs = [d for d in snf_diagonal(M) if d > 1]
    return FgAbGroup(0, tuple(invs))


def _stack_columns(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return IntMatrix.from_columns(A.columns() + B.columns())
