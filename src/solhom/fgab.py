"""Finitely generated abelian groups and the localized atom algebra.

``FgAbGroup`` is the classified form: a free rank plus invariant factors
in a divisibility chain.  ``LocalizedForm`` extends the classification
with inverted primes, closing the class

    Z,   Z/q (q a prime power),   Z[1/m] (m squarefree > 1)

under direct sum, tensor and Tor.  These atoms are exactly what colimits
of injective endomorphisms of lattices can produce in rank one, so graded
homology results and their Kunneth products live here.

Tensor rules, applied atomwise by bilinearity:
    Z (x) X           = X
    Z[1/m] (x) Z[1/m']= Z[1/lcm(m, m')]
    Z[1/m] (x) Z/p^e  = 0 if p | m else Z/p^e
    Z/p^e  (x) Z/q^f  = 0 if p != q else Z/p^min(e, f)
Tor vanishes when either side is torsion-free and Tor(Z/a, Z/b) = Z/gcd.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import AtomClassExceeded
from .intfactor import factorint, radical
from .linalg import IntMatrix, snf


class _FgAbGroupFields(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...] = ()


class FgAbGroup(_FgAbGroupFields):
    """Z^free_rank plus Z/d_1 + ... + Z/d_k with d_1 | d_2 | ... | d_k."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion must form a divisibility chain")
        if any(d < 2 for d in torsion):
            raise ValueError("trivial torsion factors must be dropped")
        return super().__new__(cls, free_rank, torsion)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.ngens == 0

    def elementary_divisors(self) -> tuple[int, ...]:
        out: list[int] = []
        for d in self.torsion:
            out.extend(p**e for p, e in factorint(d).items())
        return tuple(sorted(out))

    def pretty(self) -> str:
        return localized_from_fgab(self).pretty()


def from_presentation(ngens: int, relations: Sequence[Sequence[int]]) -> FgAbGroup:
    """Quotient of Z^ngens by the subgroup generated by the relations.

    >>> from_presentation(2, [[2, 0]])
    FgAbGroup(free_rank=1, torsion=(2,))
    >>> from_presentation(1, [])
    FgAbGroup(free_rank=1, torsion=())
    """
    if ngens == 0:
        return FgAbGroup(0)
    if not relations:
        return FgAbGroup(ngens)
    cols = [list(r) for r in relations]
    if any(len(c) != ngens for c in cols):
        raise ValueError("relation length does not match generator count")
    mat = IntMatrix.from_columns(cols)
    S, _, _ = snf(mat)
    diag = [S.rows[i][i] for i in range(min(S.nrows, S.ncols))]
    rank_drop = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return FgAbGroup(ngens - rank_drop, torsion)


class _GroupHomFields(NamedTuple):
    domain: FgAbGroup
    codomain: FgAbGroup
    matrix: IntMatrix


class GroupHom(_GroupHomFields):
    """Homomorphism between classified groups, as an integer matrix.

    Generator order is free generators first, then torsion generators in
    their stored order.  Entries of columns leaving a torsion generator
    are validated for well-definedness.
    """

    __slots__ = ()

    def __new__(cls, domain: FgAbGroup, codomain: FgAbGroup, matrix: IntMatrix):
        m = matrix
        if m.nrows != codomain.ngens or m.ncols != domain.ngens:
            raise ValueError("matrix shape does not match group generators")
        fr = codomain.free_rank
        for j, order in enumerate(domain.torsion, start=domain.free_rank):
            for i in range(m.nrows):
                entry = m.rows[i][j]
                if i < fr:
                    if entry != 0:
                        raise ValueError("torsion cannot map to a free generator")
                else:
                    target_order = codomain.torsion[i - fr]
                    if (entry * order) % target_order != 0:
                        raise ValueError("map not constant on cosets")
        return super().__new__(cls, domain, codomain, matrix)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


def endomorphism(group: FgAbGroup, matrix: IntMatrix) -> GroupHom:
    return GroupHom(group, group, matrix)


# ---------------------------------------------------------------------------
# atoms

_FREE = ("free", 0)


def _atom_sort_key(atom):
    kind, data = atom
    rank = {"free": 0, "inv": 1, "tor": 2}[kind]
    return (rank, data)


class LocalizedForm:
    """Finite direct sum of atoms Z, Z[1/m], Z/q in canonical order."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[tuple] = ()):
        normalized = []
        for kind, data in atoms:
            if kind == "free":
                normalized.append(_FREE)
            elif kind == "inv":
                m = radical(int(data))
                if m == 1:
                    normalized.append(_FREE)
                else:
                    normalized.append(("inv", m))
            elif kind == "tor":
                q = int(data)
                if q == 1:
                    continue
                fac = factorint(q)
                if len(fac) != 1:
                    raise ValueError("torsion atoms must be prime powers")
                normalized.append(("tor", q))
            else:
                raise ValueError(f"unknown atom kind {kind!r}")
        object.__setattr__(self, "atoms", tuple(sorted(normalized, key=_atom_sort_key)))

    def __setattr__(self, name, value):
        raise AttributeError("LocalizedForm is immutable")

    # constructors
    @staticmethod
    def zero() -> "LocalizedForm":
        return LocalizedForm([])

    @staticmethod
    def free(rank: int) -> "LocalizedForm":
        return LocalizedForm([_FREE] * rank)

    @staticmethod
    def localized(m: int, copies: int = 1) -> "LocalizedForm":
        return LocalizedForm([("inv", m)] * copies)

    @staticmethod
    def torsion(q: int) -> "LocalizedForm":
        """Z/q for arbitrary q >= 1, split into prime-power atoms."""
        return LocalizedForm([("tor", p**e) for p, e in factorint(q).items()] if q > 1 else [])

    def __eq__(self, other) -> bool:
        return isinstance(other, LocalizedForm) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"LocalizedForm({self.pretty()!r})"

    def is_zero(self) -> bool:
        return not self.atoms

    @property
    def free_rank(self) -> int:
        """Rank over Q, counting both Z and Z[1/m] atoms."""
        return sum(1 for kind, _ in self.atoms if kind in ("free", "inv"))

    def __add__(self, other: "LocalizedForm") -> "LocalizedForm":
        return LocalizedForm(self.atoms + other.atoms)

    def tensor(self, other: "LocalizedForm") -> "LocalizedForm":
        out = []
        for a in self.atoms:
            for b in other.atoms:
                c = _tensor_atoms(a, b)
                if c is not None:
                    out.append(c)
        return LocalizedForm(out)

    def tor(self, other: "LocalizedForm") -> "LocalizedForm":
        out = []
        for ka, da in self.atoms:
            if ka != "tor":
                continue
            for kb, db in other.atoms:
                if kb != "tor":
                    continue
                g = math.gcd(da, db)
                if g > 1:
                    out.append(("tor", g))
        return LocalizedForm(out)

    def pretty(self) -> str:
        if not self.atoms:
            return "0"
        counted: list[tuple[str, int]] = []
        for atom in self.atoms:
            name = _atom_name(atom)
            if counted and counted[-1][0] == name:
                counted[-1] = (name, counted[-1][1] + 1)
            else:
                counted.append((name, 1))
        parts = []
        for name, count in counted:
            if count == 1:
                parts.append(name)
            elif "/" in name:
                parts.append(f"({name})^{count}")
            else:
                parts.append(f"{name}^{count}")
        return " + ".join(parts)


def _atom_name(atom) -> str:
    kind, data = atom
    if kind == "free":
        return "Z"
    if kind == "inv":
        return f"Z[1/{data}]"
    return f"Z/{data}"


def _tensor_atoms(a, b):
    (ka, da), (kb, db) = a, b
    if ka == "free":
        return b
    if kb == "free":
        return a
    if ka == "inv" and kb == "inv":
        return ("inv", math.lcm(da, db))
    if ka == "inv" or kb == "inv":
        m, q = (da, db) if ka == "inv" else (db, da)
        p = min(factorint(q))
        return None if m % p == 0 else ("tor", q)
    g = math.gcd(da, db)
    return ("tor", g) if g > 1 else None


def localized_from_fgab(group: FgAbGroup) -> LocalizedForm:
    atoms = [_FREE] * group.free_rank
    atoms += [("tor", q) for q in group.elementary_divisors()]
    return LocalizedForm(atoms)


def tensor(a: FgAbGroup | LocalizedForm, b: FgAbGroup | LocalizedForm) -> LocalizedForm:
    return _coerce(a).tensor(_coerce(b))


def tor(a: FgAbGroup | LocalizedForm, b: FgAbGroup | LocalizedForm) -> LocalizedForm:
    return _coerce(a).tor(_coerce(b))


def _coerce(g) -> LocalizedForm:
    if isinstance(g, LocalizedForm):
        return g
    if isinstance(g, FgAbGroup):
        return localized_from_fgab(g)
    raise AtomClassExceeded(f"cannot interpret {g!r} as a sum of atoms")


def kunneth(
    a: Mapping[int, LocalizedForm], b: Mapping[int, LocalizedForm]
) -> dict[int, LocalizedForm]:
    """Graded Kunneth formula for a product system.

    Degree k of the output collects tensor terms from degrees i + j = k
    and Tor terms from degrees i + j = k - 1.  Zero summands are dropped.
    """
    out: dict[int, LocalizedForm] = {}

    def add(deg: int, form: LocalizedForm) -> None:
        if not form.is_zero():
            out[deg] = out.get(deg, LocalizedForm.zero()) + form

    for i, ga in a.items():
        for j, gb in b.items():
            add(i + j, ga.tensor(gb))
            add(i + j + 1, ga.tor(gb))
    return dict(sorted(out.items()))
