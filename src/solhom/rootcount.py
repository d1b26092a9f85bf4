"""Exact root location: Sturm sequences and unit-disk counts.

Counts are always of distinct roots (the squarefree part is taken first).

The unit-disk counter does not use the classical Schur-Cohn recursion,
which degenerates exactly on the reciprocal-flavoured polynomials this
package cares about (|constant| = |leading|, e.g. minimal polynomials of
algebraic units).  Instead:

1. roots on the unit circle are detected exactly: z = +-1 by evaluation,
   conjugate pairs via the remainder of f modulo z^2 - x z + 1, whose two
   coefficient polynomials A(x), B(x) vanish simultaneously at x = z + 1/z
   precisely when the pair divides f; real x in (-2, 2) means a circle
   pair;
2. with the circle clean, the Cayley map w -> (w-1)/(w+1) turns the disk
   interior into the right half plane, and the number of right-half-plane
   roots of g(w) = (w+1)^n f((w-1)/(w+1)) is read off a Cauchy index
   computed by a generalized Sturm chain.  Everything runs over Z,
   sign-preserving primitive pseudo-remainders (`_rem`) standing in for
   remainders over Q: each chain member is a positive multiple of the
   one over Q, with the same signs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BoundaryRoot, InternalCheckError
from .qpoly import Poly


def _primitive(p: list[int]) -> list[int]:
    """p without leading zeros, over its positive content; [] is zero."""
    while p and not p[0]:
        p = p[1:]
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _rem(a: list[int], b: list[int]) -> list[int]:
    """a mod b times a positive rational: |lc(b)|^(delta+1) a divided by b
    over Z, the remainder over its content.  Its signs are those of a mod
    b over Q."""
    d = len(a) - len(b)
    lead, sign = abs(b[0]), 1 if b[0] > 0 else -1
    r = a[:]
    for i in range(d + 1):
        if q := r[i] * sign:
            r = [lead * c for c in r]
            for j, c in enumerate(b, i):
                r[j] -= q * c
    return _primitive(r[d + 1 :] if d >= 0 else r)


def _prs(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b, -rem, ... to the last nonzero member, gcd(a, b) up to a factor."""
    chain = [a, b]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain.pop()
    return chain


def sturm_chain(coeffs) -> list[list[int]]:
    """Sturm chain over Z of the squarefree part of a polynomial with
    rational coefficients (descending), which comes first with a positive
    leading coefficient; [[1]] for a constant.  The chain of F ends in
    gcd(F, F'), so a squarefree F is recognised without a second chain."""
    m = math.lcm(*(c.denominator for c in coeffs))
    F = _primitive([c.numerator * (m // c.denominator) for c in coeffs])
    if len(F) < 2:
        return [[1]]
    if F[0] < 0:
        F = [-c for c in F]
    chain = _prs(F, _primitive([c * (len(F) - 1 - i) for i, c in enumerate(F[:-1])]))
    g = chain[-1]
    if len(g) == 1:
        return chain
    q, r = [], F  # F / g is integral (Gauss)
    while len(r) >= len(g):
        q.append(r[0] // g[0])
        r = [s - q[-1] * t for s, t in zip(r, g + [0] * (len(r) - len(g)))][1:]
    if any(r):
        raise InternalCheckError("gcd(f, f') does not divide f")
    return sturm_chain(q)


def _values_at(chain: list[list[int]], x: int | Fraction | None, positive: bool) -> list[int]:
    """The chain at the rational x as den(x)^deg p(x), by Horner, or for x
    None its leading terms' signs at +infinity (positive) or -infinity."""
    if x is None:
        return [p[0] if positive or len(p) % 2 else -p[0] for p in chain]
    a, b = x.numerator, x.denominator
    out = []
    for p in chain:
        v, scale = 0, 1
        for c in p:
            v, scale = v * a + c * scale, scale * b
        out.append(v)
    return out


def _variations(values: list[int]) -> int:
    nz = [v for v in values if v]
    return sum(1 for s, t in zip(nz, nz[1:]) if (s < 0) != (t < 0))


def _counts(chain: list[list[int]], cuts: list) -> list[int]:
    exact = [x if x is None or type(x) is int else Fraction(x) for x in cuts]
    values = [_values_at(chain, x, i > 0) for i, x in enumerate(exact)]
    # roots in (a, b], less one when b itself is a root
    counts = [_variations(lo) - _variations(hi) - (hi[0] == 0) for lo, hi in zip(values, values[1:])]
    if min(counts) < 0:
        raise InternalCheckError("negative Sturm count")
    return counts


def real_root_counts(f: Poly, cuts: list, chain: list[list[int]] | None = None) -> list[int]:
    """Distinct real roots of f in the open interval between each pair of
    consecutive cuts, off one Sturm chain, sturm_chain(f.coeffs) unless
    given.  The cuts are increasing rationals, with None first for
    -infinity and None last for +infinity."""
    if f.is_zero():
        raise ValueError("the zero polynomial has every point as a root")
    return _counts(chain or sturm_chain(f.coeffs), cuts)


def real_roots_in_interval(f: Poly, a, b) -> int:
    """Number of distinct real roots of f in the open interval (a, b).

    Endpoints are rationals; pass a=None or b=None for an infinite end.

    >>> real_roots_in_interval(Poly([1, 0, -2]), 0, 2)
    1
    >>> real_roots_in_interval(Poly([1, 0, 1]), None, None)
    0
    """
    if a is not None and b is not None and Fraction(a) >= Fraction(b) and not f.is_zero():
        return 0
    return real_root_counts(f, [a, b])[0]


def _circle_pair_polys(F: list[int]) -> tuple[list[int], list[int]]:
    """A, B with F(z) = q(z) (z^2 - x z + 1) + A(x) z + B(x), up to
    positive factors."""
    # z^k = u_k(x) z + v_k(x) modulo z^2 - x z + 1, ascending in x:
    # u_{k+1} = x u_k + v_k, v_{k+1} = -u_k
    n = len(F)
    u, v, A, B = [0] * n, [1] + [0] * (n - 1), [0] * n, [0] * n
    for c in reversed(F):  # ascending order in z
        A = [s + c * t for s, t in zip(A, u)]
        B = [s + c * t for s, t in zip(B, v)]
        u, v = [v[0]] + [s + t for s, t in zip(u, v[1:])], [-t for t in u]
    return _primitive(A[::-1]), _primitive(B[::-1])


def _unit_circle_count(F: list[int]) -> int:
    count = sum(_values_at([F], x, True)[0] == 0 for x in (1, -1))
    A, B = _circle_pair_polys(F)
    if not A and not B:
        raise InternalCheckError("nonzero polynomial reduced to zero remainder")
    G = _prs(A, B)[-1]
    return count + (2 * _counts(sturm_chain(G), [-2, 2])[0] if len(G) > 1 else 0)


def roots_in_unit_disk(f: Poly, chain: list[list[int]] | None = None) -> int:
    """Number of distinct roots with |z| < 1, read off the squarefree part
    that heads f's Sturm chain (sturm_chain(f.coeffs) unless given).

    Raises BoundaryRoot if any root sits on the unit circle, carrying the
    exact on-circle count.

    >>> roots_in_unit_disk(Poly([1, -1, -1]))   # golden ratio pair
    1
    >>> roots_in_unit_disk(Poly([2, -5, 2]))    # roots 2 and 1/2
    1
    """
    F = (chain or sturm_chain(f.coeffs))[0]
    n = len(F) - 1
    if n < 1:
        return 0
    on_circle = _unit_circle_count(F)
    if on_circle:
        raise BoundaryRoot(f"{on_circle} root(s) of modulus one", on_circle=on_circle)
    # g(w) = (w+1)^n F((w-1)/(w+1)) = sum c_i (w-1)^i (w+1)^(n-i), by
    # Horner in (w-1) with the powers of (w+1) alongside
    g, up = F[:1], [1]
    for c in F[1:]:
        up = [s + t for s, t in zip(up + [0], [0] + up)]
        g = [s - t + c * y for s, t, y in zip(g + [0], [0] + g, up)]
    g = _primitive(g)
    if len(g) != n + 1:
        raise InternalCheckError("Cayley transform dropped degree")
    # g(i w) = P(w) + i Q(w)
    terms = [(-1) ** (k // 2) * c for k, c in enumerate(reversed(g))]
    P = _primitive([0 if k % 2 else t for k, t in enumerate(terms)][::-1])
    Q = _primitive([t if k % 2 else 0 for k, t in enumerate(terms)][::-1])
    # Cauchy index of Q/P over the real line; P(0) = g(0) = F(-1) != 0
    chain = _prs(P, Q)
    index = _variations(_values_at(chain, None, False)) - _variations(_values_at(chain, None, True))
    # boundary correction for the atan(Q/P) limits at +-infinity
    r = len(Q) - len(P)
    s = (-1 if Q[0] * P[0] > 0 else 1) if r > 0 and r % 2 == 1 else 0
    total = n + s + index
    if total % 2 != 0:
        raise InternalCheckError("half-plane count is not an integer")
    inside = total // 2
    if not 0 <= inside <= n:
        raise InternalCheckError("half-plane count out of range")
    return inside
