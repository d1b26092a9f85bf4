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
   computed by a generalized Sturm chain.  Everything stays in Q.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BoundaryRoot, InternalCheckError
from .qpoly import Poly


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(f: Poly) -> list[Poly]:
    """Negative-remainder chain starting from (f, f')."""
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _variations(signs: list[int]) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _variations_at(chain: list[Poly], x: Fraction) -> int:
    return _variations([_sign(p.eval(x)) for p in chain])


def _sign_at_infinity(p: Poly, positive: bool) -> int:
    if p.is_zero():
        return 0
    s = _sign(p.leading())
    return s if positive or p.degree % 2 == 0 else -s


def _variations_at_infinity(chain: list[Poly], positive: bool) -> int:
    return _variations([_sign_at_infinity(p, positive) for p in chain])


def real_roots_in_interval(f: Poly, a, b) -> int:
    """Number of distinct real roots of f in the open interval (a, b).

    Endpoints are rationals; pass a=None or b=None for an infinite end.

    >>> real_roots_in_interval(Poly([1, 0, -2]), 0, 2)
    1
    >>> real_roots_in_interval(Poly([1, 0, 1]), None, None)
    0
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has every point as a root")
    F = f.squarefree_part()
    if F.degree < 1:
        return 0
    if a is not None and b is not None and Fraction(a) >= Fraction(b):
        return 0
    chain = sturm_chain(F)
    va = _variations_at_infinity(chain, False) if a is None else _variations_at(chain, Fraction(a))
    vb = _variations_at_infinity(chain, True) if b is None else _variations_at(chain, Fraction(b))
    count = va - vb  # roots in (a, b]
    if b is not None and F.eval(b) == 0:
        count -= 1
    if count < 0:
        raise InternalCheckError("negative Sturm count")
    return count


def real_root_count(f: Poly) -> int:
    return real_roots_in_interval(f, None, None)


def _circle_pair_polys(F: Poly) -> tuple[Poly, Poly]:
    """A, B with F(z) = q(z) (z^2 - x z + 1) + A(x) z + B(x)."""
    # z^k = u_k(x) z + v_k(x) modulo z^2 - x z + 1:
    # u_{k+1} = x u_k + v_k, v_{k+1} = -u_k
    u, v = Poly.zero(), Poly.const(1)
    A, B = Poly.zero(), Poly.zero()
    x = Poly.x()
    for c in reversed(F.coeffs):  # ascending order
        cp = Poly.const(c)
        A = A + cp * u
        B = B + cp * v
        u, v = x * u + v, -u
    return A, B


def unit_circle_root_count(f: Poly) -> int:
    """Number of distinct roots with |z| = 1, exactly."""
    F = f.squarefree_part()
    if F.degree < 1:
        return 0
    count = int(F.eval(1) == 0) + int(F.eval(-1) == 0)
    A, B = _circle_pair_polys(F)
    if A.is_zero() and B.is_zero():
        raise InternalCheckError("nonzero polynomial reduced to zero remainder")
    if A.is_zero():
        G = B
    elif B.is_zero():
        G = A
    else:
        G = A.gcd(B)
    if G.degree >= 1:
        count += 2 * real_roots_in_interval(G, -2, 2)
    return count


def cauchy_index(P: Poly, Q: Poly) -> int:
    """Cauchy index of Q/P over the whole real line."""
    if P.is_zero():
        raise ValueError("index of a fraction with zero denominator")
    if Q.is_zero():
        return 0
    chain = [P, Q]
    while True:
        r = chain[-2] % chain[-1]
        if r.is_zero():
            break
        chain.append(-r)
    return _variations_at_infinity(chain, False) - _variations_at_infinity(chain, True)


def roots_in_unit_disk(f: Poly) -> int:
    """Number of distinct roots with |z| < 1.

    Raises BoundaryRoot if any root sits on the unit circle, carrying the
    exact on-circle count.

    >>> roots_in_unit_disk(Poly([1, -1, -1]))   # golden ratio pair
    1
    >>> roots_in_unit_disk(Poly([2, -5, 2]))    # roots 2 and 1/2
    1
    """
    F = f.squarefree_part()
    if F.degree < 1:
        return 0
    on_circle = unit_circle_root_count(F)
    if on_circle:
        raise BoundaryRoot(
            f"{on_circle} root(s) of modulus one", on_circle=on_circle
        )
    n = F.degree
    # g(w) = (w+1)^n F((w-1)/(w+1)), degree preserved since F(1) != 0
    wp = Poly([1, 1])
    wm = Poly([1, -1])
    g = Poly.zero()
    up = Poly.const(1)  # (w-1)^i, built up
    downs = [Poly.const(1)]
    for _ in range(n):
        downs.append(downs[-1] * wp)
    for i, c in enumerate(reversed(F.coeffs)):  # F = sum c_i z^i
        if c != 0:
            g = g + (up * downs[n - i]).scale(c)
        up = up * wm
    if g.degree != n:
        raise InternalCheckError("Cayley transform dropped degree")
    # g(i w) = P(w) + i Q(w)
    p_coeffs = {}
    q_coeffs = {}
    for k, c in enumerate(reversed(g.coeffs)):
        if c == 0:
            continue
        if k % 2 == 0:
            p_coeffs[k] = c * (-1) ** (k // 2)
        else:
            q_coeffs[k] = c * (-1) ** ((k - 1) // 2)
    P = Poly([p_coeffs.get(k, Fraction(0)) for k in range(max(p_coeffs), -1, -1)])
    Q = (
        Poly([q_coeffs.get(k, Fraction(0)) for k in range(max(q_coeffs), -1, -1)])
        if q_coeffs
        else Poly.zero()
    )
    index = cauchy_index(P, Q)
    # boundary correction for the atan(Q/P) limits at +-infinity
    r = (Q.degree if not Q.is_zero() else -1) - P.degree
    if r > 0 and r % 2 == 1:
        s = -_sign(Q.leading() * P.leading())
    else:
        s = 0
    total = n + s + index
    if total % 2 != 0:
        raise InternalCheckError("half-plane count is not an integer")
    inside = total // 2
    if not 0 <= inside <= n:
        raise InternalCheckError("half-plane count out of range")
    return inside
