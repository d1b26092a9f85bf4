"""Integer primality and factorization.

Deterministic Miller-Rabin for 64-bit-and-beyond inputs plus Pollard rho
with a fixed Brent cycle.  Inputs in this package are small (norms of
elements with single-digit coordinates), so no effort is spent on the
quadratic sieve regime.

>>> factorint(5040)
{2: 4, 3: 2, 5: 1, 7: 1}
>>> radical(360)
30
"""

from __future__ import annotations

import math

# Strong bases giving a deterministic test for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n, Brent's variant."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        count = 0
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
            count += 1
            if count > 1 << 22:
                break
        if 1 < d < n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as an exponent dict, sorted by prime.

    factorint(0) raises ValueError; factorint(+-1) is {}.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return dict(sorted(out.items()))


def radical(n: int) -> int:
    """Product of the distinct primes dividing n (n != 0).

    >>> radical(1)
    1
    >>> radical(-12)
    6
    """
    return math.prod(factorint(n).keys()) if abs(n) != 1 else 1
