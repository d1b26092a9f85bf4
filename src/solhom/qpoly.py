"""Univariate polynomials over Q, plus factorization over prime fields.

``Poly`` is a value: Fraction coefficients in descending degree with no
leading zeros, the zero polynomial ``Poly([0])`` with degree -1.  It has
no arithmetic; every polynomial computation in solhom runs on integer
coefficient lists (Sturm and Cauchy chains in rootcount, the mod-p
kernels here).  A small expression parser turns strings like
``"x^2 - x - 1"`` or ``"(3/2)"`` into polynomials; it is the single entry
point for every piece of user input that denotes a number or a
polynomial.

The mod-p helpers at the bottom work on ascending integer coefficient
lists, which keeps index arithmetic readable in the distinct-degree and
equal-degree splitting steps.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InternalCheckError, IrreducibilityUndecided, ParseError
from .intfactor import factorint, is_prime


# shared zero: Fractions are immutable, and building Fraction(0) per call shows in parsing
_ZERO = Fraction(0)


class Poly:
    """An immutable polynomial over Q, compared and hashed by its
    coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        # Fraction(c) on a Fraction rebuilds it: pass exact Fractions through
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while len(cs) > 1 and not cs[0]:
            cs.pop(0)
        if not cs:
            cs = [_ZERO]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs[0]  # leading zeros are stripped

    @property
    def degree(self) -> int:
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no monic form")
        lead = self.coeffs[0]
        return self if lead == 1 else Poly([c / lead for c in self.coeffs])

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def int_coeffs(self) -> tuple[int, ...]:
        if not self.is_integer():
            raise ValueError("polynomial has non-integer coefficients")
        return tuple(int(c) for c in self.coeffs)

    def pretty(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        n = self.degree
        for i, c in enumerate(self.coeffs):
            # numerator and denominator are plain ints: no Fraction arithmetic
            num, den = c.numerator, c.denominator
            if not num:
                continue
            e = n - i
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if e == 0:
                body = mag
            else:
                xs = var if e == 1 else f"{var}^{e}"
                body = xs if mag == "1" else f"{mag}*{xs}"
            parts.append(("-" if num < 0 else "+", body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def clear_to_monic_integer(f: Poly) -> tuple[Poly, int]:
    """Return (h, s) with h monic integer and roots(h) = s * roots(f).

    s is the least positive integer doing the job, read off the monic
    form's denominators.  Degree 0 input is rejected since it has no
    roots to rescale.
    """
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    f = f.monic()
    exponents: dict[int, int] = {}
    for i, c in enumerate(f.coeffs[1:], start=1):
        for p, e in factorint(c.denominator).items():
            need = -(-e // i)  # ceil(e / i)
            exponents[p] = max(exponents.get(p, 0), need)
    s = math.prod(p**e for p, e in exponents.items())
    h = Poly([Fraction(c.numerator * s**i, c.denominator) for i, c in enumerate(f.coeffs)])
    if not h.is_integer():
        raise InternalCheckError("clearing to a monic integer polynomial failed")
    return h, s


# ---------------------------------------------------------------------------
# expression parsing


class _Parser:
    """Recursive descent over one expression, pos the next character; as
    methods, not nested closures, a parse leaves no reference cycle.
    Each rule returns ascending coefficients with no trailing zeros
    ([] is zero), ints until a division makes Fractions."""

    def __init__(self, text: str, var: str):
        self.text = text
        self.var = var
        self.pos = 0

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])

    def expr(self) -> list:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        node = self.term()
        if sign < 0:
            node = [-c for c in node]
        while self.peek() in ("+", "-"):
            sign = 1 if self.peek() == "+" else -1
            self.pos += 1
            rhs = self.term()
            node = _trim([a + sign * b for a, b in _zip_pad(node, rhs)])
        return node

    def term(self) -> list:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            rhs = self.factor()
            if op == "*":
                node = _mul(node, rhs)
            else:
                if not rhs:
                    raise ParseError("division by zero")
                if len(rhs) != 1:
                    raise ParseError("division by a non-constant")
                node = [Fraction(c) / rhs[0] for c in node]
        return node

    def power_of(self, base: list) -> list:
        ch = self.peek()
        if ch is None or not ch.isdigit():
            raise ParseError("exponent must be a nonnegative integer")
        e = self.take_int()
        out = [1]
        for _ in range(e):
            out = _mul(out, base)
        return out

    def factor(self) -> list:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return [-c for c in self.factor()]
        if ch == "+":
            self.pos += 1
            return self.factor()
        node = self.atom()
        ch = self.peek()
        if ch == "^" or self.text.startswith("**", self.pos):  # one power, of the atom
            self.pos += 1 if ch == "^" else 2
            node = self.power_of(node)
        return node

    def atom(self) -> list:
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of expression")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                raise ParseError("unbalanced parentheses")
            self.pos += 1
            return node
        if ch.isdigit():
            return _trim([self.take_int()])
        if ch == self.var:
            self.pos += 1
            return [0, 1]
        raise ParseError(f"unexpected character {ch!r}")


def _mul(a: Sequence, b: Sequence) -> list:
    """Product of coefficient sequences over Q, both ascending or both
    descending."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def parse_poly(text: str, var: str = "x") -> Poly:
    """Parse an arithmetic expression into a polynomial over Q.

    Supported: integers, the variable, + - * / ^ (also **), parentheses,
    unary minus.  Division is only allowed by nonzero constants; anything
    else raises ParseError.

    >>> parse_poly("x^2 - x - 1").coeffs
    (Fraction(1, 1), Fraction(-1, 1), Fraction(-1, 1))
    >>> parse_poly("(1 + x)/2").coeffs
    (Fraction(1, 2), Fraction(1, 2))
    """
    parser = _Parser(text, var)
    try:
        coeffs = parser.expr()
    except ParseError:
        raise
    except Exception as exc:  # tokenizer slips become parse errors
        raise ParseError(str(exc)) from exc
    nxt = parser.peek()
    if nxt is not None:
        message = f"trailing input at position {parser.pos}"
        if nxt == var or nxt == "(" or nxt.isdigit():
            # juxtaposition such as 3x: show the input with the product written
            fixed = text[: parser.pos].rstrip() + "*" + text[parser.pos :]
            message += f"; products need '*', so write {fixed}"
        raise ParseError(message)
    return Poly(reversed(coeffs))


# ---------------------------------------------------------------------------
# factorization over F_p (ascending int lists)

_cz_rng = random.Random(0x5EED)


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def _pdivmod(f, g, p):
    f = f[:]
    if not g:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g) and f:
        c = f[-1] * inv % p
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = (f[d + i] - c * b) % p
        _trim(f)
    return _trim(q), f


def _pgcd(f, g, p):
    while g:
        f, g = g, _pdivmod(f, g, p)[1]
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _pderiv(f, p):
    return _trim([c * i % p for i, c in enumerate(f)][1:])


def _squarefree_decomposition(f, p):
    out: list[tuple[list[int], int]] = []
    if len(f) <= 1:
        return out
    deriv = _pderiv(f, p)
    if not deriv:
        # f(x) = g(x^p); in F_p[x] this equals g(x)^p
        g = _trim([f[i] for i in range(0, len(f), p)])
        return [(h, m * p) for h, m in _squarefree_decomposition(g, p)]
    c = _pgcd(f, deriv, p)
    w = _pdivmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = _pgcd(w, c, p)
        z = _pdivmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = _pdivmod(c, y, p)[0]
        i += 1
    if len(c) > 1:
        # leftover exponents are all divisible by p, so c = u(x^p) = u(x)^p
        croot = _trim([c[i] for i in range(0, len(c), p)])
        out.extend((h, m * p) for h, m in _squarefree_decomposition(croot, p))
    return out


def _equal_degree_split(f, d, p):
    """Split a squarefree product of degree-d irreducibles (Cantor-Zassenhaus)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = [_cz_rng.randrange(p) for _ in range(n)]
        a = _trim(a)
        if len(a) <= 1:
            continue
        if p == 2:
            t = a[:]
            acc = a[:]
            for _ in range(d - 1):
                acc = _ppowmod(acc, 2, f, p)
                t = _trim([(x + y) % 2 for x, y in _zip_pad(t, acc)])
            g = _pgcd(t, f, p)
        else:
            b = _ppowmod(a, (p**d - 1) // 2, f, p)
            b = _trim([(c - (1 if i == 0 else 0)) % p for i, c in enumerate(b + [0])])
            g = _pgcd(b, f, p)
        if 1 < len(g) < len(f):
            left = _equal_degree_split(g, d, p)
            right = _equal_degree_split(_pdivmod(f, g, p)[0], d, p)
            return left + right


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _distinct_degree_then_split(f, p):
    out = []
    h = [0, 1]  # x
    rest = f[:]
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppowmod(h, p, rest, p)
        hx = _trim([(c - (1 if i == 1 else 0)) % p for i, c in enumerate(h + [0, 0])])
        g = _pgcd(hx, rest, p)
        if len(g) > 1:
            out.extend((irr, d) for irr in _equal_degree_split(g, d, p))
            rest = _pdivmod(rest, g, p)[0]
            h = _pdivmod(h, rest, p)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return [irr for irr, _ in out]


def factor_mod_p(coeffs_desc: Sequence[int], p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factor a polynomial over F_p into monic irreducibles.

    Input is descending integer coefficients; output is a list of
    (ascending coefficient tuple, multiplicity), sorted for determinism.
    The unit (leading coefficient) is dropped.
    """
    f = _trim([c % p for c in reversed(list(coeffs_desc))])
    if len(f) <= 1:
        raise ValueError("cannot factor a constant")
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    if len(f) == 2:
        return [(tuple(f), 1)]
    if len(f) == 3:
        return _factor_quadratic(f[1], f[0], p)
    out: list[tuple[tuple[int, ...], int]] = []
    for sq, mult in _squarefree_decomposition(f, p):
        for irr in _distinct_degree_then_split(sq, p):
            out.append((tuple(irr), mult))
    out.sort()
    total = sum((len(irr) - 1) * m for irr, m in out)
    if total != len(f) - 1:
        raise InternalCheckError("factor degrees do not sum to the input degree")
    return out


def _factor_quadratic(b: int, c: int, p: int) -> list[tuple[tuple[int, ...], int]]:
    """factor_mod_p of x^2 + b x + c, b and c reduced mod p, from its
    roots: at p = 2 the roots are read off at 0 and 1; for odd p they are
    (-b +- sqrt(D)) / 2 with D = b^2 - 4c, a double root when D = 0 and
    none when D is a non-residue (docs/ideal-arithmetic.md)."""
    if p == 2:
        roots = [r for r in (0, 1) if (r * r + b * r + c) % 2 == 0]
    else:
        disc = (b * b - 4 * c) % p
        half = (p + 1) // 2
        if disc == 0:
            roots = [-b * half % p]
        elif pow(disc, (p - 1) // 2, p) != 1:
            roots = []
        else:
            s = _sqrt_mod_p(disc, p)
            roots = [(-b + s) * half % p, (-b - s) * half % p]
    if not roots:
        return [((c, b, 1), 1)]
    if len(roots) == 1:
        return [((-roots[0] % p, 1), 2)]
    return sorted(((-r % p, 1), 1) for r in roots)


def _sqrt_mod_p(a: int, p: int) -> int:
    """A square root of the nonzero quadratic residue a mod the odd prime
    p, by Tonelli-Shanks with the least non-residue z (Cohen, GTM 138,
    1.5.1).  With p - 1 = 2^k q, q odd, root^2 = a t holds throughout,
    and each round lowers the 2-power order of t until t = 1."""
    q, k = p - 1, 0
    while q % 2 == 0:
        q, k = q // 2, k + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, step, t, root = k, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # the least i with t^(2^i) = 1; then step^(2^(m - i - 1)) fixes t's order
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(step, 1 << (m - i - 1), p)
        m, step = i, b * b % p
        t, root = t * step % p, root * b % p
    return root


def dedekind_index_free(coeffs_desc: Sequence[int], p: int, factors: Sequence) -> bool:
    """Dedekind criterion (Cohen, GTM 138, 6.1): True when p does not
    divide the index of Z[theta] in the ring of integers, for theta a root
    of the monic integer f with descending coefficients coeffs_desc and
    factors its factor_mod_p output.  With g the product of the lifted
    irreducibles, h that of each to its multiplicity less one, and
    F = (g h - f) / p, p divides the index exactly when gcd(F, g, h) mod p
    is not constant."""
    g = h = [1]
    for irr, mult in factors:
        g = _mul(g, irr)
        for _ in range(mult - 1):
            h = _mul(h, irr)
    diff = [a - b for a, b in _zip_pad(_mul(g, h), list(reversed(coeffs_desc)))]
    if any(c % p for c in diff):
        raise InternalCheckError("Dedekind lift difference not divisible by p")
    F, g, h = (_trim([c % p for c in q]) for q in ([c // p for c in diff], g, h))
    return len(_pgcd(_pgcd(g, F, p), h, p)) == 1


def is_irreducible_mod_p(coeffs_desc: Sequence[int], p: int) -> bool:
    facs = factor_mod_p(coeffs_desc, p)
    return len(facs) == 1 and facs[0][1] == 1


# Primes tried for an irreducibility certificate mod p before giving up.
IRREDUCIBILITY_PRIME_BUDGET = 60


def is_irreducible_over_q(f: Poly) -> bool:
    """Irreducibility over Q for a monic integer polynomial.

    Strategy: rational root test, then degree-2/3 shortcut, then search for
    a prime p not dividing disc-like data with f irreducible mod p (a
    sufficient certificate), then a bounded search for integer factors of
    degree 2 as a last resort for degree 4 and 5.  Raises
    IrreducibilityUndecided when no certificate either way is found within
    IRREDUCIBILITY_PRIME_BUDGET.
    """
    if f.degree < 1:
        return False
    if not f.is_integer() or f.coeffs[0] != 1:
        raise ValueError("expects a monic integer polynomial")
    if f.degree == 1:
        return True
    coeffs = f.int_coeffs()
    if coeffs[-1] == 0:
        return False
    if any(_horner(coeffs, r) == 0 for r in _divisors_signed(coeffs[-1])):
        return False
    if f.degree <= 3:
        return True
    tried = 0
    p = 2
    while tried < IRREDUCIBILITY_PRIME_BUDGET:
        if is_prime(p):
            tried += 1
            if is_irreducible_mod_p(coeffs, p):
                return True
        p += 1
    if f.degree in (4, 5):
        return not _has_quadratic_factor(f)
    raise IrreducibilityUndecided(
        f"irreducibility of {f.pretty()} over Q is undecided: it factors modulo each "
        f"of the first IRREDUCIBILITY_PRIME_BUDGET = {IRREDUCIBILITY_PRIME_BUDGET} "
        f"primes, and degree {f.degree} > 5 has no factor search"
    )


def _horner(coeffs_desc: Sequence[int], x: int) -> int:
    acc = 0
    for c in coeffs_desc:
        acc = acc * x + c
    return acc


def _divisors_signed(n: int) -> list[int]:
    """Every divisor of n != 0 with both signs, ordered by absolute value."""
    divisors = [1]
    for p, e in factorint(n).items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return [s * d for d in sorted(divisors) for s in (1, -1)]


def _has_quadratic_factor(f: Poly) -> bool:
    # Called once f has no rational root, so f(1) and f(-1) are nonzero.
    # A monic factor q = x^2 + b x + c of monic integer f is integral
    # (Gauss), so c | f(0), q(1) = 1 + b + c divides f(1), and q(-1) is a
    # nonzero divisor of f(-1).  So b = d - 1 - c for a divisor d of f(1).
    coeffs = f.int_coeffs()
    at_one = _divisors_signed(_horner(coeffs, 1))
    at_minus_one = _horner(coeffs, -1)
    for c in _divisors_signed(coeffs[-1]):
        for d in at_one:
            b = d - 1 - c
            q_minus_one = 1 - b + c
            if q_minus_one == 0 or at_minus_one % q_minus_one != 0:
                continue
            if _divides_monic_quadratic(b, c, coeffs):
                return True
    return False


def _divides_monic_quadratic(b: int, c: int, coeffs_desc: Sequence[int]) -> bool:
    """x^2 + b x + c divides the integer polynomial, by synthetic division:
    each quotient coefficient is the leading remainder coefficient."""
    r = list(coeffs_desc)
    for i in range(len(r) - 2):
        r[i + 1] -= b * r[i]
        r[i + 2] -= c * r[i]
    return r[-2] == r[-1] == 0
