"""Univariate polynomials over Q, plus factorization over prime fields.

``Poly`` stores Fraction coefficients in descending degree with no leading
zeros; the zero polynomial is ``Poly.zero()`` with degree -1.  A small
expression parser turns strings like ``"x^2 - x - 1"`` or ``"(3/2)"`` into
polynomials; it is the single entry point for every piece of user input
that denotes a number or a polynomial.

The mod-p helpers at the bottom work on ascending integer coefficient
lists, which keeps index arithmetic readable in the distinct-degree and
equal-degree splitting steps.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CapExceeded, ParseError
from .intfactor import factorint, is_prime


# shared zero: Fractions are immutable, and building Fraction(0) per call shows in parsing
_ZERO = Fraction(0)


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        # Fraction(c) on a Fraction rebuilds it: pass exact Fractions through
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[0] == 0:
            cs.pop(0)
        if not cs:
            cs = [_ZERO]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly([0])

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def x() -> "Poly":
        return Poly([1, 0])

    def is_zero(self) -> bool:
        return self.coeffs == (_ZERO,)

    @property
    def degree(self) -> int:
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __add__(self, other: "Poly") -> "Poly":
        a, b = list(self.coeffs), list(other.coeffs)
        n = max(len(a), len(b))
        a = [_ZERO] * (n - len(a)) + a
        b = [_ZERO] * (n - len(b)) + b
        return Poly([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        return Poly([Fraction(c) * a for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        quo = [_ZERO] * (dq + 1)
        lead = other.coeffs[0]
        for i in range(dq + 1):
            f = rem[i] / lead
            quo[i] = f
            if f:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= f * b
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def eval(self, x) -> Fraction:
        acc = _ZERO
        x = Fraction(x)
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        n = self.degree
        if n <= 0:
            return Poly.zero()
        return Poly([c * (n - i) for i, c in enumerate(self.coeffs[:-1])])

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial has no monic form")
        lead = self.coeffs[0]
        return Poly([c / lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else Poly.zero()

    def squarefree_part(self) -> "Poly":
        """Product of the distinct irreducible factors, monic."""
        if self.degree <= 0:
            return Poly.const(1)
        g = self.gcd(self.derivative())
        return (self // g).monic()

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
            if c == 0:
                continue
            e = n - i
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                xs = var if e == 1 else f"{var}^{e}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def clear_to_monic_integer(f: Poly) -> tuple[Poly, int]:
    """Return (h, s) with h monic integer and roots(h) = s * roots(f).

    s is the least positive integer doing the job.  Degree 0 input is
    rejected since it has no roots to rescale.
    """
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    lead = f.coeffs[0]
    ratios = [c / lead for c in f.coeffs]
    exponents: dict[int, int] = {}
    for i, r in enumerate(ratios[1:], start=1):
        if r == 0:
            continue
        for p, e in factorint(r.denominator).items():
            need = -(-e // i)  # ceil(e / i)
            exponents[p] = max(exponents.get(p, 0), need)
    s = math.prod(p**e for p, e in exponents.items()) if exponents else 1
    h = Poly([r * Fraction(s) ** i for i, r in enumerate(ratios)])
    if not h.is_integer():
        raise AssertionError("clearing failed")
    return h, s


# ---------------------------------------------------------------------------
# expression parsing


class _Parser:
    """Recursive descent over one expression, pos the next character; as
    methods, not nested closures, a parse leaves no reference cycle."""

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

    def expr(self) -> Poly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        node = self.term()
        if sign < 0:
            node = -node
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Poly:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            if op == "*" and self.peek() == "*":  # ** power
                self.pos += 1
                node = self.power_of(node)
                continue
            rhs = self.factor()
            if op == "*":
                node = node * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero")
                if rhs.degree != 0:
                    raise ParseError("division by a non-constant")
                node = node.scale(1 / rhs.coeffs[0])
        return node

    def power_of(self, base: Poly) -> Poly:
        ch = self.peek()
        if ch is None or not ch.isdigit():
            raise ParseError("exponent must be a nonnegative integer")
        e = self.take_int()
        out = Poly.const(1)
        for _ in range(e):
            out = out * base
        return out

    def factor(self) -> Poly:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -self.factor()
        if ch == "+":
            self.pos += 1
            return self.factor()
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            node = self.power_of(node)
        return node

    def atom(self) -> Poly:
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
            return Poly.const(self.take_int())
        if ch == self.var:
            self.pos += 1
            return Poly.x()
        raise ParseError(f"unexpected character {ch!r}")


def parse_poly(text: str, var: str = "x") -> Poly:
    """Parse an arithmetic expression into a polynomial over Q.

    Supported: integers, the variable, + - * / ^ (also **), parentheses,
    unary minus.  Division is only allowed by nonzero constants; anything
    else raises ParseError.

    >>> parse_poly("x^2 - x - 1").coeffs
    (Fraction(1, 1), Fraction(-1, 1), Fraction(-1, 1))
    >>> parse_poly("(1 + x)/2").eval(1)
    Fraction(1, 1)
    """
    parser = _Parser(text, var)
    try:
        result = parser.expr()
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
    return result


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
    out: list[tuple[tuple[int, ...], int]] = []
    for sq, mult in _squarefree_decomposition(f, p):
        for irr in _distinct_degree_then_split(sq, p):
            out.append((tuple(irr), mult))
    out.sort()
    total = sum((len(irr) - 1) * m for irr, m in out)
    if total != len(f) - 1:
        raise AssertionError("factor degrees do not sum to the input degree")
    return out


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
    degree 2 as a last resort for degree 4 and 5.  Raises CapExceeded when
    no certificate either way is found within IRREDUCIBILITY_PRIME_BUDGET.
    """
    if f.degree < 1:
        return False
    if not f.is_integer() or f.coeffs[0] != 1:
        raise ValueError("expects a monic integer polynomial")
    if f.degree == 1:
        return True
    c0 = int(f.coeffs[-1])
    if c0 == 0:
        return False
    for r in _divisors_signed(c0):
        if f.eval(r) == 0:
            return False
    if f.degree <= 3:
        return True
    tried = 0
    p = 2
    while tried < IRREDUCIBILITY_PRIME_BUDGET:
        if is_prime(p):
            tried += 1
            lead_ok = int(f.coeffs[0]) % p != 0
            if lead_ok and is_irreducible_mod_p(f.int_coeffs(), p):
                return True
        p += 1
    if f.degree in (4, 5):
        return not _has_quadratic_factor(f)
    raise CapExceeded("irreducibility undecided within the prime budget")


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
    at_one = _divisors_signed(int(f.eval(1)))
    at_minus_one = int(f.eval(-1))
    for c in _divisors_signed(int(f.coeffs[-1])):
        for d in at_one:
            b = d - 1 - c
            q_minus_one = 1 - b + c
            if q_minus_one == 0 or at_minus_one % q_minus_one != 0:
                continue
            if (f % Poly([1, b, c])).is_zero():
                return True
    return False
