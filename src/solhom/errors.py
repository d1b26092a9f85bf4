"""Shared exception types.

Every failure mode that callers are expected to catch gets its own class
here, so that the CLI can map exceptions to exit codes without string
matching.
"""

from __future__ import annotations


class SolhomError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SolhomError):
    """Malformed input: polynomial syntax, bad rational, wrong degree."""


class BoundaryRoot(SolhomError):
    """A root of modulus exactly 1 was found where the hypothesis forbids it.

    Carries the exact counts established before the boundary root was hit.
    """

    def __init__(self, message: str, on_circle: int = 1):
        super().__init__(message)
        self.on_circle = on_circle


class ZeroInput(SolhomError):
    """The defining element is zero (or has no root to speak of)."""


class DegenerateFix(SolhomError):
    """A periodic-point or trace query was made for an n with c**n = 1."""


class HypothesisN1(SolhomError):
    """Raised when an operation requires transfer index N > 1 but N = 1."""


class FlatteningFailure(SolhomError):
    """An exterior-power transfer matrix failed its integrality check.

    The flattened tower is only valid when every map preserves the
    reference lattice; a failure here means the principalization step
    produced an unusable generator.
    """


class IndexObstruction(SolhomError):
    """A rational prime divides the index of the working order.

    Valuation data computed from the power basis would be unreliable for
    such primes, so we refuse instead of guessing.
    """


class NonCommuting(SolhomError):
    """Two colimit endomorphisms do not commute, so the joint refinement
    argument behind the equality test does not apply."""


class AtomClassExceeded(SolhomError):
    """A group falls outside the supported atom class Z, Z/q, Z[1/m]."""


class IrreducibilityUndecided(SolhomError):
    """No certificate either way for irreducibility over Q within the
    method's limits: a limit of the method, not a bound violation."""


class PrincipalizationUndecided(SolhomError):
    """In degree >= 3, no principal power of the expanding ideal was found
    within the small-box search's radius and exponent: a limit of the
    method, not a proof that none is principal."""


class CapExceeded(SolhomError):
    """An iteration hit its safety cap inside the diagnostic margin.

    This signals a bound violation worth investigating, not a plain
    negative answer.
    """


class InternalCheckError(SolhomError):
    """A redundant cross-check failed; the computation cannot be trusted."""
