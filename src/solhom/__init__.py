"""Exact invariants of algebraic-number solenoids.

The package computes, in exact arithmetic, the homology of the stable and
unstable groupoids attached to multiplication by an algebraic number c on
its adele-type solenoid, the K-theory groups predicted by the homology,
Lefschetz-style periodic point counts, and Kunneth products of the graded
results.
"""

from __future__ import annotations

__version__ = "0.1.1"
