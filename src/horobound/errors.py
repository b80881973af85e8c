"""Exception taxonomy shared by every module.

Two kinds of failure are kept apart on purpose: hard errors (bad input, broken
preconditions, exceeded budgets) and *diagnostics*, which report truncation
artifacts of a finite computation rather than genuine inconsistencies.
The command line maps diagnostics to exit code 2 and hard errors to 1.
"""

from __future__ import annotations

__all__ = [
    "HoroboundError",
    "Diagnostic",
    "TableNotGroup",
    "BadCocycle",
    "NonUnimodularAction",
    "GroupMismatch",
    "IdentityGenerator",
    "DoesNotGenerate",
    "RepeatedGenerator",
    "LabelCount",
    "BallTooLarge",
    "OutOfBall",
    "DomainExhausted",
    "DomainMismatch",
    "RangeEmpty",
    "BoundViolated",
    "InfiniteKernelIndex",
    "DimensionCap",
    "NotConnected",
    "NotExtreme",
    "VerificationFailed",
    "NotASubgroup",
    "SizeBudget",
    "OutOfRange",
    "AxiomViolation",
    "SchemaError",
    "ValidationError",
]


class HoroboundError(Exception):
    """Base class for every error raised by this package."""


class Diagnostic(HoroboundError):
    """A truncation artifact worth reporting, not an implementation bug.

    Instances carry a ``payload`` dict so the CLI can serialize the finding.
    """

    def __init__(self, message: str, **payload):
        super().__init__(message)
        self.payload = payload


# -- group construction ------------------------------------------------------

class TableNotGroup(HoroboundError):
    """Multiplication table fails associativity, identity or inverses."""


class BadCocycle(HoroboundError):
    """Extension data (action / cocycle) is inconsistent."""


class NonUnimodularAction(HoroboundError):
    """An action matrix has determinant other than +-1."""


class GroupMismatch(HoroboundError):
    """Elements of two different group instances were combined."""


class IdentityGenerator(HoroboundError):
    """A generating set may not contain the identity."""


class DoesNotGenerate(HoroboundError):
    """The proposed generators provably fail to generate the group."""


class RepeatedGenerator(HoroboundError):
    """A generator list names one element twice, or gives two generators
    one label."""


class LabelCount(HoroboundError):
    """A generator list and its labels differ in length."""


# -- cayley ------------------------------------------------------------------

class BallTooLarge(HoroboundError):
    """Ball growth exceeded the element-count budget."""


class OutOfBall(HoroboundError):
    """A query needs an element beyond the computed radius."""


# -- boundary ----------------------------------------------------------------

class DomainExhausted(HoroboundError):
    """A functional was asked for values outside its restricted domain."""


class DomainMismatch(HoroboundError):
    """Two functionals with different domains were compared."""


class RangeEmpty(HoroboundError):
    """The admissible parameter range of a construction is empty."""


class BoundViolated(Diagnostic):
    """A finite-level certificate exceeded its stated bound."""


class InfiniteKernelIndex(Diagnostic):
    """The kernel seen at a finite level generates a subgroup of infinite
    index, so no bound 6[G:K]+1 exists there."""


# -- vabelian ----------------------------------------------------------------

class DimensionCap(HoroboundError):
    """Free rank exceeds the configured exact-geometry cap."""


class NotConnected(HoroboundError):
    """The quotient graph is not connected from the base coset."""


class NotExtreme(HoroboundError):
    """The selected point admits no strictly supporting functional."""


class VerificationFailed(HoroboundError):
    """A certified construction failed its own re-check; implementation bug signal."""


# -- metrics -----------------------------------------------------------------

class NotASubgroup(HoroboundError):
    """A chain member is not closed under product / inverse."""


class SizeBudget(HoroboundError):
    """An enumeration passed its budget; the message gives the partial size.

    Raised by ball systems (elements held: representatives, enumerated
    double-coset members, listed spheres; levels), by a finite table past
    its order budget, by the simple-cycle DFS (steps) and by the hull's
    hyperplane enumeration (subsets).
    """


class OutOfRange(HoroboundError):
    """A query or parameter lies outside its admissible range."""


class AxiomViolation(HoroboundError):
    """A metric axiom failed; carries a witness."""

    def __init__(self, message: str, **witness):
        super().__init__(message)
        self.witness = witness


# -- cli ---------------------------------------------------------------------

class SchemaError(HoroboundError):
    """Spec file does not match the documented schema."""


class ValidationError(HoroboundError):
    """Spec file is well formed but semantically invalid."""
