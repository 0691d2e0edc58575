"""Exception hierarchy for the roadmapper engine.

Every error raised by the package derives from RoadmapperError so callers
can catch engine failures without catching programming mistakes.
"""

from __future__ import annotations


class RoadmapperError(Exception):
    """Base class for all engine errors."""


# --- database construction -------------------------------------------------

class DuplicateIdError(RoadmapperError):
    """A requirement id is declared twice in one database."""


class DanglingReferenceError(RoadmapperError):
    """A requirement or preference references an id that does not resolve."""


class CyclicReferenceError(RoadmapperError):
    """An atom is its own consequent through a chain of implications."""


class InconsistentMandatorySetError(RoadmapperError):
    """The mandatory subset of a database derives the contradiction."""


# --- inference / lookup -----------------------------------------------------

class UnresolvedReferenceError(RoadmapperError):
    """An id used in a premise set does not resolve to a requirement."""


# --- numeric evaluation ------------------------------------------------------

class MissingVariableError(RoadmapperError):
    """An expression variable has no value in the given assignment."""


class DivisionByZeroError(RoadmapperError):
    """A division evaluated with a zero denominator."""


class NonFiniteResultError(RoadmapperError):
    """Arithmetic produced an infinity or NaN."""


class NoDistributionError(RoadmapperError):
    """A probability condition was evaluated without a distribution."""


class UnsupportedDistributionError(RoadmapperError):
    """A distribution kind the evaluator does not know."""


class NonPositiveSdError(RoadmapperError):
    """A normal CDF was requested with sd <= 0."""


class RefinementCycleError(RoadmapperError):
    """The quantitative refinement graph over '=' conditions is cyclic."""


class ValOverflowError(RoadmapperError):
    """A variable accumulated more assigned values than the engine cap."""


# --- operationalization / transforms ----------------------------------------

class WrongSortError(RoadmapperError):
    """An operation was applied to a requirement of the wrong sort."""


class NotAComparisonError(RoadmapperError):
    """Probabilistic relaxation needs a plain comparison condition."""


class MultiVariableConditionError(RoadmapperError):
    """Fuzzy relaxation needs a condition over a single variable."""


class NoSatisfactionFnError(RoadmapperError):
    """No satisfaction function is registered for the variable."""


class InvalidLevelError(RoadmapperError):
    """A probability level outside (0, 1]."""


class ResourceLimitError(RoadmapperError):
    """A search exceeded its configured candidate or size limit."""


# --- adaptation / ranking -----------------------------------------------------

class TriggerNotInSourceError(RoadmapperError):
    """An adaptation trigger is not part of the source configuration."""


class IdenticalConfigurationsError(RoadmapperError):
    """An adaptation between equal configurations has no effect."""


class NotApplicableError(RoadmapperError):
    """An adaptation operator does not apply to the given configuration."""


class RamificationFailureError(RoadmapperError):
    """Applying an operator produced a set that is not a configuration.

    Carries the failing property report on the `report` attribute.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class MissingValueError(RoadmapperError):
    """The ranking variable has no value in some configuration."""


class NonSingletonValError(RoadmapperError):
    """A variable has several candidate values where one was required."""


# --- test oracles and data ------------------------------------------------------

class TooLargeError(RoadmapperError):
    """The input exceeds the scale a brute-force oracle accepts."""


class GenerationError(RoadmapperError):
    """The random-model generator found no valid database for a spec."""
