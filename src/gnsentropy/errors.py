"""Exception types separating bad inputs from numerical breakdowns.

``ValueError`` (and :class:`StateError`) mean the caller handed us something
malformed; :class:`AlgebraError` subclasses mean a numerical structure check
failed mid-computation. The CLI maps the two families to distinct exit codes.
Batched stages raise on their first failed check; a batch of states that
fails is solved again one state at a time, so the error raised is that of
its first failing state in input order.
"""


class AlgebraError(Exception):
    """A structural property expected of the computation did not hold."""


class ClosureError(AlgebraError):
    """A span failed to close under products/adjoints within tolerance."""


class DecompositionError(AlgebraError):
    """Block decomposition failed: a projection count, dimension reading, grouping or weight check."""


class OracleMismatchError(AlgebraError):
    """Two independent computation paths disagreed beyond tolerance."""


class StateError(ValueError):
    """Input does not define a valid normalized positive state."""

