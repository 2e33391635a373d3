"""Exception types separating bad inputs from numerical breakdowns.

``ValueError`` (and :class:`StateError`) mean the caller handed us something
malformed; :class:`AlgebraError` subclasses mean a numerical structure check
failed mid-computation. The CLI maps the two families to distinct exit codes.
Batched stages carry each failed item's error in its result slot and raise
the first in input order once the batch is done.
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


def attempt(fn, *args, **kw):
    """``fn(*args, **kw)``, or the ``ValueError`` or :class:`AlgebraError` it
    raised: a batch carries a failed item's error in place of its result."""
    try:
        return fn(*args, **kw)
    except (ValueError, AlgebraError) as exc:
        return exc


def raise_first(results: list) -> list:
    """``results``, unless one of them is an error: then the first is raised."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results
