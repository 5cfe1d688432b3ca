"""Shared exception types.

Everything derives from ValueError so callers that only care about
"bad input" can catch the builtin.
"""


class CapacityError(ValueError):
    """Requested group size exceeds the enumeration limit (n <= 10)."""


class EmptySetError(ValueError):
    """An operation that needs a nonempty ordering set received an empty one."""


class DegenerateError(ValueError):
    """The requested quantity is undefined for this input.

    Raised for the degree of the zero function, ratio statistics with a
    zero denominator, and bounds on identically-zero restrictions.
    """


class ModelValidityError(ValueError):
    """A payoff model's parameters violate its own validity conditions."""
