"""Error types shared across the package, and the one integer check.

Two classes of failure are distinguished so the command line driver can
map them onto exit codes: domain errors (bad values, violated
preconditions) and input format errors (unreadable or malformed files).
"""

import operator


class DomainError(ValueError):
    """A value violates a documented precondition or invariant."""


class InputFormatError(ValueError):
    """A file or config document could not be parsed."""


def check_int(value, name, lo=None):
    """value as a Python int: a Python or numpy integer, at least lo when
    lo is given. A float such as 2.5 is refused rather than truncated,
    and so is a bool (True is no count), both with DomainError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        out = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and out < lo:
        raise DomainError(f"{name} must be >= {lo}, got {out}")
    return out
