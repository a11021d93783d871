"""Error types shared across the package, and the checks that decide
which integers, reals and arrays the library accepts.

Two classes of failure are distinguished so the command line driver can
map them onto exit codes: domain errors (bad values, violated
preconditions) and input format errors (unreadable or malformed files).
"""

import math
import numbers
import operator

import numpy as np


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


def check_real(value, name, gt=None, ge=None, lt=None, le=None):
    """value as a finite Python float: a Python or numpy real number
    within each bound given (value > gt, value >= ge, value < lt,
    value <= le). NaN, +-inf, a bool and a str are refused with
    DomainError, and so is an integer beyond float64's range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise DomainError(f"{name} must be finite, got {out}")
    for bound, sign, holds in ((gt, ">", operator.gt), (ge, ">=", operator.ge),
                               (lt, "<", operator.lt), (le, "<=", operator.le)):
        if bound is not None and not holds(out, bound):
            raise DomainError(f"{name} must be {sign} {bound}, got {out}")
    return out


def real_array(a, name):
    """a as a float64 array (not copied when it is one). A complex array
    is refused with DomainError, since the cast would drop its imaginary
    part, and so is what the cast cannot take: a string, a ragged
    nesting, a complex object, an integer beyond float64's range."""
    try:
        if not np.iscomplexobj(a):
            return np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be an array of real numbers ({exc})") from None
    raise DomainError(f"{name} must be real, got a complex array")


def check_finite(a, name, size=None):
    """a as a real float64 array (see real_array), raveled to a vector
    of size entries when size is given; DomainError, naming the first
    non-finite entry and its index, unless every entry is finite."""
    a = real_array(a, name)
    if size is not None:
        a = a.ravel()
        if a.size != size:
            raise DomainError(f"{name} must hold {size} entries, got {a.size}")
    finite = np.isfinite(a)
    if not finite.all():
        where = np.argwhere(~finite)[0]
        index = int(where[0]) if a.ndim == 1 else tuple(where.tolist())
        raise DomainError(f"{name} must be finite, got {a[tuple(where)]} at index {index}")
    return a
