"""Shared exception types, and the one reader of typed JSON fields.

Every class derives from ``BlowfishError`` and keeps its builtin base, so
callers may catch either.
"""

import json
import math


class BlowfishError(Exception):
    """Base of every error this package defines."""


class BudgetExceededError(BlowfishError, RuntimeError):
    """An enumeration or search exceeded its configured budget."""


class InfeasibleConstraintsError(BlowfishError, ValueError):
    """No database satisfies the recorded constraint answers."""


class NonSparseConstraintsError(BlowfishError, ValueError):
    """Constraint set is not sparse with respect to the secret graph."""


class ShapeNotRecognizedError(BlowfishError, ValueError):
    """Constraint set does not match any specialized sensitivity shape."""


class InfiniteSensitivityError(BlowfishError, ValueError):
    """The query cannot be released with finite noise under this policy."""


# what each kind of field accepts, and how it names one value and a list
_SHAPES = {
    int: ((int, float), "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    bool: (bool, "a boolean", "booleans"),
    str: (str, "a string", "strings"),
    dict: (dict, "an object", "objects"),
}


def _shape(kind, plural: bool = False) -> str:
    if isinstance(kind, list):
        return ("lists of " if plural else "a list of ") + _shape(kind[0], True)
    if isinstance(kind, tuple):
        return f"{_shape(kind[0], plural)} or {json.dumps(kind[1])}"
    return _SHAPES[kind][2 if plural else 1]


def read_field(source: dict, key: str, default, kind, least=None, where: str = "experiment"):
    """``source[key]``, or ``default`` when the key is absent, read as
    ``kind``: a key of ``_SHAPES``, ``(kind, literal)`` for that kind or the
    one JSON literal (``(int, "full")``, ``(str, None)``), or ``[kind]`` for
    a list of them.  An ``int`` is a JSON integer or a whole float, a
    ``float`` a finite JSON number; neither is a boolean or a string.  A
    value of another shape, or a number below ``least``, is a ValueError
    naming ``where`` and the field, and for a list the index of the first
    entry at fault.
    """

    def read(v, kind):
        # v as kind: TypeError for another shape, ValueError or
        # OverflowError for a number that is not finite; v of type kind, if
        # not float, passes every check below
        if type(v) is kind and kind is not float:
            return v
        if isinstance(kind, list):
            if not isinstance(v, list):
                raise TypeError
            return [read(x, kind[0]) for x in v]
        if isinstance(kind, tuple):
            return v if type(v) is type(kind[1]) and v == kind[1] else read(v, kind[0])
        if isinstance(v, bool) != (kind is bool) or not isinstance(v, _SHAPES[kind][0]):
            raise TypeError
        if kind is int and isinstance(v, float):
            if not v.is_integer():
                raise TypeError
            return int(v)
        if kind is float and not math.isfinite(v := float(v)):
            raise ValueError
        return v

    value = source.get(key, default)
    many = isinstance(kind, list)
    if many and not isinstance(value, list):
        raise ValueError(f"{where} {key!r} must be {_shape(kind)}, got {value!r}")
    out = []
    for i, v in enumerate(value if many else [value]):
        try:
            out.append(read(v, kind[0] if many else kind))
        except TypeError:
            problem = _shape(kind)
        except (ValueError, OverflowError):
            problem = "finite"
        else:
            if least is None or out[-1] >= least:
                continue
            problem = f"at least {least}"
        raise ValueError(f"{where} {key!r} must be {problem}, got {v!r}" + (f" at index {i}" if many else ""))
    return out if many else out[0]
