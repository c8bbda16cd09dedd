"""Shared exception types, the one JSON parser and the one reader of typed
JSON fields.

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


def read_json(text: str, what: str):
    """The JSON value of ``text``; text that is no JSON, or too deeply
    nested to parse, is a ValueError naming the document, ``what``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from None


# read_field kinds: an integer that numpy's int64 holds, a number above 0
INT64 = range(-(2**63), 2**63)
POSITIVE = "positive"


# what each kind of field accepts, and how it names one value and a list
_SHAPES = {
    int: ((int, float), "an integer", "integers"),
    INT64: ((int, float), "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    POSITIVE: ((int, float), "a number", "numbers"),
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


def read_field(source: dict, key: str, default, kind, least=None, most=None, where: str = "experiment"):
    """``source[key]``, or ``default`` when the key is absent, read as
    ``kind``: a key of ``_SHAPES``, ``(kind, literal)`` for that kind or the
    one JSON literal (``(int, "full")``, ``(str, None)``), or ``[kind]`` for
    a list of them.  An ``int`` is a JSON integer or a whole float, an
    ``INT64`` such an integer in numpy's int64 range, a ``float`` a finite
    JSON number and a ``POSITIVE`` one above 0; none is a boolean or a
    string.  A value of another shape, or a number out of range, below
    ``least`` or (with ``least`` given) above ``most``, is a ValueError
    naming ``where`` and the field, and for a list the index of the first
    entry at fault.
    """

    def read(v, kind):
        # v as kind: TypeError for another shape, ValueError naming the
        # range, or OverflowError, for a number out of the kind's range; v
        # of type kind, if not float, passes every check below
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
        if kind in (int, INT64) and isinstance(v, float):
            if not v.is_integer():
                raise TypeError
            v = int(v)
        if kind is INT64 and v not in INT64:
            raise ValueError("below 2**63" if v > 0 else "at least -2**63")
        if kind in (float, POSITIVE) and not math.isfinite(v := float(v)):
            raise ValueError("finite")
        if kind is POSITIVE and v <= 0:
            raise ValueError("positive")
        return v

    value = source.get(key, default)
    many = isinstance(kind, list)
    if many and not isinstance(value, list):
        raise ValueError(f"{where} {key!r} must be {_shape(kind)}, got {value!r}")
    # read() returns an entry of exactly these kinds as it is: a list of them
    # passes in one check, and any other list is read entry by entry
    if many and least is most is None and kind[0] in (str, dict, bool, int) and {kind[0]}.issuperset(map(type, value)):
        return list(value)
    out = []
    for i, v in enumerate(value if many else [value]):
        try:
            out.append(read(v, kind[0] if many else kind))
        except TypeError:
            problem = _shape(kind)
        except ValueError as exc:
            problem = str(exc)
        except OverflowError:  # float() of an integer past the float range
            problem = "finite"
        else:
            x = out[-1]  # a literal, such as "full", has no bound to check
            if type(x) is str or (least is None or x >= least) and (most is None or x <= most):
                continue
            problem = f"at least {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{where} {key!r} must be {problem}, got {v!r}" + (f" at index {i}" if many else ""))
    return out if many else out[0]
