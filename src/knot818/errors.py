"""The two error families; the family of an error fixes its CLI exit code.

Every error class the toolkit raises for bad input derives from exactly
one of them and keeps ``ValueError`` as a second base.  Anything else
that escapes a command is a bug.  :class:`Record` is the base of every record.
"""

import sys


class Knot818Error(Exception):
    """Base of both families."""


class UsageError(Knot818Error):
    """Malformed option, text or input file (exit 2)."""


class DomainError(Knot818Error):
    """Well-formed input outside a precondition (exit 3)."""


def _order_refusal(symbol: str):
    """An order method that raises the TypeError CPython gives for ``symbol`` between unordered types."""

    def refuse(self, other: object):
        names = f"{type(self).__name__!r} and {type(other).__name__!r}"
        raise TypeError(f"{symbol!r} not supported between instances of {names}")

    return refuse


class Record:
    """First base of every namedtuple record: ``class BraidWord(Record, namedtuple(...))``.

    ``_make``, and so ``_replace``, builds through the class and its checks,
    from exactly as many items as the record has fields, as a namedtuple's
    ``_make`` takes them.  A record whose class defines no ``__new__`` has
    no check but that count, so the library may build it directly with
    ``tuple.__new__(cls, fields)``; a record with a ``__new__`` of its own
    is always built through it.  Tuple ``+`` and ``*`` are a TypeError.
    Only LaurentPoly, PolyMatrix and Ratio refuse order too
    (``__lt__, __le__, __gt__, __ge__ = Record._unordered``), against any
    operand, a plain tuple included: a rich comparison sends every ``==``
    on its type through a method lookup, and 400,000 dict lookups keyed by
    equal 2-field records took 0.053 s with ``__lt__`` and 0.027 s without
    (CPython 3.11.7, best of 5).
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        fields = tuple(fields)
        if len(fields) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(fields)}")
        return cls(*fields)

    def _undefined(self, other: object):
        return NotImplemented  # a TypeError between records, never a tuple's

    __add__ = __mul__ = __rmul__ = _undefined

    def __radd__(self, other: object):  # returning NotImplemented would fall through to tuple concatenation
        raise TypeError(f"unsupported operand type(s) for +: {type(other).__name__!r} and {type(self).__name__!r}")

    # Raised, not NotImplemented, which would let CPython order the record against a plain tuple as tuples.
    _unordered = tuple(map(_order_refusal, ("<", "<=", ">", ">=")))


ECHO_LIMIT = 40


def clip(text: str) -> str:
    """Outside text for an error message: its first ECHO_LIMIT characters and its length if longer."""
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


def clip_path(path: str) -> str:
    """A path for an error message: its last ECHO_LIMIT characters, which
    hold the file name, and its length if longer."""
    if len(path) <= ECHO_LIMIT:
        return path
    return f"...{path[-ECHO_LIMIT:]} ({len(path)} characters)"


def clip_count(count: int | str) -> str:
    """A count for an error message, clipped like outside text; an integer
    with more digits than CPython converts to a string shows its size in bits."""
    try:
        return clip(str(count))
    except ValueError:
        return f"{'a negative' if count < 0 else 'an'} integer of {count.bit_length()} bits"


def too_many_digits(text: str) -> str | None:
    """For text ``int`` refused: why, when it is a decimal integer with more
    digits than CPython converts from a string, else None."""
    body = text.strip()
    if body[:1] in ("+", "-"):
        body = body[1:]
    groups = body.split("_")  # an empty group is a misplaced underscore
    # Python 3.10 before 3.10.7 has no limit, and no call to read it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if all(g.isdecimal() for g in groups) and 0 < limit < sum(map(len, groups)):
        return f"{clip(repr(text))} has more than {limit} digits"
    return None
