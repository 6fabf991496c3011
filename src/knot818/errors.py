"""The two error families; the family of an error fixes its CLI exit code.

Every error class the toolkit raises for bad input derives from exactly
one of them and keeps ``ValueError`` as a second base.  Anything else
that escapes a command is a bug.
"""

import sys
from typing import Optional, Union


class Knot818Error(Exception):
    """Base of both families."""


class UsageError(Knot818Error):
    """Malformed option, text or input file (exit 2)."""


class DomainError(Knot818Error):
    """Well-formed input outside a precondition (exit 3)."""


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


def clip_count(count: Union[int, str]) -> str:
    """A count for an error message, clipped like outside text; an integer
    with more digits than CPython converts to a string shows its size in bits."""
    try:
        return clip(str(count))
    except ValueError:
        return f"{'a negative' if count < 0 else 'an'} integer of {count.bit_length()} bits"


def too_many_digits(text: str) -> Optional[str]:
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
