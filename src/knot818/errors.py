"""The two error families; the family of an error fixes its CLI exit code.

Every error class the toolkit raises for bad input derives from exactly
one of them and keeps ``ValueError`` as a second base.  Anything else
that escapes a command is a bug.
"""


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
