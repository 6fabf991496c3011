"""Text formats: extended Gauss codes, DT codes, braid words.

The extended Gauss grammar is whitespace-separated tokens, one per
visit: ``O``/``U`` plus a crossing label for over/under passes, ``V``
plus a branch label for through visits.  Labels are the letters A..L of
the 12-site model, or strings of digits for generic small diagrams
(``O1 U2 O3 U1 O2 U3`` is the trefoil).

DT extraction numbers the crossing visits 1.. in word order and pairs
the odd visit of each crossing with its even one; the even number is
negated when that visit is the over pass.
"""

from __future__ import annotations

from .braid import BraidWord
from .diagram import DiagramWord, Role, SiteClass, Visit, site_class, visits_by_site
from .errors import UsageError


class NotationError(UsageError, ValueError):
    """Malformed token stream; ``token_index`` locates the offender."""

    def __init__(self, token_index: int, message: str) -> None:
        super().__init__(f"token {token_index}: {message}")
        self.token_index = token_index


class UnknownTokenError(NotationError):
    pass


class RoleMismatchError(NotationError):
    """Role prefix incompatible with the label's site class."""


class MultiplicityError(NotationError):
    """A label visited the wrong number of times or with duplicate roles."""


_PREFIX_ROLE = {"O": Role.OVER, "U": Role.UNDER, "V": Role.THROUGH}


def parse_extended_gauss(text: str) -> DiagramWord:
    """Parse token text into a word, checking role/class consistency.

    Every crossing label must appear exactly twice, once over and once
    under; every branch label exactly once, as a through visit.
    """
    tokens = text.split()
    visits: list[Visit] = []
    for idx, token in enumerate(tokens):
        role = _PREFIX_ROLE.get(token[:1])
        label = token[1:]
        if role is None or not label:
            raise UnknownTokenError(idx, f"unrecognized token {token!r}")
        try:
            cls = site_class(label)
        except ValueError:
            raise UnknownTokenError(idx, f"unrecognized label in token {token!r}") from None
        if (cls is SiteClass.BRANCH_CENTER) != (role is Role.THROUGH):
            raise RoleMismatchError(idx, f"role prefix {token[0]!r} does not fit site {label!r}")
        visits.append(Visit(label, role))

    for label, seen in visits_by_site(visits).items():
        idx = seen[0][0]  # every token is a visit, so this is the first token naming the label
        if site_class(label) is SiteClass.BRANCH_CENTER:
            if len(seen) != 1:
                raise MultiplicityError(idx, f"branch label {label!r} appears {len(seen)} times")
        else:
            if len(seen) != 2:
                raise MultiplicityError(idx, f"crossing label {label!r} appears {len(seen)} times")
            if sorted(r.value for _, r in seen) != ["over", "under"]:
                raise MultiplicityError(idx, f"crossing label {label!r} needs one over and one under visit")
    return DiagramWord(tuple(visits))


def emit_extended_gauss(word: DiagramWord) -> str:
    """Token text for a word; inverse of :func:`parse_extended_gauss`."""
    return str(word)


def gauss_to_dt(word: DiagramWord) -> tuple[int, ...]:
    """DT code of the crossing visits, through visits skipped.

    Crossing visits are numbered 1.. in word order; entry k of the result
    is the even partner of odd visit 2k-1, negated when that even visit
    is the over pass.
    """
    crossing_visits = [v for v in word if v.role is not Role.THROUGH]
    partner: dict[int, tuple[str, int, Role]] = {}  # visit number -> (site, partner number, partner role)
    for site, pair in visits_by_site(crossing_visits).items():
        if len(pair) != 2:
            raise ValueError(f"crossing {site!r} visited {len(pair)} times, expected 2")
        (a, role_a), (b, role_b) = pair  # indices, so visit numbers less one
        partner[a + 1] = (site, b + 1, role_b)
        partner[b + 1] = (site, a + 1, role_a)

    out = []
    for odd in range(1, len(crossing_visits), 2):
        site, even, role = partner[odd]
        if even % 2 != 0:
            raise ValueError(f"crossing {site!r} pairs two odd visits; word is not a knot shadow")
        out.append(-even if role is Role.OVER else even)
    return tuple(out)


class BraidTextError(UsageError, ValueError):
    """Malformed braid word text."""


class NonIntegerLetterError(BraidTextError):
    def __init__(self, token_index: int, token: str) -> None:
        super().__init__(f"token {token_index}: {token!r} is not an integer")
        self.token_index = token_index


class LetterOutOfRangeError(BraidTextError):
    def __init__(self, token_index: int, letter: int, strands: int) -> None:
        super().__init__(f"token {token_index}: letter {letter} out of range for {strands} strands")
        self.token_index = token_index


class EmptyBraidError(BraidTextError):
    def __init__(self) -> None:
        super().__init__("empty braid word (pass allow_empty=True for the trivial braid)")


def parse_braid_word(text: str, strands: int, allow_empty: bool = False) -> BraidWord:
    """Parse whitespace-separated signed generator indices."""
    tokens = text.split()
    if not tokens and not allow_empty:
        raise EmptyBraidError()
    letters = []
    for idx, token in enumerate(tokens):
        try:
            letter = int(token)
        except ValueError:
            raise NonIntegerLetterError(idx, token) from None
        if letter == 0 or abs(letter) > strands - 1:
            raise LetterOutOfRangeError(idx, letter, strands)
        letters.append(letter)
    return BraidWord(strands, tuple(letters))
