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

from .braid import BraidWord, InvalidBraidError, first_bad_letter
from .diagram import ROLE_PREFIX, DiagramWord, Role, SiteClass, UnknownSiteError, Visit, site_class, visit_problem
from .errors import UsageError, clip, clip_count, too_many_digits


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


_PREFIX_ROLE = {prefix: role for role, prefix in ROLE_PREFIX.items()}


def parse_extended_gauss(text: str) -> DiagramWord:
    """Parse token text into a word, checking role/class consistency.

    Every label must keep the visit rule of
    :func:`~knot818.diagram.visit_problem`.
    """
    tokens = text.split()
    visits: list[Visit] = []
    roles: dict[str, list[Role]] = {}
    for idx, token in enumerate(tokens):
        role = _PREFIX_ROLE.get(token[:1])
        label = token[1:]
        if role is None or not label:
            raise UnknownTokenError(idx, f"unrecognized token {clip(repr(token))}")
        try:
            cls = site_class(label)
        except UnknownSiteError:
            raise UnknownTokenError(idx, f"unrecognized label in token {clip(repr(token))}") from None
        if (cls is SiteClass.BRANCH_CENTER) != (role is Role.THROUGH):
            raise RoleMismatchError(idx, f"role prefix {token[0]!r} does not fit site {clip(repr(label))}")
        visits.append(Visit(label, role))
        roles.setdefault(label, []).append(role)

    for label, seen in roles.items():
        problem = visit_problem(label, seen)
        if problem is not None:  # raised at the label's first token, which is its first visit
            raise MultiplicityError([v.site for v in visits].index(label), problem)
    return DiagramWord(tuple(visits))


def emit_extended_gauss(word: DiagramWord) -> str:
    """Token text for a word; inverse of :func:`parse_extended_gauss`."""
    return str(word)


def gauss_to_dt(word: DiagramWord) -> tuple[int, ...]:
    """DT code of the crossing visits, through visits skipped.

    Crossing visits are numbered 1.. in word order; entry k of the result
    is the even partner of odd visit 2k-1, negated when that even visit
    is the over pass.  A crossing label that breaks the visit rule of
    :func:`~knot818.diagram.visit_problem` raises ``ValueError`` with its diagnostic.
    """
    crossing_visits = [v for v in word if v.role is not Role.THROUGH]
    numbered: dict[str, list[tuple[int, Role]]] = {}  # site -> (visit number, role) per visit
    for number, (site, role) in enumerate(crossing_visits, 1):
        numbered.setdefault(site, []).append((number, role))
    partner: dict[int, tuple[str, int, Role]] = {}  # visit number -> (site, partner number, partner role)
    for site, pair in numbered.items():
        problem = visit_problem(site, [role for _number, role in pair])
        if problem is not None:
            raise ValueError(problem)
        (a, role_a), (b, role_b) = pair
        partner[a] = (site, b, role_b)
        partner[b] = (site, a, role_a)

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
        super().__init__(f"token {token_index}: {clip(repr(token))} is not an integer")
        self.token_index = token_index


class LetterOutOfRangeError(BraidTextError):
    def __init__(self, token_index: int, letter: int | str, strands: int) -> None:
        super().__init__(
            f"token {token_index}: letter {clip_count(letter)} out of range for {clip_count(strands)} strands"
        )
        self.token_index = token_index


class EmptyBraidError(BraidTextError):
    """Braid text with no letter."""


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices, at least one."""
    BraidWord(strands)  # the strand rule, before any token is read
    tokens = text.split()
    if not tokens:
        raise EmptyBraidError("empty braid word")
    letters = []
    for token in tokens:
        try:
            letters.append(int(token))
        except ValueError:
            break
    try:  # a letter out of range is reported before a later non-integer token
        braid = BraidWord(strands, letters)
    except InvalidBraidError:
        bad = first_bad_letter(letters, strands)
        raise LetterOutOfRangeError(bad, letters[bad], strands) from None
    if len(letters) < len(tokens):
        token = tokens[len(letters)]
        if too_many_digits(token):  # an integer that long names no generator
            raise LetterOutOfRangeError(len(letters), token, strands)
        raise NonIntegerLetterError(len(letters), token)
    return braid
