"""Core combinatorial model of the annular 8_18 projection.

The projection lives in an annulus around the origin and touches twelve
labeled sites: eight crossings arranged in two concentric rings of four
("shoulders"), plus four marked points ("branch centers") on the
outermost ring of arcs.  A traversal of the knot visits each shoulder
twice (once on the over strand, once on the under strand) and each
branch center once, for twenty visits total.

A :class:`DiagramWord` records those visits in traversal order.  The
tuple order doubles as the basepoint: two words with the same visits in
a different rotation are distinct objects but cyclically equivalent
(see :func:`cyclic_equivalent`).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from enum import Enum

from .errors import UsageError, clip


class TextEnum(Enum):
    """An enum whose members print as their values."""

    # Members are singletons compared by identity, so the identity hash is
    # consistent with ==, and it runs in C where Enum's hashes the name.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class Role(TextEnum):
    """How the strand meets a site on one visit."""

    OVER = "over"
    UNDER = "under"
    THROUGH = "through"

    @property
    def swapped(self) -> "Role":
        """Over and under exchanged; through is fixed."""
        if self is Role.OVER:
            return Role.UNDER
        if self is Role.UNDER:
            return Role.OVER
        return self


class SiteClass(TextEnum):
    INNER_SHOULDER = "inner-shoulder"
    OUTER_SHOULDER = "outer-shoulder"
    BRANCH_CENTER = "branch-center"
    CROSSING = "crossing"  # generic crossing in a diagram outside the 12-site model


INNER_SITES = ("A", "B", "C", "D")
OUTER_SITES = ("E", "F", "G", "H")
BRANCH_SITES = ("I", "J", "K", "L")
LETTER_SITES = INNER_SITES + OUTER_SITES + BRANCH_SITES

SHOULDER_SITES = INNER_SITES + OUTER_SITES

# The class partition of the twelve sites, in report order.
CLASS_SITES = (
    (SiteClass.BRANCH_CENTER, BRANCH_SITES),
    (SiteClass.OUTER_SHOULDER, OUTER_SITES),
    (SiteClass.INNER_SHOULDER, INNER_SITES),
)
_CLASS_BY_LETTER = {site: cls for cls, sites in CLASS_SITES for site in sites}

# Quarter-turn of the annulus as a label permutation.  Applying it to the
# canonical word and rotating the basepoint five visits forward yields the
# same word again; see test_diagram.py for the check.
ROTATION_RELABEL = {
    "K": "J", "J": "I", "I": "L", "L": "K",
    "G": "F", "F": "E", "E": "H", "H": "G",
    "C": "B", "B": "A", "A": "D", "D": "C",
}


class UnknownSiteError(UsageError, ValueError):
    """A site label that is neither a letter A..L nor a string of digits."""


def site_class(label: str) -> SiteClass:
    """Classify a site label.

    Letters A..L belong to the 12-site model; strings of digits name
    generic crossings (used by small test diagrams such as the trefoil).
    """
    cls = _CLASS_BY_LETTER.get(label)
    if cls is not None:
        return cls
    if label.isdigit():
        return SiteClass.CROSSING
    raise UnknownSiteError(f"unknown site label {label!r}")


class Visit(namedtuple("Visit", "site role")):
    """One meeting of the curve with a site: its label and its :class:`Role` there."""

    __slots__ = ()


ROLE_PREFIX = {Role.OVER: "O", Role.UNDER: "U", Role.THROUGH: "V"}


class DiagramWord(tuple):
    """A closed traversal: the tuple of its visits, one per meeting with a site.

    The order fixes the basepoint and direction.  Identity (==) compares
    the tuples, so serialization round-trips exactly; use
    :func:`cyclic_equivalent` for basepoint-free comparison.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"DiagramWord(visits={tuple(self)!r})"

    def __str__(self) -> str:
        return " ".join(ROLE_PREFIX[v.role] + v.site for v in self)

    def rotated(self, k: int) -> "DiagramWord":
        """Move the basepoint k visits forward."""
        if not self:
            return self
        k %= len(self)
        return DiagramWord(self[k:] + self[:k])

    def reversed_(self) -> "DiagramWord":
        """The same closed curve walked the other way."""
        return DiagramWord(reversed(self))

    def relabeled(self, mapping: Mapping[str, str]) -> "DiagramWord":
        """Rename sites through ``mapping``; every present site must be mapped."""
        try:
            return DiagramWord([Visit(mapping[v.site], v.role) for v in self])
        except KeyError as exc:
            raise ValueError(f"relabeling does not cover site {exc.args[0]!r}") from None


# Traversal of the annular projection, twenty visits from the K branch
# center walking in the pinned clockwise direction.  Position v holds the
# site that the reference allocation table assigns value v from that start.
_CANONICAL_VISITS = (
    Visit("K", Role.THROUGH),
    Visit("G", Role.UNDER),
    Visit("C", Role.OVER),
    Visit("D", Role.UNDER),
    Visit("E", Role.OVER),
    Visit("J", Role.THROUGH),
    Visit("F", Role.UNDER),
    Visit("B", Role.OVER),
    Visit("C", Role.UNDER),
    Visit("H", Role.OVER),
    Visit("I", Role.THROUGH),
    Visit("E", Role.UNDER),
    Visit("A", Role.OVER),
    Visit("B", Role.UNDER),
    Visit("G", Role.OVER),
    Visit("L", Role.THROUGH),
    Visit("H", Role.UNDER),
    Visit("D", Role.OVER),
    Visit("A", Role.UNDER),
    Visit("F", Role.OVER),
)


def canonical_818() -> DiagramWord:
    """The reference word for the annular 8_18 projection."""
    return DiagramWord(_CANONICAL_VISITS)


_BRANCH_ORDERS = ((Role.THROUGH,),)
_CROSSING_ORDERS = ((Role.OVER, Role.UNDER), (Role.UNDER, Role.OVER))


def visit_problem(label: str, roles: Sequence[Role]) -> str | None:
    """Why a site's visits break the visit rule, or None when they keep it.

    ``roles`` are the label's roles in word order.  A branch center is
    visited once, as through; any other site twice, once over and once
    under.
    """
    orders = _BRANCH_ORDERS if site_class(label) is SiteClass.BRANCH_CENTER else _CROSSING_ORDERS
    if tuple(roles) in orders:
        return None
    got = ", ".join(sorted(r.value for r in roles))
    expected = ", ".join(r.value for r in orders[0])
    return f"site {clip(label)} visited as ({got}), expected ({expected})"


def validate_word(word: DiagramWord) -> list[str]:
    """Structural diagnostics for a word against the 12-site model.

    Returns an empty list when the word is a valid 20-visit traversal:
    each of the twelve sites keeps the visit rule of :func:`visit_problem`
    and no other label occurs.
    """
    diags: list[str] = []
    if len(word) != 20:
        diags.append(f"length {len(word)} != 20")

    by_site: dict[str, list[Role]] = {}
    for site, role in word:
        by_site.setdefault(site, []).append(role)

    for label in sorted(set(by_site) - set(LETTER_SITES)):
        diags.append(f"unknown site {label!r}")
    for label in BRANCH_SITES + SHOULDER_SITES:
        problem = visit_problem(label, by_site.get(label, ()))
        if problem is not None:
            diags.append(problem)
    return diags


class EquivalenceWitness(namedtuple("EquivalenceWitness", "offset reversed_ mapping")):
    """Certificate that two words draw the same closed curve.

    ``apply`` replays it: reverse ``w1`` if ``reversed_``, rotate the
    basepoint by ``offset``, rename sites through ``mapping`` (a site ->
    site mapping).
    """

    __slots__ = ()

    def apply(self, word: DiagramWord) -> DiagramWord:
        w = word.reversed_() if self.reversed_ else word
        return w.rotated(self.offset).relabeled(self.mapping)


def cyclic_equivalent(w1: DiagramWord, w2: DiagramWord) -> EquivalenceWitness | None:
    """Search for a rotation/reversal/relabeling carrying w1 onto w2.

    The relabeling must be a class-preserving bijection (branch centers
    to branch centers, inner shoulders to inner shoulders, and so on) and
    roles must match exactly; a mirrored word is therefore not equivalent
    to its original unless the diagram itself makes them so.  Returns the
    first witness found, or None.
    """
    n = len(w1)
    if n != len(w2):
        return None
    if n == 0:
        return EquivalenceWitness(0, False, {})
    for reversed_ in (False, True):
        cand = w1.reversed_() if reversed_ else w1
        for offset in range(n):
            mapping: dict[str, str] = {}
            used: set[str] = set()
            for i in range(n):
                va = cand[(i + offset) % n]
                vb = w2[i]
                if va.role is not vb.role:
                    break
                if site_class(va.site) is not site_class(vb.site):
                    break
                seen = mapping.get(va.site)
                if seen is None:
                    if vb.site in used:
                        break
                    mapping[va.site] = vb.site
                    used.add(vb.site)
                elif seen != vb.site:
                    break
            else:
                return EquivalenceWitness(offset, reversed_, mapping)
    return None
