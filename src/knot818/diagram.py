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

from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional


class Role(Enum):
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

    def __str__(self) -> str:
        return self.value


class SiteClass(Enum):
    INNER_SHOULDER = "inner-shoulder"
    OUTER_SHOULDER = "outer-shoulder"
    BRANCH_CENTER = "branch-center"
    CROSSING = "crossing"  # generic crossing in a diagram outside the 12-site model

    def __str__(self) -> str:
        return self.value


INNER_SITES = ("A", "B", "C", "D")
OUTER_SITES = ("E", "F", "G", "H")
BRANCH_SITES = ("I", "J", "K", "L")
LETTER_SITES = INNER_SITES + OUTER_SITES + BRANCH_SITES

SHOULDER_SITES = INNER_SITES + OUTER_SITES

_CLASS_BY_LETTER = {
    **{s: SiteClass.INNER_SHOULDER for s in INNER_SITES},
    **{s: SiteClass.OUTER_SHOULDER for s in OUTER_SITES},
    **{s: SiteClass.BRANCH_CENTER for s in BRANCH_SITES},
}

# Quarter-turn of the annulus as a label permutation.  Applying it to the
# canonical word and rotating the basepoint five visits forward yields the
# same word again; see test_diagram.py for the check.
ROTATION_RELABEL = {
    "K": "J", "J": "I", "I": "L", "L": "K",
    "G": "F", "F": "E", "E": "H", "H": "G",
    "C": "B", "B": "A", "A": "D", "D": "C",
}


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
    raise ValueError(f"unknown site label {label!r}")


class Visit(NamedTuple):
    site: str
    role: Role


_ROLE_PREFIX = {Role.OVER: "O", Role.UNDER: "U", Role.THROUGH: "V"}


class DiagramWord(tuple):
    """A closed traversal: the tuple of its visits, one per meeting with a site.

    The order fixes the basepoint and direction.  Identity (==) compares
    the tuples, so serialization round-trips exactly; use
    :func:`cyclic_equivalent` for basepoint-free comparison.
    """

    __slots__ = ()

    @property
    def visits(self) -> tuple[Visit, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"DiagramWord(visits={tuple(self)!r})"

    def __str__(self) -> str:
        return " ".join(_ROLE_PREFIX[v.role] + v.site for v in self)

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


def visits_by_site(visits: Iterable[Visit]) -> dict[str, list[tuple[int, Role]]]:
    """Each site's ``(index, role)`` visits in order, sites in first-visit order."""
    by_site: dict[str, list[tuple[int, Role]]] = {}
    for i, (site, role) in enumerate(visits):
        by_site.setdefault(site, []).append((i, role))
    return by_site


def validate_word(word: DiagramWord) -> list[str]:
    """Structural diagnostics for a word against the 12-site model.

    Returns an empty list when the word is a valid 20-visit traversal:
    every branch center appears exactly once with a through visit, every
    shoulder exactly twice with one over and one under visit.
    """
    diags: list[str] = []
    if len(word) != 20:
        diags.append(f"length {len(word)} != 20")

    by_site = {site: [role for _, role in seen] for site, seen in visits_by_site(word).items()}

    for label in sorted(set(by_site) - set(LETTER_SITES)):
        diags.append(f"unknown site {label!r}")

    for label in BRANCH_SITES:
        roles = by_site.get(label, [])
        if not roles:
            diags.append(f"branch site {label} missing")
        elif len(roles) != 1:
            diags.append(f"branch site {label} visited {len(roles)} times, expected 1")
        elif roles[0] is not Role.THROUGH:
            diags.append(f"branch site {label} visited with role {roles[0]}, expected through")

    for label in SHOULDER_SITES:
        roles = by_site.get(label, [])
        if not roles:
            diags.append(f"shoulder site {label} missing")
        elif len(roles) != 2:
            diags.append(f"shoulder site {label} visited {len(roles)} times, expected 2")
        elif sorted(r.value for r in roles) != ["over", "under"]:
            pair = ", ".join(r.value for r in roles)
            diags.append(f"role-pair violation at {label}: got ({pair}), expected one over and one under")
    return diags


class EquivalenceWitness(NamedTuple):
    """Certificate that two words draw the same closed curve.

    ``apply`` replays it: reverse ``w1`` if ``reversed_``, rotate the
    basepoint by ``offset``, rename sites through ``mapping``.
    """

    offset: int
    reversed_: bool
    mapping: Mapping[str, str]

    def apply(self, word: DiagramWord) -> DiagramWord:
        w = word.reversed_() if self.reversed_ else word
        return w.rotated(self.offset).relabeled(self.mapping)


def cyclic_equivalent(w1: DiagramWord, w2: DiagramWord) -> Optional[EquivalenceWitness]:
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
