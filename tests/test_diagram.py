"""Word model: canonical word, validation, symmetry action, cyclic equivalence."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import valid_words
from knot818.diagram import (
    BRANCH_SITES,
    INNER_SITES,
    LETTER_SITES,
    OUTER_SITES,
    ROTATION_RELABEL,
    DiagramWord,
    Role,
    SiteClass,
    Visit,
    canonical_818,
    cyclic_equivalent,
    site_class,
    validate_word,
)

# Independent construction of the canonical word: the reference table's
# case a assigns each (site, role) visit a position 1..20 along the walk
# from K; inverting that assignment must give the stored word.
CASE_A = {
    ("A", Role.OVER): 13, ("B", Role.OVER): 8, ("C", Role.OVER): 3, ("D", Role.OVER): 18,
    ("E", Role.OVER): 5, ("F", Role.OVER): 20, ("G", Role.OVER): 15, ("H", Role.OVER): 10,
    ("I", Role.THROUGH): 11, ("J", Role.THROUGH): 6, ("K", Role.THROUGH): 1, ("L", Role.THROUGH): 16,
    ("A", Role.UNDER): 19, ("B", Role.UNDER): 14, ("C", Role.UNDER): 9, ("D", Role.UNDER): 4,
    ("E", Role.UNDER): 12, ("F", Role.UNDER): 7, ("G", Role.UNDER): 2, ("H", Role.UNDER): 17,
}


def test_canonical_word_inverts_case_a():
    by_position = {v: Visit(site, role) for (site, role), v in CASE_A.items()}
    expected = DiagramWord(tuple(by_position[v] for v in range(1, 21)))
    assert canonical_818() == expected


def test_canonical_word_text():
    assert str(canonical_818()) == (
        "VK UG OC UD OE VJ UF OB UC OH VI UE OA UB OG VL UH OD UA OF"
    )


def test_canonical_is_valid_and_alternates():
    word = canonical_818()
    assert validate_word(word) == []
    crossings = [v for v in word if v.role is not Role.THROUGH]
    assert len(crossings) == 16
    for a, b in zip(crossings, crossings[1:] + crossings[:1]):
        assert a.role is not b.role  # over/under strictly alternate


def test_site_classes():
    assert site_class("A") is SiteClass.INNER_SHOULDER
    assert site_class("H") is SiteClass.OUTER_SHOULDER
    assert site_class("K") is SiteClass.BRANCH_CENTER
    assert site_class("17") is SiteClass.CROSSING
    with pytest.raises(ValueError):
        site_class("z")


def test_validate_empty_word():
    diags = validate_word(DiagramWord(()))
    assert any("length 0 != 20" in d for d in diags)


def test_validate_role_pair_violation():
    visits = list(canonical_818().visits)
    idx = [i for i, v in enumerate(visits) if v.site == "G"]
    for i in idx:
        visits[i] = Visit("G", Role.OVER)
    diags = validate_word(DiagramWord(tuple(visits)))
    offenders = [d for d in diags if "G" in d]
    assert len(offenders) == 1
    assert "role-pair violation at G" in offenders[0]


def test_validate_branch_role():
    visits = list(canonical_818().visits)
    visits[0] = Visit("K", Role.OVER)
    diags = validate_word(DiagramWord(tuple(visits)))
    assert any("branch site K" in d for d in diags)


def test_rotation_relabel_is_a_class_preserving_4_cycle_product():
    perm = ROTATION_RELABEL
    assert sorted(perm) == sorted(perm.values()) == sorted(LETTER_SITES)
    for site in LETTER_SITES:
        assert site_class(perm[site]) is site_class(site)
        # order 4, no fixed points earlier
        cur = site
        for k in range(1, 4):
            cur = perm[cur]
            assert cur != site
        assert perm[cur] == site


def test_quarter_turn_matches_basepoint_shift():
    # Relabeling by one quarter turn is the same word five visits later.
    word = canonical_818()
    turned = word
    for quarter_turns in range(1, 5):
        turned = turned.relabeled(ROTATION_RELABEL)
        assert turned == word.rotated(5 * quarter_turns)
    assert turned == word


def test_reflection_swaps_roles_only():
    word = canonical_818()
    reflected = word.mirrored()
    assert reflected.sites() == word.sites()
    for a, b in zip(word, reflected):
        assert b.role is a.role.swapped


def quarter_turn(word):
    return word.relabeled(ROTATION_RELABEL)


@given(valid_words)
def test_symmetry_is_a_group_action(word):
    # Quarter turns have order 4 and commute with the mirror.
    assert quarter_turn(word).mirrored() == quarter_turn(word.mirrored())
    assert quarter_turn(quarter_turn(quarter_turn(quarter_turn(word)))) == word


@given(valid_words)
def test_symmetry_preserves_validity(word):
    assert validate_word(quarter_turn(word)) == []
    assert validate_word(quarter_turn(word).mirrored()) == []


@given(valid_words)
def test_cyclic_equivalence_reflexive(word):
    witness = cyclic_equivalent(word, word)
    assert witness is not None
    assert witness.offset == 0 and not witness.reversed_
    assert witness.apply(word) == word


def _asymmetric_word() -> DiagramWord:
    # Exchanging two same-role visits breaks the 4-fold symmetry but
    # keeps the word structurally valid.
    visits = list(canonical_818().visits)
    visits[2], visits[7] = visits[7], visits[2]
    word = DiagramWord(tuple(visits))
    assert validate_word(word) == []
    return word


def test_constructed_rotation_is_found():
    word = _asymmetric_word()
    witness = cyclic_equivalent(word, word.rotated(5))
    assert witness is not None
    assert witness.offset == 5 and not witness.reversed_
    assert witness.mapping == {s: s for s in LETTER_SITES}


@given(valid_words, st.integers(0, 19), st.booleans())
def test_cyclic_equivalence_closed_under_rotation_and_reversal(word, k, rev):
    other = word.reversed_() if rev else word
    other = other.rotated(k)
    witness = cyclic_equivalent(word, other)
    assert witness is not None
    assert witness.apply(word) == other
    back = cyclic_equivalent(other, word)
    assert back is not None and back.apply(other) == word


def test_mirror_of_canonical_is_equivalent_via_reversal():
    # This diagram is carried to its mirror by reversing the walk and
    # renaming sites; the witness must say so explicitly.
    word = canonical_818()
    witness = cyclic_equivalent(word, word.mirrored())
    assert witness is not None
    assert witness.reversed_
    assert witness.apply(word) == word.mirrored()


def test_class_mismatch_blocks_equivalence():
    # Swapping the inner and outer banks wholesale leaves a valid word
    # whose labels sit in the wrong classes; no witness may exist.
    word = canonical_818()
    swap = {**dict(zip(INNER_SITES, OUTER_SITES)), **dict(zip(OUTER_SITES, INNER_SITES))}
    swap.update({s: s for s in BRANCH_SITES})
    assert cyclic_equivalent(word, word.relabeled(swap)) is None


def test_witness_semantics_offset_then_relabel():
    word = canonical_818()
    witness = cyclic_equivalent(word, word.rotated(5))
    assert witness is not None
    # canonical has the 4-fold symmetry, so the offset is defined mod 5
    assert witness.offset % 5 == 0
    assert witness.apply(word) == word.rotated(5)


def test_length_mismatch():
    assert cyclic_equivalent(canonical_818(), DiagramWord(())) is None
