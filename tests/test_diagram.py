"""Word model: canonical word, validation, symmetry action, cyclic equivalence."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mirror_word, valid_words, word_sites
from knot818.diagram import (
    BRANCH_SITES,
    INNER_SITES,
    LETTER_SITES,
    OUTER_SITES,
    ROTATION_RELABEL,
    DiagramWord,
    EquivalenceWitness,
    Role,
    SiteClass,
    UnknownSiteError,
    Visit,
    canonical_818,
    cyclic_equivalent,
    site_class,
    validate_word,
    visit_problem,
)
from knot818.notation import MultiplicityError, NotationError, parse_extended_gauss
from knot818.traversal import Direction, StartSpec, traverse

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
    with pytest.raises(UnknownSiteError, match="^unknown site label 'z'$"):
        site_class("z")


def test_validate_empty_word():
    diags = validate_word(DiagramWord(()))
    assert diags == (
        ["length 0 != 20"]
        + [f"site {s} visited as (), expected (through)" for s in BRANCH_SITES]
        + [f"site {s} visited as (), expected (over, under)" for s in INNER_SITES + OUTER_SITES]
    )


def test_validate_role_pair_violation():
    visits = list(canonical_818())
    idx = [i for i, v in enumerate(visits) if v.site == "G"]
    for i in idx:
        visits[i] = Visit("G", Role.OVER)
    diags = validate_word(DiagramWord(tuple(visits)))
    assert diags == ["site G visited as (over, over), expected (over, under)"]


def test_validate_branch_role():
    visits = list(canonical_818())
    visits[0] = Visit("K", Role.OVER)
    diags = validate_word(DiagramWord(tuple(visits)))
    assert diags == ["site K visited as (over), expected (through)"]


def test_validate_unknown_and_extra_visits():
    word = DiagramWord(tuple(canonical_818()) + (Visit("7", Role.OVER), Visit("A", Role.OVER)))
    assert validate_word(word) == [
        "length 22 != 20",
        "unknown site '7'",
        "site A visited as (over, over, under), expected (over, under)",
    ]


@pytest.mark.parametrize(
    "label, roles, problem",
    [
        ("K", (Role.THROUGH,), None),
        ("A", (Role.OVER, Role.UNDER), None),
        ("A", (Role.UNDER, Role.OVER), None),
        ("12", [Role.UNDER, Role.OVER], None),
        ("K", (), "site K visited as (), expected (through)"),
        ("K", (Role.THROUGH, Role.THROUGH), "site K visited as (through, through), expected (through)"),
        ("K", (Role.UNDER,), "site K visited as (under), expected (through)"),
        ("G", (Role.UNDER,), "site G visited as (under), expected (over, under)"),
        ("G", (Role.UNDER, Role.UNDER), "site G visited as (under, under), expected (over, under)"),
        ("G", (Role.UNDER, Role.THROUGH), "site G visited as (through, under), expected (over, under)"),
        ("3", (Role.UNDER, Role.OVER, Role.OVER), "site 3 visited as (over, over, under), expected (over, under)"),
    ],
)
def test_visit_problem(label, roles, problem):
    assert visit_problem(label, roles) == problem


_MUTATIONS = st.one_of(
    st.tuples(st.just("role"), st.integers(0, 40), st.sampled_from(Role)),
    st.tuples(st.just("drop"), st.integers(0, 40)),
    st.tuples(st.just("double"), st.integers(0, 40)),
    st.tuples(st.just("digit"), st.sampled_from(LETTER_SITES)),
)


def _mutated(word: DiagramWord, mutations) -> DiagramWord:
    """Set a visit's role, drop or double a visit, or rename a site to "7"."""
    visits = list(word)
    for kind, *args in mutations:
        if kind == "digit":
            visits = [Visit("7", v.role) if v.site == args[0] else v for v in visits]
        elif visits:
            i = args[0] % len(visits)
            if kind == "role":
                visits[i] = Visit(visits[i].site, args[1])
            elif kind == "drop":
                del visits[i]
            else:
                visits.insert(i, visits[i])
    return DiagramWord(visits)


@given(st.lists(_MUTATIONS, max_size=3))
def test_visit_rule_agrees_everywhere(mutations):
    word = _mutated(canonical_818(), mutations)
    roles: dict[str, list[Role]] = {}
    for site, role in word:
        roles.setdefault(site, []).append(role)
    broken = {label for label, seen in roles.items() if visit_problem(label, seen) is not None}

    # validate_word and traverse accept the same words.
    if Visit("K", Role.THROUGH) in word:
        try:
            traverse(word, StartSpec("K", Direction.CW))
            builds = True
        except ValueError:
            builds = False
        assert builds == (validate_word(word) == [])

    # The parser fails exactly on a broken label, at a token naming it.
    text = str(word)
    try:
        parsed = parse_extended_gauss(text)
    except NotationError as exc:
        label = text.split()[exc.token_index][1:]
        assert label in broken
        if isinstance(exc, MultiplicityError):
            assert exc.token_index == [v.site for v in word].index(label)
            assert str(exc) == f"token {exc.token_index}: {visit_problem(label, roles[label])}"
    else:
        assert not broken
        assert parsed == word


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
    reflected = mirror_word(word)
    assert word_sites(reflected) == word_sites(word)
    for a, b in zip(word, reflected):
        assert b.role is a.role.swapped


def quarter_turn(word):
    return word.relabeled(ROTATION_RELABEL)


@given(valid_words)
def test_symmetry_is_a_group_action(word):
    # Quarter turns have order 4 and commute with the mirror.
    assert mirror_word(quarter_turn(word)) == quarter_turn(mirror_word(word))
    assert quarter_turn(quarter_turn(quarter_turn(quarter_turn(word)))) == word


@given(valid_words)
def test_symmetry_preserves_validity(word):
    assert validate_word(quarter_turn(word)) == []
    assert validate_word(mirror_word(quarter_turn(word))) == []


@given(valid_words)
def test_cyclic_equivalence_reflexive(word):
    witness = cyclic_equivalent(word, word)
    assert witness is not None
    assert witness.offset == 0 and not witness.reversed_
    assert witness.apply(word) == word


def _asymmetric_word() -> DiagramWord:
    # Exchanging two same-role visits breaks the 4-fold symmetry but
    # keeps the word structurally valid.
    visits = list(canonical_818())
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
    witness = cyclic_equivalent(word, mirror_word(word))
    assert witness is not None
    assert witness.reversed_
    assert witness.apply(word) == mirror_word(word)


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


def test_empty_words_are_equivalent():
    assert cyclic_equivalent(DiagramWord(()), DiagramWord(())) == EquivalenceWitness(0, False, {})
