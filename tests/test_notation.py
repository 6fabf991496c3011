"""Text round trips for Gauss-style words, DT conversion, braid-word parsing."""

import pytest
from hypothesis import given, settings

from conftest import cut, knot_braids, valid_words
from knot818.braid import BRAID_818, BraidWord, closure_diagram
from knot818.diagram import DiagramWord, Role, Visit, canonical_818
from knot818.notation import (
    BraidTextError,
    EmptyBraidError,
    LetterOutOfRangeError,
    MultiplicityError,
    NonIntegerLetterError,
    NotationError,
    RoleMismatchError,
    UnknownTokenError,
    emit_extended_gauss,
    gauss_to_dt,
    parse_braid_word,
    parse_extended_gauss,
)

CANONICAL_TEXT = "VK UG OC UD OE VJ UF OB UC OH VI UE OA UB OG VL UH OD UA OF"


def test_parse_canonical_text():
    assert parse_extended_gauss(CANONICAL_TEXT) == canonical_818()


def test_emit_parse_round_trip_canonical():
    word = canonical_818()
    assert parse_extended_gauss(emit_extended_gauss(word)) == word


@given(valid_words)
def test_emit_parse_round_trip(word):
    assert parse_extended_gauss(emit_extended_gauss(word)) == word


def test_parse_is_whitespace_insensitive():
    ragged = "  VK\tUG OC UD OE VJ UF OB\nUC OH VI UE OA UB OG VL UH OD UA OF "
    assert parse_extended_gauss(ragged) == canonical_818()


def test_numeric_labels_parse():
    word = parse_extended_gauss("O1 U2 O3 U1 O2 U3")
    assert word == DiagramWord(
        (
            Visit("1", Role.OVER),
            Visit("2", Role.UNDER),
            Visit("3", Role.OVER),
            Visit("1", Role.UNDER),
            Visit("2", Role.OVER),
            Visit("3", Role.UNDER),
        )
    )


def test_unknown_token_reports_index():
    with pytest.raises(UnknownTokenError) as info:
        parse_extended_gauss("OA UB XQ")
    assert info.value.token_index == 2


def test_bare_role_letter_rejected():
    with pytest.raises(NotationError):
        parse_extended_gauss("O UA")


def test_branch_site_must_be_through():
    with pytest.raises(RoleMismatchError) as info:
        parse_extended_gauss("OK UK")
    assert info.value.token_index == 0


def test_through_needs_branch_site():
    with pytest.raises(RoleMismatchError):
        parse_extended_gauss("VA VA")


def test_multiplicity_over_three_visits():
    with pytest.raises(MultiplicityError) as info:
        parse_extended_gauss("O1 U1 O1")
    assert info.value.token_index == 0
    assert str(info.value) == "token 0: site 1 visited as (over, over, under), expected (over, under)"


def test_multiplicity_two_overs():
    with pytest.raises(MultiplicityError) as info:
        parse_extended_gauss("O1 U2 O1 O2")
    assert str(info.value) == "token 0: site 1 visited as (over, over), expected (over, under)"


def test_multiplicity_branch_twice():
    with pytest.raises(MultiplicityError) as info:
        parse_extended_gauss("O1 VK U1 VK")
    assert str(info.value) == "token 1: site K visited as (through, through), expected (through)"


LONG_DIGITS = "1" * 5_000


@pytest.mark.parametrize(
    "text, error, message",
    [
        (f"O1 U1 X{LONG_DIGITS}", UnknownTokenError, f"token 2: unrecognized token {cut(repr('X' + LONG_DIGITS))}"),
        (f"O1 U1 O{LONG_DIGITS}x", UnknownTokenError,
         f"token 2: unrecognized label in token {cut(repr('O' + LONG_DIGITS + 'x'))}"),
        (f"V{LONG_DIGITS}", RoleMismatchError, f"token 0: role prefix 'V' does not fit site {cut(repr(LONG_DIGITS))}"),
        (f"O{LONG_DIGITS}", MultiplicityError,
         f"token 0: site {cut(LONG_DIGITS)} visited as (over), expected (over, under)"),
    ],
    ids=["token", "label", "role", "multiplicity"],
)
def test_notation_errors_quote_a_long_token_in_short(text, error, message):
    with pytest.raises(error) as info:
        parse_extended_gauss(text)
    assert str(info.value) == message


def test_notation_errors_are_value_errors():
    assert issubclass(NotationError, ValueError)
    assert issubclass(BraidTextError, ValueError)


# DT conversion.  The trefoil closure numbers its visits 1..6; starting
# the count at the first over-pass gives the classic (4, 6, 2).
def test_dt_trefoil():
    word = parse_extended_gauss("O1 U2 O3 U1 O2 U3")
    assert gauss_to_dt(word) == (4, 6, 2)


def test_dt_trefoil_from_braid():
    word, _ = closure_diagram(BraidWord(2, (1, 1, 1)))
    assert gauss_to_dt(word) == (4, 6, 2)


def test_dt_canonical_818():
    # Every even-numbered visit of the canonical walk is an over-pass,
    # so all eight entries carry the negative sign.
    assert gauss_to_dt(canonical_818()) == (-12, -14, -16, -2, -4, -6, -8, -10)


def test_dt_skips_through_visits():
    word, _ = closure_diagram(BRAID_818)
    bare = DiagramWord(tuple(v for v in word if v.role is not Role.THROUGH))
    assert gauss_to_dt(word) == gauss_to_dt(bare)


@given(valid_words)
def test_dt_has_eight_even_entries(word):
    code = gauss_to_dt(word)
    assert len(code) == 8
    assert all(n % 2 == 0 for n in code)
    assert sorted(abs(n) for n in code) == [2, 4, 6, 8, 10, 12, 14, 16]


@given(knot_braids(max_strands=8))
@settings(deadline=None)
def test_dt_of_every_walked_closure_pairs_odd_with_even(braid):
    # A planar knot diagram meets each crossing once at an odd and once
    # at an even visit (Dowker and Thistlethwaite 1983), so the entries
    # are 2, 4, ..., 2n in some order and sign.
    word, _ = closure_diagram(braid, insert_vertices=False)
    code = gauss_to_dt(word)
    assert sorted(abs(n) for n in code) == list(range(2, 2 * len(braid) + 1, 2))


def test_dt_rejects_odd_crossing_count():
    word = DiagramWord((Visit("1", Role.OVER), Visit("1", Role.UNDER)))
    with pytest.raises(ValueError, match=r"^site 2 visited as \(over\), expected \(over, under\)$"):
        gauss_to_dt(DiagramWord(tuple(word) + (Visit("2", Role.OVER),)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("O1 O1 U2 O2", r"^site 1 visited as \(over, over\), expected \(over, under\)$"),
        ("OK UK", r"^site K visited as \(over, under\), expected \(through\)$"),
    ],
    ids=["over-over", "branch-letter-as-crossing"],
)
def test_dt_checks_the_visit_rule(text, message):
    # The parser rejects these words too, so they are built visit by visit.
    word = DiagramWord(Visit(token[1:], Role.OVER if token[0] == "O" else Role.UNDER) for token in text.split())
    with pytest.raises(ValueError, match=message):
        gauss_to_dt(word)


def test_dt_rejects_a_crossing_met_at_two_odd_visits():
    word = parse_extended_gauss("O1 O2 U1 U2")
    with pytest.raises(ValueError, match="^crossing '1' pairs two odd visits; word is not a knot shadow$"):
        gauss_to_dt(word)


# Braid-word text.
def test_parse_braid_word_main():
    braid = parse_braid_word("1 -2 1 -2 1 -2 1 -2", strands=3)
    assert braid == BRAID_818


def test_parse_braid_word_non_integer():
    with pytest.raises(NonIntegerLetterError) as info:
        parse_braid_word("1 x", strands=3)
    assert info.value.token_index == 1


def test_parse_braid_word_zero_letter():
    with pytest.raises(BraidTextError):
        parse_braid_word("1 0", strands=3)


def test_parse_braid_word_out_of_range():
    with pytest.raises(LetterOutOfRangeError) as info:
        parse_braid_word("1 3", strands=3)
    assert info.value.token_index == 1
    assert "3 strands" in str(info.value)


def test_parse_braid_word_reports_the_first_bad_token():
    with pytest.raises(LetterOutOfRangeError) as info:
        parse_braid_word("1 5 x", strands=3)
    assert info.value.token_index == 1
    with pytest.raises(NonIntegerLetterError) as info:
        parse_braid_word("1 x 5", strands=3)
    assert info.value.token_index == 1


def test_parse_braid_word_too_many_digits_is_out_of_range():
    # int() refuses a 5,000-digit token, which is an integer all the same
    many = "1" * 5_000
    for text, index in ((f"1 {many} x", 1), (f"1 -2_{many}", 1), (f"5 {many}", 0)):
        with pytest.raises(LetterOutOfRangeError) as info:
            parse_braid_word(text, strands=3)
        assert info.value.token_index == index
    with pytest.raises(NonIntegerLetterError) as info:
        parse_braid_word(f"1 x {many}", strands=3)
    assert info.value.token_index == 1
    with pytest.raises(NonIntegerLetterError):
        parse_braid_word(f"1 {many}_", strands=3)  # a trailing underscore makes no integer


def test_parse_braid_word_empty():
    for text in ("", "   "):
        with pytest.raises(EmptyBraidError) as info:
            parse_braid_word(text, strands=3)
        assert str(info.value) == "empty braid word"
