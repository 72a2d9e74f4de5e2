import random
import re
from itertools import permutations

import pytest

from shufflelab.deck import MAX_DECK_SIZE, Deck, ShuffleLabError
from shufflelab.groups import group_order
from shufflelab.shuffles import Family, Shuffle, Step, apply_word
from shufflelab.special import (
    MAX_K,
    TRICK_ALPHABET,
    ClosureViolationError,
    DiagramOp,
    InvalidEndsError,
    card_name,
    card_value,
    diagram_cycle,
    generate,
    predict_from_ends,
    recognize,
    trick_session,
)

SIXTEEN_CARD_ORDERING = (11, 15, 3, 7, 4, 0, 12, 8, 10, 14, 2, 6, 5, 1, 13, 9)


def all_orderings(k):
    return {
        generate(k, first, start).values
        for first in range(1 << k)
        for start in diagram_cycle(k)
    }


def trick_steps():
    return [Step(kind, inv) for kind in sorted(TRICK_ALPHABET, key=lambda s: s.value) for inv in (False, True)]


# -- diagram operations -------------------------------------------------------


def test_ops_are_involutions():
    for k in (3, 5):
        for op in diagram_cycle(k):
            for value in range(1 << k):
                assert op.apply(op.apply(value, k), k) == value


def test_cycle_order():
    assert diagram_cycle(3) == (
        DiagramOp.flip_bit(0),
        DiagramOp.flip_bit(1),
        DiagramOp.flip_bit(2),
        DiagramOp.complement(),
    )


def test_op_parsing_and_display():
    assert DiagramOp.parse("bit2") == DiagramOp.flip_bit(2)
    assert DiagramOp.parse("COMPLEMENT") == DiagramOp.complement()
    assert str(DiagramOp.flip_bit(2)) == "bit2"
    with pytest.raises(ShuffleLabError):
        DiagramOp.parse("bit")
    with pytest.raises(ShuffleLabError):
        DiagramOp.parse("flip2")


# -- generation ---------------------------------------------------------------


def test_generate_sixteen_card_ordering():
    got = generate(4, 0b1011, DiagramOp.flip_bit(2))
    assert got.values == SIXTEEN_CARD_ORDERING


def test_generate_single_doubling():
    assert generate(1, 0, DiagramOp.flip_bit(0)).values == (0, 1)


def test_generate_trick_packet():
    assert generate(3, 4, DiagramOp.flip_bit(2)).values == (4, 0, 3, 7, 5, 1, 2, 6)


def test_generate_validates_inputs():
    with pytest.raises(ShuffleLabError):
        generate(4, 16, DiagramOp.flip_bit(0))
    with pytest.raises(ShuffleLabError):
        generate(3, 0, DiagramOp.flip_bit(3))
    with pytest.raises(ShuffleLabError):
        generate(0, 0, DiagramOp.flip_bit(0))
    with pytest.raises(ShuffleLabError):
        generate(17, 0, DiagramOp.flip_bit(0))


def test_generated_values_exhaust_range():
    for k in range(1, 7):
        for start in diagram_cycle(k):
            values = generate(k, 5 % (1 << k), start).values
            assert sorted(values) == list(range(1 << k))


def test_generation_count_matches_group_order():
    # distinct orderings: (k+1) 2^k, the order of the horseshoe group
    for k in range(2, 7):
        orderings = all_orderings(k)
        assert len(orderings) == (k + 1) * 2**k
        assert len(orderings) == group_order(Family.HORSESHOE, 1 << k)


def test_generation_and_its_texts_match_one_value_at_a_time():
    # the doubling applied value by value, and the texts joined card by card
    for k in range(1, 11):
        cycle = diagram_cycle(k)
        for first in sorted({0, 1, (1 << k) - 1}):
            for index, start in enumerate(cycle):
                values = [first]
                for stage in range(k):
                    op = cycle[(index + stage) % len(cycle)]
                    values += [op.apply(v, k) for v in values]
                ordering = generate(k, first, start)
                assert ordering.values == tuple(values)
                assert ordering.text() == " ".join(str(v) for v in values)
                assert ordering.display() == " ".join(card_name(v, k) for v in values)


# -- recognition --------------------------------------------------------------


def test_recognize_sixteen_card_ordering_and_its_reverse():
    got = recognize(SIXTEEN_CARD_ORDERING)
    assert (got.first, got.start) == (11, DiagramOp.flip_bit(2))
    rev = recognize(tuple(reversed(SIXTEEN_CARD_ORDERING)))
    assert (rev.first, rev.start) == (9, DiagramOp.flip_bit(2))


def test_recognize_small_cases():
    got = recognize((0, 1, 2, 3))
    assert (got.first, got.start) == (0, DiagramOp.flip_bit(0))
    assert recognize((0, 1, 3, 2)) is None


def test_recognize_matches_exhaustive_generation_for_k2():
    special = all_orderings(2)
    for values in permutations(range(4)):
        got = recognize(values)
        assert (got is not None) == (values in special)


def test_recognize_roundtrip():
    for k in range(2, 7):
        for first in range(1 << k):
            for start in diagram_cycle(k):
                ordering = generate(k, first, start)
                got = recognize(ordering.values)
                assert (got.first, got.start) == (first, start)


def test_recognize_validates_input():
    with pytest.raises(ShuffleLabError):
        recognize((0, 1, 2))
    with pytest.raises(ShuffleLabError):
        recognize((0, 2, 4, 6))
    with pytest.raises(ShuffleLabError):
        recognize((3,))


def test_reversal_keeps_the_operation_run():
    # reversing re-builds with the same operations from the other end card
    for k in (3, 4, 5):
        for first in range(1 << k):
            for start in diagram_cycle(k):
                ordering = generate(k, first, start)
                rev = recognize(tuple(reversed(ordering.values)))
                assert rev is not None
                assert rev.start == ordering.start
                assert rev.skipped() == ordering.skipped()


# -- prediction from the end cards --------------------------------------------


def test_predict_trick_packet():
    got = predict_from_ends(3, 4, 6)
    assert got.values == (4, 0, 3, 7, 5, 1, 2, 6)
    assert got.display() == "4 8 3 7 5 A 2 6"
    assert got.skipped() == DiagramOp.flip_bit(1)


def test_predict_sixteen_card_ordering_from_its_ends():
    assert predict_from_ends(4, 11, 9).values == SIXTEEN_CARD_ORDERING


def test_predict_complement_ends():
    got = predict_from_ends(3, 0, 7)
    assert got.values == (0, 1, 2, 3, 4, 5, 6, 7)
    assert got.skipped() == DiagramOp.complement()


def test_predict_is_end_symmetric():
    for k in (3, 4):
        for first in range(1 << k):
            for start in diagram_cycle(k):
                values = generate(k, first, start).values
                assert predict_from_ends(k, values[0], values[-1]).values == values
                assert predict_from_ends(k, values[-1], values[0]).values == tuple(
                    reversed(values)
                )


def test_predict_reproduces_every_special_ordering():
    for k in range(2, 6):
        for values in all_orderings(k):
            assert predict_from_ends(k, values[0], values[-1]).values == values


def test_predict_rejects_invalid_ends():
    with pytest.raises(InvalidEndsError):
        predict_from_ends(3, 0, 5)  # two bits differ, not a complement
    with pytest.raises(InvalidEndsError):
        predict_from_ends(3, 2, 2)
    with pytest.raises(ShuffleLabError):
        predict_from_ends(3, 0, 8)


# -- closure and the trick ----------------------------------------------------


def test_closure_under_trick_alphabet_exhaustive():
    for k in range(2, 6):
        orderings = all_orderings(k)
        for values in orderings:
            deck = Deck(tuple((v, False) for v in values))
            for step in trick_steps():
                shuffled = apply_word(step, deck).labels()
                assert shuffled in orderings


def test_sorted_deck_is_special_but_faro_breaks_specialness():
    assert recognize(tuple(range(8))) is not None
    shuffled = apply_word(Shuffle.FARO_IN, Deck.identity(8)).labels()
    assert recognize(shuffled) is None


def test_trick_session_worked_example():
    transcript = trick_session(
        3, [Shuffle.HORSE_IN, Shuffle.MILK, Shuffle.REVERSE, Shuffle.MONGE_OVER]
    )
    assert transcript.values == tuple(
        apply_word(
            [Shuffle.HORSE_IN, Shuffle.MILK, Shuffle.REVERSE, Shuffle.MONGE_OVER],
            Deck.identity(8),
        ).labels()
    )
    assert transcript.lines[-1].startswith("ordering: ")
    assert len(transcript.lines) == 9
    # reveals run outside in: positions 0, 7, 1, 6, ...
    revealed = [int(line.split(":")[0].split()[1]) for line in transcript.lines[:-1]]
    assert revealed == [0, 7, 1, 6, 2, 5, 3, 4]
    payload = transcript.to_dict()
    assert set(payload) >= {"first", "start", "skipped", "values", "display"}
    assert payload["first"] == transcript.values[0]
    assert transcript.render().endswith(transcript.ordering.display() + "\n")


def test_trick_session_empty_word_is_sorted_packet():
    transcript = trick_session(3, ())
    assert transcript.values == tuple(range(8))
    assert transcript.ordering.first == 0


def test_trick_session_random_words_stay_special():
    rng = random.Random(31)
    steps = trick_steps()
    for k in (2, 3, 4, 5):
        for _ in range(250):
            word = [rng.choice(steps) for _ in range(rng.randint(0, 20))]
            transcript = trick_session(k, word)
            assert sorted(transcript.values) == list(range(1 << k))


def test_trick_session_rejects_illegal_shuffles():
    with pytest.raises(ShuffleLabError):
        trick_session(3, [Shuffle.FARO_IN])
    with pytest.raises(ShuffleLabError):
        trick_session(3, [Shuffle.TURN_OVER])


def test_trick_session_rejects_non_special_start():
    with pytest.raises(ShuffleLabError):
        trick_session(2, (), initial=(0, 1, 3, 2))


def test_trick_session_rejects_a_start_of_the_wrong_length():
    for initial, got in (([0, 1, 2, 3], 4), (list(range(16)), 16), (iter(range(4)), 4)):
        text = f"initial arrangement must hold 8 cards, got {got}"
        with pytest.raises(ShuffleLabError, match=text):
            trick_session(3, [Shuffle.MILK], initial=initial)


def test_trick_session_accepts_special_start():
    transcript = trick_session(2, [Shuffle.REVERSE], initial=(2, 3, 0, 1))
    assert transcript.values == (1, 0, 3, 2)


def test_card_names():
    assert card_name(0, 3) == "8"
    assert card_name(1, 3) == "A"
    assert card_name(5, 3) == "5"
    assert card_name(0, 4) == "16"


@pytest.mark.parametrize("token", ["bit²", "bit1²"])
def test_op_parsing_takes_only_decimal_digits(token):
    with pytest.raises(ShuffleLabError, match="unknown diagram operation"):
        DiagramOp.parse(token)


def test_card_value_inverts_card_name():
    for k in range(1, 7):
        for value in range(1 << k):
            assert card_value(card_name(value, k), k) == value
    assert card_value("a", 3) == 1
    with pytest.raises(ShuffleLabError, match=r"^bad card 'x'$"):
        card_value("x", 3)
    with pytest.raises(ShuffleLabError, match=r"^card '9' out of range for k=3$"):
        card_value("9", 3)
    with pytest.raises(ShuffleLabError, match=r"^k must be in 1\.\.16, got 0$"):
        card_value("A", 0)


@pytest.mark.parametrize(
    "token", ["1_0", "+3", "-1", "1" * 5000], ids=["underscore", "signed", "negative", "long"]
)
def test_card_value_takes_only_decimal_digits(token):
    with pytest.raises(ShuffleLabError, match="^bad card "):
        card_value(token, 4)


def test_other_scripts_digits_keep_their_value():
    assert card_value("١٠", 4) == 10
    assert DiagramOp.parse("bit١") == DiagramOp.flip_bit(1)


def test_recognize_refuses_values_that_are_not_ints():
    with pytest.raises(ShuffleLabError, match="distinct k-bit values"):
        recognize([1.0, 0.0])


def test_recognize_refuses_bools():
    with pytest.raises(ShuffleLabError, match="distinct k-bit values"):
        recognize([True, False])


def test_recognize_ends_of_no_cycle_operation_are_not_special():
    # the first two cards differ in two of three bits: no operation starts it
    assert recognize((0, 3, 1, 2, 4, 5, 6, 7)) is None


def test_flip_bit_refuses_negative_indices():
    with pytest.raises(ShuffleLabError, match="bit index must be >= 0, got -1"):
        DiagramOp.flip_bit(-1)


@pytest.mark.parametrize(
    "bit, message",
    [
        (-1, "bit index must be >= 0, got -1"),
        ("2", "bit index must be an int or None, got '2'"),
        (2.0, "bit index must be an int or None, got 2.0"),
        (True, "bit index must be an int or None, got True"),
    ],
    ids=["negative", "text", "float", "bool"],
)
def test_diagram_ops_refuse_bits_that_are_not_indices(bit, message):
    # refused where the operation is built, not later in ``mask``
    with pytest.raises(ShuffleLabError, match=f"^{re.escape(message)}$"):
        DiagramOp(bit)


def test_largest_k_is_the_largest_deck():
    assert 1 << MAX_K == MAX_DECK_SIZE
    with pytest.raises(ShuffleLabError, match=r"^k must be in 1\.\.16, got 17$"):
        generate(MAX_K + 1, 0, DiagramOp.complement())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: trick_session(3.0, []), "k must be in 1..16, got 3.0"),
        (lambda: generate(3.0, 0, DiagramOp(0)), "k must be in 1..16, got 3.0"),
        (lambda: card_value("A", 3.0), "k must be in 1..16, got 3.0"),
        (lambda: predict_from_ends(True, 0, 1), "k must be in 1..16, got True"),
        (lambda: predict_from_ends("3", 0, 1), "k must be in 1..16, got '3'"),
        (lambda: predict_from_ends(3, 0, 7.5), "right end 7.5 out of range for k=3"),
        (lambda: predict_from_ends(3, True, 0), "left end True out of range for k=3"),
        (lambda: generate(3, 1.0, DiagramOp(0)), "first card 1.0 out of range for k=3"),
    ],
    ids=["trick-float-k", "generate-float-k", "card-float-k", "bool-k", "text-k",
         "float-end", "bool-end", "float-first"],
)
def test_a_k_or_card_that_is_no_int_is_refused(call, message):
    # a bool is no int here, so True is refused as a k and as a card
    with pytest.raises(ShuffleLabError, match=f"^{re.escape(message)}$"):
        call()
