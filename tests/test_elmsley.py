import random
import re
from pathlib import Path

import pytest

import oracles
from shufflelab import elmsley
from shufflelab.deck import MAX_DECK_SIZE, Deck, ShuffleLabError
from shufflelab.elmsley import (
    PositionGraph,
    second_position_cycle,
    shortest_words,
)
from shufflelab.shuffles import (
    Family,
    Shuffle,
    apply_word,
    element,
    family_in_out,
    inout_text,
    parse_word,
)

GOLDEN = Path(__file__).parent / "data" / "shortest_to_top_horseshoe10.txt"

# known shortest sequences to the top for ten cards, horseshoe
SHORTEST_TO_TOP = {
    1: ("out, in, out, in", "out, out, in, in"),
    2: ("in, out, in", "out, in, in"),
    3: ("in, out, out, in", "in, in, in, in"),
    4: ("in, in",),
    5: ("out, in",),
    6: ("out, out, out, in", "out, in, in, in"),
    7: ("out, out, in", "in, in, in"),
    8: ("in, in, out, in", "in, out, in, in"),
    9: ("in",),
}


def to_word(family, text):
    in_kind, out_kind = (
        (Shuffle.FARO_IN, Shuffle.FARO_OUT)
        if family is Family.FARO
        else (Shuffle.HORSE_IN, Shuffle.HORSE_OUT)
    )
    return parse_word(
        text.replace("in", in_kind.value).replace("out", out_kind.value)
    )


def test_shortest_to_top_rows_present_minimal_and_complete():
    for position, sequences in SHORTEST_TO_TOP.items():
        solutions = shortest_words(10, Family.HORSESHOE, position, 0)
        rendered = {inout_text(w) for w in solutions.words}
        assert set(sequences) <= rendered
        assert solutions.length == len(sequences[0].split(", "))
        # two-alternative rows have exactly two minimal words, single rows one
        assert len(solutions.words) == len(sequences)
        assert rendered == set(sequences)


def test_shortest_to_top_byte_exact_against_golden():
    lines = []
    for position in range(1, 10):
        solutions = shortest_words(10, Family.HORSESHOE, position, 0)
        lines.append(
            f"{position}: " + "  or  ".join(inout_text(w) for w in solutions.words)
        )
    text = "\n".join(lines) + "\n"
    assert text.encode() == GOLDEN.read_bytes()


def test_every_word_verifies_by_full_deck_simulation():
    for position, sequences in SHORTEST_TO_TOP.items():
        for text in sequences:
            deck = apply_word(to_word(Family.HORSESHOE, text), Deck.identity(10))
            assert deck.labels()[0] == position


def test_solver_words_are_simulation_valid_for_both_families():
    for family in (Family.FARO, Family.HORSESHOE):
        for size in (8, 10, 16):
            for source in range(size):
                solutions = shortest_words(size, family, source, 0)
                for word in solutions.words:
                    final = apply_word(word, Deck.identity(size))
                    assert final.labels()[0] == source


def test_same_source_and_target_is_empty_word():
    solutions = shortest_words(10, Family.HORSESHOE, 0, 0)
    assert solutions.length == 0
    assert solutions.words == ((),)


def test_words_sorted_lexicographically_in_before_out():
    solutions = shortest_words(10, Family.HORSESHOE, 2, 0)
    assert [inout_text(w) for w in solutions.words] == ["in, out, in", "out, in, in"]


def test_any_position_reached_in_at_most_k_shuffles():
    for k in range(2, 7):
        size = 1 << k
        for source in range(size):
            for target in range(size):
                assert shortest_words(size, Family.HORSESHOE, source, target).length <= k


def test_general_source_target_queries():
    solutions = shortest_words(16, Family.HORSESHOE, 3, 11)
    for word in solutions.words:
        final = apply_word(word, Deck.identity(16))
        assert final.labels().index(3) == 11


def test_out_horseshoe_fixes_top_position():
    for size in range(2, 66, 2):
        assert element(Shuffle.HORSE_OUT, size).perm.images[0] == 0


def test_position_graph_edges_agree_with_elements():
    for family in (Family.FARO, Family.HORSESHOE):
        for size in (4, 10, 12):
            graph = PositionGraph.build(size, family)
            in_kind, out_kind = (
                (Shuffle.FARO_IN, Shuffle.FARO_OUT)
                if family is Family.FARO
                else (Shuffle.HORSE_IN, Shuffle.HORSE_OUT)
            )
            assert graph.in_images == element(in_kind, size).perm.images
            assert graph.out_images == element(out_kind, size).perm.images


def test_position_graph_rejects_flip():
    with pytest.raises(ShuffleLabError):
        PositionGraph.build(8, Family.FLIP)


def test_position_graph_caps_the_deck_size():
    with pytest.raises(ShuffleLabError, match="exceeds cap"):
        PositionGraph.build(2 * MAX_DECK_SIZE, Family.FARO)
    with pytest.raises(ShuffleLabError, match="even"):
        PositionGraph.build(7, Family.HORSESHOE)
    assert PositionGraph.build(MAX_DECK_SIZE, Family.HORSESHOE).size == MAX_DECK_SIZE


def test_bad_positions_rejected():
    with pytest.raises(ShuffleLabError):
        shortest_words(10, Family.HORSESHOE, 10, 0)
    with pytest.raises(ShuffleLabError):
        shortest_words(10, Family.HORSESHOE, 0, -1)
    # positions are ints: no float, text or bool stands in for one
    for source, target in ((1.5, 0), ("1", 0), (True, 0), (0, True), (3, 2.0)):
        text = rf"positions must lie in 0\.\.9, got {source!r}, {target!r}"
        with pytest.raises(ShuffleLabError, match=text):
            shortest_words(10, Family.FARO, source, target)


def test_second_position_cycle_values():
    assert second_position_cycle(16) == (1, 2, 4, 8, 15)
    assert second_position_cycle(4) == (1, 2, 3)
    assert second_position_cycle(8) == (1, 2, 4, 7)
    # 1, 2, 4, ..., 2^(k-1), 2^k - 1 for every k up to the deck cap
    for k in range(2, MAX_DECK_SIZE.bit_length()):
        powers = tuple(1 << j for j in range(k))
        assert second_position_cycle(1 << k) == (*powers, (1 << k) - 1)


def test_second_position_cycle_matches_simulation_and_length():
    for k in range(2, 8):
        size = 1 << k
        positions = second_position_cycle(size)
        assert len(positions) == k + 1
        # independent simulation: follow the card at position 1 through
        # repeated physical out horseshoe shuffles
        pos = 1
        trail = [1]
        while True:
            pos = oracles.card_position(size, "horse-out", pos)
            if pos == 1:
                break
            trail.append(pos)
        assert tuple(trail) == positions


def test_second_position_cycle_rejects_non_powers():
    for size in (2, 6, 10, 12):
        with pytest.raises(ShuffleLabError):
            second_position_cycle(size)


@pytest.mark.parametrize("size", [16.0, "16", True], ids=["float", "text", "bool"])
def test_second_position_cycle_refuses_sizes_that_are_no_int(size):
    text = f"size must be a power of two >= 4, got {size!r}"
    with pytest.raises(ShuffleLabError, match=f"^{re.escape(text)}$"):
        second_position_cycle(size)


def test_more_minimal_words_than_the_cap_are_refused(monkeypatch):
    assert len(shortest_words(10, Family.HORSESHOE, 2, 0).words) == 2
    monkeypatch.setattr(elmsley, "MAX_WORDS", 1)
    with pytest.raises(
        ShuffleLabError, match=r"^more than 1 minimal words \(cap elmsley.MAX_WORDS\)$"
    ):
        shortest_words(10, Family.HORSESHOE, 2, 0)
    assert len(shortest_words(10, Family.HORSESHOE, 4, 0).words) == 1


@pytest.mark.parametrize("family", [Family.FARO, Family.HORSESHOE])
def test_minimal_words_match_exhaustive_enumeration(family):
    # words enumerated by increasing length over position tables dealt
    # physically, one step per letter; 0 is in and 1 is out, so extending
    # each word by in, then out, keeps every length in lexicographic order
    prefix = "faro" if family is Family.FARO else "horse"
    out_kind = family_in_out(family)[1]
    for size in range(2, 22, 2):
        tables = [
            [oracles.card_position(size, f"{prefix}-{mode}", p) for p in range(size)]
            for mode in ("in", "out")
        ]
        for source in range(size):
            minimal = {}
            level = [((), source)]
            for length in range(size):
                for word, p in level:
                    minimal.setdefault(p, (length, []))
                    if minimal[p][0] == length:
                        minimal[p][1].append(word)
                if len(minimal) == size:
                    break
                level = [
                    (word + (letter,), tables[letter][p])
                    for word, p in level
                    for letter in (0, 1)
                ]
            assert len(minimal) == size
            for target, (length, words) in minimal.items():
                solutions = shortest_words(size, family, source, target)
                assert solutions.length == length
                found = [
                    tuple(int(step.shuffle is out_kind) for step in word)
                    for word in solutions.words
                ]
                assert found == words


@pytest.mark.parametrize("family", [Family.FARO, Family.HORSESHOE])
def test_ring_search_matches_a_plain_queue_search(family):
    rng = random.Random(f"rings:{family.value}")
    prefix = "faro" if family is Family.FARO else "horse"
    out_kind = family_in_out(family)[1]
    # below powers of two, some pairs have more than one minimal word
    for size in [1 << k for k in range(6, 13)] + [100, 1000]:
        tables = [oracles.position_table(size, f"{prefix}-{mode}") for mode in ("in", "out")]
        pairs = [rng.sample(range(size), 2) for _ in range(6)]
        pairs += [(p, p) for p in rng.sample(range(size), 2)]
        for source, target in pairs:
            length, words = oracles.minimal_words(tables, source, target)
            solutions = shortest_words(size, family, source, target)
            assert solutions.length == length, (size, source, target)
            found = [
                tuple(int(step.shuffle is out_kind) for step in word)
                for word in solutions.words
            ]
            assert found == words, (size, source, target)
