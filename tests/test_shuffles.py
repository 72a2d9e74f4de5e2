import functools
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shufflelab import shuffles, special
from shufflelab.deck import (
    MAX_DECK_SIZE,
    Card,
    Deck,
    OrientedPermutation,
    Permutation,
    ShuffleLabError,
    apply_oriented,
    contract_staystack,
    expand_staystack,
)
from shufflelab.elmsley import PositionGraph, shortest_words
from shufflelab.groups import family_generators, permutation_parity, verify_theorem
from shufflelab.shuffles import (
    POSITION_FAMILIES,
    Family,
    Shuffle,
    Step,
    apply_word,
    element,
    element_order,
    format_word,
    horseshoe_position_step,
    inout_text,
    is_staystack,
    parse_word,
    route_top_to,
    word_element,
)

INTERLACE_KINDS = {
    Shuffle.FARO_OUT: "faro-out",
    Shuffle.FARO_IN: "faro-in",
    Shuffle.FLIP_OUT: "flip-out",
    Shuffle.FLIP_IN: "flip-in",
    Shuffle.HORSE_OUT: "horse-out",
    Shuffle.HORSE_IN: "horse-in",
}


def as_tuples(deck):
    return [(c.label, c.face_up) for c in deck.cards]


def from_tuples(cards):
    return Deck(tuple(Card(l, f) for l, f in cards))


def random_deck(rng, size, faces=True):
    labels = list(range(size))
    rng.shuffle(labels)
    return Deck(tuple(Card(x, faces and rng.random() < 0.5) for x in labels))


# -- element golden values ----------------------------------------------------


def test_flip_in_matches_worked_rows():
    deck = Deck.identity(10)
    rows = [
        "~9 0 ~8 1 ~7 2 ~6 3 ~5 4",
        "~4 ~9 5 0 ~3 ~8 6 1 ~2 ~7",
        "7 ~4 2 ~9 ~1 5 ~6 0 8 ~3",
        "3 7 ~8 ~4 ~0 2 6 ~9 ~5 ~1",
    ]
    for row in rows:
        deck = apply_word(Shuffle.FLIP_IN, deck)
        assert str(deck) == row


def test_element_examples():
    assert apply_word(Shuffle.FARO_OUT, Deck.identity(10)).labels() == (0, 5, 1, 6, 2, 7, 3, 8, 4, 9)
    assert apply_word(Shuffle.HORSE_IN, Deck.identity(10)).labels() == (9, 0, 8, 1, 7, 2, 6, 3, 5, 4)
    assert apply_word(Shuffle.MILK, Deck.identity(10)).labels() == (5, 4, 6, 3, 7, 2, 8, 1, 9, 0)
    assert apply_word(Shuffle.REVERSE, Deck.identity(4)).labels() == (3, 2, 1, 0)
    assert not any(c.face_up for c in apply_word(Shuffle.MILK, Deck.identity(10)))


def test_element_rejects_bad_size():
    for size in (0, 3, 9):
        with pytest.raises(ShuffleLabError):
            element(Shuffle.FARO_OUT, size)


def test_size_two_degenerate_cases():
    assert element(Shuffle.HORSE_OUT, 2).is_identity()
    assert element(Shuffle.FARO_OUT, 2).is_identity()
    assert element(Shuffle.HORSE_IN, 2).perm.images == (1, 0)


# -- interlacing kinds vs physical simulation ---------------------------------


def test_interlace_kinds_match_simulation():
    rng = random.Random(11)
    for size in range(2, 18, 2):
        for kind, mode in INTERLACE_KINDS.items():
            op = element(kind, size)
            for _ in range(10):
                deck = random_deck(rng, size)
                assert as_tuples(apply_oriented(op, deck)) == oracles.cut_interlace(
                    as_tuples(deck), mode
                )


def test_faro_out_position_formula():
    # out shuffle sends i to 2i mod (2n-1) and fixes the bottom card
    for size in (10, 12, 52):
        images = element(Shuffle.FARO_OUT, size).perm.images
        for i in range(size - 1):
            assert images[i] == 2 * i % (size - 1)
        assert images[size - 1] == size - 1


def test_faro_in_padding_equals_direct_interlace():
    for size in range(2, 30, 2):
        got = apply_word(Shuffle.FARO_IN, Deck.identity(size))
        want = oracles.cut_interlace(oracles.face_down_range(size), "faro-in")
        assert as_tuples(got) == want


# -- milk, Monge, reverse, turnover -------------------------------------------


def test_milk_variants_match_dealing():
    # the pair-order convention inside milk fixes which dealing realizes
    # which name; the set-level check below is convention-free
    for size in range(2, 18, 2):
        start = oracles.face_down_range(size)
        assert as_tuples(apply_word(Shuffle.MILK, Deck.identity(size))) == oracles.milk_deal(start, True)
        assert as_tuples(apply_word(Shuffle.MILK_SWAP, Deck.identity(size))) == oracles.milk_deal(start, False)
        milks = {tuple(oracles.milk_deal(start, flag)) for flag in (True, False)}
        got = {
            tuple(as_tuples(apply_word(kind, Deck.identity(size))))
            for kind in (Shuffle.MILK, Shuffle.MILK_SWAP)
        }
        assert got == milks


def test_monge_variants_match_dealing():
    for size in range(2, 18, 2):
        start = oracles.face_down_range(size)
        assert as_tuples(apply_word(Shuffle.MONGE_UNDER, Deck.identity(size))) == oracles.monge_deal(start, False)
        assert as_tuples(apply_word(Shuffle.MONGE_OVER, Deck.identity(size))) == oracles.monge_deal(start, True)
        monges = {tuple(oracles.monge_deal(start, flag)) for flag in (True, False)}
        got = {
            tuple(as_tuples(apply_word(kind, Deck.identity(size))))
            for kind in (Shuffle.MONGE_UNDER, Shuffle.MONGE_OVER)
        }
        assert got == monges


def test_conjugation_identities():
    for size in range(4, 18, 2):
        turn = element(Shuffle.TURN_OVER, size)
        assert element(Shuffle.MILK, size) == turn.then(element(Shuffle.HORSE_IN, size)).then(turn)
        assert element(Shuffle.MILK_SWAP, size) == turn.then(element(Shuffle.HORSE_OUT, size)).then(turn)
        assert element(Shuffle.MONGE_UNDER, size).then(element(Shuffle.MILK, size)).is_identity()
        assert element(Shuffle.MONGE_OVER, size).then(element(Shuffle.MILK_SWAP, size)).is_identity()


def test_monge_steps_are_the_milk_tables():
    # a Monge step looks up the milk table of the other direction, so
    # while both are cached they are one object
    shuffles._element.cache_clear()
    for size in (2, 10, 52, MAX_DECK_SIZE):
        monge_under = element(Shuffle.MONGE_UNDER, size)
        assert monge_under is element(Step(Shuffle.MILK, inverted=True), size)
        undo_over = element(Step(Shuffle.MONGE_OVER, inverted=True), size)
        assert undo_over is element(Shuffle.MILK_SWAP, size)


def test_inverse_round_trip_every_kind():
    for size in range(2, 18, 2):
        for kind in Shuffle:
            forward = element(Step(kind), size)
            backward = element(Step(kind, inverted=True), size)
            assert forward.then(backward).is_identity()
            assert backward.then(forward).is_identity()


def test_inverse_dealing_procedures():
    rng = random.Random(12)
    dealings = {
        Shuffle.FLIP_OUT: oracles.deal_inverse_flip_out,
        Shuffle.FLIP_IN: oracles.deal_inverse_flip_in,
        Shuffle.HORSE_OUT: oracles.deal_inverse_horse_out,
        Shuffle.HORSE_IN: oracles.deal_inverse_horse_in,
    }
    for size in range(2, 14, 2):
        for kind, deal in dealings.items():
            op = element(Step(kind, inverted=True), size)
            for _ in range(10):
                deck = random_deck(rng, size)
                assert as_tuples(apply_oriented(op, deck)) == deal(as_tuples(deck))


def test_inverse_out_horseshoe_keeps_top_card():
    for size in range(2, 22, 2):
        dealt = oracles.deal_inverse_horse_out(oracles.face_down_range(size))
        assert dealt[0] == (0, False)


# -- words and orders ---------------------------------------------------------


def test_empty_word_is_identity():
    deck = Deck.identity(10)
    assert apply_word((), deck) == deck
    assert word_element((), 10).is_identity()


def test_empty_word_still_checks_the_size():
    for size in (7, 0, -4, MAX_DECK_SIZE + 2):
        with pytest.raises(ShuffleLabError, match="deck size"):
            word_element((), size)


def test_entry_points_cap_the_deck_size():
    big = 2 * MAX_DECK_SIZE
    with pytest.raises(ShuffleLabError, match="exceeds cap"):
        element(Shuffle.FARO_OUT, big)
    with pytest.raises(ShuffleLabError, match="exceeds cap"):
        word_element([Shuffle.FARO_OUT], big)
    with pytest.raises(ShuffleLabError, match="exceeds cap"):
        route_top_to(3, big, Family.FARO)
    # the cap itself is a valid size for every entry point
    assert element(Shuffle.FARO_IN, MAX_DECK_SIZE).order() == 32
    assert element_order([Shuffle.FARO_OUT], MAX_DECK_SIZE) == 16
    assert len(route_top_to(MAX_DECK_SIZE - 1, MAX_DECK_SIZE, Family.FARO)) == 16


def test_flip_out_period_is_eighteen():
    deck = Deck.identity(10)
    assert apply_word([Shuffle.FLIP_OUT] * 18, deck) == deck
    assert apply_word([Shuffle.FLIP_OUT] * 9, deck) != deck


def test_eight_out_faros_restore_a_full_deck():
    deck = Deck.identity(52)
    assert apply_word([Shuffle.FARO_OUT] * 8, deck) == deck


def test_element_order_values():
    assert element_order(Shuffle.FLIP_OUT, 10) == 18
    assert element_order(Shuffle.FARO_OUT, 52) == 8
    for size in (2, 6, 12):
        assert element_order(Shuffle.REVERSE, size) == 2
        assert element_order(Shuffle.TURN_OVER, size) == 2


def test_element_order_matches_repetition_oracle():
    for size in (4, 6, 8, 10):
        for kind in Shuffle:
            start = tuple(oracles.face_down_range(size))
            mode = INTERLACE_KINDS.get(kind)
            if mode is not None:
                step = lambda cards: tuple(oracles.cut_interlace(list(cards), mode))
            else:
                op = element(kind, size)
                step = lambda cards: tuple(
                    as_tuples(apply_oriented(op, from_tuples(cards)))
                )
            assert element_order(kind, size) == oracles.repetition_order(step, start)


def test_word_order_of_composite():
    word = parse_word("flip-in, flip-out")
    assert element_order(word, 10) == word_element(word, 10).order()


# -- routing ------------------------------------------------------------------


def test_route_to_twenty_in_a_full_deck():
    word = route_top_to(20, 52, Family.FARO)
    assert inout_text(word) == "in, out, in, out, out"
    assert [s.shuffle for s in word] == [
        Shuffle.FARO_IN,
        Shuffle.FARO_OUT,
        Shuffle.FARO_IN,
        Shuffle.FARO_OUT,
        Shuffle.FARO_OUT,
    ]


def test_route_to_top_is_empty():
    assert route_top_to(0, 52, Family.FARO) == ()
    assert route_top_to(0, 8, Family.HORSESHOE) == ()


def test_route_verified_by_simulation_everywhere():
    for size in (8, 16, 32, 52):
        for family in (Family.FARO, Family.HORSESHOE):
            for target in range(size):
                word = route_top_to(target, size, family)
                deck = apply_word(word, Deck.identity(size))
                assert deck.labels().index(0) == target


def test_route_rejects_bad_targets():
    with pytest.raises(ShuffleLabError):
        route_top_to(52, 52, Family.FARO)
    with pytest.raises(ShuffleLabError):
        route_top_to(-1, 52, Family.HORSESHOE)
    # a target is an int: no float, text or bool stands in for one
    for target in (1.5, "1", True):
        with pytest.raises(ShuffleLabError, match=rf"target {target!r} out of range"):
            route_top_to(target, 10, Family.FARO)
    with pytest.raises(ShuffleLabError):
        route_top_to(3, 8, Family.FLIP)


# -- binary position rules ----------------------------------------------------


def test_position_step_worked_values():
    assert horseshoe_position_step(4, "1011", Shuffle.HORSE_IN) == "1000"
    assert horseshoe_position_step(4, "1011", Shuffle.HORSE_OUT) == "1001"
    # top half: rotation, with the incoming bit complemented for in
    assert horseshoe_position_step(4, "0011", Shuffle.HORSE_OUT) == "0110"
    assert horseshoe_position_step(4, "0011", Shuffle.HORSE_IN) == "0111"


def test_position_step_agrees_with_simulation():
    for k in range(2, 7):
        size = 1 << k
        for kind, mode in ((Shuffle.HORSE_IN, "horse-in"), (Shuffle.HORSE_OUT, "horse-out")):
            for pos in range(size):
                got = horseshoe_position_step(k, format(pos, f"0{k}b"), kind)
                assert int(got, 2) == oracles.card_position(size, mode, pos)


def test_position_step_validation():
    with pytest.raises(ShuffleLabError):
        horseshoe_position_step(4, "101", Shuffle.HORSE_IN)
    with pytest.raises(ShuffleLabError):
        horseshoe_position_step(4, "10x1", Shuffle.HORSE_IN)
    with pytest.raises(ShuffleLabError):
        horseshoe_position_step(4, "1011", Shuffle.FARO_IN)


def test_position_step_needs_at_least_one_bit():
    with pytest.raises(ShuffleLabError, match="k must be >= 1, got 0"):
        horseshoe_position_step(0, "", Shuffle.HORSE_IN)


@pytest.mark.parametrize("k, shown", [(4.0, "4.0"), ("4", "'4'"), (True, "True")])
def test_position_step_refuses_a_k_that_is_no_int(k, shown):
    with pytest.raises(ShuffleLabError, match=f"^k must be >= 1, got {shown}$"):
        horseshoe_position_step(k, "1011", Shuffle.HORSE_IN)


def test_family_parse_refuses_unknown_names():
    assert Family.parse(" Horse ") is Family.HORSESHOE
    with pytest.raises(ShuffleLabError, match="unknown family 'bogus'"):
        Family.parse("bogus")


# -- stay stack ---------------------------------------------------------------


def test_is_staystack_examples():
    assert is_staystack(expand_staystack(Deck.identity(10)))
    assert not is_staystack(Deck.identity(4))
    shuffled = apply_word([Shuffle.FARO_IN, Shuffle.FARO_OUT], expand_staystack(Deck.identity(10)))
    assert is_staystack(shuffled)


def test_faro_preserves_staystack_exhaustively_small():
    for size in (2, 4):
        for perm in permutations(range(size)):
            for mask in range(1 << size):
                deck = Deck(tuple(Card(x, bool(mask >> i & 1)) for i, x in enumerate(perm)))
                expanded = expand_staystack(deck)
                for kind in (Shuffle.FARO_IN, Shuffle.FARO_OUT):
                    assert is_staystack(apply_word(kind, expanded))


def test_faro_preserves_staystack_randomized():
    rng = random.Random(13)
    for size in (16, 20, 32, 64):
        for _ in range(100):
            deck = random_deck(rng, size // 2)
            expanded = expand_staystack(deck)
            for kind in (Shuffle.FARO_IN, Shuffle.FARO_OUT):
                assert is_staystack(apply_word(kind, expanded))


def test_faro_maps_mirrored_positions_to_mirrored_positions():
    # position-level statement behind stay-stack preservation, all sizes
    for size in range(4, 66, 2):
        for kind in (Shuffle.FARO_IN, Shuffle.FARO_OUT):
            images = element(kind, size).perm.images
            for j in range(size):
                assert images[j] + images[size - 1 - j] == size - 1


def test_bijection_commutes_with_shuffling_exhaustive_size_4():
    pairs = ((Shuffle.FARO_IN, Shuffle.FLIP_IN), (Shuffle.FARO_OUT, Shuffle.FLIP_OUT))
    from shufflelab.deck import contract_staystack

    for perm in permutations(range(4)):
        for mask in range(16):
            deck = Deck(tuple(Card(x, bool(mask >> i & 1)) for i, x in enumerate(perm)))
            for faro, flip in pairs:
                via_expansion = contract_staystack(
                    apply_word(faro, expand_staystack(deck))
                )
                assert via_expansion == apply_word(flip, deck)


def test_bijection_commutes_with_shuffling_randomized():
    from shufflelab.deck import contract_staystack

    rng = random.Random(14)
    pairs = ((Shuffle.FARO_IN, Shuffle.FLIP_IN), (Shuffle.FARO_OUT, Shuffle.FLIP_OUT))
    for _ in range(1000):
        size = rng.choice((6, 8, 10, 12, 14, 16))
        deck = random_deck(rng, size)
        for faro, flip in pairs:
            via_expansion = contract_staystack(apply_word(faro, expand_staystack(deck)))
            assert via_expansion == apply_word(flip, deck)


# -- parity properties --------------------------------------------------------


def test_horseshoe_generators_even_for_even_n():
    for size in (4, 8, 12, 16, 20):
        assert permutation_parity(element(Shuffle.HORSE_IN, size).perm) == "even"
        assert permutation_parity(element(Shuffle.HORSE_OUT, size).perm) == "even"


def test_flip_preserves_face_up_parity_for_even_n():
    rng = random.Random(15)
    for size in (4, 8, 12, 16):
        for _ in range(50):
            deck = random_deck(rng, size)
            before = sum(c.face_up for c in deck) % 2
            for kind in (Shuffle.FLIP_IN, Shuffle.FLIP_OUT):
                after = sum(c.face_up for c in apply_word(kind, deck)) % 2
                assert after == before


def test_flip_shifts_face_up_parity_for_odd_n():
    deck = Deck.identity(10)  # n = 5
    assert sum(c.face_up for c in apply_word(Shuffle.FLIP_IN, deck)) % 2 == 1


# -- word text grammar --------------------------------------------------------

#: Every step token: each shuffle forward and inverted.
TOKENS = [f"{inv}{kind.value}" for kind in Shuffle for inv in ("", "inv:")]


def test_parse_word_tokens():
    word = parse_word("flip-in, inv:milk HORSE-OUT,reverse")
    assert word == (
        Step(Shuffle.FLIP_IN),
        Step(Shuffle.MILK, inverted=True),
        Step(Shuffle.HORSE_OUT),
        Step(Shuffle.REVERSE),
    )
    assert format_word(word) == "flip-in, inv:milk, horse-out, reverse"
    assert parse_word(format_word(word)) == word
    assert len(set(TOKENS)) == 24
    for token in TOKENS:
        step = Step(Shuffle(token.removeprefix("inv:")), token.startswith("inv:"))
        for text in (token, token.upper(), f" \t{token}  "):
            assert parse_word(text) == (step,)
            assert Step.parse(text) == step
            assert format_word(parse_word(text)) == str(step) == token
    assert format_word(parse_word(" ".join(TOKENS).upper())) == ", ".join(TOKENS)


def test_parse_word_rejects_unknown_tokens():
    for bad in ("flipin", "inv:", "faro", "milk-under", "inv:inv:milk", "inv: milk", "INV:"):
        with pytest.raises(ShuffleLabError, match="unknown shuffle token"):
            parse_word(bad)


@pytest.mark.parametrize(
    "fields",
    [
        (Shuffle.MILK, "yes"),
        (Shuffle.MILK, 0),
        (Shuffle.MILK, 1),
        (Shuffle.MILK, None),
        ("faro-in",),
        ("faro-in", True),
        (None,),
        (Family.FARO,),
    ],
)
def test_a_step_checks_its_fields(fields):
    # a step's shuffle is a Shuffle and its inverted flag a bool
    with pytest.raises(ShuffleLabError, match="a step takes a Shuffle and a bool"):
        Step(*fields)
    if len(fields) == 1:  # the library's step-like inputs refuse it too
        with pytest.raises(ShuffleLabError, match="a step takes a Shuffle and a bool"):
            element(fields[0], 10)
        with pytest.raises(ShuffleLabError, match="a step takes a Shuffle and a bool"):
            word_element([Shuffle.MILK, fields[0]], 10)


def test_parsing_and_the_library_words_build_no_step(monkeypatch):
    # the 24 steps are built once, in a table that every word takes its steps from
    calls = []
    init = Step.__init__
    monkeypatch.setattr(
        Step, "__init__", lambda self, *args: calls.append(args) or init(self, *args)
    )
    assert len(parse_word(", ".join(TOKENS))) == 24
    for kind in Shuffle:
        element(kind, 10)
    for family in POSITION_FAMILIES:
        assert route_top_to(37, 40, family)
        assert shortest_words(40, family, 37, 0).words
    assert calls == []
    Step(Shuffle.MILK, True)  # the counter sees a step that is built
    assert calls == [(Shuffle.MILK, True)]


@pytest.mark.parametrize(
    "call, what",
    [
        (shuffles.as_word, "word"),
        (lambda value: word_element(value, 8), "word"),
        (lambda value: element_order(value, 8), "word"),
        (lambda value: apply_word(value, Deck.identity(8)), "word"),
        (format_word, "word"),
        (shuffles.inout_tokens, "word"),
        (inout_text, "word"),
        (lambda value: special.trick_session(3, value), "word"),
        # None is the sorted packet there, so an object stands in for it
        (
            lambda value: special.trick_session(3, [], value or object()),
            "initial arrangement",
        ),
        (special.recognize, "values"),
        (lambda value: verify_theorem(Family.FARO, value), "sizes"),
        (lambda value: horseshoe_position_step(3, value, Shuffle.HORSE_IN), "position"),
    ],
)
@pytest.mark.parametrize("value", [None, 5])
def test_entry_points_refuse_a_value_of_the_wrong_type(call, what, value):
    with pytest.raises(ShuffleLabError, match=f"^{what} must be "):
        call(value)


def test_inout_text_rejects_non_inout():
    with pytest.raises(ShuffleLabError):
        inout_text((Step(Shuffle.MILK),))
    with pytest.raises(ShuffleLabError):
        inout_text((Step(Shuffle.FARO_IN, inverted=True),))


# -- the element caches -------------------------------------------------------


def test_element_caches_stay_bounded():
    # a long-lived process asking for many sizes keeps a bounded number
    for size in range(2, 402, 2):
        element(Step(Shuffle.FARO_IN, inverted=True), size)
    for cache in (shuffles._element,):
        info = cache.cache_info()
        assert info.maxsize is not None and info.maxsize <= 64
        assert info.currsize <= info.maxsize


# -- derived values skip the input checks -------------------------------------


def test_derived_values_skip_the_constructor_checks(monkeypatch):
    # tables come from their formulas; folds, routes and graphs from the tables
    deck = Deck.identity(40)
    word = parse_word("faro-out, inv:flip-in, milk, inv:monge-over, turnover, horse-in")
    for cache in (shuffles._element,):
        cache.cache_clear()
    checks = []
    for cls in (Deck, Permutation, OrientedPermutation):
        check = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, check=check: checks.append(check(self))
        )
    for size in (*range(2, 42, 2), MAX_DECK_SIZE):
        for kind in Shuffle:
            element(kind, size)
            element(Step(kind, inverted=True), size)
    word_element(word, MAX_DECK_SIZE)
    apply_word(word, deck)
    element_order(word, 40)
    for family in POSITION_FAMILIES:
        route_top_to(37, 40, family)
        PositionGraph.build(40, family)
    for family in Family:
        family_generators(family, 40)
    monkeypatch.undo()
    assert checks == []


def test_a_word_of_n_steps_makes_n_minus_one_products(monkeypatch):
    rng = random.Random(11)
    steps = [Step(kind, inverted) for kind in Shuffle for inverted in (False, True)]
    for step in steps:
        element(step, 12)  # the milk and Monge tables are products themselves
    calls = []
    then = OrientedPermutation.then
    monkeypatch.setattr(
        OrientedPermutation, "then", lambda self, other: calls.append(1) or then(self, other)
    )
    for n in range(1, 10):
        word = tuple(rng.choice(steps) for _ in range(n))
        calls.clear()
        word_element(word, 12)
        assert len(calls) == n - 1


# -- interlacing tables at the size cap ---------------------------------------


@pytest.mark.parametrize("kind", list(INTERLACE_KINDS))
def test_interlace_tables_at_the_cap_match_simulation(kind):
    got = apply_oriented(element(kind, MAX_DECK_SIZE), Deck.identity(MAX_DECK_SIZE))
    start = oracles.face_down_range(MAX_DECK_SIZE)
    assert as_tuples(got) == oracles.cut_interlace(start, INTERLACE_KINDS[kind])


# -- properties of words, products and inverses -------------------------------

#: Each shuffle as a move-by-move table procedure on (label, face_up) tuples.
PROCEDURES = {
    **{kind: functools.partial(oracles.cut_interlace, mode=mode)
       for kind, mode in INTERLACE_KINDS.items()},
    Shuffle.MILK: functools.partial(oracles.milk_deal, former_top_first=True),
    Shuffle.MILK_SWAP: functools.partial(oracles.milk_deal, former_top_first=False),
    Shuffle.MONGE_UNDER: functools.partial(oracles.monge_deal, second_under=False),
    Shuffle.MONGE_OVER: functools.partial(oracles.monge_deal, second_under=True),
    Shuffle.REVERSE: lambda cards: list(reversed(cards)),
    Shuffle.TURN_OVER: lambda cards: [(label, not face) for label, face in reversed(cards)],
}


def simulate(step, cards):
    """One step done by hand; an inverted step undoes the procedure."""
    procedure = PROCEDURES[step.shuffle]
    if not step.inverted:
        return procedure(cards)
    # the procedure brings the card at position p to q, turned or not
    out = [None] * len(cards)
    for q, (p, turned) in enumerate(procedure(oracles.face_down_range(len(cards)))):
        label, face = cards[q]
        out[p] = (label, face != turned)
    return out


sizes = st.integers(1, 20).map(lambda k: 2 * k)
steps = st.builds(Step, st.sampled_from(list(Shuffle)), st.booleans())
words = st.lists(steps, max_size=12).map(tuple)


@st.composite
def oriented_decks(draw):
    size = draw(sizes)
    labels = draw(st.permutations(range(size)))
    faces = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return Deck(tuple(map(Card, labels, faces)))


@settings(max_examples=50, deadline=None)
@given(u=words, v=words, size=sizes)
def test_word_element_is_a_homomorphism(u, v, size):
    product = word_element(u, size).then(word_element(v, size))
    assert word_element(u + v, size) == product
    # products are built unchecked; they would pass the public checks
    assert OrientedPermutation(Permutation(product.perm.images), product.flips) == product
    assert all(type(f) is bool for f in product.flips)


@settings(max_examples=50, deadline=None)
@given(word=words, size=sizes)
def test_inverse_laws(word, size):
    op = word_element(word, size)
    inv = op.inverse()
    assert op.then(inv).is_identity() and inv.then(op).is_identity()
    assert inv.inverse() == op
    undo = tuple(Step(s.shuffle, not s.inverted) for s in reversed(word))
    assert word_element(undo, size) == inv
    assert OrientedPermutation(Permutation(inv.perm.images), inv.flips) == inv


@settings(max_examples=50, deadline=None)
@given(word=words, deck=oriented_decks())
def test_apply_word_matches_step_by_step_simulation(word, deck):
    cards = as_tuples(deck)
    for step in word:
        cards = simulate(step, cards)
    got = apply_word(word, deck)
    assert as_tuples(got) == cards
    assert Deck(got.cards) == got


@settings(max_examples=50, deadline=None)
@given(ins=st.lists(st.booleans(), max_size=12), deck=oriented_decks())
def test_staystack_expansion_commutes_with_words(ins, deck):
    faro = [Shuffle.FARO_IN if i else Shuffle.FARO_OUT for i in ins]
    flip = [Shuffle.FLIP_IN if i else Shuffle.FLIP_OUT for i in ins]
    assert contract_staystack(apply_word(faro, expand_staystack(deck))) == apply_word(flip, deck)
