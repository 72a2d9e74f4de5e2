import copy
import pickle
import random
from itertools import permutations

import pytest

from shufflelab.deck import (
    MAX_DECK_SIZE,
    Card,
    Deck,
    NotStayStackError,
    OrientedPermutation,
    Permutation,
    ShuffleLabError,
    apply_oriented,
    contract_staystack,
    expand_staystack,
    is_staystack,
)
from shufflelab.deck import _unchecked
from shufflelab.elmsley import PositionGraph, shortest_words
from shufflelab.groups import GroupOrderReport, verify_theorem
from shufflelab.shuffles import Family, Shuffle, Step, element
from shufflelab.special import DiagramOp, trick_session


def random_deck(rng, size):
    labels = list(range(size))
    rng.shuffle(labels)
    return Deck(tuple(Card(x, rng.random() < 0.5) for x in labels))


def random_oriented(rng, m):
    images = list(range(m))
    rng.shuffle(images)
    flips = tuple(rng.random() < 0.5 for _ in range(m))
    return OrientedPermutation(Permutation(tuple(images)), flips)


def all_oriented_decks(size):
    for perm in permutations(range(size)):
        for mask in range(1 << size):
            yield Deck(tuple(Card(x, bool(mask >> i & 1)) for i, x in enumerate(perm)))


# -- identity_deck ------------------------------------------------------------


def test_identity_deck_small():
    assert Deck.identity(4).cards == (Card(0), Card(1), Card(2), Card(3))
    assert Deck.identity(10).labels() == tuple(range(10))
    assert not any(c.face_up for c in Deck.identity(10))


def test_identity_deck_rejects_bad_sizes():
    for size in (3, 0, -2, 7):
        with pytest.raises(ShuffleLabError):
            Deck.identity(size)


def test_deck_validates_labels():
    with pytest.raises(ShuffleLabError):
        Deck((Card(0), Card(0)))
    with pytest.raises(ShuffleLabError):
        Deck((Card(0), Card(2)))


def test_deck_size_cap():
    with pytest.raises(ShuffleLabError):
        Deck.identity((1 << 16) + 2)


# -- apply_oriented -----------------------------------------------------------


def test_apply_identity_is_noop():
    rng = random.Random(1)
    for size in (2, 6, 10):
        d = random_deck(rng, size)
        assert apply_oriented(OrientedPermutation.identity(size), d) == d


def test_apply_in_flip_shuffle_matches_worked_row():
    d = Deck.identity(10)
    out = apply_oriented(element(Shuffle.FLIP_IN, 10), d)
    assert str(out) == "~9 0 ~8 1 ~7 2 ~6 3 ~5 4"


def test_apply_then_inverse_restores():
    rng = random.Random(2)
    for size in (2, 4, 10, 14):
        for _ in range(25):
            op = random_oriented(rng, size)
            d = random_deck(rng, size)
            assert apply_oriented(op.inverse(), apply_oriented(op, d)) == d


def test_apply_size_mismatch():
    with pytest.raises(ShuffleLabError):
        apply_oriented(OrientedPermutation.identity(4), Deck.identity(6))


# -- permutation algebra ------------------------------------------------------


def test_permutation_rejects_non_bijection():
    with pytest.raises(ShuffleLabError):
        Permutation((0, 0, 1))


def test_flip_length_and_degree_mismatch_are_refused():
    # products skip the constructors' checks, but not the check on their inputs
    with pytest.raises(ShuffleLabError, match="flips length"):
        OrientedPermutation(Permutation((1, 0)), (True,))
    with pytest.raises(ShuffleLabError, match="degree mismatch"):
        Permutation((1, 0)).then(Permutation((0, 1, 2)))
    with pytest.raises(ShuffleLabError, match="degree mismatch"):
        OrientedPermutation.identity(2).then(OrientedPermutation.identity(4))


def test_expansion_past_the_cap_is_refused():
    with pytest.raises(ShuffleLabError, match="exceeds cap"):
        expand_staystack(Deck.identity(MAX_DECK_SIZE))
    assert expand_staystack(Deck.identity(MAX_DECK_SIZE // 2)).size == MAX_DECK_SIZE


def test_inverses_exhaustive_small():
    # every oriented permutation on sizes 0, 1, 2 and 4; products below two
    # points take ``_compose``'s guard
    for m in (0, 1, 2, 4):
        for images in permutations(range(m)):
            for mask in range(1 << m):
                op = OrientedPermutation(
                    Permutation(images), tuple(bool(mask >> i & 1) for i in range(m))
                )
                assert op.then(op.inverse()).is_identity()
                assert op.inverse().then(op).is_identity()


def test_inverses_randomized():
    rng = random.Random(3)
    for m in (6, 12, 20):
        for _ in range(50):
            op = random_oriented(rng, m)
            assert op.then(op.inverse()).is_identity()


def test_associativity_randomized():
    rng = random.Random(4)
    for m in (2, 4, 6, 12):
        for _ in range(200):
            a, b, c = (random_oriented(rng, m) for _ in range(3))
            assert a.then(b).then(c) == a.then(b.then(c))


def test_point_embedding_is_homomorphism():
    rng = random.Random(5)
    for m in (4, 6, 10):
        seen = set()
        for _ in range(100):
            a = random_oriented(rng, m)
            b = random_oriented(rng, m)
            assert a.then(b).to_point_permutation() == a.to_point_permutation().then(
                b.to_point_permutation()
            )
            seen.add((a, a.to_point_permutation()))
        # injective on the sample: distinct ops, distinct images
        assert len({img for _, img in seen}) == len({op for op, _ in seen})


def test_oriented_order_counts_flipped_cycles():
    swap_flip = OrientedPermutation(Permutation((1, 0)), (False, True))
    assert swap_flip.order() == 4
    assert OrientedPermutation.identity(6).order() == 1


# -- stay-stack expansion -----------------------------------------------------


def test_expand_identity_deck_matches_worked_example():
    got = expand_staystack(Deck.identity(10))
    assert got.labels() == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10)
    assert not any(c.face_up for c in got)


def test_expand_smallest_case():
    got = expand_staystack(Deck.identity(2))
    assert got.labels() == (0, 1, 3, 2)


def test_contract_worked_row():
    # the 20-card arrangement after one in faro of the expanded sorted deck
    expanded = expand_staystack(Deck.identity(10))
    shuffled = apply_oriented(element(Shuffle.FARO_IN, 20), expanded)
    assert shuffled.labels() == (19, 0, 18, 1, 17, 2, 16, 3, 15, 4, 14, 5, 13, 6, 12, 7, 11, 8, 10, 9)
    assert str(contract_staystack(shuffled)) == "~9 0 ~8 1 ~7 2 ~6 3 ~5 4"


def test_roundtrip_exhaustive_small_sizes():
    for size in (2, 4, 6):
        for deck in all_oriented_decks(size):
            assert contract_staystack(expand_staystack(deck)) == deck


def test_roundtrip_randomized():
    rng = random.Random(6)
    for size, trials in ((8, 2000), (12, 1000)):
        for _ in range(trials):
            deck = random_deck(rng, size)
            assert contract_staystack(expand_staystack(deck)) == deck


def test_contract_rejects_broken_pairing():
    expanded = expand_staystack(Deck.identity(6))
    cards = list(expanded.cards)
    # swap one mirrored pair's partner with an unrelated slot
    cards[0], cards[1] = cards[1], cards[0]
    with pytest.raises(NotStayStackError):
        contract_staystack(Deck(tuple(cards)))


def test_contract_rejects_bad_sizes_and_faces():
    with pytest.raises(NotStayStackError):
        contract_staystack(Deck.identity(6))  # size not a multiple of 4
    expanded = expand_staystack(Deck.identity(4))
    flipped = Deck(tuple(c.turned() if i == 0 else c for i, c in enumerate(expanded)))
    with pytest.raises(ShuffleLabError):
        contract_staystack(flipped)


def test_contract_succeeds_exactly_on_staystacks():
    def check(deck):
        try:
            contracted = contract_staystack(deck)
        except NotStayStackError:
            assert not is_staystack(deck)
        else:
            assert is_staystack(deck)
            assert expand_staystack(contracted) == deck

    for labels in permutations(range(4)):
        check(Deck(tuple(map(Card, labels))))
    rng = random.Random(10)
    for size in (8, 12):
        for _ in range(1000):
            check(expand_staystack(random_deck(rng, size // 2)))
            labels = list(range(size))
            rng.shuffle(labels)
            check(Deck(tuple(map(Card, labels))))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Permutation((1.0, 0.0)),
        lambda: Permutation((0, "a")),
        lambda: Deck(((1.0, False), (0, False))),
    ],
    ids=["float-images", "mixed-images", "float-labels"],
)
def test_labels_and_images_must_be_ints(build):
    with pytest.raises(ShuffleLabError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Permutation((True, False)),
        lambda: Deck(((True, False), (False, False))),
        lambda: Deck(((0, "yes"), (1, False))),
        lambda: Deck(((0, 1), (1, False))),
        lambda: OrientedPermutation(Permutation((1, 0)), (1, 0)),
        lambda: Deck(((0,), (1, 2, 3))),
        lambda: Deck(((0, False), ())),
        lambda: Deck((0, 1)),
    ],
    ids=[
        "bool-images",
        "bool-labels",
        "str-face",
        "int-face",
        "int-flips",
        "three-field-card",
        "empty-card",
        "bare-label-cards",
    ],
)
def test_bools_are_not_labels_and_flags_are_only_bools(build):
    with pytest.raises(ShuffleLabError):
        build()


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: Permutation(5), "images must be a bijection on 0..m-1"),
        (lambda: Permutation(None), "images must be a bijection on 0..m-1"),
        (lambda: OrientedPermutation(Permutation((1, 0)), 5), "flips must be bools"),
        (
            lambda: OrientedPermutation((1, 0), (False, False)),
            "perm must be a Permutation",
        ),
        (lambda: Deck.identity("4"), "deck size must be an int, got '4'"),
        (lambda: Deck.identity(4.0), "deck size must be an int, got 4.0"),
        (lambda: element(Shuffle.FARO_IN, "4"), "deck size must be an int, got '4'"),
        (lambda: Deck.identity(True), "deck size must be even and >= 2, got True"),
    ],
    ids=[
        "int-images",
        "none-images",
        "int-flips",
        "tuple-perm",
        "str-size",
        "float-size",
        "str-element-size",
        "bool-size",
    ],
)
def test_arguments_of_the_wrong_kind_are_refused_where_they_enter(build, text):
    with pytest.raises(ShuffleLabError) as refused:
        build()
    assert str(refused.value) == text


def test_int_labels_and_bool_flags_keep_their_shapes_and_values():
    # Cards, (label,) and (label, face_up) tuples, and lists of either
    deck = Deck((Card(1, True), (0,), [3, False], [2]))
    assert deck == Deck.parse("~1 0 3 2")
    assert all(type(card) is Card for card in deck)
    op = OrientedPermutation(Permutation([1, 0]), [True, False])
    assert op.perm.images == (1, 0) and op.flips == (True, False)


def test_permutation_order_is_the_lcm_of_its_cycle_lengths():
    assert Permutation((1, 2, 0, 4, 3)).order() == 6
    assert Permutation.identity(4).order() == 1
    assert Permutation(()).order() == 1


# -- text format --------------------------------------------------------------


def test_deck_text_roundtrip():
    rng = random.Random(7)
    for size in (2, 10, 16):
        for _ in range(50):
            deck = random_deck(rng, size)
            assert Deck.parse(str(deck)) == deck


def test_deck_parse_exact_grammar():
    assert Deck.parse("~9 0 ~8 1 ~7 2 ~6 3 ~5 4").size == 10
    assert Deck.parse("0 1 2 3\n") == Deck.identity(4)  # trailing whitespace ok
    for bad in ("", "0  1 2 3", "0,1,2,3", "0 1 2 x", "~~0 1"):
        with pytest.raises(ShuffleLabError):
            Deck.parse(bad)


@pytest.mark.parametrize("token", ["²", "~²", "1²"])
def test_card_tokens_take_only_decimal_digits(token):
    # str.isdigit() accepts superscripts, which int() refuses
    with pytest.raises(ShuffleLabError, match="bad card token"):
        Deck.parse(f"{token} 0")
    # the decimal digits of other scripts are what int() accepts
    assert Deck.parse("١ ~٠") == Deck.parse("1 ~0")


def test_card_tokens_past_the_int_digit_limit_are_refused():
    with pytest.raises(ShuffleLabError, match="bad card token"):
        Deck.parse("1" * 5000 + " 0")


# -- records ------------------------------------------------------------------


def test_public_constructors_check_through_post_init_and_unchecked_does_not(monkeypatch):
    # a tracer counts validations by wrapping ``__post_init__`` on the class
    calls = []
    for cls in (Deck, Permutation, OrientedPermutation):

        def counted(self, original=cls.__post_init__):
            calls.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    perm = Permutation((1, 0, 3, 2))
    op = OrientedPermutation(perm, (False, True, False, False))
    deck = Deck(((2, False), (0, True), (3, False), (1, False)))
    Deck.parse("~1 0 3 2")
    assert calls == ["Permutation", "OrientedPermutation", "Deck", "Deck"]
    calls.clear()
    _unchecked(Permutation, (1, 0))
    Permutation.identity(4).then(perm).inverse()
    op.then(OrientedPermutation.identity(4)).inverse().to_point_permutation()
    contract_staystack(expand_staystack(apply_oriented(op, deck)))
    Deck.identity(4)
    assert calls == []


def records():
    """One record of every kind, each built twice from equal but distinct values."""
    yield lambda: Deck(tuple(Card(x) for x in (1, 0)))
    yield lambda: Permutation(tuple([1, 0]))
    yield lambda: OrientedPermutation(Permutation((1, 0)), tuple([True, False]))
    yield lambda: Step(Shuffle.MILK, True)
    yield lambda: DiagramOp(3)
    yield lambda: shortest_words(10, Family.HORSESHOE, 2, 0)
    yield lambda: trick_session(3, [Step(Shuffle.MILK)])
    yield lambda: trick_session(3, [Step(Shuffle.MILK)]).ordering
    yield lambda: verify_theorem(Family.FARO, [8])[0]
    yield lambda: PositionGraph.build(8, Family.FARO)


@pytest.mark.parametrize("build", list(records()))
def test_records_are_values_that_refuse_assignment(build):
    record, twin = build(), build()
    fields = type(record).__slots__
    values = tuple(getattr(record, name) for name in fields)
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(values)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{type(record).__name__}({shown})"
    assert record != values and record != object()
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    # one value per field: Step and GroupOrderReport default their last one
    cls = type(record)
    required = len(fields) - (cls in (Step, GroupOrderReport))
    for count in (required - 1, len(fields) + 1):
        with pytest.raises(TypeError):
            cls(*(values * 2)[:count])
    assert _unchecked(cls, *values) == record
    for i in range(len(fields)):
        other = _unchecked(cls, *values[:i], object(), *values[i + 1 :])
        assert other != record and record != other
