"""Special orderings of 2^k decks and the outside-in trick.

Label the cards of a 2^k deck with their binary values.  A *special
ordering* grows from a single starting card by repeated doubling: at
every stage the existing block is copied and the copy is rewritten by
one operation from the cycle

    flip bit 0 -> flip bit 1 -> ... -> flip bit k-1 -> complement ->

using k consecutive operations of those k+1 (one is skipped).  The
skipped operation is recoverable from the two end cards: the whole
run of k operations xors to it, so the ends differ in exactly one bit
or are full complements.

These orderings are exactly the arrangements reachable from the sorted
deck by horseshoe shuffles, and the family is also closed under milk
and Monge shuffles and deck reversal.  That closure powers the trick:
let an audience shuffle a 2^k packet with any mix of those moves, deal
it in a row, reveal the two end cards, and everything in between is
forced, working from the outside in.
"""

from __future__ import annotations

from itertools import repeat
from operator import xor
from typing import Optional, Sequence

from .deck import (
    MAX_DECK_SIZE,
    Deck,
    ShuffleLabError,
    _decimal,
    _is_arrangement,
    _Record,
)
from .shuffles import Shuffle, Word, WordLike, apply_word, as_word

MAX_K = MAX_DECK_SIZE.bit_length() - 1

#: Shuffles the audience may use without breaking specialness.
TRICK_ALPHABET = frozenset(
    {
        Shuffle.HORSE_IN,
        Shuffle.HORSE_OUT,
        Shuffle.MILK,
        Shuffle.MILK_SWAP,
        Shuffle.MONGE_UNDER,
        Shuffle.MONGE_OVER,
        Shuffle.REVERSE,
    }
)


class InvalidEndsError(ShuffleLabError):
    """End cards differ by neither one bit nor a full complement."""


class ClosureViolationError(ShuffleLabError):
    """A trick-alphabet word left the special orderings (engine bug)."""


class DiagramOp(_Record):
    """One doubling operation: flip a single bit, or complement all bits.

    ``bit`` is None for the complement.  Both are involutions.
    """

    __slots__ = ("bit",)
    bit: Optional[int]

    def __post_init__(self) -> None:
        if self.bit is not None and type(self.bit) is not int:
            raise ShuffleLabError(f"bit index must be an int or None, got {self.bit!r}")
        if self.bit is not None and self.bit < 0:
            raise ShuffleLabError(f"bit index must be >= 0, got {self.bit}")

    @classmethod
    def flip_bit(cls, j: int) -> "DiagramOp":
        return cls(j)

    @classmethod
    def complement(cls) -> "DiagramOp":
        return cls(None)

    def mask(self, k: int) -> int:
        return (1 << k) - 1 if self.bit is None else 1 << self.bit

    def apply(self, value: int, k: int) -> int:
        return value ^ self.mask(k)

    @classmethod
    def parse(cls, token: str) -> "DiagramOp":
        text = token.strip().lower()
        if text == "complement":
            return cls.complement()
        bit = _decimal(text[3:]) if text.startswith("bit") else None
        if bit is None:
            raise ShuffleLabError(f"unknown diagram operation {token!r}")
        return cls.flip_bit(bit)

    def __str__(self) -> str:
        return "complement" if self.bit is None else f"bit{self.bit}"


def diagram_cycle(k: int) -> tuple[DiagramOp, ...]:
    """The k+1 operations in cycle order: bits 0..k-1, then complement."""
    return tuple(DiagramOp.flip_bit(j) for j in range(k)) + (DiagramOp.complement(),)


def _check_k(k: int) -> None:
    """Refuse a k that is no int (a bool is none) or outside 1..MAX_K."""
    if type(k) is not int or not 1 <= k <= MAX_K:
        raise ShuffleLabError(f"k must be in 1..{MAX_K}, got {k!r}")


def _check_value(value: int, k: int, what: str) -> None:
    """Refuse a card value that is no int or outside 0..2^k - 1; k is checked."""
    if type(value) is not int or not 0 <= value < 1 << k:
        raise ShuffleLabError(f"{what} {value!r} out of range for k={k}")


class SpecialOrdering(_Record):
    """A doubling-generated ordering of all 2^k values."""

    __slots__ = ("k", "first", "start", "values")
    k: int
    first: int
    start: DiagramOp
    values: tuple[int, ...]

    def skipped(self) -> DiagramOp:
        """The one cycle operation the generation never used."""
        cycle = diagram_cycle(self.k)
        return cycle[(cycle.index(self.start) - 1) % len(cycle)]

    def text(self) -> str:
        """The values in decimal, space-separated."""
        return _spaced(self.values)

    def display(self) -> str:
        """The values as ``card_name`` shows them, space-separated."""
        shown = list(self.values)
        # every value occurs once, and only cards 0 and 1 have names of their own
        shown[shown.index(0)] = card_name(0, self.k)
        shown[shown.index(1)] = card_name(1, self.k)
        return _spaced(shown)

    def to_dict(self) -> dict:
        """JSON form: keys ``k``, ``first``, ``start``, ``values``, ``display``."""
        return {
            "k": self.k,
            "first": self.first,
            "start": str(self.start),
            "values": list(self.values),
            "display": self.display(),
        }


def _spaced(values: Sequence[object]) -> str:
    """The values' ``str`` forms, space-separated.

    One ``%`` format runs in C over all the values; on CPython 3.11 it
    is faster than calling ``str`` per value, through ``map`` or in a
    generator.
    """
    return " ".join(["%s"] * len(values)) % tuple(values)


def generate(k: int, first: int, start: DiagramOp) -> SpecialOrdering:
    """Grow the ordering from ``first`` using k cycle ops from ``start``."""
    _check_k(k)
    _check_value(first, k, "first card")
    cycle = diagram_cycle(k)
    if start not in cycle:
        raise ShuffleLabError(f"operation {start} is not valid for k={k}")
    index = cycle.index(start)
    values = [first]
    for stage in range(k):
        mask = cycle[(index + stage) % len(cycle)].mask(k)
        values += list(map(xor, values, repeat(mask)))
    return SpecialOrdering(k, first, start, tuple(values))


def recognize(values: Sequence[int]) -> Optional[SpecialOrdering]:
    """The unique (first, start) generating ``values``, or None.

    The first value is forced, and the second value pins the starting
    operation, so a single regeneration settles it.
    """
    count = len(values)
    if count < 2 or count & (count - 1):
        raise ShuffleLabError(f"length must be a power of two >= 2, got {count}")
    k = count.bit_length() - 1
    if not _is_arrangement(values):
        raise ShuffleLabError("values must be the distinct k-bit values")
    start = _op_from_mask(values[0] ^ values[1], k)
    if start is None:
        return None
    candidate = generate(k, values[0], start)
    return candidate if candidate.values == tuple(values) else None


def _op_from_mask(mask: int, k: int) -> Optional[DiagramOp]:
    if mask == (1 << k) - 1 and k > 1:
        return DiagramOp.complement()
    if mask and mask & (mask - 1) == 0:
        return DiagramOp.flip_bit(mask.bit_length() - 1)
    return None


def predict_from_ends(k: int, left: int, right: int) -> SpecialOrdering:
    """Reconstruct a special ordering from its two end cards.

    The ends differ by the skipped operation, so the generation starts
    with the operation after it in the cycle.  Swapping the ends yields
    the same ordering read backwards.
    """
    _check_k(k)
    _check_value(left, k, "left end")
    _check_value(right, k, "right end")
    if left == right:
        raise InvalidEndsError("end cards must differ")
    skipped = _op_from_mask(left ^ right, k)
    if skipped is None:
        raise InvalidEndsError(
            f"ends {left} and {right} differ by neither one bit nor a complement"
        )
    cycle = diagram_cycle(k)
    start = cycle[(cycle.index(skipped) + 1) % len(cycle)]
    return generate(k, left, start)


def card_name(value: int, k: int) -> str:
    """Trick display: card 0 shows as the deck-size card, card 1 as the ace."""
    if value == 0:
        return str(1 << k)
    if value == 1:
        return "A"
    return str(value)


def card_value(token: str, k: int) -> int:
    """The value of a trick card name, inverting ``card_name``.

    The ace A is 1 and the deck-size card 2^k is 0.  k is checked first,
    before the cards' range, 1 << k, is computed.
    """
    _check_k(k)
    text = token.strip().upper()
    value = 1 if text == "A" else _decimal(text)
    if value is None:
        raise ShuffleLabError(f"bad card {token!r}")
    if value == 1 << k:
        value = 0
    if not 0 <= value < 1 << k:
        raise ShuffleLabError(f"card {token!r} out of range for k={k}")
    return value


class TrickTranscript(_Record):
    """Record of one outside-in performance: reveals, then the ordering."""

    __slots__ = ("k", "word", "values", "ordering", "lines")
    k: int
    word: Word
    values: tuple[int, ...]
    ordering: SpecialOrdering
    lines: tuple[str, ...]

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"

    def to_dict(self) -> dict:
        return {
            **self.ordering.to_dict(),
            "word": [str(step) for step in self.word],
            "skipped": str(self.ordering.skipped()),
        }


def trick_session(
    k: int, word: WordLike, initial: Optional[Sequence[int]] = None
) -> TrickTranscript:
    """Shuffle a 2^k packet with trick-legal moves and predict the layout.

    Applies the word to the sorted packet (or ``initial``, which must
    itself be special), checks the result is still special, and checks
    the outside-in prediction from the two end cards reproduces it.
    """
    _check_k(k)
    size = 1 << k
    steps = as_word(word)
    for step in steps:
        if step.shuffle not in TRICK_ALPHABET:
            raise ShuffleLabError(f"{step.shuffle} is not a trick-legal shuffle")
    if initial is None:
        deck = Deck.identity(size)
    else:
        cards = tuple((v, False) for v in initial)
        if len(cards) != size:
            raise ShuffleLabError(
                f"initial arrangement must hold {size} cards, got {len(cards)}"
            )
        deck = Deck(cards)
        if recognize(deck.labels()) is None:
            raise ShuffleLabError("initial arrangement is not special")
    final = apply_word(steps, deck).labels()
    ordering = recognize(final)
    if ordering is None:
        raise ClosureViolationError(
            f"word {[str(s) for s in steps]} left the special orderings"
        )
    predicted = predict_from_ends(k, final[0], final[-1])
    if predicted.values != final:
        raise ClosureViolationError("outside-in prediction failed to match")
    lines = []
    for step in range(size):
        pos = step // 2 if step % 2 == 0 else size - 1 - step // 2
        lines.append(f"position {pos}: {card_name(final[pos], k)}")
    lines.append(f"ordering: {ordering.display()}")
    return TrickTranscript(k, steps, final, ordering, tuple(lines))
