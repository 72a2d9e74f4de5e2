"""The perfect-shuffle families as oriented permutations.

Every shuffle here cuts a 2n-card deck into equal halves and perfectly
interlaces them; the families differ in what happens to the bottom half
first and in which half contributes the new top card:

* faro: interlace as-is.  ``out`` keeps the old top card on top,
  ``in`` buries it in position 1.
* flip: turn the bottom half over (reverse its order and flip every
  card) before interlacing, then interlace out or in.
* horseshoe: reverse the bottom half's order only, faces untouched.

Beyond the interlacing families there are table shuffles:

* milk: repeatedly slide the current top and bottom cards off together
  onto a pile.  Equal to a horseshoe shuffle conjugated by turning the
  whole deck over; the two milk variants differ in which card of each
  pair lands on top.
* Monge: feed cards one at a time alternately over and under a growing
  pile; the two variants are the inverses of the two milk shuffles.
* reverse / turnover: reverse the deck; turnover also flips every card.

All of them are pure values: ``element`` returns the oriented
permutation of a shuffle at a given size, and words of shuffles fold
left to right.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache, reduce
from typing import Sequence, Union

from .deck import (
    Deck,
    OrientedPermutation,
    Permutation,
    ShuffleLabError,
    _check_text,
    _Record,
    _unchecked,
    apply_oriented,
    check_deck_size,
    is_staystack,  # noqa: F401  (re-exported)
)


class Shuffle(Enum):
    """The shuffle alphabet; values double as text tokens."""

    FARO_OUT = "faro-out"
    FARO_IN = "faro-in"
    FLIP_OUT = "flip-out"
    FLIP_IN = "flip-in"
    HORSE_OUT = "horse-out"
    HORSE_IN = "horse-in"
    MILK = "milk"
    MILK_SWAP = "milk-swap"
    MONGE_UNDER = "monge-under"
    MONGE_OVER = "monge-over"
    REVERSE = "reverse"
    TURN_OVER = "turnover"

    def __str__(self) -> str:
        return self.value


class Step(_Record):
    """One shuffle in a word, possibly inverted (the dealt-out undo)."""

    __slots__ = ("shuffle", "inverted")
    shuffle: Shuffle
    inverted: bool

    def __init__(self, shuffle: Shuffle, inverted: bool = False) -> None:
        super().__init__(shuffle, inverted)

    def __post_init__(self) -> None:
        if not isinstance(self.shuffle, Shuffle) or not isinstance(self.inverted, bool):
            raise ShuffleLabError(f"a step takes a Shuffle and a bool, got {self!r}")

    @classmethod
    def parse(cls, token: str) -> "Step":
        """Parse a word token such as ``flip-in`` or ``inv:milk``."""
        _check_text(token, "shuffle token")
        step = _STEPS.get(token.strip().lower())
        if step is None:
            raise ShuffleLabError(f"unknown shuffle token {token!r}")
        return step

    def __str__(self) -> str:
        return f"inv:{self.shuffle.value}" if self.inverted else self.shuffle.value


#: The 24 steps by token: ``str`` defines the grammar and ``parse`` inverts it.
_STEPS = {str(s): s for s in (Step(k, inv) for k in Shuffle for inv in (False, True))}

#: A shuffle word: steps applied left to right; the empty word is the identity.
Word = tuple[Step, ...]

StepLike = Union[Shuffle, Step]
WordLike = Union[StepLike, Sequence[StepLike]]


def as_step(value: StepLike) -> Step:
    """The step of a shuffle, from the table; anything else is checked by ``Step``."""
    if isinstance(value, Step):
        return value
    return _STEPS[value.value] if isinstance(value, Shuffle) else Step(value)


def as_word(value: WordLike) -> Word:
    """Normalize a shuffle, step, or sequence of either into a word."""
    if isinstance(value, (Shuffle, Step)):
        return (as_step(value),)
    return tuple(as_step(v) for v in value)


def parse_word(text: str) -> Word:
    """Parse comma- or whitespace-separated shuffle tokens, case-insensitive."""
    _check_text(text, "shuffle word")
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    return tuple(Step.parse(t) for t in tokens)


def format_word(word: WordLike) -> str:
    return ", ".join(str(step) for step in as_word(word))


class Family(Enum):
    """A generator family: which pair of shuffles (or their kin) we use."""

    FARO = "faro"
    FLIP = "flip"
    HORSESHOE = "horse"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, token: str) -> "Family":
        _check_text(token, "family")
        for fam in cls:
            if fam.value == token.strip().lower():
                return fam
        raise ShuffleLabError(f"unknown family {token!r}")


#: The families with position graphs and binary routes.
POSITION_FAMILIES = (Family.FARO, Family.HORSESHOE)
_FAMILY_IN_OUT = {
    Family.FARO: (Shuffle.FARO_IN, Shuffle.FARO_OUT),
    Family.FLIP: (Shuffle.FLIP_IN, Shuffle.FLIP_OUT),
    Family.HORSESHOE: (Shuffle.HORSE_IN, Shuffle.HORSE_OUT),
}

#: The generic in/out token of every family's in and out shuffle.
_INOUT_TOKENS = {
    kind: token
    for pair in _FAMILY_IN_OUT.values()
    for kind, token in zip(pair, ("in", "out"))
}


def check_family(family: object) -> None:
    """Refuse a value that is not a ``Family``, such as its text token."""
    if not isinstance(family, Family):
        raise ShuffleLabError(f"family must be a Family, got {family!r}")


def family_in_out(family: Family) -> tuple[Shuffle, Shuffle]:
    """The (in, out) shuffle kinds of a family."""
    check_family(family)
    return _FAMILY_IN_OUT[family]


#: Entries kept by the element cache; holds the elements of a table sweep.
_CACHE_SIZE = 64


@lru_cache(maxsize=_CACHE_SIZE)
def _element(kind: Shuffle, size: int, inverted: bool) -> OrientedPermutation:
    """The table of one step, built unchecked from its formula.

    A Monge shuffle undoes a milk shuffle, so a Monge step is a lookup:
    ``monge-under`` is ``inv:milk`` and ``inv:monge-under`` is ``milk``.
    """
    if kind in (Shuffle.MONGE_UNDER, Shuffle.MONGE_OVER):
        milk = Shuffle.MILK if kind is Shuffle.MONGE_UNDER else Shuffle.MILK_SWAP
        return _element(milk, size, not inverted)
    if inverted:
        return _element(kind, size, False).inverse()
    s = size
    if kind is Shuffle.FARO_OUT:
        # position i goes to 2i mod (size-1); the bottom card stays put
        return _table((*range(0, s - 1, 2), *range(1, s - 1, 2), s - 1))
    if kind is Shuffle.FARO_IN:
        # position i goes to 2i+1 mod (size+1)
        return _table((*range(1, s, 2), *range(0, s, 2)))
    if kind in (Shuffle.FLIP_OUT, Shuffle.HORSE_OUT):
        # the top half lands on even positions, the reversed bottom half on odd
        images = (*range(0, s, 2), *range(s - 1, 0, -2))
        return _table(images, flip_bottom=kind is Shuffle.FLIP_OUT)
    if kind in (Shuffle.FLIP_IN, Shuffle.HORSE_IN):
        # the reversed bottom half lands on even positions, the top half on odd
        images = (*range(1, s, 2), *range(s - 2, -1, -2))
        return _table(images, flip_bottom=kind is Shuffle.FLIP_IN)
    if kind in (Shuffle.MILK, Shuffle.MILK_SWAP):
        turn = _element(Shuffle.TURN_OVER, size, False)
        horse = Shuffle.HORSE_IN if kind is Shuffle.MILK else Shuffle.HORSE_OUT
        return turn.then(_element(horse, size, False)).then(turn)
    if kind in (Shuffle.REVERSE, Shuffle.TURN_OVER):
        flip = kind is Shuffle.TURN_OVER
        return _table(tuple(range(s - 1, -1, -1)), flip, flip)
    raise ShuffleLabError(f"unknown shuffle kind {kind!r}")


def _table(
    images: tuple[int, ...], flip_top: bool = False, flip_bottom: bool = False
) -> OrientedPermutation:
    """A shuffle table from its formula's images, built unchecked; halves may turn."""
    n = len(images) // 2
    flips = (flip_top,) * n + (flip_bottom,) * n
    return _unchecked(OrientedPermutation, _unchecked(Permutation, images), flips)


def element(step: StepLike, size: int) -> OrientedPermutation:
    """The oriented permutation of one shuffle at the given deck size."""
    check_deck_size(size)
    step = as_step(step)
    return _element(step.shuffle, size, step.inverted)


def word_element(word: WordLike, size: int) -> OrientedPermutation:
    """Fold a word into a single oriented permutation, left to right."""
    check_deck_size(size)
    steps = as_word(word)
    if not steps:
        return OrientedPermutation.identity(size)
    elements = (_element(step.shuffle, size, step.inverted) for step in steps)
    return reduce(OrientedPermutation.then, elements)


def apply_word(word: WordLike, deck: Deck) -> Deck:
    """Apply a word of shuffles to a deck, left to right."""
    return apply_oriented(word_element(word, deck.size), deck)


def element_order(word: WordLike, size: int) -> int:
    """Least number of repetitions restoring order and orientation."""
    return word_element(word, size).order()


def inout_tokens(word: WordLike) -> list[str]:
    """The generic tokens of an in/out word, e.g. ``["in", "out", "out"]``."""
    tokens = []
    for step in as_word(word):
        token = None if step.inverted else _INOUT_TOKENS.get(step.shuffle)
        if token is None:
            raise ShuffleLabError(f"not an in/out shuffle: {step}")
        tokens.append(token)
    return tokens


def inout_text(word: WordLike) -> str:
    """Render an in/out word generically, e.g. ``in, out, out``."""
    return ", ".join(inout_tokens(word))


def route_top_to(target: int, size: int, family: Family) -> Word:
    """A word of in/out shuffles moving the top card to ``target``.

    Write the target in binary and read it left to right, 1 for in and
    0 for out.  The card rides the top half the whole way, where faro
    and horseshoe shuffles move cards identically, so the same pattern
    works for both families.
    """
    check_deck_size(size)
    in_step, out_step = map(as_step, family_in_out(family))
    if family not in POSITION_FAMILIES:
        raise ShuffleLabError(f"routing is defined for faro/horseshoe, not {family}")
    if type(target) is not int or not 0 <= target < size:
        raise ShuffleLabError(f"target {target!r} out of range for size {size}")
    bits = f"{target:b}".lstrip("0")  # 0 has no bits: the top card needs no shuffle
    word = tuple(in_step if bit == "1" else out_step for bit in bits)
    pos = 0
    for step in word:
        pos = _element(step.shuffle, size, False).perm.images[pos]
    if pos != target:  # pragma: no cover - guards the binary-routing argument
        raise ShuffleLabError(f"routing failed: reached {pos}, wanted {target}")
    return word


def horseshoe_position_step(k: int, pos: str, kind: Shuffle) -> str:
    """Where one horseshoe shuffle sends a card of a 2^k deck, in bits.

    The position is a k-bit string, leading bit 1 meaning the bottom
    half.  Both shuffles rotate the bits left; a card from the bottom
    half additionally has the first k-1 bits of the result complemented,
    and an in shuffle complements the final bit.
    """
    if kind not in (Shuffle.HORSE_IN, Shuffle.HORSE_OUT):
        raise ShuffleLabError(f"expected a horseshoe shuffle, got {kind}")
    if type(k) is not int or k < 1:
        raise ShuffleLabError(f"k must be >= 1, got {k!r}")
    if len(pos) != k or any(c not in "01" for c in pos):
        raise ShuffleLabError(f"position must be a {k}-bit string, got {pos!r}")
    x = int(pos, 2)
    mask = (1 << k) - 1
    bottom = bool(x >> (k - 1))
    rotated = ((x << 1) & mask) | (x >> (k - 1))
    if bottom:
        rotated ^= mask ^ 1
    if kind is Shuffle.HORSE_IN:
        rotated ^= 1
    return format(rotated, f"0{k}b")

