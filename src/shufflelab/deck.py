"""Decks of oriented cards and the permutations acting on them.

A deck is a sequence of distinctly labeled cards, top card first, each
face-down or face-up.  Shuffles act on decks through *oriented
permutations*: a bijection on positions together with a per-position
flag saying whether the card leaving that position gets turned over.
An oriented permutation on m positions embeds into an ordinary
permutation on 2m points by tracking (position, face) pairs, which is
what the group computations run on.

The stay-stack expansion links decks of two sizes.  An oriented deck of
2n cards corresponds to a plain face-down deck of 4n cards in which
positions j and 4n-1-j always hold the two faces of one card: card
(label, face) becomes point label + 2n*face, and point x pairs with
(x + 2n) mod 4n.

Three primitives on image tuples serve the whole package, the group
engine included: ``_compose`` (the product, and the gather of flags and
cards along a permutation), ``_inverse`` and ``_cycles``.

Checking policy: values are checked once, where they enter from outside,
and each rule has one home here: ``_decimal`` for every number read from
text (card tokens, the bit of ``bitJ``, ``--sizes`` lists and the CLI's
number options, which allow one leading ``-`` before it): decimal
digits only, with no ``+``, ``_`` or blank and at most 4300 of them;
``_is_arrangement`` for labels and images (ints, not bools),
``_is_flags`` for face and turn-over flags (bools only), and
``check_deck_size`` for sizes (ints only).  Everything derived (shuffle
tables from their formulas, word folds, products, inverses, moved decks)
is built by ``_unchecked``, so a word step costs one pass over the deck
and no sort.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from operator import itemgetter, xor
from typing import Iterator, NamedTuple, Optional, Sequence

#: Hard upper bound on deck sizes; everything in scope is desk scale.
MAX_DECK_SIZE = 1 << 16


class ShuffleLabError(ValueError):
    """Invalid sizes, malformed text, or broken preconditions."""


def check_deck_size(size: int) -> None:
    """Refuse a deck size that is no int, odd, below 2, or above ``MAX_DECK_SIZE``."""
    if not isinstance(size, int):
        raise ShuffleLabError(f"deck size must be an int, got {size!r}")
    if size < 2 or size % 2:
        raise ShuffleLabError(f"deck size must be even and >= 2, got {size!r}")
    if size > MAX_DECK_SIZE:
        raise ShuffleLabError(f"deck size {size!r} exceeds cap {MAX_DECK_SIZE}")


def _decimal(text: str) -> Optional[int]:
    """The value of a token ``str.isdecimal`` accepts and ``int`` reads, else None."""
    try:
        return int(text) if text.isdecimal() else None
    except ValueError:  # past int's digit limit
        return None


def _is_arrangement(values: Sequence[object]) -> bool:
    """Whether the values are the ints 0..n-1, each exactly once; a bool is no int."""
    return set(map(type, values)) <= {int} and sorted(values) == [*range(len(values))]


def _is_flags(values: Sequence[object]) -> bool:
    """Whether every value is a bool."""
    return set(map(type, values)) <= {bool}


def _unchecked(cls: type, *values: object):
    """Build a record from values known to be valid, skipping ``__init__``'s checks."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class _Record:
    """Base of the package's immutable records.

    A record names its fields in ``__slots__`` and nothing else: this
    base builds, compares, hashes, shows, copies and pickles it by them.
    ``__init__`` takes one value per field, in slot order, stores each
    with ``object.__setattr__`` and then calls ``self.__post_init__()``,
    looked up on the class at call time; a record whose values need
    checking overrides it, and the base's checks nothing.  ``__eq__``
    compares the field values, and only with a record of the same
    class.  Assignment and deletion are refused, and copies and pickles
    go through ``_unchecked``, so nothing imports ``dataclasses``.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__qualname__} has fields {names}, got {len(values)} values"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the stored values; the base has nothing to check."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return _unchecked, (type(self), *self._values())


class NotStayStackError(ShuffleLabError):
    """Deck does not satisfy the stay-stack pairing."""


class Card(NamedTuple):
    """A labeled card that is face-down (default) or face-up."""

    label: int
    face_up: bool = False

    def turned(self) -> "Card":
        """The same card turned over."""
        return Card(self.label, not self.face_up)

    def __str__(self) -> str:
        return f"~{self.label}" if self.face_up else str(self.label)


def parse_card(token: str) -> Card:
    """Parse a single card token: a decimal label, `~`-prefixed if face-up."""
    face_up = token.startswith("~")
    label = _decimal(token[1:] if face_up else token)
    if label is None:
        raise ShuffleLabError(f"bad card token {token!r}")
    return Card(label, face_up)


class Deck(_Record):
    """An even-sized deck of cards, index 0 on top.

    Cards are ``(label[, face_up])`` tuples: labels 0..size-1, bool flags.
    """

    __slots__ = ("cards",)
    cards: tuple[Card, ...]

    def __post_init__(self) -> None:
        try:
            cards = tuple(c if isinstance(c, Card) else Card(*c) for c in self.cards)
        except TypeError:  # a card that does not unpack into a label and a flag
            raise ShuffleLabError("cards must be (label[, face_up]) tuples") from None
        object.__setattr__(self, "cards", cards)
        check_deck_size(len(cards))
        if not _is_arrangement([c.label for c in cards]):
            raise ShuffleLabError("labels must be a permutation of 0..size-1")
        if not _is_flags([c.face_up for c in cards]):
            raise ShuffleLabError("face flags must be bools")

    @classmethod
    def identity(cls, size: int) -> "Deck":
        """The face-down deck 0, 1, ..., size-1."""
        check_deck_size(size)
        return _unchecked(cls, tuple(map(Card, range(size))))

    @classmethod
    def parse(cls, text: str) -> "Deck":
        """Parse the single-space-separated text form, e.g. ``~9 0 ~8 1``.

        Trailing whitespace is tolerated; anything else must match the
        grammar exactly.
        """
        body = text.rstrip()
        if not body:
            raise ShuffleLabError("empty deck text")
        tokens = body.split(" ")
        if any(not t for t in tokens):
            raise ShuffleLabError(f"malformed deck text {text!r}")
        return cls(tuple(map(parse_card, tokens)))

    @property
    def size(self) -> int:
        return len(self.cards)

    def labels(self) -> tuple[int, ...]:
        return tuple(c.label for c in self.cards)

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.cards)

    def __iter__(self) -> Iterator[Card]:
        return iter(self.cards)


def _inverse(images: Sequence[int]) -> tuple[int, ...]:
    """The images of the inverse of the permutation with these images."""
    inv = [0] * len(images)
    for p, x in enumerate(images):
        inv[x] = p
    return tuple(inv)


def _compose(p: Sequence[int], q: Sequence) -> tuple:
    """Apply p, then q: q's images, flags or cards at p's indices, in order.

    One ``itemgetter`` call; below two points it would return a bare item or raise.
    """
    return itemgetter(*p)(q) if len(p) > 1 else tuple(q[x] for x in p)


def _cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycle decomposition of the permutation with these images, 1-cycles included."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        p = images[start]
        while p != start:
            seen[p] = True
            cycle.append(p)
            p = images[p]
        out.append(tuple(cycle))
    return out


class Permutation(_Record):
    """A bijection on 0..m-1; ``images[p]`` is where position p's card goes."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images) if isinstance(self.images, Iterable) else None
        object.__setattr__(self, "images", images)
        if images is None or not _is_arrangement(images):
            raise ShuffleLabError("images must be a bijection on 0..m-1")

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return _unchecked(cls, tuple(range(m)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def then(self, other: "Permutation") -> "Permutation":
        """Composition: apply self first, then other."""
        if other.degree != self.degree:
            raise ShuffleLabError("degree mismatch in composition")
        return _unchecked(Permutation, _compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return _unchecked(Permutation, _inverse(self.images))

    def is_identity(self) -> bool:
        return all(p == x for p, x in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, fixed points included as 1-cycles."""
        return _cycles(self.images)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.degree else 1


class OrientedPermutation(_Record):
    """A permutation of positions plus per-position turn-over flags.

    ``flips[p]`` says whether the card leaving position p is turned
    over.  Flags compose by exclusive-or along trajectories.
    """

    __slots__ = ("perm", "flips")
    perm: Permutation
    flips: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.perm, Permutation):
            raise ShuffleLabError("perm must be a Permutation")
        flips = tuple(self.flips) if isinstance(self.flips, Iterable) else None
        object.__setattr__(self, "flips", flips)
        if flips is None or not _is_flags(flips):
            raise ShuffleLabError("flips must be bools")
        if len(flips) != self.perm.degree:
            raise ShuffleLabError("flips length must match permutation degree")

    @classmethod
    def identity(cls, m: int) -> "OrientedPermutation":
        return _unchecked(cls, Permutation.identity(m), (False,) * m)

    @property
    def degree(self) -> int:
        return self.perm.degree

    def then(self, other: "OrientedPermutation") -> "OrientedPermutation":
        """Composition: apply self first, then other."""
        if other.degree != self.degree:
            raise ShuffleLabError("degree mismatch in composition")
        perm = _unchecked(Permutation, _compose(self.perm.images, other.perm.images))
        flips = tuple(map(xor, self.flips, _compose(self.perm.images, other.flips)))
        return _unchecked(OrientedPermutation, perm, flips)

    def inverse(self) -> "OrientedPermutation":
        inv = self.perm.inverse()
        return _unchecked(OrientedPermutation, inv, _compose(inv.images, self.flips))

    def is_identity(self) -> bool:
        return self.perm.is_identity() and not any(self.flips)

    def order(self) -> int:
        """Least m >= 1 whose m-fold composition restores order and faces.

        A cycle whose flip flags xor to true needs two full turns, so it
        contributes twice its length.
        """
        lengths = []
        for cycle in self.perm.cycles():
            turned = False
            for p in cycle:
                turned ^= self.flips[p]
            lengths.append(2 * len(cycle) if turned else len(cycle))
        return math.lcm(*lengths)

    def to_point_permutation(self) -> Permutation:
        """Embed into a plain permutation on 2m points.

        Point p + m*face tracks the card at position p shown with the
        given face; the embedding is an injective homomorphism.
        """
        m = self.degree
        low = tuple(dest + m * flip for dest, flip in zip(self.perm.images, self.flips))
        high = tuple((x + m) % (2 * m) for x in low)  # the other face
        return _unchecked(Permutation, low + high)


def apply_oriented(op: OrientedPermutation, deck: Deck) -> Deck:
    """Move every card to its image position, turning the flagged ones."""
    if op.degree != deck.size:
        raise ShuffleLabError(
            f"size mismatch: permutation on {op.degree}, deck of {deck.size}"
        )
    cards = deck.cards
    if True in op.flips:
        cards = tuple(c.turned() if f else c for c, f in zip(cards, op.flips))
    return _unchecked(Deck, _compose(_inverse(op.perm.images), cards))


def expand_staystack(deck: Deck) -> Deck:
    """Encode an oriented 2n-deck as a face-down 4n-deck in stay stack.

    The first 2n positions carry the points label + 2n*face; positions j
    and 4n-1-j hold complementary points (same card, opposite face).
    """
    half = deck.size
    full = 2 * half
    check_deck_size(full)
    labels = [0] * full
    for j, card in enumerate(deck.cards):
        point = card.label + half * card.face_up
        labels[j] = point
        labels[full - 1 - j] = (point + half) % full
    return _unchecked(Deck, tuple(map(Card, labels)))


def is_staystack(deck: Deck) -> bool:
    """Whether mirrored positions hold complementary cards.

    Cards are read as points modulo the pairing: a face-up card stands
    for the complement of its label.  Positions j and size-1-j must then
    hold points that differ by half the size.
    """
    size = deck.size
    half = size // 2
    points = [(c.label + half * c.face_up) % size for c in deck.cards]
    return all(
        points[size - 1 - j] == (points[j] + half) % size for j in range(half)
    )


def contract_staystack(deck: Deck) -> Deck:
    """Recover the oriented 2n-deck whose expansion is the given 4n-deck."""
    if deck.size % 4:
        raise NotStayStackError(f"deck size {deck.size} is not a multiple of 4")
    if any(c.face_up for c in deck.cards) or not is_staystack(deck):
        raise NotStayStackError("deck is not a stay-stack expansion")
    half = deck.size // 2
    # mirrored positions hold each pair {x, x + half} once: the half is a deck
    cards = tuple(Card(c.label % half, c.label >= half) for c in deck.cards[:half])
    return _unchecked(Deck, cards)
