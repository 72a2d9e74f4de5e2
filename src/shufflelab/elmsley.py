"""Shortest in/out shuffle sequences between deck positions.

A single card's trajectory under in and out shuffles only depends on
its position, so each family induces a little directed graph on the
positions with out-degree two.  One breadth-first search backwards
from the target, along the inverse shuffles, gives each position's
distance to it, up to the source's; that answers the classic question
of moving the card at position i to the top (or anywhere else) in as
few shuffles as possible, and extending words ring by ring down those
distances enumerates *all* minimal words, not just one.
"""

from __future__ import annotations

from itertools import islice, repeat

from .deck import ShuffleLabError, _cycles, _inverse, _Record
from .shuffles import (
    POSITION_FAMILIES,
    Family,
    Shuffle,
    Word,
    as_step,
    element,
    family_in_out,
    inout_text,
    inout_tokens,
)

#: Safety cap on enumerated minimal words per query.
MAX_WORDS = 10_000


class UnreachableError(ShuffleLabError):
    """No word of shuffles connects the two positions (defensive)."""


class PositionGraph(_Record):
    """Where each position goes under one in or one out shuffle."""

    __slots__ = ("size", "family", "in_images", "out_images")
    size: int
    family: Family
    in_images: tuple[int, ...]
    out_images: tuple[int, ...]

    @classmethod
    def build(cls, size: int, family: Family) -> "PositionGraph":
        in_kind, out_kind = family_in_out(family)
        if family not in POSITION_FAMILIES:
            raise ShuffleLabError(
                f"position graphs are defined for faro/horseshoe, not {family}"
            )
        return cls(
            size,
            family,
            element(in_kind, size).perm.images,
            element(out_kind, size).perm.images,
        )


class SolutionSet(_Record):
    """All minimal in/out words from source to target, sorted in < out."""

    __slots__ = ("size", "family", "source", "target", "length", "words")
    size: int
    family: Family
    source: int
    target: int
    length: int
    words: tuple[Word, ...]

    def render(self) -> str:
        return "\n".join(inout_text(w) for w in self.words)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "family": self.family.value,
            "from": self.source,
            "to": self.target,
            "length": self.length,
            "words": [inout_tokens(word) for word in self.words],
        }


def shortest_words(size: int, family: Family, source: int, target: int) -> SolutionSet:
    """Every minimal in/out word moving ``source`` to ``target``.

    One breadth-first search from the target along the inverse in and
    out shuffles finds the rings of positions at distance 0, 1, ... from
    the target, and stops at the source's ring, whose distance is the
    minimal length.  It runs one ring per step in C: each inverse
    shuffle's images of the ring go into a dict with one ``update``, and
    since an update of a present key does not move it, the next ring is
    the keys the step appended, read from the dict's end.  A step lies
    on a minimal word exactly when it lowers the distance by one, so
    extending every prefix by in, then out, into the next ring from the
    source's keeps the words in lexicographic order.  Each prefix ends
    in a minimal word, so more than ``MAX_WORDS`` in a ring raise.
    """
    graph = PositionGraph.build(size, family)
    if not all(type(p) is int and 0 <= p < size for p in (source, target)):
        raise ShuffleLabError(
            f"positions must lie in 0..{size - 1}, got {source!r}, {target!r}"
        )
    in_step, out_step = map(as_step, family_in_out(family))
    in_back = _inverse(graph.in_images).__getitem__
    out_back = _inverse(graph.out_images).__getitem__
    seen = {target: None}
    rings = [{target}]
    while source not in seen:
        before = len(seen)
        for back in (in_back, out_back):
            seen.update(zip(map(back, rings[-1]), repeat(None)))
        if len(seen) == before:
            raise UnreachableError(
                f"position {target} unreachable from {source} at size {size}"
            )
        rings.append(set(islice(reversed(seen), len(seen) - before)))
    moves = ((in_step, graph.in_images), (out_step, graph.out_images))
    prefixes: list[tuple[Word, int]] = [((), source)]
    for ring in reversed(rings[:-1]):
        prefixes = [
            (word + (step,), images[p])
            for word, p in prefixes
            for step, images in moves
            if images[p] in ring
        ]
        if len(prefixes) > MAX_WORDS:
            raise ShuffleLabError(
                f"more than {MAX_WORDS} minimal words (cap elmsley.MAX_WORDS)"
            )
    words = tuple(word for word, _ in prefixes)
    return SolutionSet(size, family, source, target, len(rings) - 1, words)


def second_position_cycle(size: int) -> tuple[int, ...]:
    """Trajectory of position 1 under repeated out horseshoe shuffles.

    For a 2^k deck this visits 1, 2, 4, ..., 2^(k-1), 2^k - 1 and then
    returns to 1, so exactly k+1 cards ever pass through position 1
    while the top card is parked by out shuffles.
    """
    if type(size) is not int or size < 4 or size & (size - 1):
        raise ShuffleLabError(f"size must be a power of two >= 4, got {size!r}")
    return _cycles(element(Shuffle.HORSE_OUT, size).perm.images)[1]
