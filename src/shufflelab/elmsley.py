"""Shortest in/out shuffle sequences between deck positions.

A single card's trajectory under in and out shuffles only depends on
its position, so each family induces a little directed graph on the
positions with out-degree two.  One breadth-first search backwards
from the target, along the inverse shuffles, gives every position's
distance to it; that answers the classic question of moving the card
at position i to the top (or anywhere else) in as few shuffles as
possible, and a depth-first walk down those distances enumerates *all*
minimal words, not just one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .deck import ShuffleLabError, _inverse
from .shuffles import (
    POSITION_FAMILIES,
    Family,
    Shuffle,
    Step,
    Word,
    element,
    family_in_out,
    inout_text,
    inout_tokens,
)

#: Safety cap on enumerated minimal words per query.
MAX_WORDS = 10_000


class UnreachableError(ShuffleLabError):
    """No word of shuffles connects the two positions (defensive)."""


@dataclass(frozen=True)
class PositionGraph:
    """Where each position goes under one in or one out shuffle."""

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


@dataclass(frozen=True)
class SolutionSet:
    """All minimal in/out words from source to target, sorted in < out."""

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
    out shuffles gives each position's distance to the target, the
    source's being the minimal length.  A step lies on a minimal word
    exactly when it lowers that distance by one, so a depth-first walk
    from the source along such steps (in before out) lists the words
    in lexicographic order.  More than ``MAX_WORDS`` words raise instead.
    """
    graph = PositionGraph.build(size, family)
    if not (0 <= source < size and 0 <= target < size):
        raise ShuffleLabError(
            f"positions must lie in 0..{size - 1}, got {source}, {target}"
        )
    in_kind, out_kind = family_in_out(family)
    in_back, out_back = _inverse(graph.in_images), _inverse(graph.out_images)
    backward = [-1] * size
    backward[target] = 0
    queue = deque([target])
    while queue:
        q = queue.popleft()
        for p in (in_back[q], out_back[q]):
            if backward[p] < 0:
                backward[p] = backward[q] + 1
                queue.append(p)
    total = backward[source]
    if total < 0:
        raise UnreachableError(
            f"position {target} unreachable from {source} at size {size}"
        )

    words: list[Word] = []
    stack: list[Step] = []

    def walk(p: int, depth: int) -> None:
        if depth == total:
            if p == target:
                words.append(tuple(stack))
                if len(words) > MAX_WORDS:
                    raise ShuffleLabError(
                        f"more than {MAX_WORDS} minimal words (cap elmsley.MAX_WORDS)"
                    )
            return
        for kind, q in (
            (in_kind, graph.in_images[p]),
            (out_kind, graph.out_images[p]),
        ):
            if backward[q] == total - depth - 1:
                stack.append(Step(kind))
                walk(q, depth + 1)
                stack.pop()

    walk(source, 0)
    return SolutionSet(size, family, source, target, total, tuple(words))


def second_position_cycle(size: int) -> tuple[int, ...]:
    """Trajectory of position 1 under repeated out horseshoe shuffles.

    For a 2^k deck this visits 1, 2, 4, ..., 2^(k-1), 2^k - 1 and then
    returns to 1, so exactly k+1 cards ever pass through position 1
    while the top card is parked by out shuffles.
    """
    if size < 4 or size & (size - 1):
        raise ShuffleLabError(f"size must be a power of two >= 4, got {size}")
    images = element(Shuffle.HORSE_OUT, size).perm.images
    positions = [1]
    p = images[1]
    while p != 1:
        positions.append(p)
        p = images[p]
    return tuple(positions)
