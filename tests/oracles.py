"""Independent physical simulations used as test oracles.

Everything here works on plain (label, face_up) tuples and mimics the
table procedures move by move, with no reference to the library's
permutation machinery.  ``orbit`` is a plain set-based breadth-first
search for the group oracles, and ``minimal_words`` a plain queue-based
one for the shortest-word search.
"""

from collections import deque


def cut_interlace(cards, mode):
    """Cut in half, transform the bottom half, and perfectly interlace.

    mode is one of faro-out/faro-in/flip-out/flip-in/horse-out/horse-in.
    """
    n = len(cards) // 2
    top = list(cards[:n])
    bottom = list(cards[n:])
    if mode.startswith("flip"):
        bottom = [(label, not face) for (label, face) in reversed(bottom)]
    elif mode.startswith("horse"):
        bottom = list(reversed(bottom))
    out = mode.endswith("out")
    result = []
    for t, b in zip(top, bottom):
        result.extend((t, b) if out else (b, t))
    return result


def milk_deal(cards, former_top_first):
    """Slide top+bottom pairs onto a pile; flag picks the order in a pair."""
    rest = list(cards)
    bottom_up = []
    while rest:
        top = rest.pop(0)
        bottom = rest.pop()
        # whichever card is placed first ends up lower in the pile
        bottom_up.extend((top, bottom) if former_top_first else (bottom, top))
    return list(reversed(bottom_up))


def monge_deal(cards, second_under):
    """Feed cards alternately under/over a pile started with the top card."""
    rest = list(cards)
    pile = [rest.pop(0)]
    under = second_under
    while rest:
        card = rest.pop(0)
        if under:
            pile.append(card)
        else:
            pile.insert(0, card)
        under = not under
    return pile


def _turned(pile):
    return [(label, not face) for (label, face) in reversed(pile)]


def deal_inverse_flip_out(cards):
    """Two piles, every card turned as dealt; pile one turned onto pile two."""
    piles = ([], [])
    for i, (label, face) in enumerate(cards):
        piles[i % 2].insert(0, (label, not face))
    return _turned(piles[0]) + piles[1]


def deal_inverse_flip_in(cards):
    """Same dealing, but pile two is turned onto pile one."""
    piles = ([], [])
    for i, (label, face) in enumerate(cards):
        piles[i % 2].insert(0, (label, not face))
    return _turned(piles[1]) + piles[0]


def deal_inverse_horse_out(cards):
    """Deal over/down into two piles; pile one turned onto pile two."""
    piles = ([], [])
    for i, (label, face) in enumerate(cards):
        if i % 2 == 0:
            piles[0].insert(0, (label, not face))
        else:
            piles[1].insert(0, (label, face))
    return _turned(piles[0]) + piles[1]


def deal_inverse_horse_in(cards):
    """Deal down/over into two piles; pile two turned onto pile one."""
    piles = ([], [])
    for i, (label, face) in enumerate(cards):
        if i % 2 == 0:
            piles[0].insert(0, (label, face))
        else:
            piles[1].insert(0, (label, not face))
    return _turned(piles[1]) + piles[0]


def face_down_range(size):
    return [(i, False) for i in range(size)]


def card_position(size, mode, start):
    """Index where one shuffle of the sorted deck sends position ``start``."""
    shuffled = cut_interlace(face_down_range(size), mode)
    return [label for (label, _) in shuffled].index(start)


def position_table(size, mode):
    """Where one shuffle of the sorted deck sends each position."""
    table = [0] * size
    for index, (label, _) in enumerate(cut_interlace(face_down_range(size), mode)):
        table[label] = index
    return table


def minimal_words(tables, source, target):
    """(length, words) of every shortest word moving ``source`` to ``target``.

    ``tables[letter][p]`` is where that letter sends position p.  A queue
    search back from the target, one position at a time, gives each
    position's distance to it; a depth-first walk from the source along
    letters that lower the distance by one lists the words, as tuples of
    letters, in lexicographic order.
    """
    backward = [[0] * len(table) for table in tables]
    for table, back in zip(tables, backward):
        for p, q in enumerate(table):
            back[q] = p
    distance = {target: 0}
    queue = deque([target])
    while queue:
        q = queue.popleft()
        for back in backward:
            if back[q] not in distance:
                distance[back[q]] = distance[q] + 1
                queue.append(back[q])
    words = []

    def walk(p, word):
        if p == target:
            words.append(word)
        for letter, table in enumerate(tables):
            if distance[table[p]] == distance[p] - 1:
                walk(table[p], word + (letter,))

    walk(source, ())
    return distance[source], words


def repetition_order(step, start):
    """How many applications of ``step`` return ``start`` to itself."""
    state = step(start)
    count = 1
    while state != start:
        state = step(state)
        count += 1
    return count


def orbit(generators, points):
    """Every state reachable from the tuple ``points``, one state at a time.

    A generator, a sequence of images, sends a state s to (g[s[0]],
    g[s[1]], ...).
    """
    start = tuple(points)
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for g in generators:
            nxt = tuple(map(g.__getitem__, state))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen
