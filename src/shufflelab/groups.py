"""Exact orders of shuffle groups, with closed forms and oracles.

The shuffle group of a family is the permutation group generated by its
in and out shuffles: faro and horseshoe act on the 2n deck positions,
flip acts on 4n points through the oriented embedding so that the
face-up bookkeeping stays inside the permutation.

Orders come from a certified Las Vegas Schreier-Sims stabilizer chain,
and each order is proven once.  A certified chain's orbit-size product,
a lower bound, meets an upper bound from invariants the generators
preserve (``_invariant_bounds``), which proves it.  The first bound is
the order of the centralizer of a fixed-point-free involution c, or of
S_m, divided by the signs the group keeps.  Once the random phase
stalls, a group that commutes with c is also held to its pair-quotient
bound: it acts on the n pairs {x, c(x)} as a quotient Q, which the
brute-force count enumerates, and the kernel of that action swaps the
two points of some pairs, so the order is at most |Q| 2^n, or |Q|
2^(n-1) when the kernel is even (Diaconis, Graham & Kantor, "The
mathematics of perfect shuffles", 1983).  Where no bound meets the
order, the classical Schreier-Sims scan completes the chain; the seed
pass, which sifts the first level's Schreier generators, has already
proven that level, so the scan proves the levels below it.
``group_order`` checks a scanned order within ``BRUTE_FORCE_LIMIT``
against a brute-force count, ``brute_force_order``: the orbits of points
0 and 1 times the stabilizer of both, enumerated coset by coset without
chain code.  The test suite checks both kinds against that count, and
against an enumeration of the whole group, over every family at every
even size up to 40 and the powers of two within the chain budget,
``MAX_CHAIN_POINTS``.  All arithmetic is exact Python integers; the
orders here overflow 64 bits already at twenty cards.  The closed forms
of the order theorems are tabulated for verification runs.

The engine has one element format, the 256-byte ``bytes.translate``
table of ``_padded``, which the chain budget of 256 points allows.  For
the bytes p of an element's images and a table q, ``p.translate(q)`` is
p, then q.  A chain makes its generators' tables once (``_tables``) for
the seed pass, the bounds and the random phase, and every pass over the
chain, the completion scan included, strips one element at a time
(``_strip``); both oracles multiply many tables per ``map`` call.  Each
level keeps its orbit as bytes and a 256-byte membership mask, so two
``translate`` calls tell whether a new generator adds orbit points.
Only the queries, ``sift`` and ``in``, still multiply image tuples, with
``deck._compose``; they move to tables once the benchmark stops reading
a faster query as more memory (ROADMAP item 1).
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import islice, repeat
from operator import itemgetter
from typing import (
    Iterable,
    Iterator,
    Literal,
    NamedTuple,
    Optional,
    Sequence,
)

from .deck import (
    Permutation,
    ShuffleLabError,
    _compose,
    _cycles,
    _Record,
    _unchecked,
    check_deck_size,
)
from .shuffles import Family, check_family, element, family_in_out

#: Point budget of every stabilizer chain and both oracles: generators on
#: more points are refused before any product or state.  Faro and horseshoe
#: act on one point per card and reach 256 cards; flip acts on two and
#: reaches 128.
MAX_CHAIN_POINTS = 256
#: Order budget of both oracles' default limits, and the largest scanned-chain
#: order that ``group_order`` counts by brute force.  The limit bounds the
#: order: ``brute_force_order`` holds at most limit // |orbit| stabilizer
#: states, and ``tuple_transitivity_order`` at most limit + 1 tuples.
BRUTE_FORCE_LIMIT = 10**6


class CapExceededError(ShuffleLabError):
    """A size or node cap refused the computation."""


class NoClosedFormError(ShuffleLabError):
    """No closed-form case of the order theorems covers this size."""


def family_generators(family: Family, size: int) -> list[Permutation]:
    """The generator pair of a family at the given deck size.

    Faro and horseshoe generators act on the deck positions; flip
    generators are the oriented elements embedded on twice as many
    points.
    """
    in_kind, out_kind = family_in_out(family)
    if family is Family.FLIP:
        return [
            element(in_kind, size).to_point_permutation(),
            element(out_kind, size).to_point_permutation(),
        ]
    return [element(in_kind, size).perm, element(out_kind, size).perm]


def _check_int(value: object, name: str) -> None:
    """Refuse a value whose type is not ``int``, a bool included."""
    if type(value) is not int:
        raise ShuffleLabError(f"{name} must be an int, got {value!r}")


def _common_degree(
    generators: Iterable[Permutation], degree: Optional[int] = None
) -> tuple[list[Permutation], int]:
    """The generators as a list, and ``degree``, else the first one's degree.

    Generators that are no iterable or not all ``Permutation``s, and a
    degree that is no int (a bool included) or is negative are refused;
    a degree above ``MAX_CHAIN_POINTS`` is refused with
    ``CapExceededError``.  Every generator must act on the degree.
    """
    if not isinstance(generators, Iterable):
        text = f"generators must be an iterable of Permutations, got {generators!r}"
        raise ShuffleLabError(text)
    gens = list(generators)
    for g in gens:
        if not isinstance(g, Permutation):
            raise ShuffleLabError(f"generators must be Permutations, got {g!r}")
    if degree is None:
        degree = gens[0].degree if gens else 0
    elif type(degree) is not int or degree < 0:
        raise ShuffleLabError(f"degree must be an int >= 0, got {degree!r}")
    if any(g.degree != degree for g in gens):
        raise ShuffleLabError("generators must act on the same points")
    if degree > MAX_CHAIN_POINTS:
        raise CapExceededError(
            f"group on {degree} points exceeds the chain budget"
            f" of {MAX_CHAIN_POINTS} points"
        )
    return gens, degree


#: The identity on every byte value, the padding of every translate table.
_IDENTITY_TABLE = bytes(range(256))


def _padded(images: Sequence[int]) -> bytes:
    """The permutation as a 256-byte translate table, the identity above its degree."""
    return bytes(images) + _IDENTITY_TABLE[len(images) :]


def _tables(generators: Sequence[Permutation]) -> list[bytes]:
    """The generators as 256-byte ``bytes.translate`` tables."""
    return [_padded(g.images) for g in generators]


def _walk(transversal: dict[int, bytes], tables: Sequence[bytes]) -> dict[int, bytes]:
    """Extend the transversal to the orbit of its points, and return it.

    It maps each point b to u_b, the bytes of an element that sends the
    start point to b, so ``{s: bytes(range(m))}`` walks the orbit of s.
    A table h that reaches a new point b from a gives u_b =
    ``u_a.translate(h)``, u_a then h; new points come last, as found.
    """
    queue = list(transversal)
    for a in queue:
        for h in tables:
            b = h[a]
            if b not in transversal:
                transversal[b] = transversal[a].translate(h)
                queue.append(b)
    return transversal


# -- stabilizer chain ---------------------------------------------------------

#: Seed of the random phase's private generator, so that every build of one
#: generating set gives the same base and strong generators.
_RANDOM_SEED = 1
#: Product-replacement steps taken before the first random element is used.
_WARMUP_STEPS = 40
#: Consecutive random elements that sift to the identity before the random
#: phase gives up and the deterministic scan takes over.  An incomplete
#: chain sifts only part of the group to the identity, so a run this long
#: suggests that the bound exceeds the order; a wrong guess costs only time,
#: as the scan completes any chain.
_IDLE_SIFTS = 30
#: Most Schreier generators the completion scan holds at once: it reads each
#: level's in windows of this many, drops each window's repeats and strips the
#: rest one at a time.
_SCAN_BATCH = 1024


def _is_odd(images: Sequence[int]) -> bool:
    """Whether the permutation with these images is odd: m minus its cycle count."""
    return (len(images) - len(_cycles(images))) % 2 == 1


def _spread(tables: Sequence[bytes], c: list[int], start: Sequence[int]) -> bool:
    """Extend the partial map c (-1 where unset) by c(h(x)) = h(c(x)).

    Every edge from a point where c is set is checked; False on a clash.
    """
    stack = list(start)
    while stack:
        x = stack.pop()
        for h in tables:
            a, b = h[x], h[c[x]]
            if c[a] < 0:
                c[a] = b
                stack.append(a)
            elif c[a] != b:
                return False
    return True


def _block_involution(tables: Sequence[bytes], degree: int) -> Optional[list[int]]:
    """A fixed-point-free involution commuting with every table, or None.

    For the smallest point z where c is unset, c is fixed by an unset
    c(z) = y on the orbit of z and, as c(y) = z, on the orbit of y, so
    each y is spread along those orbits until an edge clashes.  Then c
    is an involution there, and moves every point, as it moves z.  The
    first y that spreads is kept, and the search goes on at the next
    unset point; None if a point has no such y.  Orbits pair only where
    their actions are isomorphic, so the first y is as good as any.

    A candidate y in the orbit of z is reached from z by some group
    element u_y, and then c(y) = u_y(c(z)) = u_y(y) must be z, whichever
    u_y is taken.  The walk of z's orbit (``_walk``) gives one u_y for
    every such y, at one product per orbit point, and the candidates
    that fail this are skipped without a spread, which would clash.
    """
    c = [-1] * degree
    for z in range(degree):
        if c[z] >= 0:
            continue
        transversal = _walk({z: bytes(range(degree))}, tables)
        for y in range(z + 1, degree):
            if c[y] >= 0 or (y in transversal and transversal[y][y] != z):
                continue
            trial = c.copy()
            trial[z], trial[y] = y, z
            if _spread(tables, trial, (z, y)):
                c = trial
                break
        else:
            return None
    return c


class _PairQuotient(NamedTuple):
    """A group's action on the n pairs {x, c(x)} of a centralizing involution c.

    ``blocks`` are the generators' images on the pairs, as translate
    tables (``_padded``); they generate the quotient Q, the group's image
    in S_n.  The kernel of the action swaps the two points of some pairs,
    so it lies in F_2^n, and ``kernel`` bounds its order: 2^n, or 2^(n-1)
    when a sign character that involves the point sign is trivial on
    every generator.  The block sign is trivial on the kernel, so its
    elements are then even: they swap an even number of pairs.
    """

    n: int
    blocks: list[bytes]
    kernel: int


def _invariant_bounds(
    tables: Sequence[bytes], degree: int
) -> tuple[int, Optional[_PairQuotient]]:
    """An upper bound on the order of the group the tables generate, and
    the group's pair quotient where a centralizing involution exists.

    If a fixed-point-free involution c commutes with every generator,
    the group lies in its centralizer, S_2 wr S_n on n = degree/2 blocks
    {x, c(x)}, of order 2^n n!.  For n >= 2 that group has two
    independent signs, on points and on blocks; the group lies in the
    kernel of each of the four characters they generate that is trivial
    on every generator, so the bound is divided by their number.  The
    generators' images on the blocks, which the block sign reads, are
    kept as the quotient's generators (``_PairQuotient``).  Otherwise the
    bound is degree!, halved when every generator is even.
    """
    c = _block_involution(tables, degree)
    if c is None:
        bound = math.factorial(degree)
        if degree >= 2 and not any(_is_odd(h[:degree]) for h in tables):
            bound //= 2
        return bound, None
    n = degree // 2
    bound = 2**n * math.factorial(n)
    if n < 2:
        return bound, None
    reps = [x for x in range(degree) if x < c[x]]
    block_of = [0] * degree
    for k, x in enumerate(reps):
        block_of[x] = block_of[c[x]] = k
    blocks = [_padded([block_of[h[x]] for x in reps]) for h in tables]
    signs = [(_is_odd(h[:degree]), _is_odd(b[:n])) for h, b in zip(tables, blocks)]
    # whether each of the characters 1, point sign, block sign and their
    # product that is trivial on every generator involves the point sign:
    # (a, b) picks the signs multiplied together
    trivial = [
        a
        for a in (False, True)
        for b in (False, True)
        if all((a and p) == (b and q) for p, q in signs)
    ]
    return bound // len(trivial), _PairQuotient(n, blocks, 2 ** (n - any(trivial)))


def _quotient_bound(quotient: _PairQuotient, order: int) -> Optional[int]:
    """|Q| times the kernel factor, an upper bound on the group order, or None.

    |Q| is the brute-force oracle's count on the n pairs, which runs no
    chain code.  The bound can meet ``order``, a lower bound on the
    group order, only if the kernel factor divides it and |Q| <= order //
    kernel, so None comes at once where it does not divide, and where
    the count passes that limit or ``BRUTE_FORCE_LIMIT``.
    """
    if order % quotient.kernel:
        return None
    limit = min(order // quotient.kernel, BRUTE_FORCE_LIMIT)
    try:
        size = _orbit_stabilizer_count(quotient.blocks, quotient.n, limit)
    except CapExceededError:
        return None
    return size * quotient.kernel


def _index_pairs(rng: random.Random, n: int) -> Iterator[tuple[int, int]]:
    """Pairs of distinct indices below n, without end.

    Each index is drawn by the ``getrandbits`` rejection loop that
    ``randrange`` runs, so a pair is the draws of ``rng.randrange(n)`` and
    ``rng.randrange(n - 1)``, the second moved to n - 1 where it repeats
    the first: for n <= 21 that is ``rng.sample(range(n), 2)``.
    """
    getrandbits = rng.getrandbits
    bits, bits_below = n.bit_length(), (n - 1).bit_length()
    while True:
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        j = getrandbits(bits_below)
        while j >= n - 1:
            j = getrandbits(bits_below)
        yield i, (n - 1 if j == i else j)


def _random_elements(
    tables: Sequence[bytes], degree: int, rng: random.Random
) -> Iterator[bytes]:
    """Random group elements by product replacement with an accumulator.

    A list of at least ten elements starts as copies of the generators'
    translate tables; each step replaces a random one, s_i, by s_i s_j
    for another random one, and multiplies the accumulator by the result
    (Celler et al., 1995).  In a finite group s_j^-1 is a power of s_j,
    so the list always generates the group.  Each product is one
    ``bytes.translate`` call; the accumulator, and each element yielded,
    is the bytes of its ``degree`` images.
    """
    slots = [tables[i % len(tables)] for i in range(max(10, 2 * len(tables)))]
    x = slots[0][:degree]
    for step, (i, j) in enumerate(_index_pairs(rng, len(slots))):
        slots[i] = slots[i].translate(slots[j])
        x = x.translate(slots[i])
        if step >= _WARMUP_STEPS:
            yield x


class _Level:
    """One level of a stabilizer chain: its base point, generators and orbit.

    The orbit is kept three ways: ``coset`` maps each orbit point b to
    u_b^-1, where the coset representative u_b sends beta to b;
    ``points`` holds the same points as bytes, in the order ``coset``
    has them; and ``inside`` is a 256-byte table that is 1 at each orbit
    point and 0 elsewhere.  Generators, their inverses and the u_b^-1
    are translate tables (``_padded``).
    """

    __slots__ = ("beta", "gens", "inv_gens", "coset", "points", "inside")

    def __init__(self, beta: int):
        self.beta = beta
        self.gens: list[bytes] = []
        self.inv_gens: list[bytes] = []
        self.coset = {beta: _IDENTITY_TABLE}
        self.points = bytearray((beta,))
        self.inside = bytearray(256)
        self.inside[beta] = 1

    def attach(self, g: bytes, g_inv: bytes) -> None:
        """Add g to the generators and close the orbit under them.

        The old orbit is closed under the old generators, so only g is
        applied to the old points, and every generator to the new ones.
        Two translate calls read which old points g sends out of the
        orbit, so a g that adds no point costs no lookup.  A generator h
        that reaches b from a gives u_b^-1 = h^-1 u_a^-1.
        """
        self.gens.append(g)
        self.inv_gens.append(g_inv)
        landed = self.points.translate(g).translate(self.inside)
        k = landed.find(0)
        if k < 0:
            return
        coset, points, inside = self.coset, self.points, self.inside
        queue = deque()
        while k >= 0:
            a = points[k]
            b = g[a]
            coset[b] = g_inv.translate(coset[a])
            points.append(b)
            inside[b] = 1
            queue.append(b)
            k = landed.find(0, k + 1)
        while queue:
            a = queue.popleft()
            for h, h_inv in zip(self.gens, self.inv_gens):
                b = h[a]
                if not inside[b]:
                    coset[b] = h_inv.translate(coset[a])
                    points.append(b)
                    inside[b] = 1
                    queue.append(b)


def _distinct(window: Iterable[bytes], identity: bytes) -> list[bytes]:
    """The elements without the identity and without repeats, first copies in order.

    A repeat strips as its first copy does, and the identity strips
    through, so neither can change the first residue of the seed pass or
    of a scan window.
    """
    kept = dict.fromkeys(window)
    kept.pop(identity, None)
    return list(kept)


def _schreier_generators(
    coset: dict[int, bytes], gens: Sequence[bytes], degree: int
) -> Iterator[bytes]:
    """u_a h u_{h(a)}^-1 for each orbit point a, then each generator h.

    ``coset`` maps each orbit point b to u_b^-1, and ``gens`` holds the
    generators, all as translate tables.  Each result is the bytes of its
    ``degree`` images, so a product with it walks ``degree`` bytes, not
    256.  u_a is read off the ``bytes.maketrans`` table of u_a^-1, and
    one point's Schreier generators, over all of ``gens``, are three
    ``map`` calls.
    """
    for a, u_a_inv in coset.items():
        u_a = bytes.maketrans(u_a_inv, _IDENTITY_TABLE)[:degree]
        targets = map(coset.__getitem__, map(itemgetter(a), gens))
        yield from map(bytes.translate, map(u_a.translate, gens), targets)


class StabilizerChain:
    """Base, coset representatives, and strong generators of a permutation group.

    Built as a certified Las Vegas chain (Seress, *Permutation Group
    Algorithms*, 2003, sec. 4.3).  The sifted generators seed the chain,
    with the Schreier generators of its first level, each distinct one
    sifted once; then random group elements, from a privately seeded
    generator so that every build repeats, are sifted and each residue
    is registered.  The orbit sizes' product is a lower bound on the
    group order, as each level's orbit lies in an orbit of the
    stabilizer of the earlier base points.  ``_invariant_bounds`` gives
    an upper bound from invariants the generators are checked to
    preserve.  When the two meet, the order is proven and the chain
    complete; the random phase stops there.  If the bound is never met
    (it can exceed the order), the random phase stops after
    ``_IDLE_SIFTS`` consecutive identity sifts.  Then, for a group that
    commutes with a fixed-point-free involution, the pair-quotient bound
    (``_quotient_bound``) is counted, and where it meets the order it
    proves it.  Otherwise the classical Schreier-Sims scan completes the
    chain (Holt, Eick & O'Brien, *Handbook of CGT*, 2005, ch. 4), so the
    order is exact either way.  ``certified`` tells which path closed the
    chain.  The seed pass and the random phase sift bytes through the
    stored tables, one ``bytes.translate`` per level.

    The scan sifts the Schreier generators of each level, deepest level
    first, through the levels below it.  The first residue, in the order
    of points and then generators, is registered at the level where it
    stopped, and the scan resumes there: the levels below that one did
    not change, and each is complete for the group its own generators
    generate.  The chain is complete when the scan passes its top level:
    level 1 of a constructed chain, whose level 0 the seed pass has
    proven (Schreier's lemma; Seress 2003, sec. 4.1-4.2), and level 0 of
    a bare chain, whose generators were registered without the seed
    pass.  ``verify`` runs the same scan and raises on any residue: for a
    constructed chain it rechecks levels 1 and below.  The scan reads
    the levels' translate tables as they are stored, with nothing
    converted, and strips with ``_strip``, as the seed pass and the random
    phase do; the residue, the bytes of its images, is registered as it
    is.  It holds at most ``_SCAN_BATCH`` Schreier generators: it reads a
    level's in windows of that many, drops the identity and the repeats
    of each window (``_distinct``), which cannot change the first
    residue, and strips the rest one at a time.

    Base points are the smallest point each new level's generator
    moves.  A generator introduced at level j fixes the first j base
    points, so it also takes part in the orbits of every level above it;
    orbits grow monotonically and coset representatives are never
    relabeled.  Each level keeps its generators, their inverses and only
    the inverse representatives, the factors that sifting strips, as
    translate tables (``_padded``), and its orbit as bytes with a
    membership mask (``_Level``).  Every registered generator joins
    level 0, so level 0's generator list is the strong generating set,
    in registration order.  The group order is the product of orbit
    sizes, and an element belongs to the group iff it sifts to the
    identity.

    Generators on more than ``MAX_CHAIN_POINTS`` points are refused with
    ``CapExceededError`` (by ``_common_degree``) before any product: the
    coset tables grow about as the cube of the degree.
    """

    def __init__(self, generators: Iterable[Permutation], degree: Optional[int] = None):
        gens, self.degree = _common_degree(generators, degree)
        self._identity = tuple(range(self.degree))
        self._identity_bytes = bytes(self._identity)
        self._levels: list[_Level] = []
        tables = _tables(gens)
        for table in tables:
            self._extend(table[: self.degree], 0)
        # Whether the seed pass ran, which proves level 0 (see ``_scan``).
        self._seeded = bool(self._levels)
        if self._seeded:
            # The seed's level-0 Schreier generators are short words in the
            # generators.  Registered before any random residue, they keep
            # the deeper coset representatives short words too, and a
            # product of a few generators then sifts through fewer levels
            # (3% fewer on the chain-sift benchmark's queries than with
            # random residues alone).  Only the points and generators the
            # seed left are used: both are taken before the first sift.
            level = self._levels[0]
            coset, seed = dict(level.coset), list(level.gens)
            schreier = _schreier_generators(coset, seed, self.degree)
            for s in _distinct(schreier, self._identity_bytes):
                self._extend(s, 1)
        bound, quotient = _invariant_bounds(tables, self.degree)
        # the pair quotient counts a group, so it is counted only where the
        # random phase stalls: its bound then proves the order it meets
        self._certified = self._random_phase(tables, bound) or (
            quotient is not None
            and _quotient_bound(quotient, self.order) == self.order
        )
        if not self._certified:
            self._scan(complete=True)

    # construction

    def _random_phase(self, tables: list[bytes], bound: int) -> bool:
        """Sift random elements until the order meets ``bound``: True if it did."""
        if self.order == bound:
            return True
        if not self._levels:
            return False
        idle = 0
        for x in _random_elements(tables, self.degree, random.Random(_RANDOM_SEED)):
            if not self._extend(x, 0):
                idle += 1
                if idle == _IDLE_SIFTS:
                    return False
                continue
            idle = 0
            if self.order == bound:
                return True

    def _extend(self, g: bytes, start: int) -> bool:
        """Sift the bytes g from level ``start``; register its residue: True if any."""
        residue, depth = self._strip(g, start, bytes.translate, self._identity_bytes)
        if residue is None:
            return False
        self._register(residue, depth)
        return True

    def _register(self, g: Sequence[int], j: int) -> None:
        """Introduce g, a tuple or bytes of images, at level j; attach it to 0..j."""
        if j == len(self._levels):
            beta = min(p for p in range(self.degree) if g[p] != p)
            self._levels.append(_Level(beta))
        g = _padded(g)
        g_inv = bytes.maketrans(g, _IDENTITY_TABLE)
        for i in range(j + 1):
            self._levels[i].attach(g, g_inv)

    def _scan(self, complete: bool) -> None:
        """Sift every Schreier generator, the deepest level first.

        At the first residue, register it and resume at its level if
        ``complete``, else raise.  After the seed pass the scan stops at
        level 1: the seed's level-0 generators generate the group, its
        level-0 orbit is the whole orbit of the first base point, and
        each of their Schreier generators sifts to the identity through
        levels 1 and below once the seed has registered its residue, as
        representatives are never relabelled.  By Schreier's lemma those
        levels then generate the stabilizer of the first base point, so
        no level-0 Schreier generator can leave a residue.
        """
        levels, identity = self._levels, self._identity_bytes
        last = 1 if self._seeded else 0
        i = len(levels) - 1
        while i >= last:
            level = levels[i]
            schreier = _schreier_generators(level.coset, level.gens, self.degree)
            # the scan stops at the first residue, before it is registered
            # and the level it reads changes
            found = None
            while found is None and (window := list(islice(schreier, _SCAN_BATCH))):
                for s in _distinct(window, identity):
                    residue, depth = self._strip(s, i + 1, bytes.translate, identity)
                    if residue is not None:
                        found = residue, depth
                        break
            if found is None:
                i -= 1
                continue
            if not complete:
                raise ShuffleLabError("stabilizer chain failed verification")
            self._register(*found)
            i = found[1]

    def _sift_tuple(
        self, g: tuple[int, ...], start: int
    ) -> tuple[Optional[tuple[int, ...]], int]:
        """Strip coset representatives; (None, -1) means membership."""
        return self._strip(g, start, _compose, self._identity)

    def _strip(
        self, g: Sequence[int], start: int, product, identity: Sequence[int]
    ) -> tuple[Optional[Sequence[int]], int]:
        """Strip coset representatives from level ``start`` with ``product``.

        The residue, and the level where it found no coset representative
        (the number of levels if it passed them all); (None, -1) if g
        strips to ``identity``.  Image tuples with ``deck._compose`` and
        bytes with ``bytes.translate`` both serve.
        """
        for idx in range(start, len(self._levels)):
            level = self._levels[idx]
            image = g[level.beta]
            if image == level.beta:
                continue  # the coset representative is the identity
            u_inv = level.coset.get(image)
            if u_inv is None:
                return g, idx
            g = product(g, u_inv)
        if g == identity:
            return None, -1
        return g, len(self._levels)

    # queries

    @property
    def certified(self) -> bool:
        """True if the order met an invariant bound, False if the chain was scanned.

        The bound is the order bound or, once the random phase stalled,
        the pair-quotient bound (``_quotient_bound``).
        """
        return self._certified

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.beta for level in self._levels)

    @property
    def order(self) -> int:
        return math.prod(len(level.coset) for level in self._levels)

    def orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(level.coset) for level in self._levels)

    def strong_generators(self) -> list[Permutation]:
        gens = self._levels[0].gens if self._levels else []
        return [_unchecked(Permutation, tuple(g[: self.degree])) for g in gens]

    def sift(self, p: Permutation) -> Permutation:
        """The residue after stripping coset representatives level by level."""
        if not isinstance(p, Permutation):
            raise ShuffleLabError(f"sift takes a Permutation, got {p!r}")
        if p.degree != self.degree:
            raise ShuffleLabError("degree mismatch")
        residue, _ = self._sift_tuple(p.images, 0)
        return _unchecked(Permutation, self._identity if residue is None else residue)

    def __contains__(self, p: Permutation) -> bool:
        return (
            isinstance(p, Permutation)
            and p.degree == self.degree
            and self._sift_tuple(p.images, 0)[0] is None
        )

    def verify(self) -> None:
        """Recheck that every Schreier generator sifts to the identity.

        In a constructed chain, the seed pass proved level 0, so this
        rechecks levels 1 and below; in a bare chain, every level.
        """
        self._scan(complete=False)


def schreier_sims(
    generators: Iterable[Permutation], degree: Optional[int] = None
) -> StabilizerChain:
    """Build the stabilizer chain of the group the generators generate."""
    return StabilizerChain(generators, degree)


# -- brute-force oracles ------------------------------------------------------


def _exceeded(cap: int, what: str) -> CapExceededError:
    return CapExceededError(f"orbit exceeded {cap} {what} during enumeration")


def _close(
    seen: dict[bytes, None], frontier: list[bytes], tables: Sequence[bytes], cap: int
) -> None:
    """Close the states ``seen`` under the tables, breadth-first from ``frontier``.

    A state is bytes, one byte per point, since ``_common_degree`` holds
    every caller to ``MAX_CHAIN_POINTS`` = 256 points; a table t sends
    the state s to ``s.translate(t)``, that is (t[s[0]], t[s[1]], ...),
    and a state's hash is cached.  The search runs one breadth-first
    level at a time: per table, one ``seen.update`` call translates the
    whole frontier and inserts the images in C.  A dict keeps insertion
    order and an update of a present key does not move it, so the next
    frontier is the keys the level appended, read from the dict's end.

    More than ``cap`` nodes raises, where a cap below 1 counts as 1.
    Each update gets at most ``most + 1 - len(seen)`` candidates, for
    most = max(cap, 1), so the dict never holds more than most + 1 states
    and the check is as exact as one state at a time.
    """
    # A dict rather than a set: its compact table held the 322,560 states
    # of faro(14) at a peak about 14 MiB lower than a set did.
    most = max(cap, 1)
    while frontier:
        before = len(seen)
        for table in tables:
            candidates = map(bytes.translate, frontier, repeat(table))
            left = len(frontier)
            while left > 0:  # repeats among a batch leave room for more
                room = most + 1 - len(seen)
                seen.update(zip(islice(candidates, room), repeat(None)))
                if len(seen) > most:
                    raise _exceeded(cap, "nodes")
                left -= room
        frontier = list(islice(reversed(seen), len(seen) - before))


def _add_cosets(
    seen: dict[bytes, None], tables: Sequence[bytes], most: int, cap: int
) -> None:
    """Grow the states ``seen`` to the group the tables generate.

    ``seen`` holds a subgroup H of that group, the identity first, and
    the group is a union of right cosets H r, the first one H itself
    (Dimino's algorithm; Butler, *Fundamental Algorithms for Permutation
    Groups*, 1991).  For each coset representative r, in the order they
    are found, and each table g: if r g is new, its whole coset H (r g)
    goes in with one ``map`` call, and r g becomes a representative.  A
    union of right cosets of H that holds the identity and is closed
    under every generator is the group.  The states are bytes, as in
    ``_close``.

    More than ``most`` states raises, with ``cap`` in the text.  The
    check comes before each coset goes in, so the dict never holds more
    than ``most`` states and the check is exact.
    """
    subgroup = list(seen)
    representatives = subgroup[:1]  # the identity
    for r in representatives:
        for table in tables:
            x = r.translate(table)
            if x not in seen:
                if len(seen) + len(subgroup) > most:
                    raise _exceeded(cap, "states")
                coset = map(bytes.translate, subgroup, repeat(_padded(x)))
                seen.update(zip(coset, repeat(None)))
                representatives.append(x)


def _schreier_elements(
    transversal: dict[int, bytes],
    tables: Sequence[bytes],
    points: Iterable[int],
    identity: bytes,
) -> Iterator[bytes]:
    """The u_a g u_{g(a)}^-1 other than the identity, for each table g, then
    each of the orbit points a.

    ``transversal`` maps each orbit point b to u_b, the bytes of its
    images.  u_a g equals u_{g(a)} exactly when the product is the
    identity, so only the others pay for the ``bytes.maketrans`` table
    of u_{g(a)}^-1.  By Schreier's lemma the results over every orbit
    point and generator generate the stabilizer of the orbit's start
    point (Seress, *Permutation Group Algorithms*, 2003, sec. 4.1).  The
    chain forms the same products from its inverse tables
    (``_schreier_generators``); the oracle keeps its own, so that its
    count shares no code with the chain it checks.
    """
    for table in tables:
        for a in points:
            x, u_b = transversal[a].translate(table), transversal[table[a]]
            if x != u_b:
                yield x.translate(bytes.maketrans(u_b, identity))


def _orbit_stabilizer_count(tables: Sequence[bytes], m: int, limit: int) -> int:
    """The order of the group the translate tables generate on m points.

    |G| = |O_0| |O_1| |G_01|: the orbit O_0 of point 0, the orbit O_1 of
    point 1 under the stabilizer G_0 of 0, and the stabilizer G_01 of
    both.  G_0 is generated by the distinct Schreier generators of O_0
    (``_schreier_elements``).  A subgroup H of G_0 grows to it: each of
    them that H does not hold joins H's generators, at least doubling
    it, so H has at most log2 |G_0| of them.  H holds s when s sends 1 to
    a point b of H's orbit of 1 and s u_b^-1 is in H_1, the stabilizer
    of 1 in H.  The Schreier generators of H_1 are formed only for the
    pairs of orbit point and generator that a new generator brings, and
    each that the states of H_1 do not hold yet becomes a generator of
    H_1, which grows to the group of all of them by right cosets
    (``_add_cosets``).  When every Schreier generator of G_0 is held, H
    is G_0 and H_1 is G_01.
    On fewer than two points the padded tables fix 0 and 1, so the
    orbits count 1.

    An order above ``limit`` raises, where a limit below 1 counts as 1.
    H_1 lies in G_01, and |O_0| |orbit of 1 under H| |H_1| is at most
    the order, so a count past the limit raises at once: the states
    number at most |G_01| when the order is within the limit, and never
    more than max(limit, 1) // |O_0|.
    """
    identity = bytes(range(m))
    most = max(limit, 1)
    orbit_0 = _walk({0: identity}, tables)
    if len(orbit_0) > most:
        raise _exceeded(limit, "states")
    schreier_0 = dict.fromkeys(_schreier_elements(orbit_0, tables, orbit_0, identity))
    kept: list[bytes] = []
    orbit_1 = {1: identity}
    orbits = len(orbit_0)
    seen = {identity: None}
    tables_01: list[bytes] = []
    for s in schreier_0:
        u = orbit_1.get(s[1])
        if u is not None and s.translate(bytes.maketrans(u, identity)) in seen:
            continue
        table = _padded(s)
        kept.append(table)
        known = list(orbit_1)
        found = list(_walk(orbit_1, kept))[len(known) :]
        orbits = len(orbit_0) * len(orbit_1)
        if orbits * len(seen) > most:
            raise _exceeded(limit, "states")
        # the pairs the new generator brings: it at the known points, and
        # every generator at the points found
        for pairs in (([table], known), (kept, found)):
            for schreier in _schreier_elements(orbit_1, *pairs, identity):
                if schreier not in seen:
                    tables_01.append(_padded(schreier))
                    _add_cosets(seen, tables_01, most // orbits, limit)
    return orbits * len(seen)


def brute_force_order(
    generators: Iterable[Permutation], limit: int = BRUTE_FORCE_LIMIT
) -> int:
    """Group order as the orbits of points 0 and 1 times their stabilizer.

    An element is the bytes of its images.  The orbit walks keep, for
    each orbit point, an element that sends the start point to it, and
    Schreier's lemma gives the stabilizers' generators.  Of those of the
    stabilizer of 0, only the ones that enlarge the subgroup built so
    far are used, at most log2 of its order, so the products formed at
    point 1 grow with that and not with the orbit of 0.  The stabilizer
    of both points is enumerated by right cosets, each translated in one
    ``map`` call (``_orbit_stabilizer_count``).  Products are
    ``bytes.translate`` calls and inverses ``bytes.maketrans`` tables: no
    chain code runs, so the count is independent of the chain's.

    An order above ``limit`` raises instead of returning a partial
    count, where a limit below 1 counts as 1; the stabilizer's states
    number at most its order when the count is within the limit, and
    never more than max(limit, 1) // |orbit of 0|.
    A limit that is no int is refused, and so are generators on more
    than ``MAX_CHAIN_POINTS`` points, before any state is built.
    """
    _check_int(limit, "limit")
    generators, m = _common_degree(generators)
    return _orbit_stabilizer_count(_tables(generators), m, limit)


def tuple_transitivity_order(
    generators: Iterable[Permutation], t: int, node_cap: int = BRUTE_FORCE_LIMIT
) -> int:
    """Size of the orbit of (0, 1, ..., t-1) under the generated group.

    Equal to the group order exactly when the action is sharply
    t-transitive; at t = degree the action is regular, and the search
    enumerates the whole group.  More than ``node_cap`` tuples raises,
    where a cap below 1 counts as 1: the start tuple alone never raises.
    A t or cap that is no int is refused, and so are generators on more
    than ``MAX_CHAIN_POINTS`` points, before any state is built.
    """
    _check_int(t, "tuple length")
    _check_int(node_cap, "node cap")
    generators, m = _common_degree(generators)
    if not 0 <= t <= m:
        raise ShuffleLabError(f"tuple length {t} out of range for degree {m}")
    start = bytes(range(t))
    seen = {start: None}
    _close(seen, [start], _tables(generators), node_cap)
    return len(seen)


def permutation_parity(p: Permutation) -> Literal["even", "odd"]:
    """Parity of a permutation, from its cycle structure."""
    if not isinstance(p, Permutation):
        raise ShuffleLabError(f"parity takes a Permutation, got {p!r}")
    return "odd" if _is_odd(p.images) else "even"


# -- order computations and theorem verification ------------------------------


def group_order(family: Family, size: int) -> int:
    """Exact order of the family's shuffle group at the given deck size.

    A certified chain's order stands on the invariant bound it meets.  A
    scanned chain's order within ``BRUTE_FORCE_LIMIT`` is checked against
    ``brute_force_order``'s count, and a disagreement raises.
    """
    check_deck_size(size)
    generators = family_generators(family, size)
    chain = StabilizerChain(generators)
    order = chain.order
    if not chain.certified and order <= BRUTE_FORCE_LIMIT:
        enumerated = brute_force_order(generators)
        if enumerated != order:
            raise ShuffleLabError(
                f"stabilizer chain order {order} disagrees with"
                f" enumeration {enumerated} for {family}({size})"
            )
    return order


class ClosedForm(NamedTuple):
    value: int
    case: str
    factored: str


def closed_form_order(family: Family, size: int) -> ClosedForm:
    """The tabulated closed-form order, with its case label.

    Flip defers to faro at twice the size.  Sizes the deck-size policy
    refuses are refused here too, and size 2 has no closed form: the
    case tables contradict each other there.
    """
    check_family(family)
    check_deck_size(size)
    if family is Family.FARO:
        return _closed_form_faro(size)
    if family is Family.HORSESHOE:
        return _closed_form_horseshoe(size)
    inner = _closed_form_faro(2 * size)
    return ClosedForm(inner.value, f"Flip(2n) = Faro(4n); {inner.case}", inner.factored)


def _closed_form_faro(size: int) -> ClosedForm:
    if size < 4:
        raise NoClosedFormError(f"no closed-form faro case for size {size}")
    n = size // 2
    if size == 12:
        return ClosedForm(2**9 * 3 * 5, "2n = 12", "2^9 * 3 * 5")
    if size == 24:
        return ClosedForm(2**17 * 3**3 * 5 * 11, "2n = 24", "2^17 * 3^3 * 5 * 11")
    k = size.bit_length() - 1
    if size == 1 << k:
        return ClosedForm(k * 2**k, "2n = 2^k", f"{k} * 2^{k}")
    if n % 4 == 2:
        return ClosedForm(
            math.factorial(n) * 2**n, "n = 2 (mod 4)", f"{n}! * 2^{n}"
        )
    if n % 2 == 1:
        return ClosedForm(
            math.factorial(n) * 2 ** (n - 1), "n odd", f"{n}! * 2^{n - 1}"
        )
    return ClosedForm(
        math.factorial(n) * 2 ** (n - 2), "n = 0 (mod 4)", f"{n}! * 2^{n - 2}"
    )


def _closed_form_horseshoe(size: int) -> ClosedForm:
    if size < 4:
        raise NoClosedFormError(f"no closed-form horseshoe case for size {size}")
    n = size // 2
    if size == 6:
        return ClosedForm(120, "2n = 6", "4 * 5 * 6")
    if size == 12:
        return ClosedForm(95040, "2n = 12", "8 * 9 * 10 * 11 * 12")
    k = size.bit_length() - 1
    if size == 1 << k:
        return ClosedForm((k + 1) * 2**k, "2n = 2^k", f"{k + 1} * 2^{k}")
    if n % 2 == 1:
        return ClosedForm(math.factorial(size), "n odd", f"{size}!")
    return ClosedForm(math.factorial(size) // 2, "n even", f"{size}!/2")


def factored(n: int) -> str:
    """Prime factorization as display text, e.g. ``2^6 * 3^3 * 5 * 11``."""
    if type(n) is not int or n < 1:
        raise ShuffleLabError(f"cannot factor {n!r}")
    if n == 1:
        return "1"
    parts = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            parts.append(f"{p}^{e}" if e > 1 else str(p))
        p += 1 if p == 2 else 2
    if rest > 1:
        parts.append(str(rest))
    return " * ".join(parts)


class GroupOrderReport(_Record):
    """One verification row: computed order vs the closed form.

    A family that is not a ``Family`` is refused when the row is built.
    """

    __slots__ = (
        "family",
        "size",
        "computed",
        "closed_form",
        "case",
        "factored",
        "match",
        "error",
    )
    family: Family
    size: int
    computed: Optional[int]
    closed_form: Optional[int]
    case: Optional[str]
    factored: Optional[str]
    match: bool
    error: Optional[str]

    def __init__(
        self,
        family: Family,
        size: int,
        computed: Optional[int],
        closed_form: Optional[int],
        case: Optional[str],
        factored: Optional[str],
        match: bool,
        error: Optional[str] = None,
    ) -> None:
        super().__init__(family, size, computed, closed_form, case, factored, match, error)

    def __post_init__(self) -> None:
        check_family(self.family)

    def line(self) -> str:
        if self.error is not None:
            return f"{self.family.value}({self.size}): error: {self.error}"
        return (
            f"{self.family.value}({self.size}):"
            f" computed={self.computed}"
            f" closed={self.closed_form} [{self.factored}]"
            f' case="{self.case}"'
            f" match={'yes' if self.match else 'no'}"
        )

    def to_dict(self) -> dict:
        fields = dict(zip(self.__slots__, self._values()))
        return {**fields, "family": self.family.value}


def verify_theorem(family: Family, sizes: Iterable[int]) -> list[GroupOrderReport]:
    """Compare computed group orders against the closed forms, per size.

    Refusals (the deck-size rule, the chain budget, sizes with no
    closed-form case) become error rows rather than aborting the run; a
    family that is not a ``Family`` is refused before the first row.
    ``group_order`` runs first, so a size it refuses gets its error text
    and never pays for the closed form's factorial.
    """
    check_family(family)
    if not isinstance(sizes, Iterable):
        raise ShuffleLabError(f"sizes must be an iterable of ints, got {sizes!r}")
    reports = []
    for size in sizes:
        try:
            computed = group_order(family, size)
            closed = closed_form_order(family, size)
        except ShuffleLabError as exc:
            reports.append(
                GroupOrderReport(family, size, None, None, None, None, False, str(exc))
            )
        else:
            match = computed == closed.value
            reports.append(GroupOrderReport(family, size, computed, *closed, match))
    return reports
