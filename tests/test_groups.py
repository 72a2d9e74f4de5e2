import functools
import hashlib
import itertools
import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from shufflelab import groups
from shufflelab.deck import Permutation, ShuffleLabError, _compose, _inverse
from shufflelab.elmsley import PositionGraph, shortest_words
from shufflelab.groups import (
    CapExceededError,
    GroupOrderReport,
    NoClosedFormError,
    StabilizerChain,
    brute_force_order,
    closed_form_order,
    factored,
    family_generators,
    group_order,
    permutation_parity,
    schreier_sims,
    tuple_transitivity_order,
    verify_theorem,
)
from shufflelab.shuffles import (
    Family,
    Shuffle,
    Step,
    element,
    route_top_to,
    word_element,
)


def eval_factored(text):
    """Evaluate display factorizations like ``2^17 * 3^3 * 5 * 11`` or ``14!``."""
    expr = re.sub(r"(\d+)!", lambda m: str(math.factorial(int(m.group(1)))), text)
    expr = expr.replace("^", "**").replace("/", "//")
    return eval(expr, {"__builtins__": {}})


# -- stabilizer chain ---------------------------------------------------------


def test_empty_generators_give_trivial_group():
    chain = schreier_sims([], degree=5)
    assert chain.order == 1
    assert Permutation.identity(5) in chain


def test_single_cycle_gives_cyclic_group():
    for m in (3, 8, 12):
        cycle = Permutation(tuple((i + 1) % m for i in range(m)))
        assert schreier_sims([cycle]).order == m


def test_faro_generators_on_twelve_points():
    chain = schreier_sims(family_generators(Family.FARO, 12))
    assert chain.order == 2**9 * 3 * 5 == 7680


def test_chain_internal_consistency():
    for family, size in ((Family.FARO, 12), (Family.HORSESHOE, 10), (Family.FLIP, 6)):
        chain = schreier_sims(family_generators(family, size))
        chain.verify()
        assert chain.order == math.prod(chain.orbit_sizes())
        for gen in chain.strong_generators():
            assert chain.sift(gen).is_identity()
            assert gen in chain


#: Per family, a deck size at which the order bound exceeds the order and one
#: at which the random phase meets it.
MEMBERSHIP_CASES = [
    (Family.FARO, 12), (Family.FARO, 20),
    (Family.FLIP, 6), (Family.FLIP, 10),
    (Family.HORSESHOE, 12), (Family.HORSESHOE, 20),
]  # fmt: skip


@pytest.mark.parametrize("family, size", MEMBERSHIP_CASES)
def test_chain_results_are_built_unchecked_and_valid(monkeypatch, family, size):
    gens = family_generators(family, size)
    chain = schreier_sims(gens)
    rng = random.Random(size)
    members = []
    for _ in range(20):
        product = Permutation.identity(chain.degree)
        for _ in range(rng.randint(0, 8)):
            product = product.then(rng.choice(gens))
        members.append(product)
    points = list(range(chain.degree))
    strangers = [Permutation(tuple(rng.sample(points, len(points)))) for _ in range(20)]
    strangers = [p for p in strangers if p not in chain]
    assert strangers
    checks = []
    check = Permutation.__post_init__
    monkeypatch.setattr(
        Permutation, "__post_init__", lambda self: checks.append(check(self))
    )
    residues = [chain.sift(p) for p in members + strangers]
    strong = chain.strong_generators()
    monkeypatch.undo()
    assert checks == []
    for residue in residues:
        assert sorted(residue.images) == points
    assert all(r.is_identity() for r in residues[: len(members)])
    assert not any(r.is_identity() for r in residues[len(members) :])
    assert schreier_sims(strong).order == chain.order


def test_membership_accepts_products_and_rejects_odd():
    rng = random.Random(21)
    for size in (8, 12):
        gens = family_generators(Family.HORSESHOE, size)
        chain = schreier_sims(gens)
        for _ in range(20):
            product = Permutation.identity(size)
            for _ in range(rng.randint(0, 5)):
                product = product.then(rng.choice(gens))
            assert product in chain
        transposition = Permutation(tuple([1, 0] + list(range(2, size))))
        assert permutation_parity(transposition) == "odd"
        assert transposition not in chain


def test_mismatched_generator_degrees_rejected():
    for gens in (
        [Permutation((1, 0)), Permutation((0, 1, 2))],
        [Permutation((0,)), Permutation((1, 0))],
    ):
        with pytest.raises(ShuffleLabError):
            schreier_sims(gens)
        with pytest.raises(ShuffleLabError):
            brute_force_order(gens)
        with pytest.raises(ShuffleLabError):
            tuple_transitivity_order(gens, 1)


def test_degree_zero_and_one_groups_are_trivial():
    # products are itemgetter calls, which return a bare item for one index
    # and raise for none
    assert schreier_sims([], degree=0).order == 1
    assert schreier_sims([Permutation((0,))]).order == 1
    assert Permutation((0,)) in schreier_sims([Permutation((0,))])
    assert brute_force_order([Permutation((0,))]) == 1
    assert brute_force_order([Permutation(())]) == 1
    assert tuple_transitivity_order([Permutation((0,))], 1) == 1


def test_tuple_length_checked_without_generators():
    # no generators act on degree 0, where only the empty tuple exists
    assert tuple_transitivity_order([], 0) == 1
    for t in (-3, 1, 99):
        with pytest.raises(ShuffleLabError, match="out of range"):
            tuple_transitivity_order([], t)


# -- membership of random words -----------------------------------------------

#: Per family: whether swapping points a and b of the m points splits a
#: block of a block system the group preserves.  Faro commutes with the
#: mirror p <-> 2n-1-p; flip keeps the two faces p and p+2n of one card
#: together; horseshoe at n even lies in the alternating group, where no
#: transposition does.
SPLITTING = {
    Family.FARO: lambda m, a, b: a != b and b != m - 1 - a,
    Family.FLIP: lambda m, a, b: a % (m // 2) != b % (m // 2),
    Family.HORSESHOE: lambda m, a, b: a != b,
}


@functools.cache
def _chain_of(family, size):
    gens = family_generators(family, size)
    return gens, schreier_sims(gens)


def _transposition(m, a, b):
    images = list(range(m))
    images[a], images[b] = b, a
    return Permutation(tuple(images))


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(MEMBERSHIP_CASES),
    word=st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=24),
    points=st.tuples(st.integers(0, 47), st.integers(0, 47)),
)
def test_random_words_are_members_and_block_splits_are_not(case, word, points):
    family, size = case
    gens, chain = _chain_of(family, size)
    m = chain.degree
    product = Permutation.identity(m)
    for index, inverted in word:
        step = gens[index].inverse() if inverted else gens[index]
        product = product.then(step)
    assert product in chain
    assert chain.sift(product).is_identity()

    a, b = points[0] % m, points[1] % m
    splits = SPLITTING[family]
    if not splits(m, a, b):
        b = next(q for q in range(m) if splits(m, a, q))
    outsider = product.then(_transposition(m, a, b))
    assert outsider not in chain
    assert not chain.sift(outsider).is_identity()


# -- brute-force oracle equivalence -------------------------------------------


def test_chain_matches_enumeration():
    cases = [(Family.FARO, 12), (Family.HORSESHOE, 12), (Family.FLIP, 4), (Family.FLIP, 6)]
    cases += [(Family.HORSESHOE, 1 << k) for k in range(2, 7)]
    for family, size in cases:
        gens = family_generators(family, size)
        assert schreier_sims(gens).order == brute_force_order(gens)


def test_chain_matches_sympy_above_brute_force_limit():
    # an external chain implementation, for orders the brute-force oracle
    # cannot reach and the closed forms are meant to be checked against
    combinatorics = pytest.importorskip("sympy.combinatorics")
    cases = [(Family.FARO, s) for s in (20, 24, 28)]
    cases += [(Family.HORSESHOE, s) for s in (14, 16, 18)]
    cases += [(Family.FLIP, s) for s in (8, 10, 12)]
    for family, size in cases:
        gens = family_generators(family, size)
        chain = StabilizerChain(gens)
        chain.verify()
        external = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in gens]
        )
        assert chain.order == external.order(), (family, size)


# -- certified random phase ---------------------------------------------------

#: Per family, the even sizes up to 100 (flip 50) at which the invariant bound
#: exceeds the order, so the chain is drained: faro 12, 24 and 2^k, horseshoe
#: 6, 12 and 2^k, and flip at half the faro sizes.  At 4 cards the 2^k groups
#: meet the bound.
EXCEPTIONAL = {
    Family.FARO: {8, 12, 16, 24, 32, 64},
    Family.HORSESHOE: {6, 8, 12, 16, 32, 64},
    Family.FLIP: {4, 6, 8, 12, 16, 32},
}
#: Per family, the sizes of EXCEPTIONAL whose chains are scanned: at faro 12
#: and 24, and flip 6 and 12, the pair-quotient bound meets the order.
SCANNED = {
    Family.FARO: EXCEPTIONAL[Family.FARO] - {12, 24},
    Family.HORSESHOE: EXCEPTIONAL[Family.HORSESHOE],
    Family.FLIP: EXCEPTIONAL[Family.FLIP] - {6, 12},
}
#: Largest size per family of the chain and bound tests.
CHAIN_TOP = {Family.FARO: 30, Family.HORSESHOE: 30, Family.FLIP: 16}
BOUND_TOP = {Family.FARO: 100, Family.HORSESHOE: 100, Family.FLIP: 50}


def _identity_elements(tables, degree, rng):
    return itertools.repeat(bytes(range(degree)))


@pytest.mark.parametrize("family", list(BOUND_TOP))
def test_invariant_bound_meets_the_order_except_at_exceptional_sizes(family):
    for size in range(4, BOUND_TOP[family] + 1, 2):
        gens = family_generators(family, size)
        bound, _ = groups._invariant_bounds(groups._tables(gens), gens[0].degree)
        closed = closed_form_order(family, size).value
        assert bound >= closed, (family, size)
        assert (bound == closed) == (size not in EXCEPTIONAL[family]), (family, size)


def test_block_involution_skips_candidates_the_orbit_rules_out(monkeypatch):
    # on a 256-cycle only y = 128 has u_y(y) = 2y = 0 (mod 256); spreading
    # every candidate would take 128 spreads
    spreads = []
    spread = groups._spread

    def counted(*args):
        spreads.append(args)
        return spread(*args)

    monkeypatch.setattr(groups, "_spread", counted)
    m = 256
    c = groups._block_involution(groups._tables([_cycle(m)]), m)
    assert c == [(x + m // 2) % m for x in range(m)]
    assert len(spreads) <= 2


def test_block_involution_pairs_every_orbit():
    # the identity has four orbits; c(0) = 1 leaves 2 and 3 unset, and the
    # search goes on at 2
    identity = groups._tables([Permutation.identity(4)])
    assert groups._block_involution(identity, 4) == [1, 0, 3, 2]
    # a 3-cycle's orbit cannot pair with itself, nor with a fixed point
    three = groups._tables([Permutation((1, 2, 0, 3))])
    assert groups._block_involution(three, 4) is None


def test_the_invariant_bound_runs_no_chain_code(monkeypatch):
    # the bound proves certified orders, so it must not lean on the chain
    def fail(*args):
        raise AssertionError("the bound ran chain code")

    for name in ("_Level", "StabilizerChain"):
        monkeypatch.setattr(groups, name, fail)
    bounds = {
        (Family.FARO, 12): 2**6 * math.factorial(6),
        (Family.HORSESHOE, 12): math.factorial(12) // 2,
        (Family.FLIP, 6): 2**6 * math.factorial(6),
    }
    for (family, size), bound in bounds.items():
        gens = family_generators(family, size)
        got, _ = groups._invariant_bounds(groups._tables(gens), gens[0].degree)
        assert got == bound, (family, size)
    # the pair-quotient bound: |Q| counted on the n pairs, times the kernel
    # factor; 120 * 2^6 at faro(12), and 95,040 * 2^11 at faro(24), whose Q
    # is M12
    quotient_bounds = {12: 7680, 24: 194_641_920}
    for size, bound in quotient_bounds.items():
        tables = groups._tables(family_generators(Family.FARO, size))
        _, quotient = groups._invariant_bounds(tables, size)
        assert groups._quotient_bound(quotient, bound) == bound, size
        # the count stops past order // kernel
        assert groups._quotient_bound(quotient, bound - quotient.kernel) is None, size


class _TupleProduct(Exception):
    pass


def test_only_the_queries_multiply_image_tuples(monkeypatch):
    # builds, bounds and oracles read translate tables; sift and in are the
    # last callers of the tuple product
    def fail(*args):
        raise _TupleProduct

    monkeypatch.setattr(groups, "_compose", fail)
    tops = {Family.FARO: 48, Family.HORSESHOE: 48, Family.FLIP: 24}
    for family, top in tops.items():
        for size in range(2, top + 1, 2):
            gens = family_generators(family, size)
            chain = StabilizerChain(gens)
            assert group_order(family, size) == chain.order, (family, size)
            tables = groups._tables(gens)
            bound, quotient = groups._invariant_bounds(tables, chain.degree)
            assert bound >= chain.order, (family, size)
            if quotient is not None:
                groups._quotient_bound(quotient, chain.order)
            if chain.order <= groups.BRUTE_FORCE_LIMIT:
                assert brute_force_order(gens) == chain.order, (family, size)
    with pytest.raises(_TupleProduct):
        chain.sift(gens[0])
    with pytest.raises(_TupleProduct):
        assert gens[0] in chain


@st.composite
def hyperoctahedral_subgroups(draw):
    """Images of 1-3 random elements of S_2 wr S_n on 2n points, n from 2 to 7.

    Each commutes with the involution that swaps 2i and 2i + 1.
    """
    n = draw(st.integers(2, 7))

    def element():
        inner = [draw(st.permutations(range(2))) for _ in range(n)]
        return _wreath_element(2, draw(st.permutations(range(n))), inner)

    return [element() for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60, deadline=None)
@given(hyperoctahedral_subgroups())
def test_the_pair_quotient_bound_holds_on_random_subgroups_of_s2_wr_sn(images):
    gens = [Permutation(g) for g in images]
    order = brute_force_order(gens)
    chain = schreier_sims(gens)
    assert chain.order == order
    bound, quotient = groups._invariant_bounds(groups._tables(gens), len(images[0]))
    # the pairing {2i, 2i + 1} commutes with every group here, and the
    # involution search pairs every orbit, so it finds one
    assert quotient is not None
    # counted up to the order bound, it is |Q| times the kernel factor
    quotient_bound = groups._quotient_bound(quotient, bound)
    assert order <= quotient_bound <= bound
    # the count at exactly quotient_bound // kernel passes, and one less
    # refuses; for a trivial Q one less is a limit of 0, which counts as 1
    assert groups._quotient_bound(quotient, quotient_bound) == quotient_bound
    if quotient_bound > quotient.kernel:
        less = quotient_bound - quotient.kernel
        assert groups._quotient_bound(quotient, less) is None
    if chain.certified:
        assert order in (bound, quotient_bound)


def test_the_pair_quotient_is_counted_only_when_the_random_phase_stalls(monkeypatch):
    counted = []
    quotient_bound = groups._quotient_bound

    def recorded(quotient, order):
        counted.append(quotient.n)
        return quotient_bound(quotient, order)

    def fail(*args):
        raise AssertionError("the chain was scanned")

    monkeypatch.setattr(groups, "_quotient_bound", recorded)
    # the order bound certifies faro(20) and flip(10); horseshoe(12) has no
    # centralizing involution, so its chain is scanned
    for family, size in ((Family.FARO, 20), (Family.FLIP, 10), (Family.HORSESHOE, 12)):
        schreier_sims(family_generators(family, size))
    assert counted == []
    # faro(24) stalls, and its quotient on 12 pairs certifies it before any scan
    monkeypatch.setattr(StabilizerChain, "_scan", fail)
    assert schreier_sims(family_generators(Family.FARO, 24)).certified
    assert counted == [12]


@pytest.mark.parametrize("family", list(CHAIN_TOP))
def test_certified_chain_matches_the_drained_chain(monkeypatch, family):
    for size in range(4, CHAIN_TOP[family] + 1, 2):
        gens = family_generators(family, size)
        chain = schreier_sims(gens)
        chain.verify()
        assert chain.certified == (size not in SCANNED[family]), (family, size)
        with monkeypatch.context() as patch:
            patch.setattr(groups, "_random_elements", _identity_elements)
            drained = schreier_sims(gens)
        assert drained.order == chain.order == closed_form_order(family, size).value


def test_chain_builds_repeat():
    for family, size in ((Family.FLIP, 30), (Family.HORSESHOE, 36), (Family.FARO, 52)):
        gens = family_generators(family, size)
        first, second = schreier_sims(gens), schreier_sims(gens)
        assert first.certified and second.certified
        assert first.base == second.base
        assert first.orbit_sizes() == second.orbit_sizes()
        assert first.strong_generators() == second.strong_generators()


@pytest.mark.parametrize("n", range(10, 22))
def test_the_random_phase_draws_the_index_pairs_of_sample_and_randrange(n):
    # the product replacement's pairs come from getrandbits directly; the
    # random stream, and so every chain, must stay what rng.sample and
    # randrange draw
    pairs = list(itertools.islice(groups._index_pairs(random.Random(n), n), 500))
    rng = random.Random(n)
    assert pairs == [tuple(rng.sample(range(n), 2)) for _ in range(500)]
    rng = random.Random(n)
    expected = []
    for _ in range(500):
        i, j = rng.randrange(n), rng.randrange(n - 1)
        expected.append((i, n - 1 if j == i else j))
    assert pairs == expected


@pytest.mark.parametrize(
    "family, size", [(Family.FARO, 20), (Family.HORSESHOE, 14), (Family.FLIP, 10)]
)
def test_idle_random_phase_falls_back_to_the_drain(monkeypatch, family, size):
    gens = family_generators(family, size)
    assert schreier_sims(gens).certified
    monkeypatch.setattr(groups, "_random_elements", _identity_elements)
    chain = schreier_sims(gens)
    assert not chain.certified
    assert chain.order == closed_form_order(family, size).value
    chain.verify()


@pytest.mark.parametrize(
    "family, size", [(Family.FARO, 20), (Family.HORSESHOE, 14), (Family.FLIP, 10)]
)
def test_verify_rejects_the_chain_the_seed_leaves(monkeypatch, family, size):
    # identity random elements and no completion leave the seeded chain,
    # whose order is below the group's; verify runs the completion's scan
    scan = StabilizerChain._scan

    def verify_only(chain, complete):
        if not complete:
            scan(chain, complete)

    monkeypatch.setattr(groups, "_random_elements", _identity_elements)
    monkeypatch.setattr(StabilizerChain, "_scan", verify_only)
    chain = schreier_sims(family_generators(family, size))
    assert not chain.certified
    assert chain.order < closed_form_order(family, size).value
    with pytest.raises(ShuffleLabError, match="^stabilizer chain failed verification$"):
        chain.verify()


#: Generating sets on which a completion scan that resumes at the wrong level
#: after a residue (the level being scanned, or the one above the residue's)
#: stops short of the group; found by a search over random sets of degree 3-8.
BARE_SCAN_CASES = [
    [(3, 2, 1, 0, 4, 5), (1, 3, 2, 0, 5, 4)],
    [(5, 0, 2, 6, 1, 4, 3), (5, 0, 6, 2, 1, 4, 3)],
    [(0, 3, 2, 4, 1), (3, 1, 4, 2, 0)],
    [(6, 7, 0, 5, 4, 3, 2, 1), (0, 1, 6, 5, 4, 7, 2, 3)],
]


@pytest.mark.parametrize("images", BARE_SCAN_CASES)
def test_the_scan_alone_completes_a_bare_chain(images):
    # the classical algorithm, without the seed pass or the random phase:
    # every generator at level 0 only, then the completion scan
    chain = StabilizerChain([], degree=len(images[0]))
    for g in images:
        chain._register(g, 0)
    chain._scan(complete=True)
    chain.verify()
    assert chain.order == brute_force_order([Permutation(g) for g in images])


def _sequential_scan(chain, complete):
    """The completion scan one Schreier generator at a time, on image tuples.

    The reference for ``StabilizerChain._scan``, which sifts translate tables
    in batches: it must register the same residues at the same depths.
    """
    levels = chain._levels
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        found = None
        for a in level.coset:
            u_a = _inverse(level.coset[a])[: chain.degree]
            for h in level.gens:
                schreier = _compose(_compose(u_a, h), level.coset[h[a]])
                residue, depth = chain._sift_tuple(schreier, i + 1)
                if residue is not None:
                    found = residue, depth
                    break
            if found is not None:
                break
        if found is None:
            i -= 1
            continue
        if not complete:
            raise ShuffleLabError("stabilizer chain failed verification")
        chain._register(*found)
        i = found[1]


def _bare_chain(images):
    """Every generator but the identity registered at level 0, and nothing else."""
    m = len(images[0])
    chain = StabilizerChain([], degree=m)
    for g in images:
        if tuple(g) != tuple(range(m)):
            chain._register(tuple(g), 0)
    return chain


def _shape(chain):
    strong = [g.images for g in chain.strong_generators()]
    return chain.base, chain.orbit_sizes(), strong


def _wreath_element(b, blocks, inner):
    """The element of S_b wr S_k that sends point (i, x) to (blocks[i], inner[i][x])."""
    return tuple(blocks[i] * b + x for i, images in enumerate(inner) for x in images)


def _direct_element(*factors):
    """The element of S_m1 x S_m2 x ... acting on consecutive runs of points."""
    images, start = [], 0
    for factor in factors:
        images += [start + x for x in factor]
        start += len(factor)
    return tuple(images)


#: Imprimitive and intransitive generating sets whose bare scans register
#: residues, with their orders: S_2 wr S_4 (384), a subgroup of S_3 wr S_3
#: (648), two random elements of S_4 wr S_3 (all 82,944) and of S_3 wr S_4
#: (15,552), a subgroup of S_3 x S_4 x S_2 (144), and C_3^4 (81).  The full
#: batch on the two random sets, and batches of 3 on the S_3 x S_4 x S_2 one,
#: cut a batch at one level and then find an earlier element's residue at a
#: deeper one.
SCAN_GROUPS = [
    [_wreath_element(2, (1, 2, 3, 0), [(0, 1)] * 4),
     _wreath_element(2, (1, 0, 2, 3), [(1, 0), (0, 1), (0, 1), (0, 1)])],
    [_wreath_element(3, (1, 2, 0), [(1, 2, 0), (0, 1, 2), (0, 1, 2)]),
     _wreath_element(3, (1, 0, 2), [(1, 0, 2), (0, 1, 2), (0, 1, 2)])],
    [(7, 4, 6, 5, 9, 10, 11, 8, 0, 3, 1, 2), (10, 9, 8, 11, 6, 5, 7, 4, 1, 2, 0, 3)],
    [(7, 8, 6, 1, 2, 0, 4, 3, 5, 9, 11, 10), (5, 4, 3, 6, 7, 8, 10, 11, 9, 2, 0, 1)],
    [_direct_element((1, 2, 0), (1, 2, 3, 0), (1, 0)),
     _direct_element((1, 0, 2), (1, 0, 2, 3), (0, 1))],
    [_direct_element(*[(0, 1, 2)] * j, (1, 2, 0), *[(0, 1, 2)] * (3 - j))
     for j in range(4)],
]  # fmt: skip


@pytest.mark.parametrize("batch", [1, 2, 3, groups._SCAN_BATCH])
@pytest.mark.parametrize("images", BARE_SCAN_CASES + SCAN_GROUPS)
def test_the_batch_scan_registers_what_the_sequential_scan_does(
    monkeypatch, images, batch
):
    # small batches cut at every level where a residue stops, so the first
    # residue in scan order, not the shallowest one, must be registered
    monkeypatch.setattr(groups, "_SCAN_BATCH", batch)
    reference = _bare_chain(images)
    _sequential_scan(reference, complete=True)
    chain = _bare_chain(images)
    chain._scan(complete=True)
    assert _shape(chain) == _shape(reference)
    chain.verify()
    assert chain.order == brute_force_order([Permutation(g) for g in images])


#: SHA-256 over base, orbit sizes, strong generators and ``certified`` of the
#: chains of CHAIN_SHAPE_CASES.  Equal orders do not imply equal chains: this
#: pins the registration order of the seed, random and completion phases.
CHAIN_SHAPE_CASES = [
    (family, size) for family in CHAIN_TOP for size in range(4, 31, 2)
] + [(Family.HORSESHOE, 36), (Family.FARO, 52)]
CHAIN_SHAPE_DIGEST = "6c1d6470c1f5524a9477252b2a192ccace5f06475b7b1de2fd8e11f0c8acec9a"


def test_chain_shapes_are_pinned():
    digest = hashlib.sha256()
    for family, size in CHAIN_SHAPE_CASES:
        chain = schreier_sims(family_generators(family, size))
        strong = [g.images for g in chain.strong_generators()]
        shape = (chain.base, chain.orbit_sizes(), strong, chain.certified)
        digest.update(repr(shape).encode())
    assert digest.hexdigest() == CHAIN_SHAPE_DIGEST


def test_brute_force_respects_limit():
    gens = family_generators(Family.HORSESHOE, 10)  # order 10!
    with pytest.raises(CapExceededError):
        brute_force_order(gens, limit=1000)


def test_a_cap_below_one_refuses_only_new_states():
    # the start state alone is never refused, so the trivial group counts 1
    for limit in (0, -2):
        assert brute_force_order([Permutation.identity(3)], limit) == 1
        assert tuple_transitivity_order([_cycle(3)], 0, node_cap=limit) == 1
        with pytest.raises(CapExceededError, match=f"exceeded {limit} states"):
            brute_force_order([_cycle(3)], limit)


def _cycle(m):
    return Permutation(tuple((i + 1) % m for i in range(m)))


def _reflection(m):
    return Permutation(tuple(-i % m for i in range(m)))


#: Groups on both sides of the oracles' 256-point budget, ``MAX_CHAIN_POINTS``,
#: which is also the most points a bytes state holds: generators, degree and
#: order.  Flip(128) = Faro(256), of order 8 * 2^8; faro(512) has order 9 * 2^9.
BOUNDARY_GROUPS = {
    "flip(128)": (lambda: family_generators(Family.FLIP, 128), 256, 2048),
    "faro(512)": (lambda: family_generators(Family.FARO, 512), 512, 4608),
    "300-cycle": (lambda: [_cycle(300)], 300, 300),
}


def _over_budget(degree):
    text = f"group on {degree} points exceeds the chain budget of 256 points"
    return pytest.raises(CapExceededError, match=f"^{text}$")


@pytest.mark.parametrize("name", list(BOUNDARY_GROUPS))
def test_brute_force_on_both_sides_of_the_byte_boundary(name):
    make, degree, order = BOUNDARY_GROUPS[name]
    gens = make()
    assert gens[0].degree == degree
    if degree > groups.MAX_CHAIN_POINTS:
        with _over_budget(degree):
            brute_force_order(gens, limit=order)
        return
    assert brute_force_order(gens, limit=order) == order
    with pytest.raises(CapExceededError, match=f"exceeded {order - 1} states"):
        brute_force_order(gens, limit=order - 1)


def test_tuple_transitivity_above_the_byte_boundary():
    m = 256
    # the dihedral group of order 2m, in which only the identity fixes (0, 1)
    dihedral = [_cycle(m), _reflection(m)]
    orders = [tuple_transitivity_order(dihedral, t) for t in (0, 1, 2, m)]
    assert orders == [1, m, 2 * m, 2 * m]
    assert brute_force_order(dihedral) == 2 * m
    assert tuple_transitivity_order(dihedral, m, node_cap=2 * m) == 2 * m
    with pytest.raises(CapExceededError, match=f"exceeded {m - 1} nodes"):
        tuple_transitivity_order(dihedral, 1, node_cap=m - 1)
    # one point more is refused, whatever the tuple length
    above = [_cycle(m + 1), _reflection(m + 1)]
    for t in (0, 1, m + 1):
        with _over_budget(m + 1):
            tuple_transitivity_order(above, t)


def test_the_oracles_refuse_a_degree_above_the_budget_before_any_state(monkeypatch):
    def fail(*args):
        raise AssertionError("an oracle built states before refusing its degree")

    # both oracles build their tables and states through these
    monkeypatch.setattr(groups, "_tables", fail)
    monkeypatch.setattr(groups, "_close", fail)
    monkeypatch.setattr(groups, "_add_cosets", fail)
    for degree in (257, 300, 65536):
        gens = [_cycle(degree)]
        with _over_budget(degree):
            brute_force_order(gens)
        with _over_budget(degree):
            tuple_transitivity_order(gens, 1)


def test_the_order_oracle_runs_no_chain_code(monkeypatch):
    # orbit times stabilizer through translate tables alone, so the oracle
    # cannot share a fault with the chain it checks
    horse, faro = (family_generators(f, 12) for f in (Family.HORSESHOE, Family.FARO))

    def fail(*args):
        raise AssertionError("the oracle ran chain code")

    for name in ("_compose", "_Level", "StabilizerChain"):
        monkeypatch.setattr(groups, name, fail)
    assert brute_force_order(horse) == 95040
    assert brute_force_order(faro) == 7680


def test_the_order_oracle_holds_only_the_stabilizer_of_two_points(monkeypatch):
    # |G| = |O_0| |O_1| |G_01|: horseshoe(12), M12, holds the 720 states of
    # M10, not the 7,920 of M11, and faro(12) holds 64 of its 7,680
    held = []
    add_cosets = groups._add_cosets

    def recorded(seen, *args):
        add_cosets(seen, *args)
        held.append(len(seen))

    monkeypatch.setattr(groups, "_add_cosets", recorded)
    cases = [(Family.HORSESHOE, 95040, 720), (Family.FARO, 7680, 64)]
    for family, order, most in cases:
        held.clear()
        assert brute_force_order(family_generators(family, 12)) == order
        assert held and max(held) <= most, family


def _affine_line(p, root):
    """AGL(1, p) on the p points of GF(p): x + 1 and x * root."""
    return [_cycle(p), Permutation(tuple(root * x % p for x in range(p)))]


def _projective_line(p):
    """PSL(2, p) on the p + 1 points of the projective line, p for infinity."""

    def mobius(a, b, c, d):
        # x -> (a x + b) / (c x + d), which sends infinity to a / c
        def image(x):
            top, bottom = (a, c) if x == p else (a * x + b, c * x + d)
            return p if bottom % p == 0 else top * pow(bottom, -1, p) % p

        return Permutation(tuple(map(image, range(p + 1))))

    return [mobius(1, 1, 0, 1), mobius(0, p - 1, 1, 0), mobius(4, 0, 0, pow(4, -1, p))]


@pytest.mark.parametrize(
    "make, order",
    [
        (lambda: _affine_line(251, 6), 251 * 250),
        (lambda: _projective_line(101), 102 * 101 * 100 // 2),
    ],
)
def test_the_order_oracle_uses_at_most_log2_of_the_point_stabilizer(
    monkeypatch, make, order
):
    # AGL(1, 251) and PSL(2, 101) have 11 and 109 distinct Schreier
    # generators at point 0, and orbits of 250 and 101 points at point 1;
    # only those that enlarge the part of the stabilizer G_0 found so far
    # are used, each doubling it at least, and each walks the orbit of
    # point 1 once, after the walk of 0's orbit
    walks = []
    walk = groups._walk

    def recorded(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(groups, "_walk", recorded)
    gens = make()
    assert brute_force_order(gens) == order
    stabilizer = order // gens[0].degree
    assert 2 <= len(walks) <= 1 + math.log2(stabilizer)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=3)
    )
)
def test_oracles_agree_with_the_chain_on_random_groups(images):
    # no closed form involved: three independent ways to count the group
    gens = [Permutation(tuple(g)) for g in images]
    m = gens[0].degree
    chain = schreier_sims(gens)
    chain.verify()
    order = chain.order
    assert brute_force_order(gens) == order
    assert tuple_transitivity_order(gens, m) == order
    assert groups._invariant_bounds(groups._tables(gens), m)[0] >= order


@st.composite
def generator_lists(draw):
    """Image lists of degree 2-9, drawn with repeats from random ones and the identity."""
    m = draw(st.integers(2, 9))
    pool = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=2))
    pool.append(list(range(m)))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))


@settings(max_examples=40, deadline=None)
@given(generator_lists())
def test_oracles_match_a_plain_search(images):
    # the level-step kernel against one state at a time, every tuple length;
    # S_9 and A_9 are left out, where the plain search takes seconds
    gens = [Permutation(tuple(g)) for g in images]
    assume(schreier_sims(gens).order <= 50_000)
    m = gens[0].degree
    sizes = [len(oracles.orbit(images, range(t))) for t in range(m + 1)]
    assert [tuple_transitivity_order(gens, t) for t in range(m + 1)] == sizes
    order = sizes[m]
    assert brute_force_order(gens) == order
    for limit in {1, order // 2, order - 1}:
        if 0 < limit < order:
            with pytest.raises(
                CapExceededError,
                match=f"^orbit exceeded {limit} states during enumeration$",
            ):
                brute_force_order(gens, limit)
    assert brute_force_order(gens, order) == order


@st.composite
def imprimitive_or_intransitive(draw, least=2, most=12):
    """Images of 1-3 random elements of S_b wr S_k or of S_m1 x S_m2.

    They act on at least ``least`` (and at least 2) and at most ``most`` points.
    """
    if draw(st.booleans()):
        b = draw(st.integers(2, most // 2))
        k = draw(st.integers(max(2, -(-least // b)), most // b))

        def element():
            inner = [draw(st.permutations(range(b))) for _ in range(k)]
            return _wreath_element(b, draw(st.permutations(range(k))), inner)

    else:
        m1 = draw(st.integers(1, most - 1))
        m2 = draw(st.integers(max(1, least - m1), most - m1))

        def element():
            factors = (draw(st.permutations(range(m))) for m in (m1, m2))
            return _direct_element(*factors)

    return [element() for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=40, deadline=None)
@given(imprimitive_or_intransitive(), st.sampled_from([1, 3, groups._SCAN_BATCH]))
def test_the_chain_and_the_oracles_agree_on_imprimitive_and_intransitive_groups(
    images, batch
):
    # the shuffle groups are transitive, and random generators nearly always
    # give S_m or A_m: here the invariant bound is loose and the scan decides
    gens = [Permutation(g) for g in images]
    m = gens[0].degree
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "_SCAN_BATCH", batch)
        chain = schreier_sims(gens)
        chain.verify()
        patch.setattr(StabilizerChain, "_scan", _sequential_scan)
        reference = schreier_sims(gens)
    assert _shape(chain) == _shape(reference)
    order = chain.order
    assume(order <= groups.BRUTE_FORCE_LIMIT)
    assert brute_force_order(gens) == order
    assert tuple_transitivity_order(gens, m) == order
    if order > 1:
        with pytest.raises(CapExceededError, match=f"^orbit exceeded {order - 1} "):
            brute_force_order(gens, order - 1)


@settings(max_examples=100, deadline=None)
@given(
    imprimitive_or_intransitive(),
    st.booleans(),
    st.sampled_from([1, 3, groups._SCAN_BATCH]),
    st.data(),
)
def test_the_batch_sift_gives_the_first_residue_of_the_sift_one_at_a_time(
    images, complete, size, data
):
    # batches cut as the scan cuts them, with repeats and identities mixed
    # in, which the batch sift drops: the answer is still the first residue
    # in order, at its depth
    m = len(images[0])
    chain = schreier_sims([Permutation(g) for g in images]) if complete else _bare_chain(images)
    start = data.draw(st.integers(0, len(chain._levels)))
    pool = [tuple(range(m)), *images, *(_compose(g, h) for g in images for h in images)]
    pool += data.draw(st.lists(st.permutations(range(m)).map(tuple), min_size=2, max_size=4))
    elements = data.draw(st.lists(st.sampled_from(pool), max_size=30))
    expected = None
    for g in elements:
        residue, depth = chain._sift_tuple(g, start)
        if residue is not None:
            expected = tuple(residue), depth
            break
    found = None
    for k in range(0, len(elements), size):
        found = chain._sift_batch([bytes(g) for g in elements[k : k + size]], start)
        if found is not None:
            found = tuple(found[0]), found[1]
            break
    assert found == expected


def test_the_batch_sift_answers_for_the_first_copy_of_a_repeat():
    # in C_5 both transpositions leave a residue past the one level; keeping
    # the last copy of x instead of the first would put its residue first
    chain = schreier_sims([_cycle(5)])
    x, y, identity = bytes((1, 0, 2, 3, 4)), bytes((0, 2, 1, 3, 4)), bytes(range(5))
    assert chain._sift_batch([identity, y, x, y, identity], 0) == (y, 1)


def test_the_batch_sift_sifts_each_distinct_element_once():
    # faro(24)'s Schreier generators hold repeats and identities, and deeper
    # levels make more: verify looks up 1,404 coset representatives, 6,178
    # without dropping them, 1,971 without the drop on entry and 3,579
    # without the drops after the levels
    class Counting(dict):
        lookups = 0

        def get(self, key, default=None):
            Counting.lookups += 1
            return dict.get(self, key, default)

    chain = schreier_sims(family_generators(Family.FARO, 24))
    for level in chain._levels:
        level.coset = Counting(level.coset)
    chain.verify()
    assert Counting.lookups < 2500


#: Images of 1-3 random permutations of 2-12 points; nearly always S_m or A_m.
random_sets = st.integers(2, 12).flatmap(
    lambda m: st.lists(st.permutations(range(m)).map(tuple), min_size=1, max_size=3)
)


def _level_0_residue(chain):
    """The first residue of level 0's Schreier generators, over every strong
    generator, sifted from level 1; None if each sifts to the identity."""
    level = chain._levels[0]
    schreier = groups._schreier_generators(level.coset, level.gens, chain.degree)
    return chain._sift_batch(list(schreier), 1)


def _check_level_0_proven(gens):
    """Level 0 passes in the chain and in the drained chain of the generators.

    The scan of a constructed chain stops at level 1.  That is sound only if
    levels 1 and below generate the stabilizer of the first base point; in
    the drained chain only the seed pass and the scan built them.
    """
    chain = schreier_sims(gens)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "_random_elements", _identity_elements)
        drained = schreier_sims(gens)
    for built in (chain, drained):
        if built._levels:
            assert _level_0_residue(built) is None


@settings(max_examples=60, deadline=None)
@given(st.one_of(imprimitive_or_intransitive(), random_sets))
def test_the_seed_pass_proves_level_0_of_random_groups(images):
    _check_level_0_proven([Permutation(g) for g in images])


@pytest.mark.parametrize("family", list(Family))
def test_the_seed_pass_proves_level_0_of_every_shuffle_chain(family):
    for size in range(2, 31, 2):
        _check_level_0_proven(family_generators(family, size))


def test_the_batch_sift_drops_the_repeats_of_level_0():
    # a constructed chain's verify no longer scans level 0, where most of
    # faro(24)'s repeats are; sifted in one batch, its 1,128 Schreier
    # generators cost 611 lookups, 1,355 without the drop on entry and
    # 1,260 without the drops after the levels
    class Counting(dict):
        lookups = 0

        def get(self, key, default=None):
            Counting.lookups += 1
            return dict.get(self, key, default)

    chain = schreier_sims(family_generators(Family.FARO, 24))
    for level in chain._levels:
        level.coset = Counting(level.coset)
    assert _level_0_residue(chain) is None
    assert Counting.lookups < 800


def test_only_a_bare_chain_scans_level_0(monkeypatch):
    # the level-0 scan is the one that passes level 0's own coset table
    cosets = []
    schreier_generators = groups._schreier_generators

    def recorded(coset, gens, degree):
        cosets.append(coset)
        return schreier_generators(coset, gens, degree)

    monkeypatch.setattr(groups, "_schreier_generators", recorded)
    # the scanned chains: SCAN_GROUPS' first set, S_2 wr S_4, meets its bound
    seeded = [family_generators(Family.FARO, 32), family_generators(Family.FLIP, 16)]
    seeded += [[Permutation(g) for g in images] for images in SCAN_GROUPS[1:]]
    seeded += [_wreath_generators(4, 16), _power_generators(8, 8)]
    for gens in seeded:
        cosets.clear()
        chain = schreier_sims(gens)
        chain.verify()
        assert not chain.certified
        # the scan ran, from the deepest level, both times
        assert sum(c is chain._levels[-1].coset for c in cosets) >= 2
        assert not any(c is chain._levels[0].coset for c in cosets)
    for images in BARE_SCAN_CASES + SCAN_GROUPS:
        chain = _bare_chain(images)
        cosets.clear()
        chain._scan(complete=True)
        assert any(c is chain._levels[0].coset for c in cosets)


def _check_orbit_masks(chain):
    for level in chain._levels:
        assert level.points == bytes(level.coset)
        assert level.inside == bytes(p in level.coset for p in range(256))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(imprimitive_or_intransitive(), random_sets),
    st.sampled_from(BARE_SCAN_CASES + SCAN_GROUPS),
)
def test_each_level_keeps_its_orbit_as_bytes_and_a_mask(images, bare):
    _check_orbit_masks(schreier_sims([Permutation(g) for g in images]))
    chain = _bare_chain(bare)
    chain._scan(complete=True)
    _check_orbit_masks(chain)


def test_an_attach_that_adds_no_point_looks_nothing_up():
    class Counting(dict):
        lookups = 0

        def get(self, key, default=None):
            Counting.lookups += 1
            return dict.get(self, key, default)

        def __getitem__(self, key):
            Counting.lookups += 1
            return dict.__getitem__(self, key)

        def __contains__(self, key):
            Counting.lookups += 1
            return dict.__contains__(self, key)

    def tables(images):
        g = groups._padded(images)
        return g, bytes.maketrans(g, groups._IDENTITY_TABLE)

    # on 12 points: a 3-cycle, a 4-cycle, and their product, which lies in
    # the group the two generate and so adds no point to the orbit of 0
    three, four = (1, 2, 0, *range(3, 12)), (0, 1, 3, 4, 5, 2, *range(6, 12))
    level = groups._Level(0)
    level.coset = Counting(level.coset)
    level.attach(*tables(three))
    level.attach(*tables(four))
    assert Counting.lookups > 0 and sorted(level.coset) == list(range(6))
    Counting.lookups = 0
    level.attach(*tables(_compose(three, four)))
    assert Counting.lookups == 0
    assert len(level.gens) == 3 and sorted(level.coset) == list(range(6))


def test_the_seed_pass_sifts_each_distinct_schreier_generator_once(monkeypatch):
    # the seed pass is the only caller that sifts from level 1
    seeded = []
    extend = StabilizerChain._extend

    def recorded(chain, g, start):
        if start == 1:
            seeded.append(bytes(g))
        return extend(chain, g, start)

    monkeypatch.setattr(StabilizerChain, "_extend", recorded)
    schreier_sims(family_generators(Family.FARO, 24))
    assert seeded
    assert bytes(range(24)) not in seeded
    assert len(set(seeded)) == len(seeded)


def test_the_chain_matches_sympy_on_large_imprimitive_and_intransitive_groups():
    # an external chain implementation on 16-32 points, where many orders
    # pass BRUTE_FORCE_LIMIT and the invariant bound is loose
    combinatorics = pytest.importorskip("sympy.combinatorics")

    @settings(max_examples=15, deadline=None)
    @given(imprimitive_or_intransitive(least=16, most=32))
    def check(images):
        chain = schreier_sims([Permutation(g) for g in images])
        chain.verify()
        external = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in images]
        )
        assert chain.order == external.order()

    check()


def _wreath_generators(b, k):
    """S_b wr S_k on b * k points: a transposition and a b-cycle in block 0,
    a swap and a k-cycle of the blocks."""
    def block(images):
        return Permutation(_wreath_element(b, range(k), [images] + [range(b)] * (k - 1)))

    def blocks(images):
        return Permutation(_wreath_element(b, images, [range(b)] * k))

    shift = [*range(1, k), 0]
    return [block([1, 0, *range(2, b)]), block([*range(1, b), 0]),
            blocks([1, 0, *range(2, k)]), blocks(shift)]  # fmt: skip


def _power_generators(b, k):
    """S_b^k on b * k points, k orbits: a transposition and a b-cycle in each."""
    plain = [range(b)] * k
    gens = []
    for i in range(k):
        for images in ([1, 0, *range(2, b)], [*range(1, b), 0]):
            gens.append(Permutation(_direct_element(*plain[:i], images, *plain[i + 1 :])))
    return gens


@pytest.mark.parametrize(
    "gens, order",
    [
        (_wreath_generators(4, 16), math.factorial(4) ** 16 * math.factorial(16)),
        (_power_generators(8, 8), math.factorial(8) ** 8),
    ],
    ids=["S4 wr S16", "S8^8"],
)
def test_scanned_chains_of_large_imprimitive_and_intransitive_groups(gens, order):
    chain = schreier_sims(gens)
    assert chain.degree == 64
    assert not chain.certified
    assert chain.order == order


#: SHA-256 over base, orbit sizes, strong generators and ``certified`` of the
#: largest certified shuffle chains within the budget, the two scanned groups
#: above, and the bare scans of SCAN_GROUPS: the chains that the random phase,
#: the seed pass and the batch scan build at scale.
LARGE_CHAIN_DIGEST = "d7fe3510178fb4ca07db05c53005efe43f1ed2d1cb1b70d79f64cbe1e87d78ea"


def test_large_chain_shapes_are_pinned():
    digest = hashlib.sha256()
    chains = [
        schreier_sims(family_generators(family, size))
        for family, size in [
            (Family.FLIP, 30),
            (Family.FARO, 254),
            (Family.HORSESHOE, 254),
            (Family.FLIP, 126),
        ]
    ]
    chains += [schreier_sims(_wreath_generators(4, 16)), schreier_sims(_power_generators(8, 8))]
    for images in SCAN_GROUPS:
        chains.append(_bare_chain(images))
        chains[-1]._scan(complete=True)
    for chain in chains:
        digest.update(repr((*_shape(chain), chain.certified)).encode())
    assert digest.hexdigest() == LARGE_CHAIN_DIGEST


# -- group orders -------------------------------------------------------------


def test_group_order_values():
    assert group_order(Family.HORSESHOE, 12) == 95040
    assert group_order(Family.HORSESHOE, 6) == 120
    assert group_order(Family.HORSESHOE, 8) == 32
    assert group_order(Family.HORSESHOE, 4) == 12
    assert group_order(Family.FARO, 10) == 1920


def test_group_order_respects_size_cap():
    # one budget in chain points: flip acts on two points per card, so it
    # reaches half the deck size of the other families
    assert groups.MAX_CHAIN_POINTS == 256
    reached = ((Family.HORSESHOE, 256), (Family.FLIP, 128), (Family.FARO, 130))
    for family, size in reached:
        assert group_order(family, size) == closed_form_order(family, size).value
    for family, size, points in ((Family.HORSESHOE, 258, 258), (Family.FLIP, 130, 260)):
        text = f"group on {points} points exceeds the chain budget of 256 points"
        with pytest.raises(CapExceededError, match=f"^{text}$"):
            group_order(family, size)


def test_the_chain_refuses_a_degree_above_the_budget_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("the chain did work before refusing its degree")

    for name in ("_invariant_bounds", "_quotient_bound"):
        monkeypatch.setattr(groups, name, fail)
    monkeypatch.setattr(StabilizerChain, "_register", fail)
    make, degree, _ = BOUNDARY_GROUPS["300-cycle"]
    with pytest.raises(CapExceededError, match=f"group on {degree} points exceeds"):
        schreier_sims(make())


#: Oracle runs per ``group_order`` call: none for a certified chain, whose
#: order meets an invariant bound; one for a scanned chain within the budget.
#: No shuffle chain scanned here passes the budget: see the next test.
ORACLE_CALLS = {
    (Family.FARO, 10): 0,
    (Family.FARO, 14): 0,
    (Family.HORSESHOE, 4): 0,
    (Family.FARO, 20): 0,
    (Family.HORSESHOE, 12): 1,
    (Family.FARO, 12): 0,
    (Family.FLIP, 6): 0,
    (Family.FARO, 16): 1,
    (Family.FARO, 24): 0,
    (Family.FLIP, 12): 0,
}


@pytest.mark.parametrize("family, size", list(ORACLE_CALLS))
def test_group_order_enumerates_only_scanned_chains_within_the_budget(
    monkeypatch, family, size
):
    calls = []
    oracle = groups.brute_force_order

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(groups, "brute_force_order", counted)
    assert group_order(family, size) == closed_form_order(family, size).value
    assert len(calls) == ORACLE_CALLS[family, size]


@pytest.mark.parametrize("limit, calls", [(95_040, 1), (95_039, 0)])
def test_group_order_does_not_enumerate_a_scanned_chain_above_the_budget(
    monkeypatch, limit, calls
):
    # horseshoe(12), M12 of order 95,040, has no pair quotient, so its chain
    # is scanned; a budget one below its order leaves it unenumerated
    counted = []
    oracle = groups.brute_force_order

    def recorded(*args):
        counted.append(args)
        return oracle(*args)

    monkeypatch.setattr(groups, "brute_force_order", recorded)
    monkeypatch.setattr(groups, "BRUTE_FORCE_LIMIT", limit)
    assert not StabilizerChain(family_generators(Family.HORSESHOE, 12)).certified
    assert group_order(Family.HORSESHOE, 12) == 95040
    assert len(counted) == calls


def test_a_scanned_order_the_enumeration_contradicts_is_refused(monkeypatch):
    oracle = groups.brute_force_order
    monkeypatch.setattr(groups, "brute_force_order", lambda *args: oracle(*args) + 1)
    with pytest.raises(ShuffleLabError, match="disagrees with enumeration"):
        group_order(Family.HORSESHOE, 12)


#: Every even size up to 40, and the powers of two above it up to the chain
#: budget: 256 cards (flip, on twice the points, to 128).
EVIDENCE_SIZES = {
    family: [*range(2, 41, 2), *(1 << k for k in range(6, top + 1))]
    for family, top in ((Family.FARO, 8), (Family.HORSESHOE, 8), (Family.FLIP, 7))
}


@pytest.mark.parametrize("family", list(EVIDENCE_SIZES))
def test_every_order_carries_its_evidence(family):
    # The sweep that stands in for a runtime re-check of certified orders: a
    # certified order is the order bound or the pair-quotient bound, and every
    # order within the budget is the enumerated one.
    for size in EVIDENCE_SIZES[family]:
        gens = family_generators(family, size)
        chain = StabilizerChain(gens)
        if chain.certified:
            tables = groups._tables(gens)
            bound, quotient = groups._invariant_bounds(tables, chain.degree)
            if chain.order != bound:
                assert quotient is not None, (family, size)
                quotient_bound = groups._quotient_bound(quotient, chain.order)
                assert quotient_bound == chain.order, (family, size)
        if chain.order <= groups.BRUTE_FORCE_LIMIT:
            assert chain.order == brute_force_order(gens), (family, size)
            # the regular action's orbit: every element of the group, one by one
            whole = tuple_transitivity_order(gens, chain.degree)
            assert chain.order == whole, (family, size)
        assert group_order(family, size) == chain.order, (family, size)


@pytest.mark.parametrize("family", ["faro", "horse", "flip", None, 0])
def test_a_family_that_is_not_a_family_is_refused(family):
    text = f"family must be a Family, got {family!r}"
    calls = [closed_form_order, group_order, family_generators]
    calls += [
        lambda f, size: route_top_to(1, size, f),
        lambda f, size: PositionGraph.build(size, f),
        lambda f, size: shortest_words(size, f, 1, 0),
        lambda f, size: GroupOrderReport(f, size, 24, 24, "x", "2^3 * 3", True),
    ]
    for call in calls:
        with pytest.raises(ShuffleLabError) as refused:
            call(family, 8)
        assert str(refused.value) == text
    with pytest.raises(ShuffleLabError, match=re.escape(text)):
        verify_theorem(family, [8])


@pytest.mark.parametrize("size", ["4", 4.0, None])
def test_a_size_that_is_not_an_int_is_refused(size):
    for call in (closed_form_order, group_order):
        with pytest.raises(ShuffleLabError, match="deck size must be an int"):
            call(Family.FARO, size)


# -- closed forms -------------------------------------------------------------


def test_closed_form_faro():
    assert closed_form_order(Family.FARO, 24).value == 194641920
    assert closed_form_order(Family.FARO, 24).factored == "2^17 * 3^3 * 5 * 11"
    assert closed_form_order(Family.FARO, 12).value == 7680
    assert closed_form_order(Family.FARO, 16) == (64, "2n = 2^k", "4 * 2^4")
    assert closed_form_order(Family.FARO, 20).value == math.factorial(10) * 2**10
    assert closed_form_order(Family.FARO, 10).value == 1920
    # smallest size reaching the n = 0 (mod 4) formula: 16, 24, 32 are all
    # powers of two or exceptional
    assert closed_form_order(Family.FARO, 40).value == math.factorial(20) * 2**18


def test_closed_form_horseshoe():
    assert closed_form_order(Family.HORSESHOE, 10).value == 3628800
    assert closed_form_order(Family.HORSESHOE, 16).value == 80
    assert closed_form_order(Family.HORSESHOE, 6).value == 120
    assert closed_form_order(Family.HORSESHOE, 14).value == math.factorial(14)
    assert closed_form_order(Family.HORSESHOE, 20).value == math.factorial(20) // 2


def test_closed_form_flip_defers_to_faro():
    flip = closed_form_order(Family.FLIP, 10)
    assert flip.value == closed_form_order(Family.FARO, 20).value == math.factorial(10) * 2**10
    assert "Faro(4n)" in flip.case


def test_closed_form_refuses_tiny_sizes():
    with pytest.raises(NoClosedFormError):
        closed_form_order(Family.FARO, 2)
    with pytest.raises(NoClosedFormError):
        closed_form_order(Family.HORSESHOE, 2)


@pytest.mark.parametrize("family", list(Family))
def test_closed_form_follows_the_deck_size_policy(family):
    for size, message in (
        (7, "deck size must be even and >= 2, got 7"),
        (0, "deck size must be even and >= 2, got 0"),
        (65538, "deck size 65538 exceeds cap 65536"),
    ):
        with pytest.raises(ShuffleLabError) as info:
            closed_form_order(family, size)
        assert str(info.value) == message


def test_closed_form_factored_strings_remultiply():
    for family in Family:
        for size in (4, 6, 8, 10, 12, 14, 16, 20, 24):
            form = closed_form_order(family, size)
            assert eval_factored(form.factored) == form.value


def test_factored_display():
    assert factored(95040) == "2^6 * 3^3 * 5 * 11"
    assert factored(1) == "1"
    assert factored(7680) == "2^9 * 3 * 5"
    assert eval_factored(factored(3715891200)) == 3715891200


# -- theorem verification harness ---------------------------------------------


def test_verify_horseshoe_table():
    reports = verify_theorem(Family.HORSESHOE, [4, 6, 8, 10, 12, 14, 16])
    assert all(r.match for r in reports)
    assert [r.computed for r in reports] == [
        12, 120, 32, 3628800, 95040, math.factorial(14), 80,
    ]


def test_verify_faro_table():
    reports = verify_theorem(Family.FARO, [8, 10, 12, 14, 16, 20, 24])
    assert all(r.match for r in reports)
    by_size = {r.size: r for r in reports}
    assert by_size[12].computed == 2**9 * 3 * 5
    assert by_size[24].computed == 2**17 * 3**3 * 5 * 11
    assert by_size[24].factored == "2^17 * 3^3 * 5 * 11"


def test_verify_flip_matches_faro_at_double_size():
    reports = verify_theorem(Family.FLIP, [4, 6, 8, 10, 12])
    assert all(r.match for r in reports)
    for report in reports:
        assert report.computed == group_order(Family.FARO, 2 * report.size)


def test_verify_propagates_refusals_per_entry():
    reports = verify_theorem(Family.HORSESHOE, [2, 6, 99])
    assert [r.error is not None for r in reports] == [True, False, True]
    assert reports[1].match
    assert not reports[0].match


def test_verify_checks_the_cap_before_the_closed_form(monkeypatch):
    closed_form = groups.closed_form_order

    def capped_closed_form(family, size):
        assert size <= groups.MAX_CHAIN_POINTS, f"closed form for refused size {size}"
        return closed_form(family, size)

    monkeypatch.setattr(groups, "closed_form_order", capped_closed_form)
    reports = verify_theorem(Family.HORSESHOE, [12, 258, 65534])
    assert [r.error is None for r in reports] == [True, False, False]
    assert reports[2].error == (
        "group on 65534 points exceeds the chain budget of 256 points"
    )


@pytest.mark.parametrize("family", list(Family))
def test_group_order_and_verify_refuse_a_size_with_one_text(family):
    # the deck-size rule comes first, the chain budget second
    points = 2 if family is Family.FLIP else 1
    texts = {
        0: "deck size must be even and >= 2, got 0",
        -2: "deck size must be even and >= 2, got -2",
        7: "deck size must be even and >= 2, got 7",
        41: "deck size must be even and >= 2, got 41",
        258: f"group on {258 * points} points exceeds the chain budget of 256 points",
        65534: f"group on {65534 * points} points exceeds the chain budget of 256 points",
        65538: "deck size 65538 exceeds cap 65536",
    }
    for size, text in texts.items():
        with pytest.raises(ShuffleLabError, match=f"^{re.escape(text)}") as refused:
            group_order(family, size)
        [report] = verify_theorem(family, [size])
        assert report.error == str(refused.value)


def test_report_rendering():
    report = verify_theorem(Family.HORSESHOE, [12])[0]
    line = report.line()
    assert "horse(12)" in line and "95040" in line and "match=yes" in line
    assert report.to_dict()["computed"] == 95040


# -- parity and transitivity --------------------------------------------------


def test_permutation_parity_basics():
    assert permutation_parity(Permutation.identity(6)) == "even"
    assert permutation_parity(Permutation((1, 0, 2))) == "odd"
    assert permutation_parity(element(Shuffle.HORSE_IN, 12).perm) == "even"


def test_horseshoe_words_stay_even_for_even_n():
    rng = random.Random(22)
    steps = [
        Step(kind, inv)
        for kind in (Shuffle.HORSE_IN, Shuffle.HORSE_OUT)
        for inv in (False, True)
    ]
    for _ in range(1000):
        word = [rng.choice(steps) for _ in range(rng.randint(0, 12))]
        assert permutation_parity(word_element(word, 20).perm) == "even"


def test_odd_horseshoe_element_exists_for_odd_n():
    # n = 5: one of the generators is itself odd
    parities = {
        permutation_parity(element(kind, 10).perm)
        for kind in (Shuffle.HORSE_IN, Shuffle.HORSE_OUT)
    }
    assert "odd" in parities


def test_tuple_transitivity_orders():
    gens12 = family_generators(Family.HORSESHOE, 12)
    assert tuple_transitivity_order(gens12, 5) == 12 * 11 * 10 * 9 * 8 == 95040
    assert tuple_transitivity_order(gens12, 5) == group_order(Family.HORSESHOE, 12)
    gens6 = family_generators(Family.HORSESHOE, 6)
    assert tuple_transitivity_order(gens6, 3) == 6 * 5 * 4 == 120
    assert tuple_transitivity_order(gens6, 0) == 1
    gens8 = family_generators(Family.FARO, 8)
    assert [tuple_transitivity_order(gens8, t) for t in range(4)] == [1, 8, 24, 24]


def test_tuple_transitivity_node_cap():
    gens = family_generators(Family.HORSESHOE, 12)
    with pytest.raises(CapExceededError):
        tuple_transitivity_order(gens, 5, node_cap=100)


def test_sift_refuses_a_permutation_of_another_degree():
    chain = schreier_sims(family_generators(Family.FARO, 8))
    with pytest.raises(ShuffleLabError, match="degree mismatch"):
        chain.sift(Permutation.identity(6))


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: StabilizerChain([], degree=-1), "degree must be an int >= 0, got -1"),
        (lambda: StabilizerChain([], degree="3"), "degree must be an int >= 0, got '3'"),
        (lambda: StabilizerChain([], degree=3.0), "degree must be an int >= 0, got 3.0"),
        (lambda: StabilizerChain([], degree=True), "degree must be an int >= 0, got True"),
        (lambda: StabilizerChain([(1, 0)]), "generators must be Permutations, got (1, 0)"),
        (lambda: brute_force_order([[1, 0]]), "generators must be Permutations, got [1, 0]"),
        (lambda: brute_force_order([_cycle(3)], "10"), "limit must be an int, got '10'"),
        (lambda: brute_force_order([_cycle(3)], 10.0), "limit must be an int, got 10.0"),
        (lambda: tuple_transitivity_order([_cycle(3)], 1.0),
         "tuple length must be an int, got 1.0"),
        (lambda: tuple_transitivity_order([_cycle(3)], True),
         "tuple length must be an int, got True"),
        (lambda: tuple_transitivity_order([_cycle(3)], 1, node_cap="5"),
         "node cap must be an int, got '5'"),
        (lambda: schreier_sims([_cycle(3)]).sift((0, 1, 2)),
         "sift takes a Permutation, got (0, 1, 2)"),
        (lambda: factored(2.5), "cannot factor 2.5"),
        (lambda: factored(True), "cannot factor True"),
        (lambda: permutation_parity((1, 0)), "parity takes a Permutation, got (1, 0)"),
    ],
)  # fmt: skip
def test_the_group_engine_refuses_values_of_the_wrong_type(call, text):
    with pytest.raises(ShuffleLabError, match=f"^{re.escape(text)}$"):
        call()


@pytest.mark.parametrize(
    "count",
    [
        lambda gens: StabilizerChain(gens).order,
        brute_force_order,
        lambda gens: tuple_transitivity_order(gens, 3),
    ],
    ids=["StabilizerChain", "brute_force_order", "tuple_transitivity_order"],
)
def test_generators_come_from_any_iterable_and_nothing_else(count):
    # horseshoe(6) is sharply 3-transitive, of order 6 * 5 * 4
    gens = family_generators(Family.HORSESHOE, 6)
    assert count(iter(gens)) == count(tuple(gens)) == 120
    for value in (None, 5):
        text = f"generators must be an iterable of Permutations, got {value!r}"
        with pytest.raises(ShuffleLabError, match=f"^{re.escape(text)}$"):
            count(value)


def test_membership_of_a_value_that_is_no_permutation_is_false():
    chain = schreier_sims([_cycle(3)])
    assert None not in chain
    assert (1, 2, 0) not in chain
    assert _cycle(3) in chain


def test_factored_refuses_non_positive_numbers():
    for n in (0, -12):
        with pytest.raises(ShuffleLabError, match=f"cannot factor {n}"):
            factored(n)
