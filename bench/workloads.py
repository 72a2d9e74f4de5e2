"""The benchmark's workloads: seeded inputs, set-up, timed operations and answer checks.

Each workload builds every input from its seed, prepares in ``setup``
(the part reported as set-up time), and exposes a fixed list of
operations.  One timed pass calls each operation once, in order; the
answers are checked after the pass, outside the timed region, so a wrong
answer is counted as a failed operation instead of aborting the run.

Library names are looked up on their modules at call time, so the
wrappers of ``tracing.Tracer.install`` see every call the program makes.
"""

from __future__ import annotations

import functools
import io
import math
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, Optional

from shufflelab import cli, deck, elmsley, groups, shuffles, special
from shufflelab.shuffles import Family

#: Seconds one CLI subprocess may take before it counts as failed.
CLI_TIMEOUT = 60


class CheckError(RuntimeError):
    """An input or reference answer breaks an assumption the answer checks rely on."""


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p, then q.

    Inputs are built with these two tuple helpers rather than with
    ``Permutation.then`` and ``inverse``, which the traced run counts, or
    with the library's private helpers, which may change.
    """
    return tuple(q[x] for x in p)


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


class Workload:
    name = ""
    #: Whether the operations run in child processes rather than in the worker.
    in_children = False

    def __init__(self, seed: int, toy: bool) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.toy = toy

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Callable[[], object]]:
        raise NotImplementedError

    def traced_ops(self) -> list[Callable[[], object]]:
        """Operations of a traced pass; the same as ``ops`` unless a workload says otherwise."""
        return self.ops()

    def check(self, index: int, answer: object) -> Optional[str]:
        """None if the answer of operation ``index`` is right, else why not."""
        raise NotImplementedError


def _verify_row(family: Family, size: int):
    return groups.verify_theorem(family, [size])


class VerifyTables(Workload):
    """``verify_theorem`` over the acceptance tables, one row per operation."""

    name = "verify-tables"
    TABLES = {"horse": range(4, 17, 2), "faro": (8, 10, 12, 14, 16, 20, 24), "flip": range(4, 13, 2)}
    TOY_TABLES = {"horse": (4, 6), "faro": (8,), "flip": (4,)}

    def setup(self) -> None:
        tables = self.TOY_TABLES if self.toy else self.TABLES
        # a fixed order: which rows precede a big oracle run changes its cost
        rows = [(Family.parse(f), size) for f, sizes in tables.items() for size in sizes]
        self.rows = rows
        self.expected = [groups.closed_form_order(f, size).value for f, size in rows]
        for family, size in rows:
            for kind in shuffles.family_in_out(family):
                shuffles.element(kind, size)

    def ops(self):
        return [functools.partial(_verify_row, f, size) for f, size in self.rows]

    def check(self, index, answer):
        family, size = self.rows[index]
        label = f"{family}({size})"
        if len(answer) != 1:
            return f"{label}: {len(answer)} rows"
        row = answer[0]
        if row.error is not None:
            return f"{label}: error {row.error}"
        if (row.family, row.size) != (family, size) or not row.match:
            return f"{label}: row {row.line()}"
        if row.computed != self.expected[index]:
            return f"{label}: computed {row.computed}, closed form {self.expected[index]}"
        return None


def _contains(chain, p) -> bool:
    return p in chain


def _sift(chain, p):
    return chain.sift(p)


class ChainSift(Workload):
    """Membership queries against prebuilt chains; half are members.

    A member is a product of random generators and inverses.  A
    non-member is a member followed by a transposition: an odd one for
    horseshoe, whose group is alternating, and one that splits a block of
    the system the faro and flip generators preserve (mirrored positions
    for faro, the two faces of a position for flip).
    """

    name = "chain-sift"
    CHAINS = (("flip", 30), ("horse", 36), ("faro", 52))
    TOY_CHAINS = (("flip", 10), ("horse", 20), ("faro", 18))
    #: Queries per chain and answer in one pass, and generator factors per member.
    QUERIES, TOY_QUERIES, FACTORS = 200, 10, 24

    def setup(self) -> None:
        queries = self.TOY_QUERIES if self.toy else self.QUERIES
        self.queries = []
        for fam, size in self.TOY_CHAINS if self.toy else self.CHAINS:
            family = Family.parse(fam)
            gens = groups.family_generators(family, size)
            chain = groups.StabilizerChain(gens)
            if chain.order != groups.closed_form_order(family, size).value:
                raise CheckError(f"{family}({size}) chain order {chain.order} is not the closed form")
            degree = gens[0].degree
            mate = self._block_mate(family, size)
            for g in gens:
                if mate is None and groups.permutation_parity(g) == "odd":
                    raise CheckError(f"{family}({size}) has an odd generator")
                if mate is not None and any(g.images[mate(x)] != mate(g.images[x]) for x in range(degree)):
                    raise CheckError(f"{family}({size}) generator breaks the block system")
            images = [g.images for g in gens]
            factors = images + [_inverse(g) for g in images]
            for member in (True, False):
                for _ in range(queries):
                    p = tuple(range(degree))
                    for _ in range(self.FACTORS):
                        p = _compose(p, self.rng.choice(factors))
                    if not member:
                        p = _compose(p, self._transposition(degree, mate))
                    kind = self.rng.choice(("in", "sift"))
                    self.queries.append((chain, deck.Permutation(p), member, kind))
        self.rng.shuffle(self.queries)

    @staticmethod
    def _block_mate(family: Family, size: int):
        if family is Family.FARO:
            return lambda x: size - 1 - x
        if family is Family.FLIP:
            return lambda x: (x + size) % (2 * size)
        return None

    def _transposition(self, degree: int, mate) -> tuple[int, ...]:
        a = self.rng.randrange(degree)
        b = self.rng.choice([x for x in range(degree) if x != a and (mate is None or x != mate(a))])
        t = list(range(degree))
        t[a], t[b] = b, a
        return tuple(t)

    def ops(self):
        return [
            functools.partial(_contains if kind == "in" else _sift, chain, p)
            for chain, p, _, kind in self.queries
        ]

    def check(self, index, answer):
        chain, p, member, kind = self.queries[index]
        if kind == "in":
            got = answer
        else:
            got = answer.images == tuple(range(chain.degree))
        if got is not member:
            return f"{kind} query {index}: got member={got}, built member={member}"
        return None


TOKENS = (
    "faro-out", "faro-in", "flip-out", "flip-in", "horse-out", "horse-in",
    "milk", "milk-swap", "monge-under", "monge-over", "reverse", "turnover",
)  # fmt: skip


def _run_cli(argv: list[str]) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "-m", "shufflelab", *argv],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT,
    )
    return done.returncode, done.stdout


def _clear_caches() -> None:
    """Empty every function cache of the program, as in a fresh process.

    Caches are found by their ``cache_clear`` method, also behind a
    tracing wrapper, so none is missed when the program renames or adds one.
    """
    for module in (cli, deck, elmsley, groups, shuffles, special):
        for obj in list(vars(module).values()):
            while obj is not None and not hasattr(obj, "cache_clear"):
                obj = getattr(obj, "__wrapped__", None)
            if obj is not None:
                obj.cache_clear()


def _replay(argv: list[str]) -> tuple[int, str]:
    """Run one command in this process, starting as cold as a fresh CLI process."""
    _clear_caches()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _card_name(value: int, k: int) -> str:
    return {0: str(1 << k), 1: "A"}.get(value, str(value))


class Cli(Workload):
    """A seeded stream of ``python -m shufflelab`` commands, one at a time.

    Every command kind gets one slot per size class, and every seed costs
    about the same: deck sizes are drawn only where the cost does not
    follow them (word length falls as the deck grows, ``WORK`` card moves
    per word, up to 1000 steps), and the slots at 2^16 cards (k = 16) are
    pinned, with words in a seeded order of the fixed ``BIG_WORD``
    shuffles, inverted for ``order``.  Commands are kept few and short so
    that each is timed many times in a run.  A traced pass replays the
    same argument lists in-process through ``shufflelab.cli.main``.
    """

    name = "cli"
    in_children = True
    WORK = 1 << 17
    BIG = 1 << 16
    #: One shuffle of each family: the words at ``BIG`` cards.
    BIG_WORD = ("faro-out", "flip-in", "horse-in")
    DECK_BINS = ((10, 64), (64, 1024))
    K, GROUP_SIZES = 16, (4, 6, 8, 10)
    TOY_BIG, TOY_K = 128, 4

    def setup(self) -> None:
        rng = self.rng
        big, k = (self.TOY_BIG, self.TOY_K) if self.toy else (self.BIG, self.K)
        commands: list[tuple[str, list[str], dict]] = []
        every_step = [prefix + token for prefix in ("", "inv:") for token in TOKENS]
        for kind, prefix in (("apply", ""), ("order", "inv:")):
            for i, (lo, hi) in enumerate(self.DECK_BINS):
                size = 2 * rng.randint(lo // 2, hi // 2)
                length = rng.randint(1, 1000) if i == 0 else max(1, min(1000, self.WORK // size))
                steps = [rng.choice(every_step) for _ in range(length)]
                commands.append((kind, [kind, "--size", str(size), "--word", ",".join(steps)], {}))
            steps = [prefix + token for token in rng.sample(self.BIG_WORD, len(self.BIG_WORD))]
            commands.append((kind, [kind, "--size", str(big), "--word", ",".join(steps)], {}))
        # one family each, since a horseshoe route costs less than a faro one
        for kind, family in zip(("elmsley", "route"), rng.sample(("faro", "horse"), 2)):
            source, target = rng.sample(range(big), 2)
            place = ["--from", str(source), "--to", str(target)] if kind == "elmsley" else ["--to", str(target or 1)]
            commands.append((kind, [kind, "--size", str(big), "--family", family, *place], {}))
        # the ends of a special ordering differ in one bit or in all k
        left = rng.randrange(1 << k)
        right = left ^ rng.choice([1 << j for j in range(k)] + [(1 << k) - 1])
        argv = ["trick", "--k", str(k), "--left", _card_name(left, k), "--right", _card_name(right, k)]
        commands.append(("trick", argv, {"ends": (left, right)}))
        start = rng.choice([f"bit{j}" for j in range(k)] + ["complement"])
        argv = ["diagram", "--k", str(k), "--first", str(rng.randrange(1 << k)), "--start", start]
        commands.append(("diagram", argv, {}))
        family = rng.choice(("faro", "horse", "flip"))
        argv = ["group-order", "--family", family, "--size", str(rng.choice(self.GROUP_SIZES)), "--check"]
        commands.append(("group-order", argv, {}))
        rng.shuffle(commands)
        self.commands = commands

    def ops(self):
        return [functools.partial(_run_cli, argv) for _, argv, _ in self.commands]

    def traced_ops(self):
        return [functools.partial(_replay, argv) for _, argv, _ in self.commands]

    def check(self, index, answer):
        kind, argv, params = self.commands[index]
        code, out = answer
        if code != 0:
            return f"{' '.join(argv)[:120]}: exit {code}"
        if "expected" not in params:
            params["expected"] = self._expected(kind, argv, params)
        if out != params["expected"]:
            return f"{' '.join(argv)[:120]}: stdout differs from the library result"
        return None

    @staticmethod
    def _expected(kind: str, argv: list[str], params: dict) -> str:
        """The library's answer to one command, formatted as the CLI prints it."""
        opt = dict(zip(argv[1::2], argv[2::2]))
        if kind == "apply":
            start = deck.Deck.identity(int(opt["--size"]))
            text = str(shuffles.apply_word(shuffles.parse_word(opt["--word"]), start))
        elif kind == "order":
            word, size = shuffles.parse_word(opt["--word"]), int(opt["--size"])
            order = shuffles.element_order(word, size)
            if not _restores(shuffles.apply_word(word, deck.Deck.identity(size)), order):
                raise CheckError(f"applying the word {order} times does not restore the deck")
            text = str(order)
        elif kind == "elmsley":
            family = Family.parse(opt["--family"])
            found = elmsley.shortest_words(int(opt["--size"]), family, int(opt["--from"]), int(opt["--to"]))
            text = found.render()
        elif kind == "route":
            family = Family.parse(opt["--family"])
            text = shuffles.inout_text(shuffles.route_top_to(int(opt["--to"]), int(opt["--size"]), family))
        elif kind == "trick":
            left, right = params["ends"]
            text = special.predict_from_ends(int(opt["--k"]), left, right).display()
        elif kind == "diagram":
            start = special.DiagramOp.parse(opt["--start"])
            text = " ".join(str(v) for v in special.generate(int(opt["--k"]), int(opt["--first"]), start).values)
        else:
            family, size = Family.parse(opt["--family"]), int(opt["--size"])
            order, closed = groups.group_order(family, size), groups.closed_form_order(family, size)
            if order != closed.value:
                raise CheckError(f"{family}({size}) order {order} is not the closed form {closed.value}")
            text = f"computed: {order}\nclosed-form: {closed.value} = {closed.factored} [{closed.case}]\nmatch: yes"
        return text + "\n"


def _restores(once: deck.Deck, order: int) -> bool:
    """Whether ``order`` is the least number of repeats of a word that restores the deck.

    ``once`` is the sorted face-down deck after one application; the
    card labelled p started at position p, so the word sends p to where
    that card lies, turned over if it lies face up.  A cycle whose turns
    add up odd needs two laps.
    """
    size = once.size
    dest, turned = [0] * size, [False] * size
    for position, card in enumerate(once.cards):
        dest[card.label], turned[card.label] = position, card.face_up
    seen = [False] * size
    laps = []
    for start in range(size):
        x, length, odd = start, 0, False
        while not seen[x]:
            seen[x] = True
            odd ^= turned[x]
            x = dest[x]
            length += 1
        if length:
            laps.append(2 * length if odd else length)
    return all(order % lap == 0 for lap in laps) and order == math.lcm(*laps)


WORKLOADS = {wl.name: wl for wl in (VerifyTables, ChainSift, Cli)}
