"""Spans and counts recorded by wrappers installed around shufflelab's public names.

Nothing in ``src/`` knows about tracing.  ``install`` swaps each traced
name for a timing wrapper in the namespace the caller looks it up from
(``shufflelab.groups.brute_force_order`` for ``group_order``,
``shufflelab.cli.apply_word`` for the CLI, and so on) and ``uninstall``
puts the originals back, so untraced passes run the untouched program.

A span is ``[name, start, end, parent, phase]``; phase 0 is set-up and
phase k is the k-th traced pass.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
A call made directly inside a span of the same name is folded into that
span: ``OrientedPermutation.then`` calls ``Permutation.then``, and the
pair counts as one ``deck.then`` product.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import statistics
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.active = True
        self.phase = 0
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()  # (phase, key)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.phase, key)] += n

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded, e.g. while checking answers."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def timed(self, name: str, fn: Callable, on_call=None, on_result=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (stack and tracer.spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.phase]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                with tracer.paused():
                    on_result(tracer, args, result)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced name until ``uninstall``."""
        mod = {m: importlib.import_module(f"shufflelab.{m}") for m in _MODULES}
        deck, groups = mod["deck"], mod["groups"]
        chain_cls = groups.StabilizerChain
        for owner, attr, name, on_call, on_result in _timed_names(mod, chain_cls):
            self._patch(owner, attr, self.timed(name, getattr(owner, attr), on_call, on_result))
        for cls in (deck.Deck, deck.Permutation, deck.OrientedPermutation):
            self._patch(cls, "__post_init__", self.counted("deck.validations", cls.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"], "spans": self.spans}, fh)


_MODULES = ("deck", "shuffles", "groups", "elmsley", "special", "cli")


def _count_steps(tracer: Tracer, args) -> None:
    tracer.count("shuffles.steps", len(args[0]) if isinstance(args[0], (tuple, list)) else 1)


def _chain_shape(tracer: Tracer, args, chain) -> None:
    tracer.count("groups.chain.levels", len(chain.base))
    tracer.count("groups.chain.orbit_points", sum(chain.orbit_sizes()))
    tracer.count("groups.chain.strong_generators", len(chain.strong_generators()))


def _oracle_states(tracer: Tracer, args, result: int) -> None:
    tracer.count("groups.oracle.states", result)


def _member(tracer: Tracer, args, result) -> None:
    member = result if isinstance(result, bool) else result.is_identity()
    tracer.count("groups.sift.members", int(member))


def _words_found(tracer: Tracer, args, result) -> None:
    tracer.count("elmsley.words_found", len(result.words))


def _timed_names(mod: dict, chain_cls: type):
    """(owner, attribute, span name, on_call, on_result) for every timed name."""
    deck, shuffles, groups = mod["deck"], mod["shuffles"], mod["groups"]
    elmsley, special, cli = mod["elmsley"], mod["special"], mod["cli"]
    return [
        (shuffles, "apply_oriented", "deck.apply_oriented", None, None),
        (deck.Permutation, "then", "deck.then", None, None),
        (deck.OrientedPermutation, "then", "deck.then", None, None),
        (shuffles, "element", "shuffles.element", None, None),
        (groups, "element", "shuffles.element", None, None),
        (elmsley, "element", "shuffles.element", None, None),
        (shuffles, "word_element", "shuffles.word_element", _count_steps, None),
        (cli, "apply_word", "shuffles.apply_word", _count_steps, None),
        (special, "apply_word", "shuffles.apply_word", _count_steps, None),
        (cli, "element_order", "shuffles.element_order", None, None),
        (cli, "route_top_to", "shuffles.route_top_to", None, None),
        (groups, "family_generators", "groups.family_generators", None, None),
        (groups, "StabilizerChain", "groups.chain", None, _chain_shape),
        (chain_cls, "sift", "groups.sift", None, _member),
        (chain_cls, "__contains__", "groups.sift", None, _member),
        (groups, "brute_force_order", "groups.oracle", None, _oracle_states),
        (groups, "closed_form_order", "groups.closed_form", None, None),
        (cli, "closed_form_order", "groups.closed_form", None, None),
        (groups, "group_order", "groups.group_order", None, None),
        (cli, "group_order", "groups.group_order", None, None),
        (groups, "verify_theorem", "groups.verify_theorem", None, None),
        (cli, "verify_theorem", "groups.verify_theorem", None, None),
        (cli, "shortest_words", "elmsley.shortest_words", None, _words_found),
        (special, "trick_session", "special.trick_session", None, None),
        (cli, "predict_from_ends", "special.predict_from_ends", None, None),
        (special, "predict_from_ends", "special.predict_from_ends", None, None),
        (cli, "generate", "special.generate", None, None),
        (special, "generate", "special.generate", None, None),
        (cli, "main", "cli.main", None, None),
    ]


#: Per-layer metrics computed from one traced run, with their units.
LAYER_UNITS = {
    "deck.apply_oriented.calls": "count",
    "deck.apply_oriented.self_s": "s",
    "deck.then.calls": "count",
    "deck.then.self_s": "s",
    "deck.validations": "count",
    "deck.validations_per_step": "ratio",
    "shuffles.element.calls": "count",
    "shuffles.element.self_s": "s",
    "shuffles.word_element.self_s": "s",
    "shuffles.apply_word.self_s": "s",
    "shuffles.steps": "count",
    "groups.family_generators.self_s": "s",
    "groups.chain.calls": "count",
    "groups.chain.build_s": "s",
    "groups.chain.levels": "count",
    "groups.chain.orbit_points": "count",
    "groups.chain.strong_generators": "count",
    "groups.chain.share": "ratio",
    "groups.sift.calls": "count",
    "groups.sift.self_s": "s",
    "groups.sift.member_ratio": "ratio",
    "groups.oracle.calls": "count",
    "groups.oracle.self_s": "s",
    "groups.oracle.states": "count",
    "groups.oracle.share": "ratio",
    "groups.closed_form.self_s": "s",
    "groups.group_order.self_s": "s",
    "elmsley.shortest_words.calls": "count",
    "elmsley.shortest_words.self_s": "s",
    "elmsley.words_found": "count",
    "special.trick_session.self_s": "s",
    "special.predict_from_ends.self_s": "s",
    "special.generate.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

#: Metrics that are exact counts: they must repeat exactly for one seed.
EXACT = [name for name, unit in LAYER_UNITS.items() if unit == "count"] + [
    "deck.validations_per_step",
    "groups.sift.member_ratio",
]


def layer_metrics(
    tracer: Tracer,
    traced_walls: list[float],
    overhead_s: float,
    output_bytes: int,
) -> dict[str, float]:
    """Reduce spans and counts to the per-layer metrics of ``LAYER_UNITS``.

    The two ``cli`` start-up probes are measured by ``run.py`` instead.

    Counts and self times cover set-up and the first traced pass, so they
    do not depend on how many passes fit in the run.  Shares are a layer's
    self time in a traced pass over that pass's wall time, median over
    traced passes.  ``overhead_s``, a traced pass's time less an
    untraced one's, is measured by the worker.
    """
    calls: collections.Counter = collections.Counter()
    self_s: collections.Counter = collections.Counter()
    per_pass: dict[int, collections.Counter] = collections.defaultdict(collections.Counter)
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, phase = span[0], span[4]
        if phase <= 1:
            calls[name] += 1
            self_s[name] += own
        if phase >= 1:
            per_pass[phase][name] += own

    def counted(key: str) -> int:
        return tracer.counts[(0, key)] + tracer.counts[(1, key)]

    def share(name: str) -> float:
        return statistics.median(
            per_pass[k + 1][name] / wall for k, wall in enumerate(traced_walls)
        )

    steps = counted("shuffles.steps")
    validations = counted("deck.validations")
    out = {
        "deck.validations": validations,
        "deck.validations_per_step": validations / steps if steps else 0.0,
        "shuffles.steps": steps,
        "groups.chain.build_s": self_s["groups.chain"],
        "groups.chain.levels": counted("groups.chain.levels"),
        "groups.chain.orbit_points": counted("groups.chain.orbit_points"),
        "groups.chain.strong_generators": counted("groups.chain.strong_generators"),
        "groups.chain.share": share("groups.chain"),
        "groups.sift.member_ratio": (
            counted("groups.sift.members") / calls["groups.sift"] if calls["groups.sift"] else 0.0
        ),
        "groups.oracle.states": counted("groups.oracle.states"),
        "groups.oracle.share": share("groups.oracle"),
        "elmsley.words_found": counted("elmsley.words_found"),
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": overhead_s,
    }
    for metric in LAYER_UNITS:
        if metric in out:
            continue
        stem, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[stem]
        elif kind == "self_s":
            out[metric] = self_s[stem]
    return out

