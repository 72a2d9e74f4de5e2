"""Command-line front end; every capability, no domain logic.

Exit codes: 0 success, 1 domain error (or verification mismatch),
2 usage error.  Output is deterministic and newline-terminated; every
command also takes ``--json`` for a structured equivalent.

Start-up imports only ``deck`` and ``shuffles``, which ``apply``,
``order`` and ``route`` need.  The other commands load their module,
``groups``, ``elmsley`` or ``special``, when they first call it, and
``json`` loads only under ``--json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import Callable, Optional, Sequence

from .deck import Deck, ShuffleLabError, _decimal
from .shuffles import (
    POSITION_FAMILIES,
    Family,
    apply_word,
    element_order,
    format_word,
    inout_text,
    inout_tokens,
    parse_word,
    route_top_to,
)


def _deferred(module: str, name: str):
    """A stand-in for ``module.name`` that imports the module when first called.

    The name is looked up on its module at every call, and the handlers
    look the stand-in up on this module at every call, so a wrapper put
    in either place sees each call.
    """

    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


closed_form_order = _deferred("groups", "closed_form_order")
group_order = _deferred("groups", "group_order")
verify_theorem = _deferred("groups", "verify_theorem")
shortest_words = _deferred("elmsley", "shortest_words")
predict_from_ends = _deferred("special", "predict_from_ends")
generate = _deferred("special", "generate")


def _emit(args: argparse.Namespace, text: str, payload: Callable[[], dict]) -> None:
    """Print ``text``, or under ``--json`` the payload, built only then."""
    if args.json:
        import json

        text = json.dumps(payload(), sort_keys=True)
    # flushed here, so that a closed pipe raises inside ``main``, not at exit
    print(text, flush=True)


def _number(text: str) -> int:
    """A number option's value: ``deck._decimal``'s digits after at most one ``-``.

    A negative value reaches the library, which refuses it with its own message.
    """
    negative = text.startswith("-")
    value = _decimal(text[1:] if negative else text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return -value if negative else value


def _parse_sizes(text: str) -> list[int]:
    """The sizes of a comma-separated list, each token read by ``deck._decimal``."""
    sizes = [_decimal(t.strip()) for t in text.split(",") if t.strip()]
    if None in sizes:
        raise ShuffleLabError(f"bad size list {text!r}")
    if not sizes:
        raise ShuffleLabError(f"no sizes in size list {text!r}")
    return sizes


def _cmd_apply(args: argparse.Namespace) -> int:
    word = parse_word(args.word) if args.word else ()
    deck = Deck.parse(args.deck) if args.deck else Deck.identity(args.size)
    if deck.size != args.size:
        raise ShuffleLabError(f"--deck has size {deck.size}, --size says {args.size}")
    text = str(apply_word(word, deck))
    _emit(
        args, text, lambda: {"size": args.size, "word": format_word(word), "deck": text}
    )
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    word = parse_word(args.word)
    order = element_order(word, args.size)
    _emit(
        args,
        str(order),
        lambda: {"size": args.size, "word": format_word(word), "order": order},
    )
    return 0


def _cmd_group_order(args: argparse.Namespace) -> int:
    family = Family.parse(args.family)
    order = group_order(family, args.size)
    payload: dict = {"family": family.value, "size": args.size, "order": order}
    order_text = str(order)
    if args.factored:
        from .groups import factored

        payload["order_factored"] = factored(order)
        order_text += f" = {payload['order_factored']}"
    if not args.check:
        _emit(args, order_text, lambda: payload)
        return 0
    closed = closed_form_order(family, args.size)
    match = order == closed.value
    payload.update(
        {
            "closed_form": closed.value,
            "closed_factored": closed.factored,
            "case": closed.case,
            "match": match,
        }
    )
    lines = [
        f"computed: {order_text}",
        f"closed-form: {closed.value} = {closed.factored} [{closed.case}]",
        f"match: {'yes' if match else 'no'}",
    ]
    _emit(args, "\n".join(lines), lambda: payload)
    return 0 if match else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    family = Family.parse(args.family)
    reports = verify_theorem(family, _parse_sizes(args.sizes))
    all_match = all(r.match for r in reports)
    _emit(
        args,
        "\n".join(r.line() for r in reports),
        lambda: {
            "family": family.value,
            "reports": [r.to_dict() for r in reports],
            "all_match": all_match,
        },
    )
    return 0 if all_match else 1


def _cmd_elmsley(args: argparse.Namespace) -> int:
    family = Family.parse(args.family)
    solutions = shortest_words(args.size, family, args.source, args.to)
    _emit(args, solutions.render(), solutions.to_dict)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    family = Family.parse(args.family)
    word = route_top_to(args.to, args.size, family)
    _emit(
        args,
        inout_text(word),
        lambda: {
            "size": args.size,
            "family": family.value,
            "to": args.to,
            "word": inout_tokens(word),
        },
    )
    return 0


def _cmd_trick(args: argparse.Namespace) -> int:
    from .special import card_name, card_value

    left = card_value(args.left, args.k)
    right = card_value(args.right, args.k)
    ordering = predict_from_ends(args.k, left, right)
    _emit(
        args,
        ordering.display(),
        lambda: {
            **ordering.to_dict(),
            "left": card_name(left, args.k),
            "right": card_name(right, args.k),
            "skipped": str(ordering.skipped()),
        },
    )
    return 0


def _cmd_diagram(args: argparse.Namespace) -> int:
    from .special import DiagramOp

    start = DiagramOp.parse(args.start)
    ordering = generate(args.k, args.first, start)
    _emit(args, ordering.text(), ordering.to_dict)
    return 0


def build_parser() -> argparse.ArgumentParser:
    position_families = [f.value for f in POSITION_FAMILIES]
    parser = argparse.ArgumentParser(
        prog="shufflelab",
        description="Perfect shuffles: apply them, order them, verify their groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit structured output")
        return p

    p = add("apply", _cmd_apply, "apply a shuffle word to a deck")
    p.add_argument("--size", type=_number, required=True)
    p.add_argument("--word", required=True, help="e.g. 'flip-in, inv:milk'")
    p.add_argument("--deck", help="deck text; default is the sorted face-down deck")

    p = add("order", _cmd_order, "repetitions of a word restoring the deck")
    p.add_argument("--size", type=_number, required=True)
    p.add_argument("--word", required=True)

    p = add("group-order", _cmd_group_order, "exact order of a shuffle group")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--size", type=_number, required=True)
    p.add_argument("--factored", action="store_true", help="show prime factorization")
    p.add_argument("--check", action="store_true", help="compare to the closed form")

    p = add("verify", _cmd_verify, "check computed orders against the closed forms")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--sizes", required=True, help="comma-separated deck sizes")

    p = add("elmsley", _cmd_elmsley, "all minimal in/out words between positions")
    p.add_argument("--size", type=_number, required=True)
    p.add_argument("--family", required=True, choices=position_families)
    p.add_argument("--from", dest="source", type=_number, required=True)
    p.add_argument("--to", type=_number, default=0)

    p = add("route", _cmd_route, "binary-method word moving the top card")
    p.add_argument("--size", type=_number, required=True)
    p.add_argument("--family", required=True, choices=position_families)
    p.add_argument("--to", type=_number, required=True)

    p = add("trick", _cmd_trick, "predict a shuffled 2^k packet from its end cards")
    p.add_argument("--k", type=_number, required=True)
    p.add_argument("--left", required=True, help="left end card (A for the ace)")
    p.add_argument("--right", required=True, help="right end card")

    p = add("diagram", _cmd_diagram, "generate a special ordering by doubling")
    p.add_argument("--k", type=_number, required=True)
    p.add_argument("--first", type=_number, required=True)
    p.add_argument("--start", required=True, help="bitJ or complement")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ShuffleLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left (``| head``): silence the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
