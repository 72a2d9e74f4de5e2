import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflelab import cli
from shufflelab.cli import main
from shufflelab.deck import Deck
from shufflelab.shuffles import Shuffle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


# -- golden outputs for worked examples ---------------------------------------


def test_apply_flip_in(capsys):
    code, out, _ = run_cli(capsys, "apply", "--size", "10", "--word", "flip-in")
    assert code == 0
    assert out == "~9 0 ~8 1 ~7 2 ~6 3 ~5 4\n"


def test_apply_with_explicit_deck(capsys):
    code, out, _ = run_cli(
        capsys,
        "apply",
        "--size",
        "10",
        "--word",
        "flip-in",
        "--deck",
        "~9 0 ~8 1 ~7 2 ~6 3 ~5 4",
    )
    assert code == 0
    assert out == "~4 ~9 5 0 ~3 ~8 6 1 ~2 ~7\n"


def test_order_full_deck_out_faro(capsys):
    code, out, _ = run_cli(capsys, "order", "--size", "52", "--word", "faro-out")
    assert code == 0
    assert out == "8\n"


def test_eight_out_faros_restore_the_deck(capsys):
    word = ", ".join(["faro-out"] * 8)
    code, out, _ = run_cli(capsys, "apply", "--size", "52", "--word", word)
    assert code == 0
    assert out == " ".join(str(i) for i in range(52)) + "\n"


def test_order_flip_out_ten(capsys):
    code, out, _ = run_cli(capsys, "order", "--size", "10", "--word", "flip-out")
    assert code == 0
    assert out == "18\n"


def test_trick_prediction(capsys):
    code, out, _ = run_cli(capsys, "trick", "--k", "3", "--left", "4", "--right", "6")
    assert code == 0
    assert out == "4 8 3 7 5 A 2 6\n"


def test_trick_accepts_display_names(capsys):
    # the eight stands for card 0, A for the ace
    code, out, _ = run_cli(capsys, "trick", "--k", "3", "--left", "8", "--right", "2")
    assert code == 0
    assert out == "8 4 7 3 A 5 6 2\n"
    # ends 8 (=0) and 2 differ in the 2^1 bit, so generation starts at bit2
    from shufflelab.special import DiagramOp, generate

    assert generate(3, 0, DiagramOp.flip_bit(2)).display() == out.strip()


def test_diagram_sixteen_card_ordering(capsys):
    code, out, _ = run_cli(
        capsys, "diagram", "--k", "4", "--first", "11", "--start", "bit2"
    )
    assert code == 0
    assert out == "11 15 3 7 4 0 12 8 10 14 2 6 5 1 13 9\n"


def test_route_example(capsys):
    code, out, _ = run_cli(
        capsys, "route", "--size", "52", "--family", "faro", "--to", "20"
    )
    assert code == 0
    assert out == "in, out, in, out, out\n"


def test_elmsley_two_alternatives(capsys):
    code, out, _ = run_cli(
        capsys, "elmsley", "--size", "10", "--family", "horse", "--from", "2"
    )
    assert code == 0
    assert out == "in, out, in\nout, in, in\n"


def test_group_order_plain_and_checked(capsys):
    code, out, _ = run_cli(capsys, "group-order", "--family", "horse", "--size", "12")
    assert code == 0
    assert out == "95040\n"
    code, out, _ = run_cli(
        capsys, "group-order", "--family", "horse", "--size", "12", "--check"
    )
    assert code == 0
    assert out == (
        "computed: 95040\n"
        "closed-form: 95040 = 8 * 9 * 10 * 11 * 12 [2n = 12]\n"
        "match: yes\n"
    )


def test_group_order_factored(capsys):
    code, out, _ = run_cli(
        capsys, "group-order", "--family", "faro", "--size", "12", "--factored"
    )
    assert code == 0
    assert out == "7680 = 2^9 * 3 * 5\n"


def test_verify_exits_zero_on_match(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "horse", "--sizes", "4,6,8,10,12"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == 'horse(4): computed=12 closed=12 [3 * 2^2] case="2n = 2^k" match=yes'
    assert all("match=yes" in line for line in lines)


def test_verify_exits_nonzero_on_refused_entry(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "horse", "--sizes", "2,6")
    assert code == 1
    assert "error" in out.splitlines()[0]


def test_verify_reports_sizes_above_the_deck_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "flip", "--sizes", "65538")
    assert code == 1
    assert out == "flip(65538): error: deck size 65538 exceeds cap 65536\n"


# -- structured output agrees with text ---------------------------------------


def test_apply_json(capsys):
    _, text, _ = run_cli(capsys, "apply", "--size", "10", "--word", "flip-in")
    code, payload = run_json(capsys, "apply", "--size", "10", "--word", "flip-in")
    assert code == 0
    assert payload == {"size": 10, "word": "flip-in", "deck": text.strip()}


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_apply_formats_the_result_once(capsys, monkeypatch, json_flag):
    calls = []
    deck_str = Deck.__str__

    def counted(deck):
        calls.append(deck)
        return deck_str(deck)

    monkeypatch.setattr(Deck, "__str__", counted)
    code, _, _ = run_cli(capsys, "apply", "--size", "10", "--word", "flip-in", *json_flag)
    assert code == 0
    assert len(calls) == 1


def test_order_json(capsys):
    code, payload = run_json(capsys, "order", "--size", "52", "--word", "faro-out")
    assert code == 0
    assert payload == {"size": 52, "word": "faro-out", "order": 8}


def test_group_order_json(capsys):
    code, payload = run_json(
        capsys, "group-order", "--family", "horse", "--size", "12", "--check"
    )
    assert code == 0
    assert payload["order"] == 95040
    assert payload["closed_form"] == 95040
    assert payload["case"] == "2n = 12"
    assert payload["match"] is True


def test_verify_json(capsys):
    code, payload = run_json(capsys, "verify", "--family", "flip", "--sizes", "4,6")
    assert code == 0
    assert payload["all_match"] is True
    assert [r["computed"] for r in payload["reports"]] == [24, 7680]


def test_elmsley_json(capsys):
    code, payload = run_json(
        capsys, "elmsley", "--size", "10", "--family", "horse", "--from", "2"
    )
    assert code == 0
    assert payload["length"] == 3
    assert payload["words"] == [["in", "out", "in"], ["out", "in", "in"]]


def test_route_json(capsys):
    code, payload = run_json(
        capsys, "route", "--size", "52", "--family", "faro", "--to", "20"
    )
    assert code == 0
    assert payload["word"] == ["in", "out", "in", "out", "out"]


def test_trick_json(capsys):
    code, payload = run_json(capsys, "trick", "--k", "3", "--left", "4", "--right", "6")
    assert code == 0
    assert payload["values"] == [4, 0, 3, 7, 5, 1, 2, 6]
    assert payload["display"] == "4 8 3 7 5 A 2 6"
    assert payload["start"] == "bit2"
    assert payload["skipped"] == "bit1"


def test_diagram_json(capsys):
    code, payload = run_json(
        capsys, "diagram", "--k", "3", "--first", "4", "--start", "bit2"
    )
    assert code == 0
    assert payload["values"] == [4, 0, 3, 7, 5, 1, 2, 6]


# -- exit codes ---------------------------------------------------------------


def test_domain_errors_exit_one(capsys):
    code, out, err = run_cli(capsys, "apply", "--size", "3", "--word", "flip-in")
    assert code == 1
    assert out == ""
    assert "error:" in err
    code, _, err = run_cli(capsys, "order", "--size", "10", "--word", "nonsense")
    assert code == 1
    assert "unknown shuffle token" in err
    code, _, err = run_cli(
        capsys, "apply", "--size", "10", "--word", "flip-in", "--deck", "0 1 2 3"
    )
    assert code == 1
    code, _, err = run_cli(capsys, "trick", "--k", "3", "--left", "4", "--right", "9")
    assert code == 1
    code, _, err = run_cli(capsys, "group-order", "--family", "horse", "--size", "258")
    assert code == 1
    assert err == "error: group on 258 points exceeds the chain budget of 256 points\n"


@pytest.mark.parametrize("size", ["7", "0", "-4"])
def test_order_of_empty_word_checks_the_size(capsys, size):
    code, out, err = run_cli(capsys, "order", "--size", size, "--word", ",")
    assert code == 1
    assert out == ""
    assert err == f"error: deck size must be even and >= 2, got {size}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("order", "--word", "faro-out"),
        ("elmsley", "--family", "faro", "--from", "3"),
        ("route", "--family", "horse", "--to", "3"),
    ],
)
def test_deck_size_cap_applies_to_every_command(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--size", "131072")
    assert code == 1
    assert out == ""
    assert err == "error: deck size 131072 exceeds cap 65536\n"
    code, out, _ = run_cli(capsys, *argv, "--size", "65536")
    assert code == 0
    assert out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["apply", "--size", "10"])  # missing --word
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["group-order", "--family", "bogus", "--size", "8"])
    assert info.value.code == 2
    # number options read digits only, as card and ``--sizes`` tokens do
    for argv, token in (
        (["group-order", "--family", "faro", "--size", "1_0"], "1_0"),
        (["group-order", "--family", "faro", "--size", "+10"], "+10"),
        (["trick", "--k", " 3", "--left", "A", "--right", "3"], " 3"),
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"invalid int value: {token!r}" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shufflelab", "trick", "--k", "3", "--left", "4", "--right", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4 8 3 7 5 A 2 6\n"


def test_a_closed_pipe_ends_quietly():
    # about 380 KB of output, more than a pipe holds: the reader closes its
    # end after 5 bytes, as ``| head -c 5`` does
    argv = ["diagram", "--k", "16", "--first", "1", "--start", "bit3"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "shufflelab", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(5)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert len(head) == 5
    assert b"Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("apply", "--size", "2", "--word", "faro-out", "--deck", "² 0"),
            "error: bad card token '²'\n",
        ),
        (
            ("diagram", "--k", "3", "--first", "0", "--start", "bit²"),
            "error: unknown diagram operation 'bit²'\n",
        ),
        (
            ("trick", "--k", "-1", "--left", "1", "--right", "2"),
            "error: k must be in 1..16, got -1\n",
        ),
        (
            ("trick", "--k", "99999999999", "--left", "1", "--right", "2"),
            "error: k must be in 1..16, got 99999999999\n",
        ),
        (
            ("verify", "--family", "faro", "--sizes", ","),
            "error: no sizes in size list ','\n",
        ),
        (
            ("verify", "--family", "faro", "--sizes", " "),
            "error: no sizes in size list ' '\n",
        ),
        (
            ("verify", "--family", "faro", "--sizes", "1_0"),
            "error: bad size list '1_0'\n",
        ),
        (
            ("verify", "--family", "faro", "--sizes", "4, +8"),
            "error: bad size list '4, +8'\n",
        ),
    ],
    ids=[
        "superscript-card",
        "superscript-bit",
        "negative-k",
        "huge-k",
        "comma",
        "blank",
        "underscore-size",
        "signed-size",
    ],
)
def test_bad_tokens_and_empty_lists_are_error_lines(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == message


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", "--size", "2", "--word", "faro-out", "--deck", "1" * 5000 + " 0"),
        ("diagram", "--k", "3", "--first", "1", "--start", "bit" + "1" * 5000),
        ("trick", "--k", "4", "--left", "1_0", "--right", "11"),
        ("trick", "--k", "4", "--left", "+3", "--right", "11"),
    ],
    ids=["long-card", "long-bit", "underscore-card", "signed-card"],
)
def test_tokens_int_reads_but_isdecimal_refuses_are_error_lines(capsys, argv):
    # int() refuses over 4300 digits and takes "1_0" and "+3"; tokens are digits only
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_a_bad_size_in_a_size_list_is_an_error_line(capsys):
    code, out, err = run_cli(capsys, "verify", "--family", "faro", "--sizes", "8,x")
    assert code == 1
    assert out == ""
    assert err == "error: bad size list '8,x'\n"


# -- fuzzed command lines -----------------------------------------------------

#: Odd number texts: blank, comma, signs, ``_``, another script's digit,
#: more digits than ``int`` reads, and a face-up mark.  Every number the
#: CLI reads goes through ``deck._decimal``, which takes the other script's
#: digit and refuses the rest; a number option also takes ``-4`` and leaves
#: its refusal to the library.
BAD_NUMBERS = ["", ",", "+4", "-4", "1_0", "\u0663", "9" * 5000, "~2"]


def mostly(valid, odd):
    """Valid values two times in three, odd ones the third."""
    return st.one_of(valid, valid, odd)


def numbers(valid, edges):
    """The text of a valid number, else of an edge value or a refused form."""
    odd = st.sampled_from([str(e) for e in edges]) | st.sampled_from(BAD_NUMBERS)
    return mostly(valid.map(str), odd)


def joined(items, max_size, separators):
    return st.builds(
        lambda parts, sep: sep.join(parts),
        st.lists(items, max_size=max_size),
        st.sampled_from(separators),
    )


# decks of at most 1024 cards and chains of at most 64, each with the
# values at and past the deck cap (2^16) and the chain budget (256 points)
DECK_SIZES = numbers(st.integers(1, 512).map(lambda n: 2 * n), (0, 1, 7, 65536, 65538))
CHAIN_SIZES = numbers(
    st.integers(1, 32).map(lambda n: 2 * n), (0, 7, 128, 256, 258, 65536, 65538)
)
TOKENS = [f"{inv}{kind.value}" for kind in Shuffle for inv in ("", "inv:")]
ODD_TOKENS = ["", "INV:", "inv:inv:milk", "inv: milk", "Flip-In", "\u0663"]
WORDS = joined(mostly(st.sampled_from(TOKENS), st.sampled_from(ODD_TOKENS)), 8, [", ", ",", " "])
# a permutation of 2..16 cards, some face-up, or tokens that are mostly no deck
DECKS = st.builds(
    lambda cards, up: " ".join("~" * (up >> c & 1) + str(c) for c in cards),
    st.integers(1, 8).flatmap(lambda n: st.permutations(range(2 * n))),
    st.integers(0, 0xFFFF),
) | joined(numbers(st.integers(0, 15), ("~0", "~", "~~1", "A")), 16, [" "])
FAMILIES = mostly(st.sampled_from(["faro", "flip", "horse"]), st.sampled_from(["HORSE", ""]))
POSITION_FAMILIES = mostly(st.sampled_from(["faro", "horse"]), st.sampled_from(["flip", "milk"]))
POSITIONS = numbers(st.integers(0, 1023), (-1, 1024, 65536))
K = numbers(st.integers(1, 10), (0, -1, 17))
TRICK_CARDS = numbers(st.integers(0, 1024), ("A", "a", "~1"))
STARTS = mostly(
    st.sampled_from(["complement", *(f"bit{j}" for j in range(12))]),
    st.sampled_from(["bit", "bit-1", "bit\u0663", "bit" + "1" * 5000]),
)

#: Each command's options: a value strategy, or None for a flag.
COMMAND_OPTIONS = {
    "apply": {"--size": DECK_SIZES, "--word": WORDS, "--deck": DECKS},
    "order": {"--size": DECK_SIZES, "--word": WORDS},
    "group-order": {
        "--family": FAMILIES,
        "--size": CHAIN_SIZES,
        "--factored": None,
        "--check": None,
    },
    "verify": {"--family": FAMILIES, "--sizes": joined(CHAIN_SIZES, 4, [",", ", "])},
    "elmsley": {
        "--size": DECK_SIZES,
        "--family": POSITION_FAMILIES,
        "--from": POSITIONS,
        "--to": POSITIONS,
    },
    "route": {"--size": DECK_SIZES, "--family": POSITION_FAMILIES, "--to": POSITIONS},
    "trick": {"--k": K, "--left": TRICK_CARDS, "--right": TRICK_CARDS},
    "diagram": {"--k": K, "--first": POSITIONS, "--start": STARTS},
    "shuffle": {},
}


@st.composite
def command_lines(draw):
    """A command, then each of its options and flags (``--json`` too) or not."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    options = {"--json": None, **COMMAND_OPTIONS[command]}
    argv = [command]
    for option in draw(st.permutations(sorted(options))):
        value = options[option]
        if value is None:  # a flag
            argv += [option] * draw(st.booleans())
        elif draw(st.integers(0, 15)):  # an option, left out one time in 16
            argv += [option, draw(value)]
    if command == "apply" and "--deck" in argv and draw(st.booleans()):
        # a deck whose size matches, so that some decks get applied
        cards = argv[argv.index("--deck") + 1].split()
        argv += ["--size", str(len(cards))]
    return argv


def failed_rows(out, as_json):
    """The rows of ``verify`` output that are errors or mismatches."""
    if as_json:
        return [r for r in json.loads(out)["reports"] if r["error"] or not r["match"]]
    return [r for r in out.splitlines() if ": error: " in r or r.endswith(" match=no")]


@settings(max_examples=400, deadline=2000)
@given(argv=command_lines())
def test_any_command_line_exits_zero_one_or_two_and_says_why(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    as_json = "--json" in argv
    assert code in (0, 1, 2)
    if code == 0:
        assert err == "" and out.endswith("\n")
        if as_json:
            json.loads(out)
    elif code == 2:
        assert out == "" and "error:" in err
    elif argv[0] == "verify" and err == "":
        # verify prints each size it refuses as an error row
        assert failed_rows(out, as_json)
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# -- start-up: what each command loads, and the names a tracer wraps ----------

#: Modules that ``apply``, ``order`` and ``route`` never need.
DEFERRED = ("shufflelab.groups", "shufflelab.special", "shufflelab.elmsley", "dataclasses", "json")

#: Runs one command in a fresh process, then prints the modules of DEFERRED
#: it loaded that were not loaded before shufflelab was imported.
FOOTPRINT_PROBE = """
import sys
before = set(sys.modules)
from shufflelab.cli import main
main(sys.argv[2:])
loaded = [m for m in sys.argv[1].split(",") if m in sys.modules and m not in before]
print(",".join(loaded), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["apply", "--size", "8", "--word", "faro-in, inv:milk"], ()),
        (["order", "--size", "8", "--word", "flip-out"], ()),
        (["route", "--size", "8", "--family", "horse", "--to", "5"], ()),
        (["apply", "--size", "8", "--word", "faro-in", "--json"], ("json",)),
        (["group-order", "--family", "faro", "--size", "8", "--check"], ("shufflelab.groups",)),
        (["verify", "--family", "horse", "--sizes", "4,6"], ("shufflelab.groups",)),
        (["elmsley", "--size", "8", "--family", "faro", "--from", "3"], ("shufflelab.elmsley",)),
        (["trick", "--k", "3", "--left", "4", "--right", "6"], ("shufflelab.special",)),
        (["diagram", "--k", "3", "--first", "1", "--start", "bit0"], ("shufflelab.special",)),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(argv, loads):
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, ",".join(DEFERRED), *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == ",".join(loads)


LAZY_PACKAGE_PROBE = """
import json, sys
import shufflelab
bare = sorted(m for m in sys.modules if m.startswith("shufflelab."))
star = {}
exec("from shufflelab import *", star)
missing = [name for name in shufflelab.__all__ if name not in star]
same = all(star[name] is getattr(shufflelab, name) for name in shufflelab.__all__)
modules = [shufflelab.groups.__name__, shufflelab.special.__name__]
print(json.dumps([bare, missing, same, modules]))
"""


def test_the_package_resolves_its_names_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_PACKAGE_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    bare, missing, same, modules = json.loads(proc.stdout)
    assert bare == []
    assert missing == []
    assert same
    assert modules == ["shufflelab.groups", "shufflelab.special"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("apply_word", ["apply", "--size", "8", "--word", "faro-in"]),
        ("element_order", ["order", "--size", "8", "--word", "faro-in"]),
        ("route_top_to", ["route", "--size", "8", "--family", "faro", "--to", "3"]),
        ("group_order", ["group-order", "--family", "faro", "--size", "8"]),
        ("closed_form_order", ["group-order", "--family", "faro", "--size", "8", "--check"]),
        ("verify_theorem", ["verify", "--family", "faro", "--sizes", "8"]),
        ("shortest_words", ["elmsley", "--size", "8", "--family", "faro", "--from", "3"]),
        ("predict_from_ends", ["trick", "--k", "3", "--left", "4", "--right", "6"]),
        ("generate", ["diagram", "--k", "3", "--first", "1", "--start", "bit0"]),
    ],
)
def test_handlers_look_their_library_calls_up_on_cli_at_call_time(
    capsys, monkeypatch, name, argv
):
    # a tracer wraps these names on ``cli`` and must see every call
    original = getattr(cli, name)
    calls = []

    def traced(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, traced)
    expected = run_cli(capsys, *argv)
    monkeypatch.undo()
    assert calls == [name]
    assert run_cli(capsys, *argv) == expected
