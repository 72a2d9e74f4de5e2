"""Exact stdout and exit code of every subcommand, text and ``--json``.

The expected outputs live in ``tests/data/cli_golden.json``.  After an
intended output change, rewrite that file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
"""

import contextlib
import io
import json
import pathlib

import pytest

from shufflelab.cli import main
from shufflelab.special import SpecialOrdering

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

#: Each command runs twice, as text and with ``--json``.
COMMANDS = [
    ["apply", "--size", "10", "--word", "flip-in", "--deck", "~9 0 ~8 1 ~7 2 ~6 3 ~5 4"],
    ["apply", "--size", "8", "--word", ""],
    ["apply", "--size", "12", "--word", "faro-out, inv:milk, monge-over, turnover"],
    ["order", "--size", "52", "--word", "faro-out"],
    ["group-order", "--family", "horse", "--size", "12"],
    ["group-order", "--family", "faro", "--size", "24", "--factored"],
    ["group-order", "--family", "flip", "--size", "6", "--check"],
    ["group-order", "--family", "faro", "--size", "12", "--factored", "--check"],
    ["verify", "--family", "faro", "--sizes", "2,7,8,12,258"],
    ["verify", "--family", "flip", "--sizes", "4,6"],
    ["elmsley", "--size", "10", "--family", "faro", "--from", "3", "--to", "3"],
    ["elmsley", "--size", "52", "--family", "horse", "--from", "11"],
    ["route", "--size", "52", "--family", "faro", "--to", "0"],
    ["route", "--size", "52", "--family", "horse", "--to", "20"],
    ["trick", "--k", "3", "--left", "A", "--right", "8"],
    ["trick", "--k", "4", "--left", "16", "--right", "8"],
    ["diagram", "--k", "3", "--first", "1", "--start", "bit0"],
    ["diagram", "--k", "4", "--first", "0", "--start", "complement"],
]

CASES = [argv + extra for argv in COMMANDS for extra in ([], ["--json"])]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def load_golden() -> dict:
    cases = json.loads(GOLDEN.read_text())
    return {tuple(case["argv"]): case for case in cases}


def test_golden_file_covers_every_case():
    assert sorted(load_golden()) == sorted(map(tuple, CASES))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert run(argv) == load_golden()[tuple(argv)]


@pytest.mark.parametrize(
    "argv", [argv for argv in COMMANDS if argv[0] in ("trick", "diagram")], ids=" ".join
)
def test_text_output_builds_no_json_payload(monkeypatch, argv):
    def refuse(self):
        raise AssertionError("JSON payload built for text output")

    monkeypatch.setattr(SpecialOrdering, "to_dict", refuse)
    assert run(argv) == load_golden()[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
