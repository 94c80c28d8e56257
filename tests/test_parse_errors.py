"""Parse-error positions, locked per corpus program.

`parse_errors.json` holds, for each corpus program, one entry per
token: the program with that token's characters cut out is loaded, and
the entry is the error it raises, `[class, message, line, column]`, or
`["loads", label count]` where it still loads. A change to the
tokenizer or the parser that moves an error, rewords it or turns it
into another shows up here.

After a deliberate change of errors, regenerate the table with

    PYTHONPATH=src python tests/test_parse_errors.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from anfj.syntax import AnfjError, load_program

from helpers import all_labels, corpus_names, corpus_source
from oracles import reference_tokens

TABLE = pathlib.Path(__file__).with_name("parse_errors.json")


def token_spans(src: str) -> list[tuple[int, int]]:
    """The (start, end) character offsets of every token of src."""
    line_starts = [0] + [i + 1 for i, c in enumerate(src) if c == "\n"]
    return [(line_starts[line - 1] + col - 1, line_starts[line - 1] + col - 1 + len(text))
            for kind, text, line, col in reference_tokens(src) if kind != "eof"]


def outcome(src: str) -> list:
    """What loading src gives: its error or its label count."""
    try:
        lp = load_program(src)
    except AnfjError as err:
        return [type(err).__name__, err.message, err.line, err.col]
    return ["loads", len(all_labels(lp))]


def outcomes(src: str) -> list[list]:
    """The outcome of src with each token cut out in turn."""
    return [outcome(src[:start] + src[end:]) for start, end in token_spans(src)]


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text())


def test_table_covers_every_program(table):
    assert sorted(table) == corpus_names()


@pytest.mark.parametrize("name", corpus_names())
def test_parse_errors_unchanged(name, table):
    assert outcomes(corpus_source(name)) == table[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_parse_errors.py --write")
    result = {name: outcomes(corpus_source(name)) for name in corpus_names()}
    # one outcome a line
    TABLE.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(f" {json.dumps(o)}" for o in rows) + "\n]"
        for name, rows in sorted(result.items())) + "\n}\n")
    print(f"wrote {len(result)} programs to {TABLE}")
