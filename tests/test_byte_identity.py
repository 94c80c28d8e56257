"""Byte identity of every analysis and run output across changes.

`byte_identity.json` holds three sha256 digests per (program, policy):
one each of the JSON export, the DOT export and the metrics report's
JSON, so a change of one output shows as that digest alone. The
programs are the whole corpus plus two generated call chains; the
policies are k in {0, 1} x gc on/off x pushdown/finite. Each program
also has the digest of the standard output of `anfj run` with the flags
in RUN_ARGV, the concrete trace line by line. A change that alters any
exported or printed byte fails here.

After a deliberate change of output, regenerate the table with

    PYTHONPATH=src python tests/test_byte_identity.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from anfj.cli import main
from anfj.domain import Policy
from anfj.engine import analyze
from anfj.export import export_dsg
from anfj.metrics import report
from anfj.syntax import load_program

from helpers import CHAINS, chain_sources, corpus_names, corpus_source

TABLE = pathlib.Path(__file__).with_name("byte_identity.json")
POLICIES = [Policy(k=k, gc=gc, mode=mode)
            for k in (0, 1) for gc in (True, False)
            for mode in ("pushdown", "finite")]
RUN_ARGV = ["--fuel", "2000", "--trace", "--json"]


def policy_name(policy: Policy) -> str:
    return f"k={policy.k} gc={'on' if policy.gc else 'off'} {policy.mode}"


def analysis_digest(dsg) -> dict:
    """Output name -> sha256 of an analysis's JSON export, DOT export
    and report."""
    outputs = {
        "json": export_dsg(dsg, "json"),
        "dot": export_dsg(dsg, "dot"),
        "report": json.dumps(report(dsg).to_dict(), sort_keys=True).encode(),
    }
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()}


def digests(source: str) -> dict:
    """Policy name -> the digests of the program's three outputs under
    it, and the digest of its concrete run."""
    lp = load_program(source)
    out = {policy_name(policy): analysis_digest(analyze(lp, policy))
           for policy in POLICIES}
    out["run " + " ".join(RUN_ARGV)] = _run_digest(source)
    return out


def _run_digest(source: str) -> str:
    """sha256 of what `anfj run` prints for the program."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "program.anfj"
        path.write_text(source)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["run", str(path), *RUN_ARGV]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _sources() -> dict:
    out = {name: corpus_source(name) for name in corpus_names()}
    out.update(chain_sources())
    return out


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text())


def test_table_covers_every_program(table):
    assert sorted(table) == sorted(list(corpus_names()) + list(CHAINS))


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_outputs_unchanged(name, table):
    assert digests(corpus_source(name)) == table[name]


@pytest.mark.parametrize("name", CHAINS)
def test_chain_outputs_unchanged(name, table):
    assert digests(chain_sources()[name]) == table[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_byte_identity.py --write")
    result = {name: digests(src) for name, src in _sources().items()}
    TABLE.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(result)} programs to {TABLE}")
