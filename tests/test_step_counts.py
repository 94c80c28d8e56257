"""The engines' work counters, locked per program and policy.

`step_counts.json` holds `DSG.stats` without its wall time (steps, step
causes, full steps, delta passes, delta addresses, nodes and edges) for
every (program, policy) pair: the corpus, the generated call CHAINS and
a generated 48-site fan-in, under the byte-identity policies. A change
meant only to make steps cheaper must leave every counter as it was;
one that changes how much work the fixpoint does shows up here first.

After a deliberate change of the work done, regenerate the table with

    PYTHONPATH=src python tests/test_step_counts.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from anfj.engine import analyze

from helpers import CHAINS, FANIN, corpus_names, named_program
from test_byte_identity import POLICIES, policy_name

TABLE = pathlib.Path(__file__).with_name("step_counts.json")
NAMES = list(corpus_names()) + list(CHAINS) + [FANIN]


def counts(lp) -> dict:
    """Policy name -> the analysis's DSG.stats without "seconds"."""
    out = {}
    for policy in POLICIES:
        stats = dict(analyze(lp, policy).stats)
        del stats["seconds"]
        out[policy_name(policy)] = stats
    return out


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text())


def test_table_covers_every_program(table):
    assert sorted(table) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_work_counters_unchanged(name, table):
    assert counts(named_program(name)) == table[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_step_counts.py --write")
    result = {name: counts(named_program(name)) for name in NAMES}
    TABLE.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(result)} programs to {TABLE}")
