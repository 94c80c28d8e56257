"""CPython's cyclic collector and the command line.

`cli.main` pauses the collector for the whole command and restores the
caller's setting on every exit. That is safe only while no command
leaves a reference cycle behind, since with the collector paused a
cycle is never freed: the first test fails as soon as one does.
"""

import gc
import os
import sys

import pytest

from anfj import cli
from anfj.cli import build_parser, main

from helpers import CHAINS, CORPUS_DIR, chain_sources, corpus_names

MINIMAL = str(CORPUS_DIR / "minimal.anfj")
RECURSIVE = str(CORPUS_DIR / "infinite_recursion.anfj")
MUTUAL = str(CORPUS_DIR / "mutual_recursion.anfj")


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's setting on entry to the command, the test's
    parameter; the setting before the test is restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def _program_path(name: str, tmp_path) -> str:
    if name not in CHAINS:
        return str(CORPUS_DIR / f"{name}.anfj")
    path = tmp_path / f"{name}.anfj"
    path.write_text(chain_sources()[name])
    return str(path)


def _cyclic_garbage(argv: list) -> tuple:
    """(exit code, objects gc.collect finds) of one command, with the
    parser built (its one build per process is the test below)."""
    build_parser()
    gc.collect()
    code = main(argv)
    return code, gc.collect()


# -- no command leaves cyclic garbage ---------------------------------------------

@pytest.mark.parametrize("name", [*corpus_names(), *CHAINS])
def test_no_command_leaves_cyclic_garbage(name, tmp_path, capsys):
    path = _program_path(name, tmp_path)
    blob, dot = str(tmp_path / "g.json"), str(tmp_path / "g.dot")
    argvs = [["analyze", path, "--mode", mode, "--gc", on, "--stats",
              "--report-json", "--json", blob, "--dot", dot]
             for mode in ("pushdown", "finite") for on in ("on", "off")]
    argvs.append(["run", path, "--trace", "--json", "--fuel", "2000"])
    for argv in argvs:
        assert _cyclic_garbage(argv) == (0, 0), argv


@pytest.mark.parametrize("argv, code", [
    (["run", RECURSIVE, "--fuel", "20000"], 0),
    (["run", RECURSIVE, "--trace", "--fuel", "2000"], 0),
    (["run", "no/such/file.anfj"], 1),
    (["analyze", MUTUAL, "--budget-nodes", "2"], 2),
    (["compare", MUTUAL, "--a", "k=0", "--b", "k=1"], 0),
    (["compare", MUTUAL, "--a", "k=0", "--b", "k=1",
      "--budget-nodes", "2"], 2),
])
def test_no_exit_leaves_cyclic_garbage(argv, code, capsys):
    assert _cyclic_garbage(argv) == (code, 0)


def test_a_parse_error_leaves_no_cyclic_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.anfj"
    bad.write_text("class {")
    assert _cyclic_garbage(["analyze", str(bad)]) == (1, 0)
    assert capsys.readouterr().err.startswith("error:")


def test_only_the_parser_build_leaves_cycles_and_only_argparses():
    # argparse makes a HelpFormatter to check each argument it adds,
    # and a formatter and its sections refer to each other; the parser
    # is built once per process, so these cycles are made once
    build_parser.cache_clear()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build_parser()
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kinds <= {"HelpFormatter", "_Section", "list", "tuple", "method"}


# -- the caller's setting is restored -----------------------------------------------

def _closed_pipe(argv, monkeypatch) -> int:
    """main(argv) writing to a pipe whose reader is gone."""
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as out, monkeypatch.context() as m:
        m.setattr(sys, "stdout", out)
        return main(argv)


def test_every_exit_restores_the_callers_setting(collector, tmp_path,
                                                  monkeypatch, capsys):
    bad = tmp_path / "bad.anfj"
    bad.write_text("class {")
    exits = [
        (["run", MINIMAL], 0),
        (["run", "no/such/file.anfj"], 1),
        (["analyze", str(bad)], 1),
        (["analyze", MUTUAL, "--budget-nodes", "2"], 2),
    ]
    for argv, code in exits:
        assert main(argv) == code, argv
        assert gc.isenabled() is collector, argv
    assert _closed_pipe(["run", MINIMAL], monkeypatch) == 1
    assert gc.isenabled() is collector
    with pytest.raises(SystemExit) as usage:
        main(["run", MINIMAL, "--fuel", "-1"])
    assert usage.value.code == 1
    assert gc.isenabled() is collector


def test_an_escaping_exception_restores_the_callers_setting(
        collector, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("escapes")
    monkeypatch.setattr(cli, "run", fail)
    with pytest.raises(RuntimeError):
        main(["run", MINIMAL])
    assert gc.isenabled() is collector


# -- the collector stays paused inside a command --------------------------------------

def test_no_collection_runs_inside_a_command(collector, monkeypatch, capsys):
    # the collector is paused from the command's first line to its
    # last, whatever it was on entry: a 20,000-state run, which makes
    # far more containers than a generation-0 threshold, starts no
    # collection
    seen = []
    machine_run = cli.run

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return machine_run(*args, **kwargs)

    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    monkeypatch.setattr(cli, "run", probe)
    gc.callbacks.append(count)
    try:
        assert main(["run", RECURSIVE, "--fuel", "20000"]) == 0
    finally:
        gc.callbacks.remove(count)
    assert seen == [False]
    assert starts == []
    assert "fuel-exhausted" in capsys.readouterr().out
