"""Command-line surface: flags, outputs, exit codes."""

import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from anfj.cli import _write_trace, build_parser, main, parse_policy_spec
from anfj.domain import Policy
from anfj.machine import FuelExhausted, run
from anfj.metrics import POPULATION_NOTE
from anfj.syntax import AnfjError, load_program

from helpers import (
    CHAINS, CORPUS_DIR, chain_source, corpus_names, deep_try_source,
    named_program, perfbench_module, trace_histories,
)

MINIMAL = str(CORPUS_DIR / "minimal.anfj")
UNCAUGHT = str(CORPUS_DIR / "uncaught.anfj")
RECURSIVE = str(CORPUS_DIR / "infinite_recursion.anfj")
SCOPED = str(CORPUS_DIR / "handler_scope_direct.anfj")
MUTUAL = str(CORPUS_DIR / "mutual_recursion.anfj")


# -- policy spec grammar ---------------------------------------------------------

def test_policy_spec_defaults_and_full_form():
    assert parse_policy_spec("") == Policy()
    assert parse_policy_spec(
        "k=2,obj,gc=off,liveness=off,mode=finite") == Policy(
            k=2, obj_sensitivity=True, gc=False, liveness=False,
            mode="finite")
    assert parse_policy_spec("obj=off").obj_sensitivity is False
    assert parse_policy_spec(" k=1 , gc=on ").k == 1


@pytest.mark.parametrize("bad", [
    "k=x", "k", "gc", "gc=maybe", "obj=2", "mode=weird",
    "store=nowhere", "what=1", "k=-1", "k=\u00b2",
])
def test_policy_spec_rejects_bad_tokens(bad):
    with pytest.raises(AnfjError):
        parse_policy_spec(bad)


# -- run -------------------------------------------------------------------------

def test_run_prints_halting_outcome(capsys):
    assert main(["run", MINIMAL]) == 0
    out = capsys.readouterr().out
    assert out.startswith("halted")
    assert "class=Object" in out


def test_run_json_outcome(capsys):
    assert main(["run", UNCAUGHT, "--json"]) == 0
    desc = json.loads(capsys.readouterr().out)
    assert desc["outcome"] == "uncaught"
    assert desc["class"] == "Boom"
    assert desc["steps"] > 0


def test_run_trace_lines_are_json(capsys):
    assert main(["run", RECURSIVE, "--fuel", "50", "--trace", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    trace, outcome = lines[:-1], json.loads(lines[-1])
    assert len(trace) == outcome["steps"]
    first = json.loads(trace[0])
    assert first == {"step": 0, "label": first["label"],
                     "fp": [None, 0], "kontDepth": 0}
    keys = {"step", "label", "fp", "kontDepth"}
    defining = 0
    for i, line in enumerate(trace):
        rec = json.loads(line)
        assert rec["step"] == i
        if "history" in rec:       # only on lines that define an id
            assert rec["history"]
            defining += 1
            assert set(rec) == keys | {"history"}
        else:
            assert set(rec) == keys
        assert line == json.dumps(rec, sort_keys=True)
    assert defining > 1


def test_run_exits_quietly_when_the_reader_closes():
    # the reader takes one line and goes; the trace's next writes hit a
    # closed pipe, which must end the run with exit 1 and no traceback
    proc = subprocess.Popen([sys.executable, "-m", "anfj.cli", "run",
                             RECURSIVE, "--trace", "--fuel", "20000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert json.loads(first)["step"] == 0
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["run", MINIMAL], ["analyze", MINIMAL],
    ["compare", MINIMAL, "--a", "k=0", "--b", "k=1"]])
def test_every_command_exits_quietly_on_a_closed_output(argv):
    # the reader is gone before the command starts, and its one short
    # report is still buffered when the command returns
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "anfj.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _trace(lp, fuel: int) -> tuple:
    """(outcome, states, trace text) of a run of lp."""
    outcome, states = run(lp, fuel=fuel)
    out = io.StringIO()
    _write_trace(states, out)
    return outcome, states, out.getvalue()


def _assert_trace_matches(states, text):
    lines = text.splitlines()
    assert len(lines) == len(states)
    for i, (st, line, labels) in enumerate(
            zip(states, lines, trace_histories(lines))):
        rec = json.loads(line)
        assert (rec["step"], rec["label"], rec["fp"][0]) == (
            i, st.stmt.label, st.fp.site)
        assert labels == list(st.fp.time)


@pytest.mark.parametrize("name", [*corpus_names(), *CHAINS])
def test_trace_histories_are_the_machine_times(name):
    _, states, text = _trace(named_program(name), 2000)
    _assert_trace_matches(states, text)


def test_trace_histories_of_a_run_out_of_fuel():
    outcome, states, text = _trace(load_program(chain_source(16)), 2000)
    assert isinstance(outcome, FuelExhausted)
    _assert_trace_matches(states, text)


@pytest.mark.parametrize("source", [
    pathlib.Path(RECURSIVE).read_text(), chain_source(16)],
    ids=["infinite_recursion", "chain16"])
def test_trace_grows_linearly_with_fuel(source):
    # a line names its history by id, so four times the states make
    # about four times the bytes; whole histories per line made 15x
    lp = load_program(source)
    small, large = (len(_trace(lp, fuel)[2].encode())
                    for fuel in (2000, 8000))
    assert large <= 5 * small


def test_run_fuel_cap(capsys):
    assert main(["run", RECURSIVE, "--fuel", "7", "--json"]) == 0
    desc = json.loads(capsys.readouterr().out)
    assert desc == {"outcome": "fuel-exhausted", "steps": 7}


# -- analyze ---------------------------------------------------------------------

def test_analyze_prints_report(capsys):
    assert main(["analyze", SCOPED]) == 0
    out = capsys.readouterr().out
    assert POPULATION_NOTE in out
    assert "VarPointsTo:" in out and "E-C links:" in out


def test_analyze_report_json(capsys):
    assert main(["analyze", SCOPED, "--report-json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ecLinkCount"] == 1
    assert rep["note"] == POPULATION_NOTE
    assert rep["policy"].startswith("k=0")


@pytest.mark.parametrize("mode", ["pushdown", "finite"])
def test_analyze_stats_go_to_stderr_and_leave_stdout_alone(mode, capsys):
    assert main(["analyze", SCOPED, "--mode", mode]) == 0
    plain = capsys.readouterr()
    assert main(["analyze", SCOPED, "--mode", mode, "--stats"]) == 0
    got = capsys.readouterr()
    assert got.out == plain.out and plain.err == ""
    (line,) = got.err.splitlines()
    stats = json.loads(line)
    assert {"steps", "nodes", "edges", "seconds", "step_causes",
            "full_steps", "delta_passes", "delta_addrs"} <= set(stats)
    assert stats["steps"] == 1 + sum(stats["step_causes"].values())


def test_analyze_finite_mode_doubles_links(capsys):
    assert main(["analyze", SCOPED, "--mode", "finite",
                 "--report-json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ecLinkCount"] == 2


def test_analyze_writes_graph_files(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    blob = tmp_path / "g.json"
    assert main(["analyze", SCOPED, "--k", "1", "--dot", str(dot),
                 "--json", str(blob)]) == 0
    capsys.readouterr()
    assert dot.read_text().startswith("digraph dsg {")
    doc = json.loads(blob.read_bytes())
    assert doc["format"] == "anfj-dsg"
    assert doc["policy"]["k"] == 1


def test_analyze_accepts_every_knob(tmp_path, capsys):
    blob = tmp_path / "g.json"
    assert main(["analyze", MINIMAL, "--k", "2", "--obj-sens",
                 "--gc", "off", "--liveness", "off", "--mode", "finite",
                 "--json", str(blob)]) == 0
    capsys.readouterr()
    doc = json.loads(blob.read_bytes())
    assert doc["policy"]["k"] == 2
    assert doc["policy"]["objSensitivity"] is True
    assert doc["policy"]["gc"] is False
    assert doc["policy"]["liveness"] is False
    assert doc["policy"]["mode"] == "finite"


# -- compare ---------------------------------------------------------------------

def test_compare_text_report(capsys):
    assert main(["compare", SCOPED, "--a", "k=0",
                 "--b", "k=0,mode=finite"]) == 0
    out = capsys.readouterr().out
    assert "== side A ==" in out and "== side B ==" in out
    assert "ratios" in out


def test_compare_json_report(capsys):
    assert main(["compare", SCOPED, "--a", "k=0",
                 "--b", "k=0,mode=finite", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a"]["ecLinkCount"] == 1
    assert doc["b"]["ecLinkCount"] == 2
    assert doc["ratios"]["ecLinkCount B/A"] == 2.0


# -- failure modes ---------------------------------------------------------------

def test_missing_file_is_input_error(capsys):
    assert main(["run", "no/such/file.anfj"]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.anfj"
    bad.write_bytes(b"class A extends Object { A() { super(); } }\n// \xff\n")
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "Traceback" not in err


def test_byte_order_mark_is_read_past(tmp_path, capsys):
    plain = pathlib.Path(SCOPED).read_bytes()
    marked = tmp_path / "marked.anfj"
    marked.write_bytes(b"\xef\xbb\xbf" + plain)
    for argv in (["run", "--trace", "--json"], ["analyze"], ["analyze", "--mode", "finite"]):
        assert main([argv[0], SCOPED, *argv[1:]]) == 0
        expected = capsys.readouterr()
        assert main([argv[0], str(marked), *argv[1:]]) == 0
        assert capsys.readouterr() == expected


def test_parse_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.anfj"
    bad.write_text("class {")
    assert main(["analyze", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_policy_spec_is_input_error(capsys):
    assert main(["compare", MINIMAL, "--a", "z=1", "--b", "k=0"]) == 1
    assert "policy token" in capsys.readouterr().err
    # a digit str.isdigit accepts but int refuses
    assert main(["compare", MINIMAL, "--a", "k=\u00b2", "--b", "k=0"]) == 1
    assert "policy token" in capsys.readouterr().err


COMPARE = ["compare", MINIMAL, "--a", "k=0", "--b", "k=1"]


@pytest.mark.parametrize("argv", [
    ["run", MINIMAL, "--bogus"],
    ["analyze", MINIMAL, "--bogus"],
    [*COMPARE, "--bogus"],
    ["run", MINIMAL, "--fuel", "x"],
    ["analyze", MINIMAL, "--k", "x"],
    [*COMPARE, "--budget-nodes", "x"],
    ["analyze", MINIMAL, "--store-mode", "global"],
    ["run", MINIMAL, "--fuel", "-3"],
    ["analyze", MINIMAL, "--budget-seconds", "nan"],
    [*COMPARE, "--budget-seconds", "nan"],
    ["analyze", MINIMAL, "--budget-nodes", "-3"],
    [*COMPARE, "--budget-nodes", "-3"],
    ["analyze", MINIMAL, "--budget-seconds", "-1"],
    [*COMPARE, "--budget-seconds", "-1"],
], ids=["run-flag", "analyze-flag", "compare-flag", "run-int", "analyze-int",
        "compare-int", "store-mode", "run-negative-fuel", "analyze-nan-seconds",
        "compare-nan-seconds", "analyze-negative-nodes",
        "compare-negative-nodes", "analyze-negative-seconds",
        "compare-negative-seconds"])
def test_bad_flag_exits_1(argv, capsys):
    # exit 2 is reserved for an exhausted budget
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--json", "--dot"])
def test_unwritable_export_path_is_input_error(flag, tmp_path, capsys):
    # a missing directory and a directory in place of the file
    for path in (tmp_path / "missing" / "g.out", tmp_path):
        assert main(["analyze", MINIMAL, flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("command", [[], ["run"], ["analyze"], ["compare"]])
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_store_policy_token_is_input_error(capsys):
    assert main(["compare", MINIMAL, "--a", "store=global", "--b", "k=0"]) == 1
    assert "unknown policy token 'store=global'" in capsys.readouterr().err


def test_budget_exhaustion_exit_code(capsys):
    assert main(["analyze", MUTUAL, "--budget-nodes", "2"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_compare_budget_blames_side(capsys):
    assert main(["compare", MUTUAL, "--a", "k=0", "--b", "k=1",
                 "--budget-nodes", "2"]) == 2
    assert "side A" in capsys.readouterr().err


def _deep_hierarchy(depth: int, child_first: bool) -> str:
    """C0 extends Object and holds one field; each Ci extends C(i-1) and
    forwards its argument; main builds the deepest class. The chain is
    declared parent-first or child-first."""
    classes = [["class C0 extends Object {", "  Object f;",
                "  C0(Object x) { super(); this.f = x; }", "}"]]
    for i in range(1, depth):
        classes.append([f"class C{i} extends C{i - 1} {{",
                        f"  C{i}(Object x) {{ super(x); }}", "}"])
    if child_first:
        classes.reverse()
    last = f"C{depth - 1}"
    lines = [line for cls in classes for line in cls]
    lines += ["class Main extends Object {", "  Main() { super(); }",
              "  Object main() {", "    Object o;", f"    {last} c;",
              "    Object g;", "    o = new Object();",
              f"    c = new {last}(o);", "    g = c.f;", "    return g;",
              "  }", "}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("child_first", [False, True])
def test_deep_class_hierarchy_runs_and_analyzes(tmp_path, capsys, child_first):
    src = tmp_path / "deep.anfj"
    src.write_text(_deep_hierarchy(1500, child_first))
    for argv, expect in ((["run"], "halted class=Object"),
                         (["analyze"], "nodes/edges:"),
                         (["analyze", "--mode", "finite"], "nodes/edges:")):
        assert main([*argv, str(src)]) == 0
        captured = capsys.readouterr()
        assert expect in captured.out
        assert "Traceback" not in captured.err


def test_deep_try_nest_runs(tmp_path, capsys):
    src = tmp_path / "deep.anfj"
    src.write_text(deep_try_source(1200))
    assert main(["run", str(src), "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "class": "Boom", "outcome": "halted", "steps": 2403}
    assert "Traceback" not in captured.err


def test_deep_try_nest_analyzes(tmp_path, capsys):
    # pushdown only: finite mode is quadratic in the depth by design
    src = tmp_path / "deep.anfj"
    src.write_text(deep_try_source(1200))
    assert main(["analyze", str(src), "--report-json"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ecLinkCount"] == 1
    assert report["nodes"] == 1204
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_deep_try_nest_missing_brace_is_positioned_error(tmp_path, capsys, command):
    text = deep_try_source(2000)
    cut = text.index("}", text.index("catch"))        # the innermost handler's
    src = tmp_path / "deep.anfj"
    src.write_text(text[:cut] + text[cut + 1:])
    assert main([command, str(src)]) == 1
    captured = capsys.readouterr()
    assert re.match(r"error: .* at \d+:\d+$", captured.err.strip())
    assert "Traceback" not in captured.err


def test_parser_is_reused_with_fresh_namespaces(capsys):
    assert build_parser() is build_parser()
    assert main(["analyze", MINIMAL, "--k", "1", "--gc", "off",
                 "--report-json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["policy"].startswith("k=1 obj=off gc=off")
    assert main(["analyze", MINIMAL]) == 0
    second = capsys.readouterr().out
    assert "policy:        k=0 obj=off gc=on" in second
    assert not second.startswith("{")


# -- installed entry point ---------------------------------------------------------

@pytest.mark.parametrize("mode", ["pushdown", "finite"])
def test_traced_benchmark_wraps_what_analyze_calls(mode, capsys):
    # perfbench/layers.py wraps eagc, abstract_next and store_join by
    # name in the modules that call them; a clean-up that stops looking
    # one up there must fail here, not only in a traced benchmark run
    layers = perfbench_module("layers")
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        assert main(["analyze", SCOPED, "--mode", mode]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    for span in ("gc.eagc", "domain.next", "domain.store_join"):
        assert tracer.calls[span] > 0, span


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "anfj.cli",
                           "run", MINIMAL],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("halted")
