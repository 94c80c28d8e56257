"""Shared test utilities: corpus loading and generated programs."""

import importlib.util
import json
import pathlib
import random
import sys

from anfj.engine import activation
from anfj.machine import Halt
from anfj.syntax import LabeledProgram, load_program

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
PERFBENCH_DIR = pathlib.Path(__file__).parents[1] / "perfbench"
CHAINS = ("chain7", "chain10")
FANIN = "fanin48"


def all_labels(lp: LabeledProgram) -> list[int]:
    """Every statement label of lp, in order."""
    return sorted(lp.stmt_by_label)


def stack_roots(dsg, s) -> set:
    """The root set of the activation node s runs in, in either mode:
    the live set its collections read, or an empty set when the
    analysis kept no root graph (GC off)."""
    roots = dsg.roots
    if roots is None:
        return set()
    return roots.ptrs.get(activation(dsg.lp, s.stmt, s.fp), set())


def kont_frames(k) -> list:
    """The frames of a concrete continuation, innermost first."""
    out = []
    while not isinstance(k, Halt):
        out.append(k)
        k = k.next
    return out


def trace_histories(lines) -> list[list[int]]:
    """The call history of each `anfj run --trace` line, newest label
    first, decoded from the "history" definitions on and above it.
    Checks as it goes that each id is defined once, on or before the
    first line that names it, over a parent defined before it."""
    defined = {0: None}            # id -> (label, parent id)
    out = []
    for line in lines:
        rec = json.loads(line)
        for h, parent, label in rec.get("history", ()):
            assert h not in defined, f"id {h} defined twice"
            assert parent in defined, f"id {h} defined before its parent"
            defined[h] = (label, parent)
        h = rec["fp"][1]
        assert h in defined, f"id {h} used before it is defined"
        labels = []
        while h:
            label, h = defined[h]
            labels.append(label)
        out.append(labels)
    return out


def corpus_source(name: str) -> str:
    return (CORPUS_DIR / f"{name}.anfj").read_text()


def corpus_program(name: str) -> LabeledProgram:
    return load_program(corpus_source(name))


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS_DIR.glob("*.anfj"))


def named_program(name: str) -> LabeledProgram:
    """A corpus program, one of the CHAINS, or the FANIN program."""
    if name in CHAINS:
        return load_program(chain_sources()[name])
    if name == FANIN:
        return load_program(fanin_source(48))
    return corpus_program(name)


def perfbench_module(name: str):
    """`perfbench/<name>.py` as a module."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def gen_module():
    """`perfbench/gen.py`, the seeded program generator, as a module."""
    return perfbench_module("gen")


def chain_sources() -> dict:
    """Name -> source of the CHAINS call-chain programs that
    `perfbench/gen.py` generates for seed 1."""
    return {p.name: p.source for p in gen_module().generate("chain", 1)
            if p.name in CHAINS}


def fanin_source(n: int) -> str:
    """`perfbench/gen.py`'s fan-in program of n call sites for seed 1."""
    return gen_module().fanin_program(n, random.Random(1)).source


def long_method_source(n: int) -> str:
    """A program whose one long method, Long.f, is n straight-line
    statements, reached from two call chains: main calls Mid.go from two
    sites, and Mid.go calls f from one, so under k=0 both chains share
    f's nodes and differ in the frame f returns to. main's second call
    is found only after the first has returned, so f's epsilon path is
    laid before the second return frame reaches f, and the top frames
    of every statement of f grow after its epsilon edges exist."""
    body = "    x = a;\n" * (n - 1)
    return (
        "class Long extends Object {\n"
        "  Long() { super(); }\n"
        "  Object f(Object a) {\n"
        f"    Object x;\n{body}    return x;\n  }}\n}}\n"
        "class Mid extends Object {\n"
        "  Mid() { super(); }\n"
        "  Object go(Long l) {\n"
        "    Object r;\n    r = l.f(this);\n    return r;\n  }\n}\n"
        "class Main extends Object {\n"
        "  Main() { super(); }\n"
        "  Object main() {\n"
        "    Long l;\n    Mid m;\n    Object r;\n    Object s;\n"
        "    l = new Long();\n    m = new Mid();\n"
        "    r = m.go(l);\n    s = m.go(l);\n    return s;\n  }\n}\n")


def chain_source(n: int) -> str:
    """`perfbench/gen.py`'s n-level call chain for seed 1."""
    return gen_module().chain_program(n, random.Random(1)).source


def deep_try_source(depth: int) -> str:
    """main nests depth try blocks around one throw; each handler
    returns the caught value."""
    lines = ["class Boom extends Object {", "  Boom() { super(); }", "}",
             "class Main extends Object {", "  Main() { super(); }",
             "  Object main() {", "    Boom e;", "    Object r;"]
    lines += ["    try {"] * depth
    lines += ["    e = new Boom();", "    throw e;"]
    lines += ["    } catch (Boom x) { r = x; return r; }"] * depth
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    # python tests/helpers.py long-method N: print long_method_source(N)
    # python tests/helpers.py deep-try N: print deep_try_source(N)
    # python tests/helpers.py chain N: print chain_source(N)
    # python tests/helpers.py fanin N: print fanin_source(N)
    sources = {"long-method": long_method_source, "deep-try": deep_try_source,
               "chain": chain_source, "fanin": fanin_source}
    if len(sys.argv) == 3 and sys.argv[1] in sources:
        print(sources[sys.argv[1]](int(sys.argv[2])), end="")
    else:
        sys.exit("usage: helpers.py long-method|deep-try|chain|fanin N")
