"""Seeded generators for the two synthetic ANFJ program families.

Each generator returns a `Program`: the source text plus what is known
about it by construction, so outputs can be checked without consulting
the analyzer. Exception-to-catch (E-C) links are given as pairs of
methods, "Class.method" of the throw and of the handler, because labels
are assigned by the parser and change with declaration order.

The seed picks identifiers, declaration order, the catch class and
which shared method each call site targets. Sizes are fixed per family,
so every seed costs about the same to analyze.

    python3 perfbench/gen.py chain 7          # print the seed-7 programs
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

CHAIN_SIZES = (7, 10, 13, 16)
FANIN_SITES = (48, 64)
FANIN_SHARED = 4


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    pushdown_links: frozenset     # {(throw method, handler method)}
    finite_links: frozenset
    result_class: str             # class main returns when it halts


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """count distinct identifiers that sort in a seed-dependent order."""
    tags = rng.sample(range(100, 1000), count)
    return [f"{prefix}{t}" for t in tags]


def _ctor(name: str, parent: str = "Object") -> str:
    return (f"class {name} extends {parent} {{\n"
            f"  {name}() {{ super(); }}\n}}\n")


def chain_program(n: int, rng: random.Random) -> Program:
    """n classes; level i allocates level i+1 and calls its method twice,
    the calls at every even level sit in one try block, and the leaf
    throws. Concretely the throw always lands in the deepest enclosing
    handler; the pushdown analysis must say exactly that, while the
    finite baseline links the throw to every handler."""
    classes = _names(rng, "L", n)
    meth = rng.choice(["m", "go", "step", "run"])
    base, boom = _names(rng, "E", 2)
    catch_cls = rng.choice([base, boom])
    try_levels = [i for i in range(n - 1) if i % 2 == 0]
    decls = [_ctor(base), _ctor(boom, base)]
    for i, cname in enumerate(classes):
        if i == n - 1:
            body = (f"    {boom} b;\n"
                    f"    b = new {boom}();\n"
                    f"    throw b;\n")
        else:
            nxt = classes[i + 1]
            calls = (f"r1 = n.{meth}();\n"
                     f"    r2 = n.{meth}();\n")
            if i in try_levels:
                calls = (f"try {{\n      r1 = n.{meth}();\n"
                         f"      r2 = n.{meth}();\n"
                         f"    }} catch ({catch_cls} x) {{\n"
                         f"      r1 = x;\n    }}\n")
            body = (f"    {nxt} n;\n    Object r1;\n    Object r2;\n"
                    f"    Object r;\n"
                    f"    n = new {nxt}();\n"
                    f"    {calls}"
                    f"    r = new Object();\n"
                    f"    return r;\n")
        decls.append(f"class {cname} extends Object {{\n"
                     f"  {cname}() {{ super(); }}\n"
                     f"  Object {meth}() {{\n{body}  }}\n}}\n")
    main = ("class Main extends Object {\n"
            "  Main() { super(); }\n"
            "  Object main() {\n"
            f"    {classes[0]} c;\n    Object r;\n"
            f"    c = new {classes[0]}();\n"
            f"    r = c.{meth}();\n"
            "    return r;\n  }\n}\n")
    rng.shuffle(decls)
    leaf = f"{classes[-1]}.{meth}"
    handlers = [f"{classes[d]}.{meth}" for d in try_levels]
    return Program(
        name=f"chain{n}",
        source=f"// chain of {n} levels\n" + "".join(decls) + main,
        pushdown_links=frozenset({(leaf, handlers[-1])}),
        finite_links=frozenset((leaf, h) for h in handlers),
        result_class="Object",
    )


def fanin_program(sites: int, rng: random.Random) -> Program:
    """main makes `sites` calls, each passing two freshly allocated
    arguments to one of a few shared methods. The calls a third and two
    thirds of the way down go to a method that throws, each in its own
    try block in main."""
    shared = _names(rng, "S", FANIN_SHARED)
    args = _names(rng, "A", 3)
    box, thrower, oops, done = _names(rng, "K", 4)
    decls = [_ctor(a) for a in args] + [_ctor(oops), _ctor(done)]
    decls.append(f"class {box} extends Object {{\n"
                 f"  Object v;\n"
                 f"  {box}(Object v) {{\n    super();\n    this.v = v;\n  }}\n"
                 f"}}\n")
    for s in shared:
        decls.append(f"class {s} extends Object {{\n"
                     f"  {s}() {{ super(); }}\n"
                     f"  Object f(Object a, Object b) {{\n"
                     f"    {box} x;\n    Object r;\n"
                     f"    x = new {box}(a);\n"
                     f"    r = x.v;\n"
                     f"    return r;\n  }}\n}}\n")
    decls.append(f"class {thrower} extends Object {{\n"
                 f"  {thrower}() {{ super(); }}\n"
                 f"  Object f(Object a, Object b) {{\n"
                 f"    {oops} e;\n"
                 f"    e = new {oops}();\n"
                 f"    throw e;\n  }}\n}}\n")
    rng.shuffle(decls)
    locals_ = [f"    {s} s{j};\n" for j, s in enumerate(shared)]
    locals_.append(f"    {thrower} t;\n    {done} d;\n")
    stmts = [f"    s{j} = new {s}();\n" for j, s in enumerate(shared)]
    stmts.append(f"    t = new {thrower}();\n")
    for i in range(sites):
        locals_.append(f"    Object a{i};\n    Object b{i};\n"
                       f"    Object r{i};\n")
        stmts.append(f"    a{i} = new {rng.choice(args)}();\n"
                     f"    b{i} = new {rng.choice(args)}();\n")
        if i in (sites // 3, 2 * sites // 3):
            stmts.append(f"    try {{\n      r{i} = t.f(a{i}, b{i});\n"
                         f"    }} catch ({oops} o) {{\n"
                         f"      r{i} = o;\n    }}\n")
        else:
            target = rng.randrange(FANIN_SHARED)
            stmts.append(f"    r{i} = s{target}.f(a{i}, b{i});\n")
    stmts.append(f"    d = new {done}();\n    return d;\n")
    main = ("class Main extends Object {\n"
            "  Main() { super(); }\n"
            "  Object main() {\n" + "".join(locals_) + "".join(stmts)
            + "  }\n}\n")
    links = frozenset({(f"{thrower}.f", "Main.main")})
    return Program(
        name=f"fanin{sites}",
        source=f"// fan-in of {sites} call sites\n" + "".join(decls) + main,
        pushdown_links=links,
        finite_links=links,
        result_class=done,
    )


def generate(family: str, seed: int) -> list[Program]:
    """The programs of one family for one seed, smallest first."""
    rng = random.Random(f"{family}:{seed}")
    if family == "chain":
        return [chain_program(n, rng) for n in CHAIN_SIZES]
    if family == "fanin":
        return [fanin_program(s, rng) for s in FANIN_SITES]
    raise ValueError(f"unknown family {family!r}")


if __name__ == "__main__":
    for prog in generate(sys.argv[1], int(sys.argv[2])):
        sys.stdout.write(prog.source)
