import random
import string
import time

import pytest
from hypothesis import given, settings, strategies

from anfj.syntax import (
    Assign, Cast, ElaborationError, FieldRef, Invoke, New, ParseError, PopHandler,
    Return, Throw, TryCatch, VarRef, compute_liveness, elaborate, iter_stmts,
    load_program, parse_program, stmt_defs, stmt_uses,
)
from anfj.syntax import _position, _tokenize

from oracles import reference_tokens

from helpers import (
    CHAINS, all_labels, corpus_names, corpus_program, corpus_source,
    deep_try_source, gen_module, named_program,
)

SIMPLE = """
class A extends Object {
  A() { super(); }
}
class Main extends Object {
  Main() { super(); }
  Object main() {
    A v;
    v = new A();
    return v;
  }
}
"""

TRYPROG = """
class Exc extends Object { Exc() { super(); } }
class Main extends Object {
  Main() { super(); }
  Object main() {
    Exc e;
    Object r;
    try {
      e = new Exc();
      throw e;
    } catch (Exc c) {
      r = c;
    }
    return r;
  }
}
"""


def test_parse_minimal_shape():
    prog = parse_program(SIMPLE)
    assert [c.name for c in prog.classes] == ["A", "Main"]
    assert prog.entry == ("Main", "main")
    main = prog.classes[1].methods[0]
    assert main.locals == (("A", "v"),)
    assert isinstance(main.body[0], Assign)
    assert main.body[0].exp == New("A", ())
    assert isinstance(main.body[1], Return)
    assert main.owner == "Main"
    assert [s.label for s in main.body] == [1, 2]


def test_parse_expression_kinds():
    src = """
    class P extends Object {
      Object f;
      P(Object f) { super(); this.f = f; }
      Object get() { Object t; t = this.f; return t; }
    }
    class Main extends Object {
      Main() { super(); }
      Object main() {
        P p; Object a; Object b; Object c; Object d;
        a = new P(a);
        p = (P) a;
        b = p.get();
        c = p.f;
        d = c;
        return d;
      }
    }
    """
    prog = parse_program(src)
    main = prog.classes[1].methods[0]
    exps = [s.exp for s in main.body if isinstance(s, Assign)]
    assert exps[0] == New("P", ("a",))
    assert exps[1] == Cast("P", "a")
    assert exps[2] == Invoke("p", "get", ())
    assert exps[3] == FieldRef("p", "f")
    assert exps[4] == VarRef("c")


def test_parse_rejects_non_atomic_argument():
    src = """
    class Main extends Object {
      Main() { super(); }
      Object main() {
        Object v; Object f; Object b;
        v = f.foo(b.bar());
        return v;
      }
    }
    """
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert "non-atomic argument" in str(err.value)


def test_parse_rejects_chained_field_access():
    src = """
    class Main extends Object {
      Main() { super(); }
      Object main() {
        Object v; Object a;
        v = a.b.c;
        return v;
      }
    }
    """
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert "non-atomic argument" in str(err.value)


def test_parse_requires_unique_main():
    src = """
    class A extends Object {
      A() { super(); }
      Object main() { Object v; v = this; return v; }
    }
    class B extends Object {
      B() { super(); }
      Object main() { Object v; v = this; return v; }
    }
    """
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert "main" in str(err.value)


def test_parse_missing_main():
    src = "class A extends Object { A() { super(); } }"
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert "main" in str(err.value)


MAIN = """
class Main extends Object {
  Main() { super(); }
  Object main() { Object v; v = this; return v; }
}
"""


@pytest.mark.parametrize("src, message, line, col", [
    ("class A extends Object { A() { super(); } }\n"
     "class A extends Object { A() { super(); } }\n",
     "duplicate class 'A'", 2, 7),
    ("class Object extends Object { Object() { super(); } }\n",
     "duplicate class 'Object'", 1, 7),
    ("class A extends Object {\n"
     "  A() { super(); }\n"
     "  Object m() { Object v; v = this; return v; }\n"
     "  Object n() { Object v; v = this; return v; }\n"
     "  Object m() { Object v; v = this; return v; }\n"
     "}\n",
     "duplicate method in class 'A'", 5, 10),
    ("class A extends Object {\n"
     "  Object f;\n"
     "  Object f;\n"
     "  A(Object f) { super(); this.f = f; }\n"
     "}\n",
     "duplicate field in class 'A'", 3, 10),
])
def test_duplicate_declaration_points_at_its_name(src, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(src + MAIN)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert str(err.value) == f"{message} at {line}:{col}"


# -- tokens and their positions -----------------------------------------------

WORD_CHARS = string.ascii_letters + string.digits + "_" + "\u00e9\u00b2\u216b\u0663"
# text drawn from words that may start with a digit, every punctuation
# mark, the four whitespace characters, characters that look like
# whitespace but are errors, and comments that may end the input
SOURCE_TEXT = strategies.lists(strategies.one_of(
    strategies.text(WORD_CHARS, min_size=1, max_size=4),
    strategies.sampled_from(string.punctuation),
    strategies.sampled_from([" ", "\t", "\n", "\r", "\r\n"]),
    strategies.sampled_from(["\f", "\v", "\xa0", "\u2028", "\x1c"]),
    strategies.text(WORD_CHARS + " \t\r/{}\u2028", max_size=6).map("//".__add__),
), max_size=40).map("".join)


def _tokens_and_positions(src: str):
    """The (kind, text, line, column) tokens of src, as the reference
    tokenizer gives them, or its ParseError's (message, line, column)."""
    try:
        toks = _tokenize(src)
    except ParseError as err:
        return err.message, err.line, err.col
    kinds = {t: "punct" for t in "{}();,=."} | {"": "eof"}
    return [(kinds.get(t, "ident"), t, *_position(src, i))
            for i, t in enumerate(toks[:toks.index("") + 1])]


@settings(max_examples=300, deadline=None)
@given(SOURCE_TEXT)
def test_tokens_match_the_reference_tokenizer(src):
    try:
        expected = reference_tokens(src)
    except ParseError as err:
        assert _tokens_and_positions(src) == (err.message, err.line, err.col)
        return
    # the one declared difference: the reference does not move past a
    # comment on the last line, so its end of input is the comment's
    # first column there; the end of input is where the input ends
    last_line = src[src.rfind("\n") + 1:]
    end = ("eof", "", src.count("\n") + 1, len(last_line) + 1)
    assert expected[-1] == end or "//" in last_line
    assert _tokens_and_positions(src) == expected[:-1] + [end]


def test_end_of_input_after_a_comment_is_where_the_input_ends():
    src = corpus_source("minimal")
    src = src[:src.rindex("}")] + "   // unterminated"
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert (err.value.message, err.value.line, err.value.col) == (
        "expected return class, found ''", 9, 19)


@pytest.mark.parametrize("src, col", [("1x", 1), ("a \u00b2x", 3), ("a\t\u216b", 3),
                                      ("a\f", 2), ("a\u2028b", 2), ("a / b", 3)])
def test_unexpected_characters_stay_errors(src, col):
    with pytest.raises(ParseError) as err:
        parse_program(src)
    assert (err.value.message, err.value.line, err.value.col) == (
        f"unexpected character {src[col - 1]!r}", 1, col)


def test_trailing_whitespace_is_read_once():
    # a pattern that rescanned it from each of its positions would take
    # seconds here
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_program("x" + " \t\r\n" * 5_000)
    assert time.perf_counter() - t0 < 1
    assert (err.value.message, err.value.line, err.value.col) == (
        "expected 'class', found 'x'", 1, 1)


def test_labels_are_program_ordered_and_dense():
    lp = load_program(TRYPROG)
    labels = all_labels(lp)
    assert labels == list(range(1, len(labels) + 1))
    # textual order: try, body stmts, inserted pophandler, handler stmts, return
    kinds = [type(lp.stmt(ell)).__name__ for ell in labels]
    assert kinds == ["TryCatch", "Assign", "Throw", "PopHandler", "Assign", "Return"]


def test_pophandler_inserted_only_by_the_parser():
    main = parse_program(TRYPROG).classes[1].methods[0]
    tc = main.body[0]
    assert isinstance(tc, TryCatch)
    assert isinstance(tc.body[-1], PopHandler)
    # source cannot spell it
    with pytest.raises(ParseError):
        parse_program("class Main extends Object { Main() { super(); } Object main() { pophandler; } }")


def test_succ_shape_around_try():
    lp = load_program(TRYPROG)
    main = lp.entry_method
    tc = main.body[0]
    ret = main.body[1]
    # try header's successor is the first body statement
    assert lp.successor(tc.label) is tc.body[0]
    # last real body stmt (throw) has no successor
    assert lp.successor(tc.body[1].label) is None
    # pophandler's successor is the statement after the try
    assert lp.successor(tc.body[-1].label) is ret
    # handler's last statement falls through to the statement after the try
    assert lp.successor(tc.handler[-1].label) is ret
    # return has no successor
    assert lp.successor(ret.label) is None
    with pytest.raises(KeyError):
        lp.successor(999)


def test_nested_try_succ_chains_through_pophandlers():
    src = """
    class Exc extends Object { Exc() { super(); } }
    class Main extends Object {
      Main() { super(); }
      Object main() {
        Exc e; Object r;
        try {
          try {
            e = new Exc();
          } catch (Exc a) {
            r = a;
          }
        } catch (Exc b) {
          r = b;
        }
        return r;
      }
    }
    """
    lp = load_program(src)
    outer = lp.entry_method.body[0]
    inner = outer.body[0]
    assert isinstance(inner, TryCatch)
    inner_pop = inner.body[-1]
    outer_pop = outer.body[-1]
    assert isinstance(inner_pop, PopHandler) and isinstance(outer_pop, PopHandler)
    # inner pophandler continues to the outer pophandler
    assert lp.successor(inner_pop.label) is outer_pop
    ret = lp.entry_method.body[1]
    assert lp.successor(outer_pop.label) is ret
    # inner handler falls through to the outer pophandler as well
    assert lp.successor(inner.handler[-1].label) is outer_pop


def _iter_stmts_recursive(seq):
    for s in seq:
        yield s
        if isinstance(s, TryCatch):
            yield from _iter_stmts_recursive(s.body)
            yield from _iter_stmts_recursive(s.handler)


@pytest.mark.parametrize("name", corpus_names())
def test_iter_stmts_is_the_recursive_pre_order(name):
    lp = corpus_program(name)
    for decl in lp.program.classes:
        for m in decl.methods:
            assert list(iter_stmts(m.body)) == \
                list(_iter_stmts_recursive(m.body))


def test_iter_stmts_walks_a_3000_deep_try_nest():
    # built directly, without PopHandlers, and parsed from source
    depth = 3000
    seq = (Return(depth, "r"),)
    for i in reversed(range(depth)):
        handler = (Return(2 * depth - i, "e"),)
        seq = (TryCatch(i, seq, "Exc", "e", handler),)
    labels = [s.label for s in iter_stmts(seq)]
    assert labels == list(range(2 * depth + 1))
    # each level: the try, its PopHandler and two handler statements,
    # around the innermost body's two statements
    body = load_program(deep_try_source(depth)).entry_method.body
    labels = [s.label for s in iter_stmts(body)]
    assert labels == list(range(1, 4 * depth + 3))


def test_elaboration_idempotent_on_labeled_structure():
    lp1 = load_program(TRYPROG)
    lp2 = elaborate(lp1.program)
    assert all_labels(lp1) == all_labels(lp2)
    for ell in all_labels(lp1):
        assert type(lp1.stmt(ell)) is type(lp2.stmt(ell))
        s1, s2 = lp1.succ_map.get(ell), lp2.succ_map.get(ell)
        assert (s1 is None) == (s2 is None)
        if s1 is not None:
            assert s1.label == s2.label


def test_class_lookup_flattens_superclass_fields_first():
    src = """
    class A extends Object {
      Object fa;
      A(Object fa) { super(); this.fa = fa; }
    }
    class B extends A {
      Object fb;
      B(Object fa, Object fb) { super(fa); this.fb = fb; }
    }
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = new B(v, v); return v; }
    }
    """
    lp = load_program(src)
    fields, konst = lp.class_lookup("B")
    assert fields == ("fa", "fb")
    assert konst.super_args == ("fa",)
    ofields, okonst = lp.class_lookup("Object")
    assert ofields == () and okonst is None
    with pytest.raises(KeyError):
        lp.class_lookup("Nope")


def test_method_lookup_walks_the_chain_and_respects_overrides():
    src = """
    class A extends Object {
      A() { super(); }
      Object id(Object x) { return x; }
      Object base() { Object v; v = this; return v; }
    }
    class B extends A {
      B() { super(); }
      Object id(Object x) { Object y; y = x; return y; }
    }
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = new B(); return v; }
    }
    """
    lp = load_program(src)
    assert lp.method_lookup("B", "id").owner == "B"
    assert lp.method_lookup("A", "id").owner == "A"
    assert lp.method_lookup("B", "base").owner == "A"
    assert lp.method_lookup("B", "nope") is None


def test_subtype_reflexive_transitive_object_top():
    src = """
    class A extends Object { A() { super(); } }
    class B extends A { B() { super(); } }
    class C extends Object { C() { super(); } }
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = new B(); return v; }
    }
    """
    lp = load_program(src)
    assert lp.subtype("B", "B")
    assert lp.subtype("B", "A")
    assert lp.subtype("B", "Object")
    assert lp.subtype("A", "Object")
    assert not lp.subtype("A", "B")
    assert not lp.subtype("C", "A")
    assert not lp.subtype("Object", "A")


def test_elaborate_rejects_extends_cycle():
    src = """
    class A extends B { A() { super(); } }
    class B extends A { B() { super(); } }
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = this; return v; }
    }
    """
    with pytest.raises(ElaborationError) as err:
        load_program(src)
    assert "cycle" in str(err.value)


def test_elaborate_rejects_field_shadowing():
    src = """
    class A extends Object {
      Object f;
      A(Object f) { super(); this.f = f; }
    }
    class B extends A {
      Object f;
      B(Object f, Object g) { super(f); this.f = g; }
    }
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = this; return v; }
    }
    """
    with pytest.raises(ElaborationError) as err:
        load_program(src)
    assert "shadowing" in str(err.value)


def test_elaborate_rejects_unknown_references():
    bad_parent = """
    class A extends Missing { A() { super(); } }
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = this; return v; }
    }
    """
    with pytest.raises(ElaborationError):
        load_program(bad_parent)

    bad_method = """
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = this.nope(); return v; }
    }
    """
    with pytest.raises(ElaborationError):
        load_program(bad_method)

    bad_field = """
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = this.f; return v; }
    }
    """
    with pytest.raises(ElaborationError):
        load_program(bad_field)

    bad_var = """
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = w; return v; }
    }
    """
    with pytest.raises(ElaborationError):
        load_program(bad_var)


def test_elaborate_rejects_bad_constructors():
    not_prefix = """
    class A extends Object {
      Object f;
      A(Object f) { super(); this.f = f; }
    }
    class B extends A {
      B(Object x, Object f) { super(f); }
    }
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = this; return v; }
    }
    """
    with pytest.raises(ElaborationError) as err:
        load_program(not_prefix)
    assert "prefix" in str(err.value)

    missing_field = """
    class A extends Object {
      Object f;
      A() { super(); }
    }
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = this; return v; }
    }
    """
    with pytest.raises(ElaborationError) as err:
        load_program(missing_field)
    assert "exactly once" in str(err.value)


def test_elaborate_rejects_falling_off_method_end():
    src = """
    class Main extends Object {
      Main() { super(); }
      Object main() { Object v; v = this; }
    }
    """
    with pytest.raises(ElaborationError) as err:
        load_program(src)
    assert "return or throw" in str(err.value)


def test_terminating_try_as_last_statement_is_accepted():
    src = """
    class Exc extends Object { Exc() { super(); } }
    class Main extends Object {
      Main() { super(); }
      Object main() {
        Exc e; Object r;
        try {
          e = new Exc();
          return e;
        } catch (Exc c) {
          return c;
        }
      }
    }
    """
    lp = load_program(src)
    assert lp.entry_method is not None


# ---------------------------------------------------------------------------
# Liveness. Oracle first: an independent fixpoint over an explicitly
# reconstructed flow graph, then hand-frozen expectations for small cases.

def naive_flow_edges(lp, method):
    """Intra-method flow edges over labels, rebuilt from scratch:
    successor edges, and an edge from every statement inside a try body
    to that try's handler head."""
    stmts = list(iter_stmts(method.body))
    edges = {s.label: set() for s in stmts}
    for s in stmts:
        nxt = lp.succ_map.get(s.label)
        if nxt is not None:
            edges[s.label].add(nxt.label)
        if isinstance(s, TryCatch):
            stack = list(s.body)
            while stack:
                inner = stack.pop()
                edges[inner.label].add(s.handler[0].label)
                if isinstance(inner, TryCatch):
                    stack.extend(inner.body)
                    stack.extend(inner.handler)
    return edges


def naive_liveness(lp, method):
    edges = naive_flow_edges(lp, method)
    by_label = {s.label: s for s in iter_stmts(method.body)}
    live = {ell: frozenset() for ell in by_label}
    while True:
        changed = False
        for ell in by_label:
            s = by_label[ell]
            out = set()
            for succ_ell in edges[ell]:
                out |= live[succ_ell]
            new = frozenset(stmt_uses(s) | (out - stmt_defs(s)))
            if new != live[ell]:
                live[ell] = new
                changed = True
        if not changed:
            return live


LIVE_PROG = """
class A extends Object { A() { super(); } }
class Main extends Object {
  Main() { super(); }
  Object main() {
    A a; A b; A c;
    a = new A();
    b = new A();
    c = a;
    b = c;
    return b;
  }
}
"""


def liveness_programs():
    """Labeled programs whose liveness the tests check: three small ones,
    the corpus, the CHAINS, a generated fan-in and a 300-deep try nest."""
    for src in (LIVE_PROG, TRYPROG, SIMPLE):
        yield load_program(src)
    for name in (*corpus_names(), *CHAINS):
        yield named_program(name)
    yield load_program(gen_module().fanin_program(48, random.Random(1)).source)
    yield load_program(deep_try_source(300))


def all_methods(lp):
    return [m for decl in lp.program.classes for m in decl.methods]


def test_liveness_matches_brute_force_oracle():
    for lp in liveness_programs():
        for m in all_methods(lp):
            expected = naive_liveness(lp, m)
            assert compute_liveness(lp, m) == expected
            assert {ell: lp.lives[ell] for ell in expected} == expected


def test_every_flow_edge_goes_to_a_larger_label():
    # what lets compute_liveness finish in one pass over the labels
    for lp in liveness_programs():
        for m in all_methods(lp):
            for ell, succs in naive_flow_edges(lp, m).items():
                assert all(succ > ell for succ in succs), (m.owner, m.name, ell)


def test_liveness_kills_redefined_variable():
    # frozen from the oracle: at `b = new A()` the pending value of b is dead,
    # a is still live (used by `c = a` later)
    lp = load_program(LIVE_PROG)
    main = lp.entry_method
    labels = {s.label: s for s in main.body}
    a_new, b_new, c_a, b_c, ret = main.body
    assert lp.lives[b_new.label] == frozenset({"a"})
    assert lp.lives[c_a.label] == frozenset({"a"})
    assert lp.lives[b_c.label] == frozenset({"c"})
    assert lp.lives[ret.label] == frozenset({"b"})


def test_liveness_try_body_sees_handler_uses():
    # every try-body statement has a flow edge to the handler head, so a
    # variable read only by the handler is live throughout the body
    src = """
    class Exc extends Object { Exc() { super(); } }
    class Main extends Object {
      Main() { super(); }
      Object main() {
        Exc e; Object keep; Object r;
        keep = this;
        try {
          e = new Exc();
          throw e;
        } catch (Exc c) {
          r = keep;
        }
        return r;
      }
    }
    """
    lp = load_program(src)
    tc = lp.entry_method.body[1]
    assert isinstance(tc, TryCatch)
    for s in tc.body:
        assert "keep" in lp.lives[s.label], type(s).__name__
    # and the handler head itself still needs it
    assert "keep" in lp.lives[tc.handler[0].label]
    # after the try, keep is dead
    ret = lp.entry_method.body[2]
    assert "keep" not in lp.lives[ret.label]


def test_liveness_fixpoint_is_stable_under_reiteration():
    lp = load_program(TRYPROG)
    for decl in lp.program.classes:
        for m in decl.methods:
            once = compute_liveness(lp, m)
            again = compute_liveness(lp, m)
            assert once == again
            for ell, live in once.items():
                s = lp.stmt(ell)
                out = set()
                for succ_ell in naive_flow_edges(lp, m)[ell]:
                    out |= once[succ_ell]
                assert live == stmt_uses(s) | frozenset(out - stmt_defs(s))
