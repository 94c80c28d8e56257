"""Finite baseline: stackless graphs, eternal handler records, imprecision."""

import pytest

from anfj.domain import EPSILON, Policy
from anfj.engine import Budget, BudgetExceeded, analyze
from anfj.finite import _FiniteEngine
from anfj.machine import Addr
from anfj.metrics import metric_ec_links
from anfj.syntax import Assign, Invoke, Return, Throw, load_program

from helpers import (
    CHAINS, all_labels, corpus_names, corpus_program, named_program,
    stack_roots,
)
from oracles import (
    finite_stack_fps, frames_beneath, reference_analysis, store_leq,
)
from test_byte_identity import analysis_digest

FINITE = Policy(mode="finite")


def test_every_edge_is_epsilon():
    for name in ("try_complete", "throw_across_call", "deep_throw"):
        dsg = analyze(corpus_program(name), FINITE)
        assert all(act == EPSILON for _, act, _ in dsg.edges)


def test_matches_pushdown_on_call_free_straight_line():
    # no calls, no try: the two modes build the same graph
    for name in ("minimal", "var_chain"):
        lp = corpus_program(name)
        fin = analyze(lp, FINITE)
        pd = analyze(lp, Policy())
        assert fin.nodes == pd.nodes and fin.edges == pd.edges
        assert frames_beneath(fin)[1] == frames_beneath(pd)[1]


def test_return_binds_result_at_the_recorded_caller():
    lp = corpus_program("invoke_id")
    dsg = analyze(lp, FINITE)
    ret = next(n for n in dsg.nodes if isinstance(n.stmt, Return)
               and lp.method_of_label(n.stmt.label).name == "id")
    call = next(lp.stmt(l) for l in all_labels(lp)
                if isinstance(lp.stmt(l), Assign)
                and isinstance(lp.stmt(l).exp, Invoke))
    after = lp.successor(call.label)
    bound = [e for e in dsg.edges if e[0] == ret and e[2].stmt is after]
    assert bound
    [target] = {e[2] for e in bound}
    assert frames_beneath(dsg)[1][target].get(Addr(call.var, target.fp))


def test_throw_dispatch_walks_call_records_transitively():
    # handler two activations above the throw still receives the value
    lp = corpus_program("deep_throw")
    dsg = analyze(lp, FINITE)
    links, _ = metric_ec_links(dsg)
    throw_label = next(l for l in all_labels(lp)
                       if isinstance(lp.stmt(l), Throw))
    assert any(t == throw_label for t, _ in links)
    _, visible = frames_beneath(dsg)
    handler_nodes = [n for n in dsg.nodes if n.stmt.label in lp.handler_heads]
    assert any(
        any(v.class_name == "Boom" for v in vals)
        for n in handler_nodes
        for a, vals in visible[n].items())


def test_handler_record_outlives_its_try_block():
    # the pushdown graph routes only the first call's throw into the
    # handler; the finite table never pops, so the second throw lands
    # there too
    lp = corpus_program("handler_scope_direct")
    fin_links, _ = metric_ec_links(analyze(lp, FINITE))
    pd_links, _ = metric_ec_links(analyze(lp, Policy()))
    assert len(pd_links) == 1
    assert len(fin_links) == 2
    assert pd_links < fin_links
    heads = {h for _, h in fin_links}
    assert len(heads) == 1  # both throws into the one handler


@pytest.mark.parametrize("name", sorted(corpus_names()))
def test_pushdown_links_never_exceed_finite(name):
    lp = corpus_program(name)
    pd, _ = metric_ec_links(analyze(lp, Policy()))
    fin, _ = metric_ec_links(analyze(lp, FINITE))
    assert pd <= fin


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("gc", [True, False], ids=["gc", "nogc"])
def test_differs_from_pushdown_only_in_stack_handling(name, k, gc):
    # same stores, context ticking and value rules: forgetting the stack
    # only adds nodes and bindings, and time is a call-site history in
    # both modes
    lp = named_program(name)
    pd = analyze(lp, Policy(k=k, gc=gc))
    fin = analyze(lp, Policy(k=k, gc=gc, mode="finite"))
    assert pd.nodes <= fin.nodes
    _, pd_visible = frames_beneath(pd)
    _, fin_visible = frames_beneath(fin)
    for q in pd.nodes:
        assert store_leq(pd_visible[q], fin_visible[q]), q
    calls = {l for l in all_labels(lp) if isinstance(lp.stmt(l), Assign)
             and isinstance(lp.stmt(l).exp, Invoke)}
    for dsg in (pd, fin):
        assert all(set(q.time) <= calls for q in dsg.nodes), dsg.policy.mode


# go() may run on a Thrower or a Work (pick joins them), so the first
# call may return and reach the try; the throw stepped under it reaches
# main's level, where the try records its handler only later
LATE_HANDLER = """
class Exc extends Object {
  Exc() { super(); }
}
class Work extends Object {
  Work() { super(); }
  Object go() {
    Object o;
    o = new Object();
    return o;
  }
}
class Thrower extends Work {
  Thrower() { super(); }
  Object go() {
    Exc e;
    e = new Exc();
    throw e;
  }
}
class Helper extends Object {
  Helper() { super(); }
  Object pick(Object x) {
    return x;
  }
  Object pass(Object x) {
    Object r;
    r = this.pick(x);
    return r;
  }
}
class Main extends Object {
  Main() { super(); }
  Object main() {
    Helper h;
    Work a;
    Work b;
    Work p;
    Work q;
    Object r1;
    Object r2;
    Exc saved;
    h = new Helper();
    a = new Thrower();
    b = new Work();
    p = h.pass(a);
    q = h.pass(b);
    r1 = p.go();
    try {
      r2 = q.go();
    } catch (Exc ex) {
      saved = ex;
    }
    return r2;
  }
}
"""


@pytest.mark.parametrize("gc", [True, False], ids=["gc", "nogc"])
def test_handler_recorded_after_a_throw_was_stepped_catches_it(gc):
    # a new record at a level a throw consulted is a new top frame for
    # it, even when no store it reads grows: the throw outside the try
    # lands in its handler too, as no frame is ever popped
    lp = load_program(LATE_HANDLER)
    policy = Policy(mode="finite", gc=gc)
    dsg = analyze(lp, policy)
    assert analysis_digest(dsg) == \
        analysis_digest(reference_analysis(lp, policy))
    caught = {q.fp for q, _, q2 in dsg.edges if isinstance(q.stmt, Throw)
              and q2.stmt.label in lp.handler_heads}
    assert len(caught) == 2


def test_terminates_on_recursion():
    for name in ("infinite_recursion", "mutual_recursion", "deep_throw"):
        dsg = analyze(corpus_program(name), FINITE)
        assert len(dsg.nodes) < 200


def test_budget_applies_in_finite_mode():
    lp = corpus_program("receiver_split")
    with pytest.raises(BudgetExceeded):
        analyze(lp, FINITE, Budget(max_nodes=2))


def test_finite_mode_is_deterministic():
    lp = corpus_program("deep_throw")
    a = analyze(lp, FINITE)
    b = analyze(lp, FINITE)
    assert a.nodes == b.nodes and a.edges == b.edges
    assert frames_beneath(a)[1] == frames_beneath(b)[1]


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
def test_level_root_sets_are_the_call_records_they_reach(name):
    # one root set per table level, grown as records arrive: at the
    # fixpoint it holds the pointers of the call records at every level
    # reachable from its own, and each collection at the level reads it
    # rather than a copy
    lp = named_program(name)
    for k in (0, 1):
        eng = _FiniteEngine(lp, Policy(mode="finite", k=k), Budget())
        eng.run()
        for q, node in eng.stepped.items():
            roots = stack_roots(eng.dsg, q)
            assert roots == finite_stack_fps(lp, eng.table, q), (k, q)
            assert node.collection.stack is roots
