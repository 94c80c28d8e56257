"""Finite baseline: stackless graphs, eternal handler records, imprecision."""

import pytest

from anfj.domain import EPSILON, Policy
from anfj.engine import Budget, BudgetExceeded, analyze
from anfj.machine import Addr
from anfj.metrics import metric_ec_links
from anfj.syntax import Assign, Invoke, Return, Throw

from helpers import CHAINS, corpus_names, corpus_program, named_program
from oracles import store_leq

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
        assert {q: fin.node_store(q) for q in fin.nodes} == \
               {q: pd.node_store(q) for q in pd.nodes}


def test_return_binds_result_at_the_recorded_caller():
    lp = corpus_program("invoke_id")
    dsg = analyze(lp, FINITE)
    ret = next(n for n in dsg.nodes if isinstance(n.stmt, Return)
               and lp.method_of_label(n.stmt.label).name == "id")
    call = next(lp.stmt(l) for l in lp.all_labels()
                if isinstance(lp.stmt(l), Assign)
                and isinstance(lp.stmt(l).exp, Invoke))
    after = lp.successor(call.label)
    bound = [e for e in dsg.edges if e[0] == ret and e[2].stmt is after]
    assert bound
    [target] = {e[2] for e in bound}
    assert dsg.node_store(target).get(Addr(call.var, target.fp))


def test_throw_dispatch_walks_call_records_transitively():
    # handler two activations above the throw still receives the value
    lp = corpus_program("deep_throw")
    dsg = analyze(lp, FINITE)
    links, _ = metric_ec_links(dsg)
    throw_label = next(l for l in lp.all_labels()
                       if isinstance(lp.stmt(l), Throw))
    assert any(t == throw_label for t, _ in links)
    handler_nodes = [n for n in dsg.nodes if n.stmt.label in lp.handler_heads]
    assert any(
        any(v.class_name == "Boom" for v in vals)
        for n in handler_nodes
        for a, vals in dsg.node_store(n).items())


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
    for q in pd.nodes:
        assert store_leq(pd.node_store(q), fin.node_store(q)), q
    calls = {l for l in lp.all_labels() if isinstance(lp.stmt(l), Assign)
             and isinstance(lp.stmt(l).exp, Invoke)}
    for dsg in (pd, fin):
        assert all(set(q.time) <= calls for q in dsg.nodes), dsg.policy.mode


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
    assert {q: a.node_store(q) for q in a.nodes} == \
           {q: b.node_store(q) for q in b.nodes}
