"""Precision metrics and the side-by-side comparison report."""

import json

import pytest

from anfj.domain import FP0A, ObjPtr, Policy
from anfj.engine import Budget, BudgetExceeded, DSG, analyze
from anfj.export import export_dsg
from anfj.machine import Addr, Value, run
from anfj.metrics import (
    POPULATION_NOTE, SideBudgetExceeded, compare, count_methods,
    metric_ec_links, points_to_union, report, thrown_classes,
)
from anfj.syntax import Throw, load_program

from helpers import CHAINS, FANIN, corpus_names, corpus_program, named_program
from oracles import frames_beneath
from test_byte_identity import POLICIES

NOGC = Policy(k=0, gc=False, liveness=False)


def union_sizes_by_base(dsg, base):
    union = points_to_union(dsg)
    return [len(vals) for a, vals in union.items() if a.base == base]


# -- averaging arithmetic on a hand-built graph --------------------------------

def test_mean_of_sizes_one_and_three_is_two():
    lp = corpus_program("minimal")
    real = analyze(lp, NOGC)
    q = real.initial
    ops = [ObjPtr(i, ()) for i in range(4)]
    store = {
        Addr("u", FP0A): frozenset({Value("Object", ops[0])}),
        Addr("w", FP0A): frozenset(
            {Value("Object", op) for op in ops[1:]}),
    }
    dsg = DSG(lp=lp, policy=NOGC, initial=q, nodes={q},
              node_stores={q: store})
    r = report(dsg)
    assert r.var_points_to == 2.0
    assert r.throws is None  # no throw nodes, so no such role


def test_empty_population_is_none_not_zero():
    lp = corpus_program("minimal")
    real = analyze(lp, NOGC)
    dsg = DSG(lp=lp, policy=NOGC, initial=real.initial,
              nodes={real.initial}, node_stores={real.initial: {}})
    r = report(dsg)
    assert r.var_points_to is None
    assert r.throws is None


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS) + [FANIN])
def test_stepped_stores_give_the_visible_stores_metrics(name):
    # the metrics read the stepped stores: a visible store adds only
    # bindings that its push sources' stepped stores hold, and the
    # thrown variable is on the throw's own frame
    lp = named_program(name)
    for policy in POLICIES:
        dsg = analyze(lp, policy)
        _, visible = frames_beneath(dsg)
        union: dict = {}
        thrown = set()
        for q, sigma in visible.items():
            for a, vals in sigma.items():
                union[a] = union.get(a, frozenset()) | vals
            if isinstance(q.stmt, Throw):
                thrown |= {v.class_name for v in sigma.get(
                    Addr(q.stmt.var, q.fp), ())}
        assert points_to_union(dsg) == union, policy
        assert thrown_classes(dsg) == thrown, policy


# -- variable points-to --------------------------------------------------------

def test_local_reuse_rebinds_fresh_with_gc():
    # hand derivation: tmp dies after each call, so its next allocation
    # lands in an empty set and each of a1,a2,b1,b2 sees one object
    lp = corpus_program("reuse_of_locals")
    dsg = analyze(lp, Policy(k=0))
    for base in ("a1", "a2", "b1", "b2"):
        sizes = union_sizes_by_base(dsg, base)
        assert sizes and all(s == 1 for s in sizes), (base, sizes)
    # tmp and tb union their two allocations across nodes, so the overall
    # mean sits above 1 even though every single node store is precise
    assert report(dsg).var_points_to < report(
        analyze(lp, NOGC)).var_points_to


def test_local_reuse_joins_without_gc():
    lp = corpus_program("reuse_of_locals")
    dsg = analyze(lp, NOGC)
    joined = union_sizes_by_base(dsg, "a2") + union_sizes_by_base(dsg, "b2")
    assert any(s >= 2 for s in joined)
    assert report(dsg).var_points_to > 1.0


def test_all_throw_values_leave_var_population_empty():
    # the only binding is the thrown object itself
    lp = corpus_program("uncaught")
    dsg = analyze(lp, Policy(k=0))
    r = report(dsg)
    assert r.var_points_to is None
    assert r.throws == 1.0


# -- throws metric -------------------------------------------------------------

def test_no_throws_reports_none():
    dsg = analyze(corpus_program("minimal"), Policy(k=0))
    assert report(dsg).throws is None


TWO_CLASS_THROW = """
// one variable receives two exception classes through dispatch
class E1 extends Object { E1() { super(); } }
class E2 extends Object { E2() { super(); } }
class MkA extends Object {
  MkA() { super(); }
  Object make() {
    Object e;
    e = new E1();
    return e;
  }
}
class MkB extends MkA {
  MkB() { super(); }
  Object make() {
    Object e;
    e = new E2();
    return e;
  }
}
class Main extends Object {
  Main() { super(); }
  Object main() {
    MkA m;
    Object x;
    m = new MkA();
    m = new MkB();
    x = m.make();
    throw x;
  }
}
"""


def test_two_classes_through_one_variable():
    # hand derivation at k=0 without gc: m holds both receivers, the two
    # make bodies share one frame pointer, so e and x each hold {E1, E2}
    lp = load_program(TWO_CLASS_THROW)
    dsg = analyze(lp, NOGC)
    assert report(dsg).throws == 2.0


# -- exception-catcher links ----------------------------------------------------

def test_direct_handler_links_pushdown_vs_finite():
    lp = corpus_program("handler_scope_direct")
    pd, _ = metric_ec_links(analyze(lp, Policy(k=0)))
    fin, fin_avg = metric_ec_links(analyze(lp, Policy(k=0, mode="finite")))
    heads = set(lp.handler_heads)
    assert len(pd) == 1 and len(fin) == 2
    assert pd < fin
    assert {h for _, h in fin} <= heads
    # the spurious link blames a second throw site, so per-site averages
    # stay at one on both sides; the count tells them apart
    assert len({t for t, _ in fin}) == 2
    assert fin_avg == 1.0


def test_try_without_throw_has_no_links():
    dsg = analyze(corpus_program("try_complete"), Policy(k=0))
    links, avg = metric_ec_links(dsg)
    assert links == set()
    assert avg is None


def test_every_link_is_witnessed_in_the_export():
    for name in ("handler_scope_direct", "try_catch_local", "deep_throw"):
        dsg = analyze(corpus_program(name), Policy(k=0))
        links, _ = metric_ec_links(dsg)
        doc = json.loads(export_dsg(dsg, "json"))
        label_of = {n["id"]: n["label"] for n in doc["nodes"]}
        edge_pairs = {(label_of[src], label_of[dst])
                      for src, _act, dst in doc["edges"]}
        for lt, lh in links:
            assert (lt, lh) in edge_pairs, (name, lt, lh)


def test_trace_links_within_pushdown_within_finite():
    for name in sorted(corpus_names()):
        lp = corpus_program(name)
        pd, _ = metric_ec_links(analyze(lp, Policy(k=0)))
        fin, _ = metric_ec_links(analyze(lp, Policy(k=0, mode="finite")))
        assert pd <= fin, name
        _, trace = run(lp, fuel=600)
        seen = {(a.stmt.label, b.stmt.label)
                for a, b in zip(trace, trace[1:])
                if isinstance(a.stmt, Throw)
                and b.stmt.label in lp.handler_heads}
        assert seen <= pd, name


# -- report rendering ------------------------------------------------------------

def test_report_header_documents_population():
    rep = report(analyze(corpus_program("handler_scope_direct"),
                         Policy(k=0)))
    text = rep.render()
    assert POPULATION_NOTE in text
    assert "VarPointsTo:" in text and "Throws:" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert not any("n/a" in l for l in body)  # both populations are live


def test_report_formats_missing_metrics_as_na():
    rep = report(analyze(corpus_program("minimal"), Policy(k=0)))
    assert rep.throws is None
    assert any(l.startswith("Throws:") and l.split()[-1] == "n/a"
               for l in rep.render().splitlines())
    assert rep.to_dict()["throws"] is None


def test_method_count_covers_reached_methods_only():
    dsg = analyze(corpus_program("invoke_id"), Policy(k=0))
    lp = dsg.lp
    reached = {(lp.method_of_label(n.stmt.label).owner,
                lp.method_of_label(n.stmt.label).name)
               for n in dsg.nodes}
    assert count_methods(dsg) == len(reached) >= 2


def test_reports_are_scheduling_independent():
    for name in ("handler_scope_direct", "mutual_recursion", "deep_throw"):
        lp = corpus_program(name)
        a = report(analyze(lp, Policy(k=1)))
        b = report(analyze(lp, Policy(k=1)))
        assert a.render() == b.render()
        assert a.to_dict() == b.to_dict()


# -- comparison ------------------------------------------------------------------

def test_identical_policies_give_unit_ratios():
    cmp = compare(corpus_program("handler_scope_direct"),
                  Policy(k=0), Policy(k=0))
    assert set(cmp.ratios.values()) == {1.0}


def test_pushdown_vs_finite_link_counts():
    cmp = compare(corpus_program("handler_scope_direct"),
                  Policy(k=0), Policy(k=0, mode="finite"))
    assert len(cmp.a.ec_links) == 1
    assert len(cmp.b.ec_links) == 2
    assert cmp.ratios["ecLinkCount B/A"] == 2.0
    text = cmp.render()
    assert "== side A ==" in text and "== side B ==" in text


def test_gc_off_inflates_points_to_relative_to_gc_on():
    cmp = compare(corpus_program("reuse_of_locals"), Policy(k=0), NOGC)
    assert cmp.ratios["varPointsTo B/A"] > 1.0


def test_na_propagates_through_ratios():
    cmp = compare(corpus_program("minimal"), Policy(k=0), NOGC)
    assert cmp.ratios["throws B/A"] is None
    assert "n/a" in cmp.render()


def test_budget_blame_names_the_side():
    lp = corpus_program("mutual_recursion")
    tiny = Budget(max_nodes=2)
    with pytest.raises(SideBudgetExceeded) as exc:
        compare(lp, Policy(k=0), Policy(k=0), budget=tiny)
    assert exc.value.side == "A"
    assert isinstance(exc.value.exc, BudgetExceeded)
