"""State-graph engine: worklist fixpoint, closure maps, summaries, budgets."""

import re
from collections import deque
from dataclasses import replace

import pytest

import anfj.engine as engine_module

from anfj.domain import (
    BOTTOM, CallFrame, ControlState, EPSILON, FP0A, FramePtr, HandlerFrame,
    ObjPtr, Policy, Pop, Push, next as abstract_next, state_key, store_join,
)
from anfj.engine import (
    Budget, BudgetExceeded, IECG, Worklist, _PushdownEngine, activation,
    analyze, process_pop, process_push, propagate,
)
from anfj.finite import _FiniteEngine
from anfj.gc import eagc
from anfj.machine import Addr, Value
from anfj.syntax import (
    Assign, Invoke, New, PopHandler, Return, Throw, TryCatch, VarRef,
    load_program,
)

from helpers import (
    CHAINS, FANIN, all_labels, corpus_names, corpus_program,
    long_method_source, named_program, stack_roots,
)
from oracles import (
    call_fps, epsilon_closure, explore_configs, frames_beneath,
    heap_and_frame, least_psf, net_empty_pairs, own_frame, store_leq,
    update_psf,
)
from test_byte_identity import POLICIES, analysis_digest


def nodes_at(dsg, pred):
    return [n for n in dsg.nodes if pred(n.stmt)]


def the_node(dsg, pred):
    found = nodes_at(dsg, pred)
    assert len(found) == 1, f"expected one node, got {len(found)}"
    return found[0]


# -- analyze shapes -------------------------------------------------------------

def test_analyze_straight_line_is_a_linear_epsilon_chain():
    lp = corpus_program("minimal")
    dsg = analyze(lp, Policy())
    assert len(dsg.nodes) == len(all_labels(lp))
    assert all(act == EPSILON for _, act, _ in dsg.edges)
    ret = the_node(dsg, lambda s: isinstance(s, Return))
    assert not [e for e in dsg.edges if e[0] == ret]
    assert dsg.initial in dsg.nodes
    assert len(dsg.edges) == len(dsg.nodes) - 1


def test_analyze_try_catch_push_pop_and_spanning_summary():
    # handler pushed at try, popped at the completion marker, and the
    # closure inserts the epsilon edge that spans the pair
    lp = corpus_program("try_complete")
    dsg = analyze(lp, Policy())
    try_node = the_node(dsg, lambda s: isinstance(s, TryCatch))
    pop_node = the_node(dsg, lambda s: isinstance(s, PopHandler))
    after = lp.successor(pop_node.stmt.label)

    pushes = [e for e in dsg.edges if isinstance(e[1], Push)]
    assert len(pushes) == 1
    (s1, push, s2) = pushes[0]
    assert s1 == try_node and isinstance(push.frame, HandlerFrame)
    assert s2.stmt is try_node.stmt.body[0]

    pops = [e for e in dsg.edges if isinstance(e[1], Pop)]
    assert [e for e in pops if e[0] == pop_node
            and e[1].frame == push.frame and e[2].stmt is after]
    assert [e for e in dsg.edges
            if e[0] == try_node and e[1] == EPSILON and e[2].stmt is after]


def test_analyze_uncaught_throw_has_no_successors():
    lp = corpus_program("uncaught")
    dsg = analyze(lp, Policy())
    throw = the_node(dsg, lambda s: isinstance(s, Throw))
    assert not [e for e in dsg.edges if e[0] == throw]
    assert BOTTOM in dsg.iecg.tf(throw)


def test_analyze_deep_uncaught_pops_to_the_bottom():
    # thrown below two activations: pop edges peel the call frames, then
    # the throw sits at the empty-stack level with no way out
    lp = corpus_program("rethrow_uncaught")
    dsg = analyze(lp, Policy())
    throws = nodes_at(dsg, lambda s: isinstance(s, Throw))
    pops = [e for e in dsg.edges
            if isinstance(e[1], Pop) and isinstance(e[0].stmt, Throw)]
    assert pops, "expected call frames peeled at a throw"
    assert any(BOTTOM in dsg.iecg.tf(t) and
               not [e for e in dsg.edges if e[0] == t and e[2] != t]
               for t in throws)


# -- fixpoint ----------------------------------------------------------------

FIXPOINT_POLICIES = [Policy(), Policy(gc=False), Policy(k=1)]


@pytest.mark.parametrize("name", ["throw_across_call", "try_complete"])
@pytest.mark.parametrize("policy", FIXPOINT_POLICIES,
                         ids=["default", "nogc", "k1"])
def test_analysis_result_is_a_fixpoint(name, policy):
    # one more step of any node, under any of its top frames, finds
    # nothing new: no node, no edge, no growth of a full store, where a
    # push or pop into another activation carries the heap and that
    # activation's frame, and every epsilon edge its source's own frame;
    # the visible store adds to the stepped one only frames beneath
    lp = corpus_program(name)
    dsg = analyze(lp, policy)
    _, visible = frames_beneath(dsg)
    stepped = {}
    for q in sorted(dsg.nodes, key=state_key):
        full = dsg.full_stores.get(q, {})
        psf = stack_roots(dsg, q)
        sigma = stepped[q] = (eagc(q, full, psf, lp, policy) if policy.gc
                              else full)
        assert heap_and_frame(visible[q], q.fp) == heap_and_frame(sigma, q.fp)
        assert store_leq(sigma, visible[q])
        for kappa in dsg.iecg.tf(q):
            top = None if kappa is BOTTOM else kappa
            for q2, act, sg2 in abstract_next(lp, q, sigma, top, policy):
                assert q2 in dsg.nodes
                assert (q, act, q2) in dsg.edges
                if q2.fp != q.fp:
                    sg2 = heap_and_frame(sg2, q2.fp)
                full2 = dsg.full_stores.get(q2, {})
                assert store_join(full2, sg2) is full2
    for w, act, s2 in dsg.edges:
        if act == EPSILON:
            assert store_leq(own_frame(stepped[w], w.fp),
                             dsg.full_stores[s2])


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
def test_unbound_reads_are_unbound_at_the_fixpoint(name):
    # a diagnostic of an intermediate step, whose store had not yet
    # grown, must not survive: some node at the label still lacks the
    # binding in its final visible store
    lp = named_program(name)
    for policy in POLICIES:
        dsg = analyze(lp, policy)
        _, visible = frames_beneath(dsg)
        reads = {}
        for label, reason in dsg.diagnostics:
            m = re.fullmatch(r"unbound read of '(\w+)'", reason)
            if m:
                reads[label] = reads.get(label, set()) | {m.group(1)}
        if name == "unbound_local":
            assert reads, policy
        for label, names in reads.items():
            for var in names:
                assert any(not visible[q].get(Addr(var, q.fp))
                           for q in dsg.nodes if q.stmt.label == label), \
                    (policy, label, var)


class FifoWorklist(Worklist):
    """Arrival order: first in, first out."""

    def __init__(self, causes):
        super().__init__(causes)
        self.line = deque()

    def _put(self, s):
        self.line.append(s)

    def _take(self):
        return self.line.popleft()


class LifoWorklist(FifoWorklist):
    """Arrival order reversed: last in, first out."""

    def _take(self):
        return self.line.pop()


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS) + [FANIN])
def test_worklist_order_changes_no_output(name, monkeypatch):
    # the result is the least fixpoint, whatever order reaches it; the
    # one core builds the worklist of both modes, and POLICIES has both.
    # Nor may the order reach the JSON export's choice of base nodes,
    # which matters most on FANIN's large stores
    lp = named_program(name)
    want = [analysis_digest(analyze(lp, policy)) for policy in POLICIES]
    for order in (FifoWorklist, LifoWorklist):
        monkeypatch.setattr(engine_module, "Worklist", order)
        got = [analysis_digest(analyze(lp, policy))
               for policy in POLICIES]
        assert got == want, order.__name__


def test_recursion_terminates_and_reuses_nodes():
    for name in ("infinite_recursion", "mutual_recursion"):
        lp = corpus_program(name)
        dsg = analyze(lp, Policy())
        assert len(dsg.nodes) < 100
        push_targets = {}
        for s1, act, s2 in dsg.edges:
            if isinstance(act, Push):
                push_targets.setdefault(s2, set()).add((s1, act.frame))
        assert any(len(srcs) >= 2 for srcs in push_targets.values()), \
            "recursive call should push into an existing entry node"


# -- one step ----------------------------------------------------------------------
#
# A step collects the node's store when gc is on (eagc) and applies the
# transition rules (abstract_next) under each top frame.

def test_step_dead_configuration_has_no_successors():
    lp = corpus_program("var_chain")
    s = next(lp.stmt(l) for l in all_labels(lp)
             if isinstance(lp.stmt(l), Assign)
             and isinstance(lp.stmt(l).exp, VarRef))
    q = ControlState(s, FP0A, ())
    policy = Policy()
    sigma = eagc(q, {}, set(), lp, policy)
    assert abstract_next(lp, q, sigma, None, policy) == []


def test_step_throw_over_two_classes_yields_two_records():
    lp = corpus_program("throw_across_call")
    s = next(lp.stmt(l) for l in all_labels(lp)
             if isinstance(lp.stmt(l), Throw))
    hit = Value("Boom", ObjPtr(1, ()))
    miss = Value("Ok", ObjPtr(2, ()))
    sigma = {Addr(s.var, FP0A): frozenset((hit, miss))}
    q = ControlState(s, FP0A, ())
    frame = HandlerFrame("Boom", "x", lp.stmt(1), FP0A)
    records = [(act, q2) for q2, act, _ in
               abstract_next(lp, q, sigma, frame, Policy(gc=False))]
    assert len(set(records)) == 2


def test_step_gc_on_steps_the_collected_store():
    # the dead wrapper binding must not leak into callee-entry stores
    lp = corpus_program("dead_before_call")
    call = next(lp.stmt(l) for l in all_labels(lp)
                if isinstance(lp.stmt(l), Assign)
                and isinstance(lp.stmt(l).exp, Invoke))
    dsg_off = analyze(lp, Policy(gc=False))
    q = the_node(dsg_off, lambda s: s is call)
    sigma = frames_beneath(dsg_off)[1][q]
    b_addr = Addr("b", q.fp)
    assert b_addr in sigma

    def callee_stores(policy):
        use = eagc(q, sigma, set(), lp, policy)
        return [sg2 for _, _, sg2 in abstract_next(lp, q, use, None, policy)]

    with_gc = callee_stores(Policy(gc=True))
    without = callee_stores(Policy(gc=False))
    assert with_gc and without
    assert all(b_addr not in sg for sg in with_gc)
    assert all(b_addr in sg for sg in without)
    # and the engine's step collects before it applies the rules
    dsg_on = analyze(lp, Policy())
    q_on = the_node(dsg_on, lambda s: s is call)
    entries = [q2 for q1, act, q2 in dsg_on.edges
               if q1 == q_on and isinstance(act, Push)]
    assert entries
    assert all(b_addr not in dsg_on.full_stores[e] for e in entries)


def test_step_try_pushes_one_handler_frame():
    lp = corpus_program("try_complete")
    s = next(lp.stmt(l) for l in all_labels(lp)
             if isinstance(lp.stmt(l), TryCatch))
    q = ControlState(s, FP0A, ())
    policy = Policy()
    sigma = eagc(q, {}, set(), lp, policy)
    [(q2, act, _)] = abstract_next(lp, q, sigma, None, policy)
    assert isinstance(act, Push) and isinstance(act.frame, HandlerFrame)
    assert q2.stmt is s.body[0]


# -- closure map algebra -----------------------------------------------------------

def _states(lp, n):
    labels = all_labels(lp)[:n]
    return [ControlState(lp.stmt(l), FP0A, ()) for l in labels]


def _records(iecg, part):
    """(node, top frame) -> a copy of its push sources (part 0) or its
    pop targets (part 1)."""
    return {(s, f): set(rec[part]) for s, tops in iecg.closure.items()
            for f, rec in tops.items()}


def test_propagate_base_case():
    lp = corpus_program("var_chain")
    s1, s2 = _states(lp, 2)
    f = CallFrame("r", lp.stmt(1), FP0A)
    iecg = IECG()
    iecg.add(s1, f)
    propagate(s1, s2, iecg)
    assert iecg.eps_next == {s1: {s2}}
    assert f in iecg.tf(s2)


def test_propagate_closes_transitively():
    # a push at a after a -> b -> c reaches c along the direct edges,
    # which are all the map keeps
    lp = corpus_program("var_chain")
    w, a, b, c = _states(lp, 4)
    g = CallFrame("r", lp.stmt(1), FP0A)
    iecg = IECG()
    propagate(a, b, iecg)
    propagate(b, c, iecg)
    process_push(w, g, a, iecg)
    assert iecg.eps_next == {a: {b}, b: {c}}
    for s in (a, b, c):
        assert iecg.tf(s) == {g}
        assert iecg.closure[s][g] == ({w}, set())


def test_update_psf_examples():
    lp = corpus_program("var_chain")
    s, p = _states(lp, 2)
    fp1 = FramePtr(1, ())
    f = CallFrame("r", lp.stmt(1), FP0A)
    g = HandlerFrame("E", "e", lp.stmt(1), fp1)

    # no predecessors: PSF(s) = the pointers of TF(s)'s call frames
    assert update_psf(s, {s: {f, g}}, {}, {}, {}) == {FP0A}
    # a push predecessor contributes its whole PSF
    out = update_psf(s, {s: {f}}, {p: {FP0A, fp1}}, {s: {p}}, {})
    assert out == {FP0A, fp1}
    # an epsilon predecessor contributes the same way
    out = update_psf(s, {s: {f}}, {p: {FP0A, fp1}}, {}, {s: {p}})
    assert out == {FP0A, fp1}


@pytest.mark.parametrize("name", corpus_names())
def test_psf_is_the_least_solution_of_its_spec(name):
    # the deltas the root graph passes on add up to what re-unioning
    # every predecessor's whole PSF would give, and to no more; the
    # graph is kept under GC only, for its one reader
    lp = corpus_program(name)
    for policy in [p for p in POLICIES if p.mode == "pushdown" and p.gc]:
        dsg = analyze(lp, policy)
        iecg = dsg.iecg
        held = dsg.roots.ptrs
        push_preds: dict = {}
        eps_preds: dict = {}
        for s1, act, s2 in dsg.edges:
            if isinstance(act, Push):
                push_preds.setdefault(s2, set()).add(s1)
            elif act == EPSILON:
                eps_preds.setdefault(s2, set()).add(s1)
        pushed_objs: dict = {}
        for s1, act, s2 in dsg.edges:
            if isinstance(act, Push) and isinstance(act.frame, CallFrame):
                pushed_objs.setdefault(s2, set()).update(held.get(s1, ()))
        nodes = sorted(dsg.nodes, key=state_key)
        tops = {s: set(iecg.tf(s)) for s in nodes}
        # the summary is kept per activation, the spec is per node
        psf = {s: stack_roots(dsg, s) for s in nodes}
        for s in nodes:
            # a call site's root set: the objects bound in its own
            # frame, once collected
            sigma = eagc(s, dsg.full_stores.get(s, {}), psf[s], lp, policy)
            if s in dsg.roots.above:
                assert held[s] == {
                    v.op for vals in own_frame(sigma, s.fp).values()
                    for v in vals}
            assert psf[s] == update_psf(
                s, tops, psf, push_preds, eps_preds, pushed_objs)
        least = least_psf(nodes, tops, push_preds, eps_preds,
                          pushed_objs)
        assert {s: fps for s, fps in psf.items() if fps} == \
            {s: fps for s, fps in least.items() if fps}


def test_process_push_reaches_epsilon_successors_and_is_idempotent():
    lp = corpus_program("var_chain")
    s1, s2, s3 = _states(lp, 3)
    g = CallFrame("r", lp.stmt(1), FP0A)
    iecg = IECG()
    propagate(s2, s3, iecg)
    process_push(s1, g, s2, iecg)
    for s in (s2, s3):
        assert g in iecg.tf(s)
        assert iecg.closure[s][g] == ({s1}, set())
    snap = (_records(iecg, 0), _records(iecg, 1))
    process_push(s1, g, s2, iecg)
    assert snap == (_records(iecg, 0), _records(iecg, 1))


def test_psf_growth_marks_root_growth_only_for_new_call_frame_pointers():
    # the one rule both engines grow the root graph by: a call frame
    # pushed onto key's stack puts its pointer in key's set, and the
    # activation it returns to beneath key, with the call site in
    # pushdown mode, which knows it
    lp = corpus_program("var_chain")
    for mode in ("pushdown", "finite"):
        eng = ENGINES[mode](lp, Policy(mode=mode), Budget())
        roots = eng.roots
        q0 = eng.dsg.initial
        site = q0 if mode == "pushdown" else None
        fp1 = q0.fp                    # the frames return into q0's activation
        key = activation(lp, lp.stmt(2), FramePtr(2, ()))
        h = HandlerFrame("E", "e", lp.stmt(1), fp1)
        r = CallFrame("r", lp.stmt(1), fp1)
        q = CallFrame("q", lp.stmt(2), fp1)
        eng.pushed(h, key, site)
        assert roots.grown == [] and not roots.ptrs.get(key)  # owns no root
        assert not roots.above, mode
        eng.pushed(r, key, site)
        assert roots.grown == [(key, {fp1})]
        below = {eng.act[q0]} | ({site} - {None})
        assert {p for p, ups in roots.above.items() if key in ups} == below
        eng.pushed(q, key, site)
        assert roots.grown == [(key, {fp1})]  # same pointer, same roots
        assert roots.ptrs[key] == {fp1}


def test_process_pop_empty_pfp_is_inert():
    # the pop is recorded, but no push cancels it
    lp = corpus_program("var_chain")
    s1, s2 = _states(lp, 2)
    g = CallFrame("r", lp.stmt(1), FP0A)
    iecg = IECG()
    iecg.add(s1, g)
    assert process_pop(s1, g, s2, iecg) == []
    assert not iecg.eps_next
    assert iecg.closure == {s1: {g: (set(), {s2})}}


def test_process_pop_single_source_behaves_as_propagate():
    lp = corpus_program("var_chain")
    q0, s1, s2 = _states(lp, 3)
    g = CallFrame("r", lp.stmt(1), FP0A)

    # process_pop records the pop target and returns the push sources;
    # the summary edge's propagate, the caller's, then closes as a
    # plain one does
    popped = IECG()
    popped.add(s1, g, q0)
    assert process_pop(s1, g, s2, popped) == [q0]
    assert not popped.eps_next
    assert _records(popped, 1) == {(s1, g): {s2}}
    propagate(q0, s2, popped)

    plain = IECG()
    plain.add(s1, g, q0)
    propagate(q0, s2, plain)
    assert popped.eps_next == plain.eps_next
    assert _records(popped, 0) == _records(plain, 0)
    assert _records(popped, 1) == {(s1, g): {s2}}
    assert _records(plain, 1) == {(s1, g): set()}


def test_pop_self_edge_exposes_the_frame_beneath():
    # a throw below a call: the popping self-edge consumes the call
    # frame, and the summary it creates delivers the handler frame
    lp = corpus_program("throw_across_call")
    dsg = analyze(lp, Policy())
    throw = the_node(dsg, lambda s: isinstance(s, Throw))
    self_pops = [e for e in dsg.edges
                 if e[0] == throw and e[2] == throw and isinstance(e[1], Pop)]
    assert self_pops and all(isinstance(e[1].frame, CallFrame)
                             for e in self_pops)
    tf = dsg.iecg.tf(throw)
    assert any(isinstance(f, CallFrame) for f in tf)
    assert any(isinstance(f, HandlerFrame) for f in tf)
    handler_pops = [e for e in dsg.edges
                    if e[0] == throw and isinstance(e[1], Pop)
                    and isinstance(e[1].frame, HandlerFrame)]
    assert handler_pops and all(e[2] != throw for e in handler_pops)


def test_return_self_edge_skips_handler_frame():
    lp = corpus_program("return_over_handler")
    dsg = analyze(lp, Policy())
    rets = nodes_at(dsg, lambda s: isinstance(s, Return))
    assert any(e[0] == r and e[2] == r and isinstance(e[1], Pop)
               and isinstance(e[1].frame, HandlerFrame)
               for r in rets for e in dsg.edges)


# -- whole-graph invariants ---------------------------------------------------------

CHECK_PROGRAMS = ["try_complete", "throw_across_call", "handler_scope_direct",
                  "nested_complete", "mutual_recursion", "receiver_split"]


@pytest.mark.parametrize("name", CHECK_PROGRAMS)
@pytest.mark.parametrize("policy", [Policy(), Policy(gc=False), Policy(k=1)],
                         ids=["default", "nogc", "k1"])
def test_iecg_invariants(name, policy):
    lp = corpus_program(name)
    dsg = analyze(lp, policy)
    iecg = dsg.iecg
    assert dsg.initial in dsg.nodes
    for s1, act, s2 in dsg.edges:
        assert s1 in dsg.nodes and s2 in dsg.nodes
    # eps_next holds exactly the graph's epsilon edges, summaries included
    assert {(s, s2) for s, succs in iecg.eps_next.items() for s2 in succs} \
        == {(s1, s2) for s1, act, s2 in dsg.edges if act == EPSILON}
    # the stack summaries are kept under GC only
    on = dsg if policy.gc else analyze(lp, replace(policy, gc=True))
    for s in on.nodes:
        assert call_fps(on.iecg.tf(s)) <= stack_roots(on, s)
    # a frame has a push source exactly when it is not BOTTOM
    for (s, f), srcs in _records(iecg, 0).items():
        assert bool(srcs) == (f is not BOTTOM), (s, f)
    assert BOTTOM in iecg.tf(dsg.initial)


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
def test_closure_is_monotone_along_epsilon_and_psf_follows_edges(name):
    # propagate reads top frames and push sources at an edge's source
    # alone, which holds only if every epsilon edge's target already has
    # those of its source; and the root graph's edges are the push
    # rule's and nothing else: per call push edge, the caller's
    # activation and the call site beneath the callee's, and per
    # epsilon edge between two activations (a summary into a throw)
    # its source's beneath its target's, never per reachable pair
    lp = named_program(name)
    for policy in [p for p in POLICIES if p.mode == "pushdown"]:
        dsg = analyze(lp, policy)
        iecg = dsg.iecg
        for p, act, n in dsg.edges:
            if act != EPSILON:
                continue
            tf = iecg.tf(p)
            assert tf <= iecg.tf(n)
            for f in tf:
                assert iecg.closure[p][f][0] <= iecg.closure[n][f][0]
        if not policy.gc:              # no root graph to follow
            continue
        deps = {(p, s) for p, ss in dsg.roots.above.items() for s in ss}
        act = {s: activation(lp, s.stmt, s.fp) for s in dsg.nodes}
        rule = set()
        for s1, a, s2 in dsg.edges:
            if isinstance(a, Push) and isinstance(a.frame, CallFrame):
                rule |= {(act[s1], act[s2]), (s1, act[s2])}
            elif a == EPSILON:
                rule.add((act[s1], act[s2]))
        assert deps == {(p, s) for p, s in rule if p != s}, policy


def _pushes_only(stmt) -> bool:
    return isinstance(stmt, TryCatch) or (
        isinstance(stmt, Assign) and isinstance(stmt.exp, Invoke))


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
def test_closure_records_are_the_pushes_and_pops_of_the_graph(name):
    # the facts the engine's one record per (node, top frame) relies on:
    # BOTTOM is the one top frame that no node pushed; a record's pop
    # targets are those of the node's pop edges of its frame; and the
    # epsilon successors of a call or a try, which only push, are its
    # summary targets, each a push source cancelled by a recorded pop
    lp = named_program(name)
    for policy in [p for p in POLICIES if p.mode == "pushdown"]:
        dsg = analyze(lp, policy)
        iecg = dsg.iecg
        assert set(iecg.closure) == dsg.nodes, policy
        pops: dict = {}
        for s1, act, s2 in dsg.edges:
            if isinstance(act, Pop):
                pops.setdefault((s1, act.frame), set()).add(s2)
        records = _records(iecg, 0)
        assert pops.keys() <= records.keys(), policy
        summaries: dict = {}
        for (s, f), srcs in records.items():
            assert bool(srcs) == (f is not BOTTOM), (policy, s, f)
            assert iecg.closure[s][f][1] == pops.get((s, f), set()), \
                (policy, s, f)
            for w in srcs:
                summaries.setdefault(w, set()).update(iecg.closure[s][f][1])
        for w, dsts in summaries.items():
            assert _pushes_only(w.stmt), (policy, w)
            assert {(w, EPSILON, d) for d in dsts} <= dsg.edges, (policy, w)
        for s in dsg.nodes:
            if _pushes_only(s.stmt):
                assert iecg.eps_next.get(s, set()) == \
                    summaries.get(s, set()), (policy, s)


def test_long_shared_method_closes_without_recursion():
    # f's 3,000 statements are one epsilon path that the second call's
    # return frame has to travel after the path exists
    lp = load_program(long_method_source(3000))
    dsg = analyze(lp, Policy())
    eps_edges = {(s1, s2) for s1, act, s2 in dsg.edges if act == EPSILON}
    assert len(eps_edges) > 3000
    assert {(s, s2) for s, succs in dsg.iecg.eps_next.items()
            for s2 in succs} == eps_edges
    ret = the_node(dsg, lambda s: isinstance(s, Return)
                   and lp.method_of_label(s.label).name == "f")
    returns = {f for f in dsg.iecg.tf(ret) if isinstance(f, CallFrame)}
    assert len(returns) == 2
    finite = analyze(lp, Policy(mode="finite"))
    assert finite.nodes == dsg.nodes


def test_analysis_is_deterministic():
    lp = corpus_program("handler_scope_wrapped")
    a = analyze(lp, Policy())
    b = analyze(lp, Policy())
    assert a.nodes == b.nodes and a.edges == b.edges
    assert frames_beneath(a)[1] == frames_beneath(b)[1]


# -- step causes ------------------------------------------------------------------

ENGINES = {"pushdown": _PushdownEngine, "finite": _FiniteEngine}
CAUSES = {"pushdown": {"new_node", "store", "top_frames", "gc_roots"},
          "finite": {"new_node", "store", "table"}}


@pytest.mark.parametrize("name", corpus_names())
@pytest.mark.parametrize("mode", ["pushdown", "finite"])
@pytest.mark.parametrize("gc", [True, False], ids=["gc", "nogc"])
def test_every_step_has_one_cause(name, mode, gc):
    dsg = analyze(corpus_program(name), Policy(mode=mode, gc=gc))
    causes = dsg.stats["step_causes"]
    assert set(causes) == CAUSES[mode]
    assert dsg.stats["steps"] == 1 + sum(causes.values())
    assert causes["new_node"] == len(dsg.nodes) - 1
    if mode == "pushdown" and not gc:
        assert causes["gc_roots"] == 0


@pytest.mark.parametrize("mode", ["pushdown", "finite"])
def test_root_growth_wakes_only_the_collections_waiting_on_it(mode):
    # a pointer that joins an activation's root set, under an address a
    # node's last collection left pending, is handed to that node and
    # queues it once with the engine's root cause, and its next
    # collection keeps that address; a pointer nothing waits on queues
    # nothing
    lp = named_program("chain7")
    eng = ENGINES[mode](lp, Policy(mode=mode), Budget())
    dsg = eng.run()
    assert not eng.work and not eng.roots.grown
    s, key, p = min(((s, key, p) for key, waiting in eng.waiting.items()
                     for p, ss in waiting.items() for s in ss
                     if p in eng.stepped[s].collection.pending),
                    key=lambda t: state_key(t[0]))
    assert p not in eng.roots.ptrs[key]
    waiting = {t for t in eng.waiting[key][p]
               if p in eng.stepped[t].collection.pending}
    unkept = set(eng.stepped[s].collection.pending[p])
    assert unkept and not unkept & set(dsg.node_stores[s])
    causes = dict(eng.work.causes)

    eng.roots.add(key, {p})
    eng.wake()
    assert eng.work.queued == waiting and s in waiting
    assert p in eng.stepped[s].roots
    causes[eng.root_cause] += len(waiting)
    assert eng.work.causes == causes and not eng.roots.grown
    eng.roots.add(key, {p})            # no growth, no second wake
    eng.wake()
    assert len(eng.work) == len(waiting) and eng.work.causes == causes

    eng.run()
    assert unkept <= set(dsg.node_stores[s])

    causes = dict(eng.work.causes)
    eng.roots.add(key, {FramePtr(None, ("nowhere",))})
    eng.wake()
    assert not eng.work and eng.work.causes == causes
    assert not eng.roots.grown


# -- budget ---------------------------------------------------------------------

MODES = ("pushdown", "finite")


def _exceeds(budget: Budget, mode: str) -> str:
    with pytest.raises(BudgetExceeded) as exc:
        analyze(corpus_program("receiver_split"), Policy(mode=mode), budget)
    return exc.value.what


def test_budget_nodes_exceeded():
    for mode in MODES:
        assert _exceeds(Budget(max_nodes=2), mode) == "nodes", mode


def test_budget_edges_exceeded():
    for mode in MODES:
        assert _exceeds(Budget(max_edges=1), mode) == "edges", mode


def test_budget_time_exceeded():
    for mode in MODES:
        assert _exceeds(Budget(max_seconds=-1.0), mode) == "time", mode


def test_budget_time_checked_inside_drain():
    # edges wait for the closure maps, but the budget is already spent
    eng = _PushdownEngine(corpus_program("receiver_split"), Policy(),
                          Budget(max_seconds=-1.0))
    q0 = eng.dsg.initial
    eng.pending_edges.append((q0, EPSILON, q0))
    with pytest.raises(BudgetExceeded) as exc:
        eng.drain()
    assert exc.value.what == "time"


# -- against the bounded-stack oracle ------------------------------------------------

@pytest.mark.parametrize("name", ["try_complete", "throw_across_call",
                                  "handler_scope_direct"])
def test_summaries_match_bounded_explorer(name):
    lp = corpus_program(name)
    policy = Policy(gc=False)
    dsg = analyze(lp, policy)
    _, visible = frames_beneath(dsg)

    def stores(q):
        return visible.get(q, {})

    g = explore_configs(lp, policy, stores=stores)
    assert not g.truncated
    assert g.states() == dsg.nodes

    pairs, truncated = net_empty_pairs(lp, policy, dsg.nodes, stores)
    assert not truncated
    assert epsilon_closure(dsg.edges) == pairs

    for q, tops in g.top_frames().items():
        assert tops <= dsg.iecg.tf(q)
    # the stack summaries are kept under GC only: check them on a GC-on
    # run, against real stacks explored with its stores
    on = analyze(lp, Policy())
    _, visible_on = frames_beneath(on)
    g_on = explore_configs(lp, Policy(),
                           stores=lambda q: visible_on.get(q, {}))
    assert not g_on.truncated
    for q, frames in g_on.stack_frames().items():
        assert call_fps(frames) <= stack_roots(on, q)


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
def test_gc_off_keeps_no_stack_summary(name):
    # the root graph's one reader is the collection: with GC off
    # neither engine builds one, and none indexes a pending pointer
    lp = named_program(name)
    for policy in [p for p in POLICIES if not p.gc]:
        eng = ENGINES[policy.mode](lp, policy, Budget())
        dsg = eng.run()
        assert eng.roots is None and dsg.roots is None, policy
        assert not eng.waiting, policy
