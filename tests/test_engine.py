"""State-graph engine: worklist fixpoint, closure maps, summaries, budgets."""

import re
from collections import deque

import pytest

import anfj.engine as engine_module

from anfj.domain import (
    BOTTOM, CallFrame, ControlState, EPSILON, FP0A, FramePtr, HandlerFrame,
    ObjPtr, Policy, Pop, Push, next as abstract_next, state_key, store_join,
)
from anfj.engine import (
    Budget, BudgetExceeded, IECG, Worklist, _PushdownEngine, analyze,
    process_pop, process_push, propagate,
)
from anfj.gc import eagc
from anfj.machine import Addr, Value
from anfj.syntax import (
    Assign, Invoke, New, PopHandler, Return, Throw, TryCatch, VarRef,
)

from helpers import CHAINS, corpus_names, corpus_program, named_program
from oracles import (
    call_fps, explore_configs, least_psf, net_empty_pairs, update_psf,
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
    assert len(dsg.nodes) == len(lp.all_labels())
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
    # nothing new: no node, no edge, no growth of a full store
    lp = corpus_program(name)
    dsg = analyze(lp, policy)
    for q in sorted(dsg.nodes, key=state_key):
        full = dsg.full_stores.get(q, {})
        psf = dsg.iecg.psf.get(q, set())
        want = eagc(q, full, psf, lp, policy) if policy.gc else full
        assert dsg.node_store(q) == want
        for kappa in dsg.iecg.tf(q):
            top = None if kappa is BOTTOM else kappa
            for q2, act, sg2 in abstract_next(lp, q, dsg.node_store(q),
                                              top, policy):
                assert q2 in dsg.nodes
                assert (q, act, q2) in dsg.edges
                full2 = dsg.full_stores.get(q2, {})
                assert store_join(full2, sg2) is full2


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
def test_unbound_reads_are_unbound_at_the_fixpoint(name):
    # a diagnostic of an intermediate step, whose store had not yet
    # grown, must not survive: some node at the label still lacks the
    # binding in its final visible store
    lp = named_program(name)
    for policy in POLICIES:
        dsg = analyze(lp, policy)
        reads = {}
        for label, reason in dsg.diagnostics:
            m = re.fullmatch(r"unbound read of '(\w+)'", reason)
            if m:
                reads[label] = reads.get(label, set()) | {m.group(1)}
        if name == "unbound_local":
            assert reads, policy
        for label, names in reads.items():
            for var in names:
                assert any(not dsg.node_store(q).get(Addr(var, q.fp))
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


@pytest.mark.parametrize("name", corpus_names() + list(CHAINS))
def test_worklist_order_changes_no_output(name, monkeypatch):
    # the result is the least fixpoint, whatever order reaches it; the
    # one core builds the worklist of both modes, and POLICIES has both
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
    s = next(lp.stmt(l) for l in lp.all_labels()
             if isinstance(lp.stmt(l), Assign)
             and isinstance(lp.stmt(l).exp, VarRef))
    q = ControlState(s, FP0A, ())
    policy = Policy()
    sigma = eagc(q, {}, set(), lp, policy)
    assert abstract_next(lp, q, sigma, None, policy) == []


def test_step_throw_over_two_classes_yields_two_records():
    lp = corpus_program("throw_across_call")
    s = next(lp.stmt(l) for l in lp.all_labels()
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
    call = next(lp.stmt(l) for l in lp.all_labels()
                if isinstance(lp.stmt(l), Assign)
                and isinstance(lp.stmt(l).exp, Invoke))
    dsg_off = analyze(lp, Policy(gc=False))
    q = the_node(dsg_off, lambda s: s is call)
    sigma = dsg_off.node_store(q)
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
    s = next(lp.stmt(l) for l in lp.all_labels()
             if isinstance(lp.stmt(l), TryCatch))
    q = ControlState(s, FP0A, ())
    policy = Policy()
    sigma = eagc(q, {}, set(), lp, policy)
    [(q2, act, _)] = abstract_next(lp, q, sigma, None, policy)
    assert isinstance(act, Push) and isinstance(act.frame, HandlerFrame)
    assert q2.stmt is s.body[0]


# -- closure map algebra -----------------------------------------------------------

def _states(lp, n):
    labels = lp.all_labels()[:n]
    return [ControlState(lp.stmt(l), FP0A, ()) for l in labels]


def test_propagate_base_case():
    lp = corpus_program("var_chain")
    s1, s2 = _states(lp, 2)
    f = CallFrame("r", lp.stmt(1), FP0A)
    iecg = IECG()
    iecg.top_frames[s1] = {f}
    propagate(s1, s2, iecg)
    assert s2 in iecg.eps_succ[s1]
    assert s1 in iecg.eps_pred[s2]
    assert f in iecg.tf(s2)


def test_propagate_closes_transitively():
    lp = corpus_program("var_chain")
    a, b, c = _states(lp, 3)
    iecg = IECG()
    propagate(a, b, iecg)
    propagate(b, c, iecg)
    # oracle: reachability over {(a,b),(b,c)}
    closure = {(a, b), (b, c), (a, c)}
    for x, y in closure:
        assert y in iecg.eps_succ.get(x, set())
        assert x in iecg.eps_pred.get(y, set())
    assert c in iecg.eps_succ[a]


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
    # the deltas drain pushes add up to what re-unioning every
    # predecessor's whole PSF would give, and to no more
    lp = corpus_program(name)
    for policy in [p for p in POLICIES if p.mode == "pushdown"]:
        dsg = analyze(lp, policy)
        iecg = dsg.iecg
        push_preds: dict = {}
        for s1, act, s2 in dsg.edges:
            if isinstance(act, Push):
                push_preds.setdefault(s2, set()).add(s1)
        nodes = sorted(dsg.nodes, key=state_key)
        for s in nodes:
            assert iecg.psf.get(s, set()) == update_psf(
                s, iecg.top_frames, iecg.psf, push_preds, iecg.eps_pred)
        least = least_psf(nodes, iecg.top_frames, push_preds, iecg.eps_pred)
        assert {s: fps for s, fps in iecg.psf.items() if fps} == \
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
        assert iecg.pfp[(s, g)] == {s1}
    snap = ({k: set(v) for k, v in iecg.top_frames.items()},
            {k: set(v) for k, v in iecg.pfp.items()})
    process_push(s1, g, s2, iecg)
    assert snap == ({k: set(v) for k, v in iecg.top_frames.items()},
                    {k: set(v) for k, v in iecg.pfp.items()})


def test_psf_growth_marks_root_growth_only_for_new_call_frame_pointers():
    lp = corpus_program("var_chain")
    s1, s2 = _states(lp, 2)
    fp1 = FramePtr(1, ())
    iecg = IECG()
    h = HandlerFrame("E", "e", lp.stmt(1), fp1)
    r = CallFrame("r", lp.stmt(1), fp1)
    q = CallFrame("q", lp.stmt(2), fp1)
    process_push(s1, h, s2, iecg)
    assert iecg.dirty_psf == [] and not iecg.psf.get(s2)  # owns no root
    process_push(s1, r, s2, iecg)
    assert iecg.dirty_psf == [(s2, [fp1])]
    process_push(s1, q, s2, iecg)
    assert iecg.dirty_psf == [(s2, [fp1])]    # same pointer, same roots
    assert iecg.psf[s2] == {fp1}


def test_process_pop_empty_pfp_is_inert():
    lp = corpus_program("var_chain")
    s1, s2 = _states(lp, 2)
    g = CallFrame("r", lp.stmt(1), FP0A)
    iecg = IECG()
    assert process_pop(s1, g, s2, iecg) == []
    assert not iecg.eps_succ and not iecg.eps_pred


def test_process_pop_single_source_behaves_as_propagate():
    lp = corpus_program("var_chain")
    q0, s1, s2 = _states(lp, 3)
    g = CallFrame("r", lp.stmt(1), FP0A)

    popped = IECG()
    popped.top_frames[s1] = {g}
    popped.pfp[(s1, g)] = {q0}
    pairs = process_pop(s1, g, s2, popped)
    assert pairs == [(q0, s2)]

    plain = IECG()
    plain.top_frames[s1] = {g}
    plain.pfp[(s1, g)] = {q0}
    propagate(q0, s2, plain)
    assert popped.eps_succ == plain.eps_succ
    assert popped.eps_pred == plain.eps_pred
    assert popped.top_frames == plain.top_frames
    assert popped.psf == plain.psf


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
    for s, succs in iecg.eps_succ.items():
        for s2 in succs:
            assert s in iecg.eps_pred.get(s2, set())
    for s2, preds in iecg.eps_pred.items():
        for s in preds:
            assert s2 in iecg.eps_succ.get(s, set())
    for s in dsg.nodes:
        assert call_fps(iecg.tf(s)) <= iecg.psf.get(s, set())
    for (s, f) in iecg.pfp:
        assert f in iecg.tf(s)
    assert BOTTOM in iecg.tf(dsg.initial)


def test_analysis_is_deterministic():
    lp = corpus_program("handler_scope_wrapped")
    a = analyze(lp, Policy())
    b = analyze(lp, Policy())
    assert a.nodes == b.nodes and a.edges == b.edges
    assert {q: a.node_store(q) for q in a.nodes} == \
           {q: b.node_store(q) for q in b.nodes}


# -- step causes ------------------------------------------------------------------

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
    stores = dsg.node_store

    g = explore_configs(lp, policy, stores=stores)
    assert not g.truncated
    assert g.states() == dsg.nodes

    pairs, truncated = net_empty_pairs(lp, policy, dsg.nodes, stores)
    assert not truncated
    engine_pairs = {(s, s2) for s, succs in dsg.iecg.eps_succ.items()
                    for s2 in succs}
    assert engine_pairs == pairs

    for q, tops in g.top_frames().items():
        assert tops <= dsg.iecg.tf(q)
    for q, frames in g.stack_frames().items():
        assert call_fps(frames) <= dsg.iecg.psf.get(q, set())
